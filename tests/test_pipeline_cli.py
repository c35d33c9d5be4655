import contextlib
import io
import json
import logging
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import segspell
from segspell import cli, pipeline
from segspell.fileio import DataError
from segspell.metrics import score_corpus


@pytest.fixture(scope="module")
def tiny_pcfg():
    from dataclasses import replace
    cfg = pipeline.PipelineConfig()
    return replace(cfg, train=replace(cfg.train, max_epochs=8),
                   adapt_train=replace(cfg.adapt_train, max_epochs=8))


@pytest.fixture(scope="module")
def split(small_corpus):
    s1 = pipeline.split_by_signer(small_corpus)["S1"]
    rng = np.random.default_rng(0)
    idx = rng.permutation(len(s1))
    return [s1[i] for i in idx[:44]], [s1[i] for i in idx[44:]]


@pytest.fixture(scope="module")
def recognizer(split, tiny_pcfg, small_corpus, alphabet):
    train, _ = split
    return pipeline.build_recognizer(train, alphabet, tiny_pcfg,
                                     small_corpus.word_list)


class TestPipeline:
    def test_dependent_decode_is_accurate(self, recognizer, split):
        _, test = split
        scores = pipeline.evaluate(recognizer, test)
        assert scores["ler"] <= 15.0

    def test_recognizer_bundle_roundtrip(self, recognizer, split, tmp_path,
                                         tiny_pcfg, alphabet):
        from segspell.scrf import FeatureContext, LmFeature
        _, test = split
        d = str(tmp_path / "rec")
        pipeline.save_recognizer(recognizer, d)
        loaded = pipeline.load_recognizer(d, tiny_pcfg)
        p1 = pipeline.decode_words(recognizer, test[:5])
        p2 = pipeline.decode_words(loaded, test[:5])
        assert [h for _, h in p1] == [h for _, h in p2]
        # the LM feature sees the same label-pair values after a reload,
        # START row, <s> column and </s> row included
        labels = alphabet.symbols
        m1, m2 = (LmFeature().pair_matrix(FeatureContext(1, lm=r.lm), labels)
                  for r in (recognizer, loaded))
        np.testing.assert_allclose(m2, m1, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("transform", ["linear", "log"])
    def test_observations_match_per_frame_tandem(self, recognizer, split, transform):
        from dataclasses import replace
        from segspell.classifier import FramePosteriors, build_tandem_observation
        _, test = split
        cfg = replace(recognizer.cfg,
                      frontend=replace(recognizer.cfg.frontend, transform=transform))
        posts = [recognizer.posteriors(w) for w in test]
        pca_post, pca_img = pipeline.fit_frontend_pcas(test, posts, cfg)
        rec = replace(recognizer, cfg=cfg, pca_post=pca_post, pca_image=pca_img)
        for w, post in zip(test[:4], posts):
            obs = rec.observations(w)
            rows = [build_tandem_observation(FramePosteriors(letters=post[t]),
                                             w.descriptors[t], "letter", pca_post,
                                             pca_img, transform)
                    for t in range(w.num_frames)]
            np.testing.assert_allclose(obs, np.array(rows), rtol=0, atol=1e-12)
            assert np.array_equal(rec.observations(w, post), obs)

    def test_adaptation_split_deterministic(self, small_corpus):
        s2 = pipeline.split_by_signer(small_corpus)["S2"]
        a1, e1 = pipeline.adaptation_split(s2, 0.2, 7)
        a2, e2 = pipeline.adaptation_split(s2, 0.2, 7)
        assert [w.word for w in a1] == [w.word for w in a2]
        assert len(a1) == round(0.2 * len(s2))
        assert len(a1) + len(e1) == len(s2)

    def test_fold_assignment_reproducible(self, small_corpus):
        s1 = pipeline.split_by_signer(small_corpus)["S1"]
        f1 = pipeline.dependent_folds(s1, 10, 3)
        f2 = pipeline.dependent_folds(s1, 10, 3)
        assert [[w.word for w in f] for f in f1] == [[w.word for w in f] for f in f2]
        assert sum(len(f) for f in f1) == len(s1)

    def test_ground_truth_frame_labels(self, small_corpus, alphabet):
        w = small_corpus.words[0]
        labels = pipeline.ground_truth_frame_labels(w, alphabet)
        assert len(labels) == w.num_frames
        assert labels[0] == alphabet.letter_index("<s>")
        assert labels[-1] == alphabet.letter_index("</s>")

    def test_forced_alignment_labels_match_length(self, recognizer, split,
                                                  alphabet):
        _, test = split
        labels = pipeline.forced_alignment_frame_labels(recognizer, test[0], alphabet)
        assert len(labels) == test[0].num_frames


# Damage done to a file decode reads: cut at a fraction of its length, one
# byte set at a fraction of its length, the whole file swapped for random
# JSON, or one node at depth at most 2 of its JSON (the first line of a
# lattice) swapped for random JSON
RANDOM_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 50) | st.floats(-1e3, 1e3) | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids,
                                                             max_size=3),
    max_leaves=6)
DAMAGE = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0, 1, exclude_max=True)),
    st.tuples(st.just("byte"), st.tuples(st.floats(0, 1, exclude_max=True),
                                         st.integers(0, 255))),
    st.tuples(st.just("file"), RANDOM_JSON),
    st.tuples(st.just("node"), st.tuples(st.integers(0, 10 ** 6), RANDOM_JSON)))


def _nodes(obj, at=()):
    """Paths of the nodes of a JSON value, at most 2 steps below the top."""
    yield at
    if len(at) < 2 and isinstance(obj, (dict, list)):
        for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from _nodes(value, at + (key,))


def damage_file(path, damage):
    raw = path.read_bytes()
    kind, arg = damage
    if kind == "truncate":
        raw = raw[:int(arg * len(raw))]
    elif kind == "byte":
        at = int(arg[0] * len(raw))
        raw = raw[:at] + bytes([arg[1]]) + raw[at + 1:]
    elif kind == "file":
        raw = json.dumps(arg).encode()
    else:
        first, rest = raw, b""
        if path.suffix == ".jsonl":
            first, _, rest = raw.partition(b"\n")
        try:
            obj = json.loads(first)
        except ValueError:   # a matrix or an ARPA file
            obj = None
        paths = list(_nodes(obj))
        where = paths[arg[0] % len(paths)]
        if not where:
            obj = arg[1]
        else:
            parent = obj
            for key in where[:-1]:
                parent = parent[key]
            parent[where[-1]] = arg[1]
        raw = json.dumps(obj).encode() + (b"\n" + rest if rest else b"")
    path.write_bytes(raw)


class TestCliChain:
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("cli")
        assert cli.main(["gen-data", "--out", str(d / "corpus"), "--wordlist", "1",
                         "--words", "10", "--signers", "2", "--seed", "5"]) == 0
        return d

    def test_gen_data_artifacts(self, workdir):
        manifest = json.load(open(workdir / "corpus" / "manifest.json"))
        assert len(manifest["entries"]) == 40
        assert os.path.exists(workdir / "corpus" / "run_record.json")

    def test_full_chain_to_score(self, workdir):
        d = workdir
        assert cli.main(["train-lm", "--out", str(d / "lm.arpa"),
                         "--wordlist", "1", "--words", "40"]) == 0
        assert cli.main(["train-classifier", "--corpus", str(d / "corpus"),
                         "--out", str(d / "clf.json"), "--signers", "S1",
                         "--curve", str(d / "curve.csv"), "--seed", "5"]) == 0
        assert cli.main(["train-hmm", "--corpus", str(d / "corpus"),
                         "--classifier", str(d / "clf.json"),
                         "--lm", str(d / "lm.arpa"),
                         "--out", str(d / "rec"), "--signers", "S1",
                         "--seed", "5"]) == 0
        assert cli.main(["decode", "--recognizer", str(d / "rec"),
                         "--corpus", str(d / "corpus"), "--signers", "S1",
                         "--out", str(d / "hyps.txt"),
                         "--refs", str(d / "refs.txt")]) == 0
        assert cli.main(["score", "--ref", str(d / "refs.txt"),
                         "--hyp", str(d / "hyps.txt"),
                         "--json", str(d / "score.json"),
                         "--report", str(d / "score.txt")]) == 0
        scores = json.load(open(d / "score.json"))
        assert scores["ler"] <= 20.0
        assert "D_rate" in scores
        assert open(d / "curve.csv").read().startswith("epoch,")

    def test_score_identical_files_zero(self, workdir, tmp_path):
        refs = tmp_path / "r.txt"
        refs.write_text("w0 TULIP\nw1 ROAD\n")
        assert cli.main(["score", "--ref", str(refs), "--hyp", str(refs),
                         "--json", str(tmp_path / "s.json")]) == 0
        assert json.load(open(tmp_path / "s.json"))["ler"] == 0.0

    def test_missing_model_exit_3_names_producer(self, workdir, capsys):
        rc = cli.main(["decode", "--recognizer", str(workdir / "nope"),
                       "--corpus", str(workdir / "corpus"),
                       "--out", str(workdir / "x.txt")])
        assert rc == 3
        assert "train-hmm" in capsys.readouterr().err

    def test_bad_config_exit_2(self, workdir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = cli.main(["train-lm", "--out", str(tmp_path / "lm.arpa"),
                       "--wordlist", "1", "--config", str(bad)])
        assert rc == 2

    @pytest.mark.parametrize("bad, field", [
        pytest.param({"adaptation": {"fraction": 1.5}}, "fraction", id="fraction"),
        pytest.param({"frontend": {"transform": "sqrt"}}, "frontend.transform",
                     id="transform"),
        pytest.param({"scrf": {"max_duration": "x"}}, "scrf.max_duration",
                     id="scrf-number"),
        pytest.param({"scrf": {"max_duration": 0}}, "scrf.max_duration",
                     id="scrf-max-duration"),
        pytest.param({"scrf": {"max_duration": 5, "min_letter_duration": 6}},
                     "scrf.min_letter_duration", id="scrf-min-letter-duration"),
        pytest.param({"scrf": {"min_letter_duration": 0}},
                     "scrf.min_letter_duration", id="scrf-min-letter-duration-0"),
        pytest.param({"scrf": {"nbest": 0}}, "scrf.nbest", id="scrf-nbest"),
        pytest.param({"scrf": {"ref_policy": "bogus"}}, "scrf.ref_policy",
                     id="scrf-ref-policy"),
        # the ground-truth policy under another name: no caller aligns spans
        pytest.param({"scrf": {"ref_policy": "add-forced-alignment"}}, "scrf.ref_policy",
                     id="scrf-ref-policy-forced-alignment"),
        pytest.param({"hmm": {"em_iters": "x"}}, "hmm.em_iters", id="em-iters-number"),
        pytest.param({"frontend": {"window": 4}}, "frontend.window", id="window-even"),
        pytest.param({"frontend": {"window": 0}}, "frontend.window", id="window-0"),
        pytest.param({"classifier": {"arch": "ab"}}, "classifier.arch", id="arch"),
        pytest.param({"hmm": {"letter_states": 0}}, "hmm.letter_states",
                     id="letter-states"),
        pytest.param({"folds": 2, "report_folds": 1}, "folds", id="folds"),
        pytest.param({"folds": 4, "report_folds": 5}, "report_folds",
                     id="report-folds"),
        pytest.param({"data": {"signers": "x"}}, "data.signers", id="data-signers"),
        pytest.param({"data": {"repetitions": 0}}, "data.repetitions",
                     id="data-repetitions"),
        pytest.param({"data": {"words": "x"}}, "data.words", id="data-words"),
        pytest.param({"frontend": {"hog_pca": "x"}}, "frontend.hog_pca", id="hog-pca"),
        pytest.param({"classifier": {"dropout": 1.0}}, "classifier.dropout",
                     id="dropout-1"),
        pytest.param({"classifier": {"dropout": 1.5}}, "classifier.dropout",
                     id="dropout-1.5"),
        pytest.param({"classifier": {"validation_fraction": 1.0}},
                     "classifier.validation_fraction", id="validation-fraction-1"),
        pytest.param({"classifier": {"validation_fraction": 2}},
                     "classifier.validation_fraction", id="validation-fraction-2"),
        # each of these crashed in synthgen after loading
        pytest.param({"generator": {"jitter": "x"}}, "generator.jitter",
                     id="generator-jitter"),
        pytest.param({"generator": {"wobble_circles": -1}}, "generator.wobble_circles",
                     id="generator-wobble-circles--1"),
        pytest.param({"generator": {"wobble_circles": 2.5}}, "generator.wobble_circles",
                     id="generator-wobble-circles-2.5"),
        pytest.param({"generator": {"speed_ratio": 0}}, "generator.speed_ratio",
                     id="generator-speed-ratio"),
        pytest.param({"generator": {"letter_duration": [14.0, 8.0]}},
                     "generator.letter_duration", id="generator-letter-duration"),
        # written as JSON NaN and Infinity
        pytest.param({"classifier": {"learning_rate": float("nan")}},
                     "classifier.learning_rate", id="learning-rate-nan"),
        pytest.param({"hmm": {"decode": {"lm_weight": float("inf")}}},
                     "hmm.decode.lm_weight", id="lm-weight-inf"),
        pytest.param({"hmm": {"letter_states": 2.9}}, "hmm.letter_states",
                     id="letter-states-float"),
        pytest.param({"seed": "7"}, "seed", id="seed-string"),
        pytest.param({"scrf": {"epochs": -3}}, "scrf.epochs", id="scrf-epochs"),
        pytest.param({"scrf": {"learning_rate": -1}}, "scrf.learning_rate",
                     id="scrf-learning-rate"),
        pytest.param({"scrf": {"l1": -1}}, "scrf.l1", id="scrf-l1"),
        pytest.param({"scrf": {"l2": -5}}, "scrf.l2", id="scrf-l2"),
    ])
    def test_bad_fraction_exit_2(self, workdir, tmp_path, capsys, bad, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))
        rc = cli.main(["train-classifier", "--corpus", str(workdir / "corpus"),
                       "--out", str(tmp_path / "m.json"), "--config", str(cfg)])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("bad, path", [
        pytest.param({"hmm": {"em_iter": 3}, "bogus": {}}, "hmm.em_iter", id="typo"),
        pytest.param({"bogus": {}}, "bogus", id="section"),
        pytest.param({"hmm": {"decode": {"beam": 10}}}, "hmm.decode.beam", id="nested"),
        pytest.param({"adaptation": {"dropout": 0.1}}, "adaptation.dropout",
                     id="adaptation-dropout"),
        pytest.param({"classifier": {"seed": 3}}, "classifier.seed", id="stage-seed"),
        pytest.param({"classifier": {"plateau_patience": 3}}, "classifier.plateau_patience",
                     id="plateau-patience"),
        pytest.param({"scrf": {"rescoring_kinds": ["max"]}}, "scrf.rescoring_kinds",
                     id="rescoring-kinds"),
        pytest.param({"generator": {"speed": 2.0}}, "generator.speed", id="generator"),
        pytest.param({"hmm": 3}, "hmm", id="not-a-section"),
        # the tandem classifier block is always the letter posteriors
        pytest.param({"frontend": {"mode": "letter"}}, "frontend.mode", id="frontend-mode"),
    ])
    def test_unknown_config_key_exit_2(self, workdir, tmp_path, capsys, bad, path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))
        rc = cli.main(["train-classifier", "--corpus", str(workdir / "corpus"),
                       "--out", str(tmp_path / "m.json"), "--config", str(cfg)])
        assert rc == 2
        assert path in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_every_config_key_is_read(self):
        from dataclasses import replace
        # one non-default legal value per key
        full = {"seed": 3, "folds": 12, "report_folds": 2,
                "data": {"signers": 2, "repetitions": 1, "words": 5, "wordlist": "2"},
                "frontend": {"window": 3, "pca_classifier": 6, "pca_image": 4,
                             "transform": "log", "hog_pca": 7},
                "classifier": {"arch": [8], "learning_rate": 0.1, "momentum": 0.5,
                               "weight_decay": 0.0, "dropout": 0.2,
                               "validation_fraction": 0.2, "batch_size": 7,
                               "max_epochs": 3},
                "adaptation": {"fraction": 0.3, "learning_rate": 0.1, "momentum": 0.5,
                               "weight_decay": 0.0, "batch_size": 7, "max_epochs": 3},
                "hmm": {"letter_states": 2, "silence_states": 4, "gmm_components": 1,
                        "em_iters": 1,
                        "decode": {"lm_weight": 2.0, "penalty": 1.0, "nbest": 3}},
                "scrf": {"max_duration": 20, "min_letter_duration": 1,
                         "learning_rate": 1.0, "epochs": 2, "l1": 0.1, "l2": 0.0,
                         "nbest": 2, "init_scale": 1.0, "ref_policy": "drop-example"},
                "generator": {"letter_duration": [6.0, 9.0], "doubled_scale": 1.5,
                              "jitter": 0.01, "wobble_circles": 2, "wobble_step": 0.4,
                              "dwell_ramp": 3.0, "peak_hold": 1, "min_transition": 1.0,
                              "appearance_strength": 0.5, "bias_strength": 0.2,
                              "speed_ratio": 1.5, "image_size": [32, 40]}}

        def leaves(d, prefix=""):
            for k, v in d.items():
                if isinstance(v, dict):
                    yield from leaves(v, prefix + k + ".")
                else:
                    yield prefix + k, v

        values = dict(leaves(full))
        assert set(values) == cli.config_keys()
        default = replace(cli.load_config(), raw={})
        for key, value in values.items():
            for part in reversed(key.split(".")):
                value = {part: value}
            loaded = replace(cli.load_config(None, value), raw={})
            assert loaded != default, key

    def test_zero_em_iterations_valid(self):
        assert cli.load_config(None, {"hmm": {"em_iters": 0}}).pipeline.em_iters == 0

    def test_loaded_defaults_are_the_dataclass_defaults(self):
        from segspell import synthgen
        cfg = cli.load_config()
        assert cfg.pipeline == pipeline.PipelineConfig()
        assert cfg.scrf == pipeline.ScrfConfig()
        assert cfg.generator == synthgen.GeneratorConfig()

    @pytest.mark.parametrize("name", ["classifier.json", "hmm.json"])
    def test_non_finite_model_file_exit_3(self, workdir, tmp_path, capsys, name):
        import re
        import shutil
        bundle = tmp_path / "rec"
        shutil.copytree(workdir / "rec", bundle)
        text = (bundle / name).read_text()
        # the first decimal number becomes a JSON NaN
        text, n = re.subn(r"-?\d+\.\d+([eE][-+]?\d+)?", "NaN", text, count=1)
        assert n == 1
        (bundle / name).write_text(text)
        rc = cli.main(["decode", "--recognizer", str(bundle),
                       "--corpus", str(workdir / "corpus"), "--signers", "S1",
                       "--out", str(tmp_path / "hyps.txt")])
        assert rc == 3
        assert str(bundle / name) in capsys.readouterr().err
        assert not (tmp_path / "hyps.txt").exists()

    def test_bad_bundle_frontend_exit_3(self, workdir, tmp_path, capsys):
        import shutil
        bundle = tmp_path / "rec"
        shutil.copytree(workdir / "rec", bundle)
        frontend = json.loads((bundle / "frontend.json").read_text())
        frontend["window"] = 4
        (bundle / "frontend.json").write_text(json.dumps(frontend))
        rc = cli.main(["decode", "--recognizer", str(bundle),
                       "--corpus", str(workdir / "corpus"), "--signers", "S1",
                       "--out", str(tmp_path / "hyps.txt")])
        assert rc == 3
        err = capsys.readouterr().err
        assert str(bundle / "frontend.json") in err and "window" in err
        assert not (tmp_path / "hyps.txt").exists()

    def test_non_finite_weights_not_saved_exit_3(self, workdir, tmp_path, capsys):
        # a learning rate of 1000 overflows the classifier's weights, which
        # stops training at the first overflow, with no NumPy warning
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"classifier": {"learning_rate": 1000}}))
        out = tmp_path / "clf.json"
        rc = cli.main(["train-classifier", "--config", str(cfg), "--corpus",
                       str(workdir / "corpus"), "--signers", "S1", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3
        assert "classifier.learning_rate: training diverged at epoch" in err and "Traceback" not in err
        assert not out.exists()

    # model files that are JSON but not what their readers expect, or that
    # do not fit the rest of the bundle
    BROKEN_MODELS = {
        "classifier.json-schema": lambda m: m.update(schema="segspell-mlp-0"),
        "classifier.json-row": lambda m: m["layers"][0]["W"].pop(),
        "classifier.json-window": lambda m: [row.pop() for row in m["layers"][0]["W"]],
        "hmm.json-schema": lambda m: m.update(schema="segspell-hmm-0"),
        "hmm.json-means": lambda m: m["means"].pop(),
        "pca.json-row": lambda m: m["classifier_block"]["components"].pop(),
        "pca.json-output": lambda m: [m["classifier_block"][k].pop()
                                      for k in ("components", "variances")],
        "pca.json-input": lambda m: [row.pop() for row in [m["image_block"]["mean"]]
                                     + m["image_block"]["components"]],
        "manifest.json-entries": lambda m: m.pop("entries"),
        "manifest.json-stem": lambda m: m["entries"][0].update(stem=7),
        # an entry must name the word, signer and seed key of its word file
        "manifest.json-signer": lambda m: m["entries"][0].update(signer=7),
        "manifest.json-word": lambda m: m["entries"][0].update(word=None),
        "manifest.json-signers-null": lambda m: m.update(signers=None),
        "manifest.json-signers-int": lambda m: m.update(signers=5),
        "manifest.json-signers-empty": lambda m: m.update(signers=[]),
        "manifest.json-signers-items": lambda m: m.update(signers=["S1", 2]),
        "manifest.json-seed": lambda m: m.update(seed="x"),
        "manifest.json-seed-float": lambda m: m.update(seed=1.5),
        "manifest.json-word_list": lambda m: m.pop("word_list"),
        "manifest.json-word_list-items": lambda m: m.update(word_list=[1, 2]),
        "manifest.json-repetitions": lambda m: m.update(repetitions=0),
        "manifest.json-repetitions-type": lambda m: m.update(repetitions="2"),
    }

    @pytest.mark.parametrize("target", ["classifier.json", "word.json", "word.fmat",
                                        "word.fmat-width"] + sorted(BROKEN_MODELS))
    def test_unreadable_input_file_exit_3(self, workdir, tmp_path, capsys, target):
        # a bundle file or a corpus word file that is not JSON, a descriptor
        # matrix cut short or a column narrower than the classifier reads,
        # a model of another schema or with a lost row of weights or a lost
        # state, and a corpus manifest without entries, with a stem that is
        # not a string, an entry that disagrees with its word file, or with
        # a top-level field of the wrong type or value, each name the file
        # without a traceback
        import shutil
        from segspell.fileio import read_matrix, write_matrix
        shutil.copytree(workdir / "rec", tmp_path / "rec")
        shutil.copytree(workdir / "corpus", tmp_path / "corpus")
        stem = json.loads((tmp_path / "corpus" / "manifest.json").read_text())["entries"][0]["stem"]
        name = target.split("-")[0]
        if name.startswith("word"):
            path = tmp_path / "corpus" / (stem + name[len("word"):])
        else:
            path = tmp_path / ("corpus" if name == "manifest.json" else "rec") / name
        if target in self.BROKEN_MODELS:
            model = json.loads(path.read_text())
            self.BROKEN_MODELS[target](model)
            path.write_text(json.dumps(model))
        elif target == "word.fmat-width":
            write_matrix(str(path), read_matrix(str(path))[:, :-1])
        elif target.endswith(".fmat"):
            path.write_bytes(path.read_bytes()[:-6])
        else:
            path.write_text("{not json")
        rc = cli.main(["decode", "--recognizer", str(tmp_path / "rec"),
                       "--corpus", str(tmp_path / "corpus"), "--signers", "S1",
                       "--out", str(tmp_path / "hyps.txt")])
        err = capsys.readouterr().err
        assert rc == 3
        assert str(path) in err and "Traceback" not in err
        assert not (tmp_path / "hyps.txt").exists()

    @pytest.mark.parametrize("target", [t for t in BROKEN_MODELS
                                        if t.startswith("manifest.json-")])
    def test_run_protocol_bad_manifest_exit_3(self, workdir, tmp_path, capsys, target):
        # run-protocol reads the manifest's top-level fields through the
        # same checking reader, so it stops before training anything
        shutil.copytree(workdir / "corpus", tmp_path / "corpus")
        path = tmp_path / "corpus" / "manifest.json"
        model = json.loads(path.read_text())
        self.BROKEN_MODELS[target](model)
        path.write_text(json.dumps(model))
        rc = cli.main(["run-protocol", "--corpus", str(tmp_path / "corpus"),
                       "--out", str(tmp_path / "proto.json")])
        err = capsys.readouterr().err
        assert rc == 3
        assert str(path) in err and "Traceback" not in err
        assert not (tmp_path / "proto.json").exists()

    @pytest.mark.parametrize("command", ["decode", "align", "nbest"])
    def test_extreme_descriptor_is_searched(self, workdir, tmp_path, capsys, command):
        # the top byte of frame 0, column 1 of the second S1 word's
        # descriptors set to 0x58 (about 5e14) gives that word scores far
        # below -1e20, but finite ones: tandem Viterbi, forced alignment and
        # N-best search it like any other word.  A word with no path is
        # TestOneFrameWord's
        shutil.copytree(workdir / "corpus", tmp_path / "corpus")
        stems = [e["stem"] for e in json.loads((tmp_path / "corpus" / "manifest.json")
                                               .read_text())["entries"] if e["signer"] == "S1"]
        path = tmp_path / "corpus" / (stems[1] + ".fmat")
        raw = path.read_bytes()
        at = 12 + 4 * 1 + 3             # the header is 12 bytes, floats <f4
        path.write_bytes(raw[:at] + b"\x58" + raw[at + 1:])
        out = tmp_path / "out"
        rc = cli.main([command, "--recognizer", str(workdir / "rec"),
                       "--corpus", str(tmp_path / "corpus"), "--signers", "S1",
                       "--out", str(out)])
        assert rc == 0 and "Traceback" not in capsys.readouterr().err
        if command == "decode":
            assert stems[1] in [line.split()[0] for line in out.read_text().splitlines()]
            return
        if command == "align":
            records = {r["stem"]: [r] for r in map(json.loads, out.read_text().splitlines())}
        else:
            records = {f.name.split(".")[0]: [json.loads(line) for line in
                                              f.read_text().splitlines()]
                       for f in out.glob("*.lat.jsonl")}
        assert sorted(records) == sorted(stems)
        assert all(np.isfinite(r["score"]) for rs in records.values() for r in rs)
        assert max(r["score"] for r in records[stems[1]]) < -1e20

    @pytest.mark.parametrize("target", ["scrf-weights", "lattice-empty", "lattice-spans",
                                        "lattice-start", "lattice-later-hypothesis",
                                        "lattice-length"])
    def test_unreadable_segmental_input_exit_3(self, workdir, tmp_path, capsys, alphabet,
                                               target):
        # an SCRF file a weight short, and a lattice file that is empty, has
        # a line without spans, a first or a later hypothesis that does not
        # start at frame 0, or covers more frames than its word, each name
        # the file without a traceback
        from segspell.fileio import read_matrix
        classes = json.loads((workdir / "rec" / "classifier.json").read_text())["class_names"]
        scrf_path, lats = tmp_path / "fp.json", tmp_path / "lats"
        pipeline.build_firstpass_model(alphabet, len(classes),
                                       pipeline.ScrfConfig()).save(str(scrf_path))
        if target == "scrf-weights":
            model = json.loads(scrf_path.read_text())
            model["weights"].pop()
            scrf_path.write_text(json.dumps(model))
        stems = [e["stem"] for e in json.loads((workdir / "corpus" / "manifest.json")
                                               .read_text())["entries"] if e["signer"] == "S1"]
        t = len(read_matrix(str(workdir / "corpus" / (stems[0] + ".fmat"))))
        good = {"spans": [["<s>", 0, 2], ["A", 3, t - 1]], "score": 0.0}
        lines = {"lattice-empty": [], "lattice-spans": [{"labels": ["A"], "score": 0.0}],
                 "lattice-start": [{"spans": [["<s>", 3, 5], ["A", 6, t - 1]], "score": 0.0}],
                 "lattice-later-hypothesis": [good, {"spans": [["A", 3, t - 1]], "score": 0.0}],
                 "lattice-length": [{"spans": [["<s>", 0, 2], ["A", 3, t + 4]], "score": 0.0}],
                 }.get(target, [good])
        lats.mkdir()
        for stem in stems:
            (lats / (stem + ".lat.jsonl")).write_text("".join(json.dumps(l) + "\n" for l in lines))
        path = scrf_path if target == "scrf-weights" else lats / (stems[0] + ".lat.jsonl")
        rc = cli.main(["decode", "--recognizer", str(workdir / "rec"),
                       "--corpus", str(workdir / "corpus"), "--signers", "S1",
                       "--scrf", str(scrf_path), "--lattices", str(lats),
                       "--out", str(tmp_path / "hyps.txt")])
        err = capsys.readouterr().err
        assert rc == 3
        assert str(path) in err and "Traceback" not in err
        assert not (tmp_path / "hyps.txt").exists()

    @pytest.fixture(scope="class")
    def one_word(self, workdir, alphabet, tmp_path_factory):
        """The bundle, a one-word corpus (the first S1 word), a first-pass
        SCRF model and the word's N-best lattice."""
        d = tmp_path_factory.mktemp("one_word")
        shutil.copytree(workdir / "rec", d / "rec")
        manifest = json.loads((workdir / "corpus" / "manifest.json").read_text())
        entry = next(e for e in manifest["entries"] if e["signer"] == "S1")
        (d / "corpus").mkdir()
        for ext in (".json", ".fmat"):
            shutil.copy(workdir / "corpus" / (entry["stem"] + ext), d / "corpus")
        (d / "corpus" / "manifest.json").write_text(json.dumps(dict(manifest, entries=[entry])))
        classes = json.loads((d / "rec" / "classifier.json").read_text())["class_names"]
        pipeline.build_firstpass_model(alphabet, len(classes),
                                       pipeline.ScrfConfig()).save(str(d / "fp.json"))
        assert cli.main(["nbest", "--recognizer", str(d / "rec"), "--corpus", str(d / "corpus"),
                         "--out", str(d / "lats"), "--n", "3"]) == 0
        return d, entry["stem"]

    NBEST_READS = ("rec/classifier.json", "rec/pca.json", "rec/hmm.json", "rec/lm.arpa",
                   "rec/frontend.json", "corpus/manifest.json", "corpus/{}.json",
                   "corpus/{}.fmat")
    DECODE_READS = NBEST_READS + ("fp.json", "lats/{}.lat.jsonl")

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(target=st.sampled_from(DECODE_READS), damage=DAMAGE)
    def test_decode_refuses_damaged_input_without_traceback(self, one_word, target, damage):
        # decode, plain and rescoring lattices, and nbest exit 0, 2 or 3
        # whatever damage one of the files they read has taken
        src, stem = one_word
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            for name in ("rec", "corpus", "lats"):
                shutil.copytree(src / name, d / name)
            shutil.copy(src / "fp.json", d)
            damage_file(d / target.format(stem), damage)
            runs = [["decode", "--out", str(d / "hyps.txt")],
                    ["decode", "--out", str(d / "hyps.txt"), "--scrf", str(d / "fp.json"),
                     "--lattices", str(d / "lats")]]
            if target in self.NBEST_READS:
                runs.append(["nbest", "--out", str(d / "nbest"), "--n", "3"])
            for argv in runs:
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    rc = cli.main(argv[:1] + ["--recognizer", str(d / "rec"),
                                              "--corpus", str(d / "corpus")] + argv[1:])
                assert rc in (0, 2, 3) and "Traceback" not in err.getvalue(), argv

    def test_align_and_nbest_outputs(self, workdir):
        d = workdir
        assert cli.main(["align", "--recognizer", str(d / "rec"),
                         "--corpus", str(d / "corpus"), "--signers", "S1",
                         "--out", str(d / "ali.jsonl")]) == 0
        lines = open(d / "ali.jsonl").read().strip().split("\n")
        assert len(lines) == 20
        rec = json.loads(lines[0])
        assert rec["spans"][0][1] == 0
        assert cli.main(["nbest", "--recognizer", str(d / "rec"),
                         "--corpus", str(d / "corpus"), "--signers", "S1",
                         "--out", str(d / "lats"), "--n", "3"]) == 0
        lat_files = sorted(os.listdir(d / "lats"))
        assert any(f.endswith(".lat.jsonl") for f in lat_files)

    @pytest.mark.parametrize("argv, flag", [
        pytest.param(["gen-data", "--signers", "0"], "--signers", id="signers"),
        pytest.param(["gen-data", "--reps", "0"], "--reps", id="reps"),
        pytest.param(["gen-data", "--words", "0"], "--words", id="gen-data-words"),
        pytest.param(["train-lm", "--words", "0"], "--words", id="train-lm-words"),
        pytest.param(["adapt", "--signer", "S2", "--fraction", "0"], "--fraction",
                     id="fraction-0"),
        pytest.param(["adapt", "--signer", "S2", "--fraction", "1.5"], "--fraction",
                     id="fraction-1.5"),
        pytest.param(["nbest", "--n", "0"], "--n", id="nbest-n"),
        pytest.param(["run-protocol", "--rows", "bogus"], "--rows", id="rows"),
    ])
    def test_bad_flag_exit_2(self, workdir, tmp_path, capsys, argv, flag):
        if argv[0] in ("adapt", "nbest"):
            argv = argv + ["--recognizer", str(workdir / "rec")]
        if argv[0] not in ("gen-data", "train-lm"):
            argv = argv + ["--corpus", str(workdir / "corpus")]
        out = tmp_path / "out"
        rc = cli.main(argv + ["--out", str(out)])
        assert rc == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_decode_settings_come_from_the_config(self, workdir, tmp_path):
        # the bundle stores no decode settings: a decoding run's
        # hmm.decode values change its hypotheses
        d = workdir
        cfg = tmp_path / "decode.json"
        cfg.write_text(json.dumps({"hmm": {"decode": {"lm_weight": 50, "penalty": -30}}}))
        hyps = {}
        for name, extra in (("default", []), ("config", ["--config", str(cfg)])):
            assert cli.main(["decode", "--recognizer", str(d / "rec"),
                             "--corpus", str(d / "corpus"), "--signers", "S1",
                             "--out", str(tmp_path / name)] + extra) == 0
            hyps[name] = (tmp_path / name).read_text()
        assert hyps["config"] != hyps["default"]
        assert "decode" not in json.load(open(d / "rec" / "frontend.json"))

    def test_determinism_byte_identical_reruns(self, workdir, tmp_path):
        d = workdir
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        for out in (out1, out2):
            assert cli.main(["train-classifier", "--corpus", str(d / "corpus"),
                             "--out", str(out), "--signers", "S1",
                             "--seed", "5"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_run_record_contents(self, workdir):
        rec = json.load(open(workdir / "rec" / "run_record.json"))
        assert rec["subcommand"] == "train-hmm"
        assert "config_hash" in rec and "wall_time_s" in rec
        assert any(k.endswith("manifest.json") for k in rec["inputs"])

    def test_run_record_detects_input_drift(self, workdir, tmp_path):
        ref1 = tmp_path / "a.txt"
        ref1.write_text("w0 SUN\n")
        j1 = tmp_path / "s1.json"
        assert cli.main(["score", "--ref", str(ref1), "--hyp", str(ref1),
                         "--json", str(j1)]) == 0
        record1 = json.load(open(str(j1) + ".run.json"))
        ref1.write_text("w0 ART\n")
        assert cli.main(["score", "--ref", str(ref1), "--hyp", str(ref1),
                         "--json", str(j1)]) == 0
        record2 = json.load(open(str(j1) + ".run.json"))
        assert record1["inputs"][str(ref1)] != record2["inputs"][str(ref1)]

    def test_run_record_hashes_every_corpus_file(self, tmp_path):
        corpus = tmp_path / "c"
        assert cli.main(["gen-data", "--out", str(corpus), "--wordlist", "1",
                         "--words", "2", "--signers", "1", "--reps", "1",
                         "--seed", "4"]) == 0
        cfg = tmp_path / "fast.json"
        cfg.write_text(json.dumps({"classifier": {"max_epochs": 1}}))
        out = tmp_path / "m.json"
        argv = ["train-classifier", "--corpus", str(corpus), "--out", str(out),
                "--config", str(cfg)]
        assert cli.main(argv) == 0
        before = json.load(open(str(out) + ".run.json"))["inputs"]
        fmat = sorted(corpus.glob("*.fmat"))[0]
        raw = bytearray(fmat.read_bytes())
        raw[-1] ^= 1
        fmat.write_bytes(bytes(raw))
        assert cli.main(argv) == 0
        after = json.load(open(str(out) + ".run.json"))["inputs"]
        assert str(fmat) in before and after[str(fmat)] != before[str(fmat)]
        assert {k: v for k, v in after.items() if k != str(fmat)} == \
            {k: v for k, v in before.items() if k != str(fmat)}

    def test_seed_env_override(self, workdir, tmp_path, monkeypatch):
        monkeypatch.setenv("SEGSPELL_SEED", "123")
        out = tmp_path / "mseed.json"
        assert cli.main(["train-lm", "--out", str(out), "--wordlist", "1",
                         "--words", "5"]) == 0
        rec = json.load(open(str(out) + ".run.json"))
        assert rec["seed"] == 123


class TestOneFrameWord:
    """A corpus that loads but whose second word, AFGHANISTAN, is cut to one
    frame of boundary silence: no recognizer has a path for it."""

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory, alphabet):
        from segspell.fileio import read_matrix, write_matrix
        d = tmp_path_factory.mktemp("one_frame")
        assert cli.main(["gen-data", "--out", str(d / "good"), "--words", "4",
                         "--signers", "2", "--reps", "1"]) == 0
        assert cli.main(["train-classifier", "--corpus", str(d / "good"),
                         "--out", str(d / "clf.json")]) == 0
        assert cli.main(["train-hmm", "--corpus", str(d / "good"),
                         "--classifier", str(d / "clf.json"), "--out", str(d / "rec")]) == 0
        classes = json.loads((d / "rec" / "classifier.json").read_text())["class_names"]
        pipeline.build_firstpass_model(alphabet, len(classes),
                                       pipeline.ScrfConfig()).save(str(d / "fp.json"))
        shutil.copytree(d / "good", d / "bad")
        fmat, meta_path = d / "bad" / "S1_w0001.fmat", d / "bad" / "S1_w0001.json"
        write_matrix(str(fmat), read_matrix(str(fmat))[:1])
        meta = json.loads(meta_path.read_text())
        assert meta["word"] == "AFGHANISTAN"
        meta_path.write_text(json.dumps(dict(meta, segments=[["<s>", 0, 0]])))
        (d / "small.json").write_text(json.dumps({
            "folds": 3, "report_folds": 1, "classifier": {"max_epochs": 1},
            "adaptation": {"max_epochs": 1}, "scrf": {"epochs": 1}}))
        return d

    # the file names the word of a per-word search; a failed first-pass
    # training example gives its reference and frame count instead
    FILE, REFERENCE = "{fmat}", "1 frames carries the reference AFGHANISTAN"

    @pytest.mark.parametrize("argv, names", [
        pytest.param(["decode", "{rec}"], FILE, id="decode"),
        pytest.param(["decode", "{rec}", "--scrf", "{fp}"], FILE, id="decode-scrf"),
        pytest.param(["nbest", "{rec}"], FILE, id="nbest"),
        pytest.param(["align", "{rec}"], FILE, id="align"),
        pytest.param(["train-scrf", "{rec}"], REFERENCE, id="train-scrf-firstpass"),
        pytest.param(["train-scrf", "{rec}", "--mode", "rescoring"], FILE,
                     id="train-scrf-rescoring"),
        pytest.param(["adapt", "{rec}", "--signer", "S1", "--labels", "FA",
                      "--fraction", "0.9"], FILE, id="adapt-FA"),
        pytest.param(["cascade", "--eval-signer", "S1"], FILE, id="cascade-S1"),
        pytest.param(["cascade", "--eval-signer", "S2"], REFERENCE, id="cascade-S2"),
        pytest.param(["realign-adapt", "{rec}", "--signer", "S1"], FILE, id="realign-adapt"),
        pytest.param(["run-protocol"], FILE, id="run-protocol"),
    ])
    def test_no_path_exits_3_naming_the_word(self, corpus, tmp_path, capsys, argv, names):
        d = corpus
        fill = {"{rec}": ["--recognizer", str(d / "rec")], "{fp}": [str(d / "fp.json")]}
        argv = [a for arg in argv for a in fill.get(arg, [arg])]
        rc = cli.main(argv + ["--corpus", str(d / "bad"), "--config", str(d / "small.json"),
                              "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 3 and "Traceback" not in err
        assert names.format(fmat=d / "bad" / "S1_w0001.fmat") in err
        assert not (tmp_path / "out").exists()

    def test_run_protocol_logs_progress(self, corpus, tmp_path, capsys, caplog):
        # --verbose logs progress at INFO through the segspell logger;
        # stdout keeps only the table
        d = corpus
        caplog.set_level(logging.NOTSET, logger="segspell")   # restored after the test
        assert cli.main(["run-protocol", "--corpus", str(d / "good"), "--rows", "dependent",
                         "--config", str(d / "small.json"), "--out", str(tmp_path / "p.json"),
                         "--verbose"]) == 0
        assert [r.getMessage() for r in caplog.records if r.name == "segspell.pipeline"] == [
            "dependent %s fold 0: LER %.2f" % (sid, ler) for sid, ler in
            json.loads((tmp_path / "p.json").read_text())["ler"]["dependent"].items()
            if sid != "Mean"]
        assert capsys.readouterr().out == (tmp_path / "p.txt").read_text() + "\n"
        assert "(% of reference letters)" in (tmp_path / "p.txt").read_text()


class TestProtocolSigners:
    """run-protocol's signers are the corpus's signers with words, whatever
    the manifest's ``signers`` list names."""

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("protocol_signers")
        assert cli.main(["gen-data", "--out", str(d / "c"), "--words", "4",
                         "--signers", "2", "--reps", "1"]) == 0
        (d / "small.json").write_text(json.dumps({
            "folds": 3, "report_folds": 1, "classifier": {"max_epochs": 1}}))
        return d

    @pytest.mark.parametrize("signers, keep, rc", [
        pytest.param(["S1", "S2", "S3"], ("S1", "S2"), 0, id="signer-without-words"),
        pytest.param(["S1", "S2"], ("S1",), 3, id="one-signer-with-words")])
    def test_manifest_signers_without_words(self, corpus, tmp_path, capsys, signers, keep, rc):
        shutil.copytree(corpus / "c", tmp_path / "c")
        path = tmp_path / "c" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest.update(signers=signers,
                        entries=[e for e in manifest["entries"] if e["signer"] in keep])
        path.write_text(json.dumps(manifest))
        out = tmp_path / "p.json"
        assert cli.main(["run-protocol", "--corpus", str(tmp_path / "c"), "--rows", "dependent",
                         "--config", str(corpus / "small.json"), "--out", str(out)]) == rc
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if rc:
            assert "at least 2 signers" in err and not out.exists()
        else:
            assert json.loads(out.read_text())["signers"] == ["S1", "S2"]


def test_diverged_protocol_exit_3(tmp_path, capsys):
    # a diverged classifier stops the protocol; it used to report a table
    # of pure deletions and exit 0
    assert cli.main(["gen-data", "--out", str(tmp_path / "c"), "--words", "6",
                     "--signers", "2", "--reps", "1"]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"classifier": {"learning_rate": 1e12}, "folds": 3,
                               "report_folds": 1}))
    out = tmp_path / "p.json"
    rc = cli.main(["run-protocol", "--corpus", str(tmp_path / "c"), "--rows", "dependent",
                   "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "classifier.learning_rate: training diverged at epoch" in err and "Traceback" not in err
    assert not out.exists() and not (tmp_path / "p.txt").exists()


def test_diverged_scrf_training_shows_only_its_error(tmp_path, capsys):
    # the diverging first pass used to print four NumPy RuntimeWarnings with
    # their source lines before the error
    assert cli.main(["gen-data", "--out", str(tmp_path / "c"), "--words", "6",
                     "--signers", "3", "--reps", "1"]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scrf": {"learning_rate": 1e15, "epochs": 3},
                               "classifier": {"max_epochs": 2}, "adaptation": {"max_epochs": 2}}))
    out = tmp_path / "cascade.json"
    capsys.readouterr()
    rc = cli.main(["cascade", "--corpus", str(tmp_path / "c"), "--eval-signer", "S3",
                   "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "error: scrf.learning_rate: training diverged at epoch 3 (" in err
    assert "RuntimeWarning" not in err and "Traceback" not in err
    assert not out.exists()


EMPTY_SPLIT_CFG = {"classifier": {"max_epochs": 1}, "adaptation": {"max_epochs": 1},
                   "scrf": {"epochs": 1}}


@pytest.mark.parametrize("words, extra, argv, message", [
    # 0.2 of 2 words rounds to no adaptation word
    pytest.param(2, {}, ["cascade", "--eval-signer", "S2"],
                 "signer S2 has 2 word(s): adaptation.fraction 0.2", id="cascade"),
    pytest.param(2, {}, ["run-protocol", "--rows", "GT"],
                 "signer S1 has 2 word(s): adaptation.fraction 0.2", id="protocol-GT"),
    # two words leave a training fold of 3 empty
    pytest.param(2, {"folds": 3, "report_folds": 1}, ["run-protocol", "--rows", "dependent"],
                 "signer S1 has 2 word(s), fewer than folds=3", id="protocol-dependent"),
    # 0.6 of 1 word rounds to no evaluation word
    pytest.param(1, {"adaptation": {"max_epochs": 1, "fraction": 0.6}},
                 ["run-protocol", "--rows", "GT"],
                 "signer S1 has 1 word(s): adaptation.fraction 0.6", id="no-eval-word"),
])
def test_empty_split_exit_3(tmp_path, capsys, words, extra, argv, message):
    # an empty adaptation, evaluation or training split used to end in a
    # traceback from frame_dataset or score_corpus
    assert cli.main(["gen-data", "--out", str(tmp_path / "c"), "--words", str(words),
                     "--signers", "2", "--reps", "1"]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**EMPTY_SPLIT_CFG, **extra}))
    out = tmp_path / "out.json"
    capsys.readouterr()
    rc = cli.main(argv + ["--corpus", str(tmp_path / "c"), "--config", str(cfg),
                          "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3 and message in err and "Traceback" not in err
    assert not out.exists() and not (tmp_path / "out.txt").exists()


def test_diverged_adaptation_names_its_learning_rate(recognizer, split, alphabet):
    # adaptation and the segment classifier train with the adaptation settings
    cfg = recognizer.cfg
    rec = replace(recognizer, cfg=replace(cfg, adapt_train=replace(
        cfg.adapt_train, learning_rate=1e12)))
    with pytest.raises(DataError,
                       match="^adaptation.learning_rate: training diverged at epoch "):
        pipeline.adapt_recognizer(rec, split[1], alphabet)
    with pytest.raises(DataError,
                       match="^adaptation.learning_rate: training diverged at epoch "):
        pipeline.train_segment_classifier(rec, split[1], alphabet, rec.cfg)


def test_saved_scrf_manifests_are_pinned():
    # every saved model file is checked against these at load_scrf, so a
    # change of the feature layout would refuse them all
    from segspell.alphabet import LetterAlphabet
    alphabet, scfg = LetterAlphabet(), pipeline.ScrfConfig()
    assert pipeline.build_firstpass_model(alphabet, 28, scfg).manifest() == [
        {"name": "firstpass", "dim": 5852}]
    assert pipeline.build_rescoring_model(alphabet, 28, scfg).manifest() == [
        {"name": "lm", "dim": 1}, {"name": "baseline", "dim": 1},
        {"name": "classifier_letter_mean", "dim": 784},
        {"name": "classifier_letter_max", "dim": 784}, {"name": "peak", "dim": 28}]


def test_cli_import_leaves_scipy_sparse_out():
    # scipy.sparse loads with the first first-pass span product only
    src = os.path.dirname(os.path.dirname(segspell.__file__))
    code = "import sys, segspell.cli; print('scipy.sparse' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert out.stdout.strip() == "False"


class TestCliRunRecords:
    """All 14 subcommands through ``cli.main`` on a tiny corpus with a fast
    config: exit code, artifacts, a summary on stdout, and the run record's
    path, subcommand, seed, input keys and outputs.  A corpus input is the
    manifest plus every word's metadata and descriptor file, all of which
    the handler reads."""

    FAST = {"seed": 31, "folds": 3, "report_folds": 1,
            "classifier": {"max_epochs": 1}, "adaptation": {"max_epochs": 1},
            "hmm": {"em_iters": 0}, "scrf": {"epochs": 1, "nbest": 3}}

    def run(self, capsys, argv, record, seed, inputs, outputs):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.strip()
        for path in outputs:
            assert os.path.isfile(path), path
        rec = json.load(open(record))
        assert rec["subcommand"] == argv[0]
        assert rec["seed"] == seed
        assert sorted(rec["inputs"]) == sorted(inputs)
        assert rec["outputs"] == sorted(outputs)
        assert len(rec["config_hash"]) == 64 and rec["wall_time_s"] >= 0

    @pytest.mark.parametrize("command, extra, record, outputs", [
        pytest.param("gen-data", ["--signers", "1", "--reps", "1"], "out/run_record.json",
                     ["out/manifest.json"], id="gen-data"),
        pytest.param("train-lm", [], "out.run.json", ["out"], id="train-lm")])
    def test_wordlist_file_is_an_input(self, tmp_path, capsys, command, extra, record,
                                       outputs):
        words = tmp_path / "words.txt"
        words.write_text("sun\nart\n")
        self.run(capsys, [command, "--wordlist", str(words), "--out", str(tmp_path / "out"),
                          "--seed", "3"] + extra,
                 str(tmp_path / record), 3, [str(words)],
                 [str(tmp_path / path) for path in outputs])

    def test_every_subcommand(self, tmp_path, capsys):
        d = str(tmp_path)
        p = lambda *parts: os.path.join(d, *parts)
        cfg = p("fast.json")
        with open(cfg, "w") as f:
            json.dump(self.FAST, f)
        conf = ["--config", cfg]
        corpus = p("c", "manifest.json")

        self.run(capsys, ["gen-data", "--out", p("c"), "--wordlist", "1", "--words", "4",
                          "--signers", "2", "--reps", "2", "--seed", "9"] + conf,
                 p("c", "run_record.json"), 9, [], [corpus])
        self.run(capsys, ["gen-data", "--out", p("ic"), "--words", "2", "--signers", "1",
                          "--reps", "1", "--images"] + conf,
                 p("ic", "run_record.json"), 31, [], [p("ic", "manifest.json")])

        def corpus_files(name):
            manifest = p(name, "manifest.json")
            return [manifest] + [p(name, e["stem"] + ext)
                                 for e in json.load(open(manifest))["entries"]
                                 for ext in (".json", ".fmat")]

        stems = [e["stem"] for e in json.load(open(p("ic", "manifest.json")))["entries"]]
        # extract-features also reads every rendered frame and mask
        pngs = [p("ic", "images", s, f) for s in stems for f in os.listdir(p("ic", "images", s))]
        self.run(capsys, ["extract-features", "--corpus", p("ic"), "--out", p("feat")] + conf,
                 p("feat", "run_record.json"), 31, corpus_files("ic") + pngs,
                 [p("feat", s + ".fmat") for s in stems])
        words = corpus_files("c")
        self.run(capsys, ["train-lm", "--out", p("lm.arpa"), "--words", "10"] + conf,
                 p("lm.arpa.run.json"), 31, [], [p("lm.arpa")])
        self.run(capsys, ["train-classifier", "--corpus", p("c"), "--out", p("clf.json"),
                          "--signers", "S1", "--curve", p("curve.csv"), "--seed", "9"] + conf,
                 p("clf.json.run.json"), 9, words, [p("clf.json"), p("curve.csv")])
        self.run(capsys, ["train-hmm", "--corpus", p("c"), "--classifier", p("clf.json"),
                          "--lm", p("lm.arpa"), "--out", p("rec"), "--signers", "S1"] + conf,
                 p("rec", "run_record.json"), 31, words + [p("clf.json"), p("lm.arpa")],
                 [p("rec", "hmm.json")])
        rec = ["--recognizer", p("rec"), "--corpus", p("c")]
        # every file a handler reads: the whole bundle, not just its classifier
        bundle = [p("rec", f) for f in ("classifier.json", "pca.json", "hmm.json",
                                         "lm.arpa", "frontend.json")] + words
        self.run(capsys, ["adapt"] + rec + ["--signer", "S2", "--out", p("rec2")] + conf,
                 p("rec2", "run_record.json"), 31, bundle, [p("rec2", "classifier.json")])
        self.run(capsys, ["align"] + rec + ["--signers", "S2", "--out", p("ali.jsonl")] + conf,
                 p("ali.jsonl.run.json"), 31, bundle, [p("ali.jsonl")])
        s2 = [e["stem"] for e in json.load(open(corpus))["entries"] if e["signer"] == "S2"]
        lats = [p("lats", s + ".lat.jsonl") for s in s2]
        self.run(capsys, ["nbest"] + rec + ["--signers", "S2", "--out", p("lats"),
                                            "--n", "3"] + conf,
                 p("lats", "run_record.json"), 31, bundle, lats)
        for mode in ("firstpass", "rescoring"):
            self.run(capsys, ["train-scrf"] + rec + ["--signers", "S1", "--mode", mode,
                                                     "--out", p(mode + ".json")] + conf,
                     p(mode + ".json.run.json"), 31, bundle, [p(mode + ".json")])
        for name, extra, read in (
                ("h1", [], []),
                ("h2", ["--scrf", p("firstpass.json")], [p("firstpass.json")]),
                ("h3", ["--scrf", p("rescoring.json"), "--lattices", p("lats")],
                 [p("rescoring.json")] + lats)):
            self.run(capsys, ["decode"] + rec + ["--signers", "S2", "--out", p(name + ".txt"),
                                                 "--refs", p(name + ".ref")] + extra + conf,
                     p(name + ".txt.run.json"), 31, bundle + read,
                     [p(name + ".txt"), p(name + ".ref")])
        self.run(capsys, ["score", "--ref", p("h1.ref"), "--hyp", p("h1.txt"),
                          "--json", p("s.json"), "--report", p("s.txt")] + conf,
                 p("s.json.run.json"), 31, [p("h1.ref"), p("h1.txt")],
                 [p("s.json"), p("s.txt")])
        self.run(capsys, ["cascade", "--corpus", p("c"), "--eval-signer", "S2",
                          "--out", p("cascade.json")] + conf,
                 p("cascade.json.run.json"), 31, words, [p("cascade.json")])
        self.run(capsys, ["realign-adapt"] + rec + ["--signer", "S2", "--iters", "1",
                                                    "--out", p("realign.json")] + conf,
                 p("realign.json.run.json"), 31, bundle, [p("realign.json")])
        self.run(capsys, ["run-protocol", "--corpus", p("c"), "--out", p("proto.json"),
                          "--seed", "9"] + conf,
                 p("proto.json.run.json"), 9, words, [p("proto.json"), p("proto.txt")])


class TestImagePipeline:
    def test_gen_images_extract_features(self, tmp_path):
        d = tmp_path
        assert cli.main(["gen-data", "--out", str(d / "icorpus"), "--wordlist", "1",
                         "--words", "2", "--signers", "1", "--reps", "1",
                         "--seed", "3", "--images"]) == 0
        img_root = d / "icorpus" / "images"
        stems = os.listdir(img_root)
        assert stems
        frames = os.listdir(img_root / stems[0])
        assert any(f.startswith("f") for f in frames)
        assert any(f.startswith("m") for f in frames)
        assert cli.main(["extract-features", "--corpus", str(d / "icorpus"),
                         "--out", str(d / "feat")]) == 0
        from segspell.fileio import read_matrix
        mats = [f for f in os.listdir(d / "feat") if f.endswith(".fmat")]
        assert len(mats) == 2
        m = read_matrix(str(d / "feat" / mats[0]))
        assert m.shape[1] == 40
        assert json.loads((d / "feat" / "manifest.json").read_text()) == \
            json.loads((d / "icorpus" / "manifest.json").read_text())
        for mat in mats:   # each word's metadata is written as gen-data wrote it
            name = mat[:-len(".fmat")] + ".json"
            assert (d / "feat" / name).read_bytes() == (d / "icorpus" / name).read_bytes()

    @pytest.fixture(scope="class")
    def icorpus(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("images") / "icorpus"
        assert cli.main(["gen-data", "--out", str(out), "--wordlist", "1", "--words", "1",
                         "--signers", "1", "--reps", "1", "--seed", "3", "--images"]) == 0
        return out

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda raw: raw[:100], id="cut-in-data"),
        pytest.param(lambda raw: b"arbitrary bytes, not an image", id="not-png"),
        pytest.param(lambda raw: raw[:20], id="cut-in-header")])
    def test_damaged_frame_exit_3(self, icorpus, tmp_path, capsys, damage):
        # a rendered frame cut short or replaced names its file without a
        # traceback, and extract-features writes nothing
        corpus = tmp_path / "icorpus"
        shutil.copytree(icorpus, corpus)
        stem = sorted(os.listdir(corpus / "images"))[0]
        path = corpus / "images" / stem / "f0000.png"
        path.write_bytes(damage(path.read_bytes()))
        rc = cli.main(["extract-features", "--corpus", str(corpus),
                       "--out", str(tmp_path / "feat")])
        err = capsys.readouterr().err
        assert rc == 3
        assert str(path) in err and "Traceback" not in err
        assert not (tmp_path / "feat").exists()


class TestSegmentalPipeline:
    def test_firstpass_beats_or_matches_tandem_dependent(self, recognizer, split,
                                                         alphabet):
        train, test = split
        scfg = pipeline.ScrfConfig(epochs=8)
        model, history = pipeline.train_firstpass(recognizer, train, alphabet, scfg)
        assert all(b >= a - 1e-9 for a, b in zip(history, history[1:]))
        pairs = pipeline.firstpass_decode(model, recognizer, test)
        fp_ler = score_corpus(pairs)["ler"]
        tandem_ler = pipeline.evaluate(recognizer, test)["ler"]
        assert fp_ler <= tandem_ler + 2.0

    def test_rescoring_improves_or_matches_baseline(self, recognizer, split,
                                                    alphabet):
        train, test = split
        # the training lattices take the recognizer's decode N-best size
        recognizer = replace(recognizer, cfg=replace(
            recognizer.cfg, decode=replace(recognizer.cfg.decode, nbest=5)))
        scfg = pipeline.ScrfConfig(epochs=6)
        model, _ = pipeline.train_rescoring(recognizer, train[:24], alphabet, scfg)
        lattices = pipeline.nbest_lattices(recognizer, test, 5)
        pairs = pipeline.rescore_words(model, recognizer, test, lattices)
        rescored = score_corpus(pairs)["ler"]
        baseline_pairs = [(w.letters,
                           [l for l in lat.hypotheses[0].labels
                            if l not in ("<s>", "</s>")])
                          for w, lat in zip(test, lattices)]
        baseline = score_corpus(baseline_pairs)["ler"]
        assert rescored <= baseline + 2.0

    def test_rescoring_trains_on_the_decode_lattices(self, recognizer, split, alphabet):
        # scrf.nbest sizes the cascade's first-pass lattices only: rescoring
        # trains on the lattices nbest_lattices gives for decoding
        train = split[0][:6]
        rec = replace(recognizer, cfg=replace(recognizer.cfg,
                                              decode=replace(recognizer.cfg.decode, nbest=5)))
        scfg = pipeline.ScrfConfig(epochs=2, nbest=3)
        model, _ = pipeline.train_rescoring(rec, train, alphabet, scfg)
        given, _ = pipeline.train_rescoring(rec, train, alphabet, scfg,
                                            pipeline.nbest_lattices(rec, train))
        assert np.array_equal(model.weights, given.weights)

    def test_scrf_save_load_roundtrip_through_pipeline(self, recognizer, split,
                                                       alphabet, tmp_path):
        train, test = split
        scfg = pipeline.ScrfConfig(epochs=2)
        model, _ = pipeline.train_firstpass(recognizer, train[:10], alphabet, scfg)
        path = str(tmp_path / "fp.json")
        model.save(path)
        loaded = pipeline.load_scrf(path, recognizer, alphabet, scfg)
        np.testing.assert_array_equal(loaded.weights, model.weights)
        p1 = pipeline.firstpass_decode(model, recognizer, test[:3])
        p2 = pipeline.firstpass_decode(loaded, recognizer, test[:3])
        assert p1 == p2

    def test_load_scrf_refuses_another_feature_set(self, recognizer, alphabet, tmp_path):
        # a saved SCRF is the first-pass set or the rescoring set
        # build_rescoring_model builds; any other manifest is refused
        from segspell import scrf
        from segspell.fileio import DataError
        labels = alphabet.symbols
        num_classes = len(recognizer.classifier.class_names)
        other = scrf.SegmentalModel(labels, [
            scrf.LmFeature(), scrf.BaselineFeature(),
            scrf.ClassifierStatFeature("div_s", num_classes), scrf.PeakFeature()])
        path = str(tmp_path / "other.json")
        other.save(path)
        with pytest.raises(DataError, match="manifest mismatch") as e:
            pipeline.load_scrf(path, recognizer, alphabet)
        assert path in str(e.value)


class TestCliSegmental:
    def test_train_scrf_and_decode(self, tmp_path):
        d = tmp_path
        assert cli.main(["gen-data", "--out", str(d / "c"), "--wordlist", "1",
                         "--words", "8", "--signers", "1", "--seed", "21"]) == 0
        assert cli.main(["train-classifier", "--corpus", str(d / "c"),
                         "--out", str(d / "clf.json"), "--seed", "21"]) == 0
        assert cli.main(["train-hmm", "--corpus", str(d / "c"),
                         "--classifier", str(d / "clf.json"),
                         "--out", str(d / "rec"), "--seed", "21"]) == 0
        assert cli.main(["train-scrf", "--recognizer", str(d / "rec"),
                         "--corpus", str(d / "c"), "--mode", "firstpass",
                         "--out", str(d / "fp.json"), "--seed", "21"]) == 0
        assert cli.main(["decode", "--recognizer", str(d / "rec"),
                         "--corpus", str(d / "c"), "--scrf", str(d / "fp.json"),
                         "--out", str(d / "h.txt"), "--refs", str(d / "r.txt")]) == 0
        assert cli.main(["score", "--ref", str(d / "r.txt"),
                         "--hyp", str(d / "h.txt"),
                         "--json", str(d / "s.json")]) == 0
        # tiny corpus and words with adjacent repeated letters keep this a
        # plumbing check; model quality is covered by the larger-corpus tests
        assert json.load(open(d / "s.json"))["ler"] <= 30.0

    @pytest.fixture(scope="class")
    def rescoring_chain(self, tmp_path_factory):
        """A recognizer ``rec``, its 4-best lattices ``lats`` and a rescoring
        model ``re.json`` for the corpus ``c``, one signer of 6 words."""
        d = tmp_path_factory.mktemp("rescoring")
        assert cli.main(["gen-data", "--out", str(d / "c"), "--wordlist", "1",
                         "--words", "6", "--signers", "1", "--seed", "22"]) == 0
        assert cli.main(["train-classifier", "--corpus", str(d / "c"),
                         "--out", str(d / "clf.json"), "--seed", "22"]) == 0
        assert cli.main(["train-hmm", "--corpus", str(d / "c"),
                         "--classifier", str(d / "clf.json"),
                         "--out", str(d / "rec"), "--seed", "22"]) == 0
        assert cli.main(["nbest", "--recognizer", str(d / "rec"),
                         "--corpus", str(d / "c"), "--out", str(d / "lats"),
                         "--n", "4"]) == 0
        assert cli.main(["train-scrf", "--recognizer", str(d / "rec"),
                         "--corpus", str(d / "c"), "--mode", "rescoring",
                         "--out", str(d / "re.json"), "--seed", "22"]) == 0
        return d

    @pytest.mark.parametrize("flag, message", [
        # the rescoring model's baseline feature reads the lattices' 1-best
        # labels; firstpass decoding used to end in a TypeError traceback
        pytest.param("--scrf", "re.json: a rescoring model needs --lattices",
                     id="rescoring-without-lattices"),
        # the lattices used to be ignored and tandem Viterbi hypotheses written
        pytest.param("--lattices", "--lattices needs --scrf", id="lattices-without-scrf"),
    ])
    def test_decode_flag_error_exit_2(self, rescoring_chain, tmp_path, capsys, flag, message):
        d = rescoring_chain
        out = tmp_path / "h.txt"
        target = d / ("re.json" if flag == "--scrf" else "lats")
        capsys.readouterr()
        rc = cli.main(["decode", "--recognizer", str(d / "rec"), "--corpus", str(d / "c"),
                       flag, str(target), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and message in err and "Traceback" not in err
        assert not out.exists()

    def test_rescoring_scrf_with_lattices(self, rescoring_chain):
        d = rescoring_chain
        assert cli.main(["decode", "--recognizer", str(d / "rec"),
                         "--corpus", str(d / "c"), "--scrf", str(d / "re.json"),
                         "--lattices", str(d / "lats"),
                         "--out", str(d / "h.txt"), "--refs", str(d / "r.txt")]) == 0
        assert cli.main(["score", "--ref", str(d / "r.txt"),
                         "--hyp", str(d / "h.txt"),
                         "--json", str(d / "s.json")]) == 0
        assert json.load(open(d / "s.json"))["ler"] <= 10.0
        # a lattice label the model does not know exits 3, no traceback
        lattice = sorted((d / "lats").glob("*.lat.jsonl"))[0]
        hyp = json.loads(lattice.read_text().splitlines()[0])
        hyp["spans"][0][0] = "?"
        lattice.write_text(json.dumps(hyp) + "\n")
        assert cli.main(["decode", "--recognizer", str(d / "rec"),
                         "--corpus", str(d / "c"), "--scrf", str(d / "re.json"),
                         "--lattices", str(d / "lats"), "--out", str(d / "h2.txt")]) == 3

    def test_realign_adapt_subcommand(self, tmp_path):
        d = tmp_path
        assert cli.main(["gen-data", "--out", str(d / "c"), "--wordlist", "1",
                         "--words", "8", "--signers", "2", "--seed", "23"]) == 0
        assert cli.main(["train-classifier", "--corpus", str(d / "c"),
                         "--out", str(d / "clf.json"), "--signers", "S1",
                         "--seed", "23"]) == 0
        assert cli.main(["train-hmm", "--corpus", str(d / "c"),
                         "--classifier", str(d / "clf.json"),
                         "--out", str(d / "rec"), "--signers", "S1",
                         "--seed", "23"]) == 0
        assert cli.main(["realign-adapt", "--recognizer", str(d / "rec"),
                         "--corpus", str(d / "c"), "--signer", "S2",
                         "--iters", "2", "--out", str(d / "realign.json"),
                         "--seed", "23"]) == 0
        rep = json.load(open(d / "realign.json"))
        assert len(rep["ler_per_iteration"]) == 2


class TestRealignAdapt:
    def test_realign_does_not_collapse(self, small_corpus, tiny_pcfg, alphabet):
        train = pipeline.split_by_signer(small_corpus)["S1"]
        rec = pipeline.build_recognizer(train, alphabet, tiny_pcfg,
                                        small_corpus.word_list)
        s2 = pipeline.split_by_signer(small_corpus)["S2"]
        adapt_words, eval_words = pipeline.adaptation_split(s2, 0.2, 1)
        _, lers = pipeline.realign_adapt(rec, adapt_words, eval_words[:20],
                                         alphabet, iters=2)
        assert len(lers) == 2
        assert lers[1] <= lers[0] + 10.0
