"""Command-line surface: reproducible experiment pipelines.

One runner, ``main``, serves every subcommand.  It loads and validates the
config once, starts the clock, calls the subcommand's handler, prints the
summary line the handler returns, and writes the run-record JSON (config
hash, seed, input hashes, wall time) next to the artifacts.  A handler does
only its own work: it writes its artifacts atomically and returns
``(summary, outputs)``.  The inputs are the files opened through
``fileio.open_input`` while the handler runs, word-list files and rendered
frames included; the config file is not one, as ``config_hash`` covers it.
Exit codes: 0 on success, 2 on configuration errors (an unknown config key, a
bad config value or a bad flag names its dotted path, field or flag),
3 on data errors (a missing upstream artifact names the subcommand that
produces it; a JSON model, lattice or corpus file holding NaN or infinity,
or not what its reader expects, is named).  The environment variable
SEGSPELL_SEED overrides the configured seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time
import typing
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from . import pipeline, synthgen
from .alphabet import LetterAlphabet
from .classifier import history_csv, load_classifier
from .fileio import (DataError, FieldError, atomic_write_text, check_fields, in_file,
                     open_input, read_json, read_png, recording_inputs, sha256_file,
                     write_json, write_png)
from .hmm import forced_align
from .lm import load_arpa, train_bigram
from .metrics import format_report, score_corpus
from .pipeline import PipelineConfig, ScrfConfig, load_recognizer, save_recognizer
from .segments import NoPathError, load_lattice, save_lattice, to_jsonable
from .vision import (HOG_DIM, apply_pca, fit_hand_color_model, fit_pca, hog_descriptor,
                     segment_hand)


class ConfigError(Exception):
    exit_code = 2


def require(path, producer):
    if not os.path.exists(path):
        raise DataError("missing artifact %s: run `segspell %s` first" % (path, producer))
    return path


# ---------------------------------------------------------------------------
# Configuration

@dataclass(frozen=True)
class Config:
    """A loaded and validated experiment config; ``raw`` is the JSON dict
    whose hash goes into the run record.  The ``in_file`` paths lay out
    the config file (``config_keys``)."""
    raw: dict = in_file(None, default_factory=dict)
    pipeline: PipelineConfig = in_file("", default_factory=PipelineConfig)  # top level
    scrf: ScrfConfig = in_file("scrf", default_factory=ScrfConfig)
    generator: synthgen.GeneratorConfig = in_file(
        "generator", default_factory=synthgen.GeneratorConfig)
    signers: int = in_file("data.signers", default=4, at_least=1)
    repetitions: int = in_file("data.repetitions", default=2, at_least=1)
    words: int | None = in_file("data.words", default=None, at_least=1)  # the first N
    wordlist: str = in_file("data.wordlist", default="1")   # 1, 2, both or a file
    hog_pca: int = in_file("frontend.hog_pca", default=40, at_least=1)  # HOG PCA size

    def __post_init__(self):
        check_fields(self)


def config_fields(cls, prefix="", fixed=()):
    """(field, dotted path, type) of each field of config dataclass ``cls``
    that a config file may set: a field sits at its ``in_file`` path below
    ``prefix`` (None: not in the file), less the ``fixed`` ones."""
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        path = f.metadata.get("config", f.name)
        if path is not None and f.name not in fixed:
            yield f, ".".join(p for p in (prefix, path) if p), hints[f.name]


def config_keys(cls=Config, prefix="", fixed=()):
    """Every dotted key a config file may set; a config dataclass adds its
    own fields below its path."""
    keys = set()
    for f, path, kind in config_fields(cls, prefix, fixed):
        keys |= config_keys(kind, path, f.metadata.get("fixed", ())) if is_dataclass(kind) \
            else {path}
    return keys


def flatten(cfg, keys, prefix=""):
    """{dotted key: value} of a config file; a key no config dataclass has
    is refused, naming its dotted path."""
    flat = {}
    for key, value in cfg.items():
        path = prefix + key
        if path in keys:
            flat[path] = value
        elif not any(k.startswith(path + ".") for k in keys):
            raise ConfigError("unknown config key %s" % path)
        elif not isinstance(value, dict):
            raise ConfigError("%s must be a section (a JSON object), got %r" % (path, value))
        else:
            flat.update(flatten(value, keys, path + "."))
    return flat


def load_config(path=None, overrides=None):
    cfg = {}
    if path:
        try:
            # a NaN or infinity is refused below, naming its field
            cfg = read_json(require(path, "(write a config file)"), allow_nan=True)
        except DataError as e:
            raise ConfigError("config %s" % e)
    if not isinstance(cfg, dict):
        raise ConfigError("config %s must be a JSON object" % path)
    if overrides:
        cfg.update({k: v for k, v in overrides.items() if v is not None})
    seed_env = os.environ.get("SEGSPELL_SEED")
    if seed_env is not None:
        try:
            cfg["seed"] = int(seed_env)
        except ValueError:
            raise ConfigError("SEGSPELL_SEED must be an integer, got %r" % seed_env)
    # validate every section now, so a bad value never fails deep in a run
    return read_section(Config, Config(raw=cfg), flatten(cfg, config_keys()))


def read_section(cls, default, flat, prefix="", fixed=()):
    """``default`` with each value of ``flat`` (a flattened config file) for
    a field of config dataclass ``cls`` below ``prefix``; ``cls`` checks
    them, and a bad value raises ConfigError naming its dotted path."""
    values, paths = {}, {}
    for f, path, kind in config_fields(cls, prefix, fixed):
        paths[f.name] = path
        if is_dataclass(kind):
            values[f.name] = read_section(kind, getattr(default, f.name), flat, path,
                                          f.metadata.get("fixed", ()))
        elif path in flat:   # a JSON list is a tuple field's value
            value = flat[path]
            values[f.name] = tuple(value) if isinstance(value, list) else value
    try:
        return replace(default, **values)
    except FieldError as e:
        raise ConfigError(paths.get(e.name, e.name) + str(e)[len(e.name):])


def option(args, key, config, name):
    """Flag ``--key`` when given, else field ``name`` of config dataclass
    ``config``; the flag is checked as that field."""
    value = getattr(args, key)
    if value is None:
        return getattr(config, name)
    try:
        replace(config, **{name: value})
    except FieldError as e:
        raise ConfigError("--" + key + str(e)[len(e.name):])
    return value


def write_run_record(out, subcommand, cfg, inputs, outputs, t0):
    record = {
        "subcommand": subcommand,
        "config_hash": hashlib.sha256(json.dumps(cfg.raw, sort_keys=True)
                                      .encode()).hexdigest(),
        "seed": cfg.pipeline.seed,
        "inputs": {p: sha256_file(p) for p in inputs},
        "outputs": sorted(outputs),
        "wall_time_s": round(time.time() - t0, 3),
    }
    path = os.path.join(out, "run_record.json") if os.path.isdir(out) \
        else out + ".run.json"
    write_json(path, record)


# ---------------------------------------------------------------------------
# Corpus helpers

def builtin_wordlist(which):
    from importlib import resources
    name = {"1": "wordlist1.txt", "2": "wordlist2.txt"}[which]
    with resources.files("segspell.data").joinpath(name).open("r", encoding="utf-8") as f:
        return [w.strip() for w in f if w.strip()]


def resolve_words(args, cfg):
    wordlist = args.wordlist or cfg.wordlist
    if os.path.exists(str(wordlist)):
        with open_input(wordlist) as f:
            words = [w.strip().upper() for w in f if w.strip()]
    elif str(wordlist) in ("1", "2"):
        words = builtin_wordlist(str(wordlist))
    elif str(wordlist) == "both":
        words = builtin_wordlist("1") + builtin_wordlist("2")
    else:
        raise ConfigError("unknown wordlist %r (use 1, 2, both, or a file)" % (wordlist,))
    words = words[:option(args, "words", cfg, "words")]
    if not words:
        raise ConfigError("empty word list")
    return words


def load_corpus_words(directory, signers=None, classifier=None, window=None):
    """The corpus in ``directory``, and the stems and words of ``signers``
    (a comma list; all when None).  With a ``classifier``, each kept word's
    descriptor width times ``window`` must be its input width (DataError
    naming the ``.fmat``)."""
    require(os.path.join(directory, "manifest.json"), "gen-data")
    corpus, stems = synthgen.load_corpus(directory)
    words = corpus.words
    if signers:
        keep = set(signers.split(","))
        pairs = [(w, s) for w, s in zip(words, stems) if w.signer_id in keep]
        if not pairs:
            raise DataError("no sequences for signers %s in %s" % (signers, directory))
        words = [w for w, _ in pairs]
        stems = [s for _, s in pairs]
    if classifier is not None:
        width = getattr(classifier, "base", classifier).input_dim
        for w in words:
            if w.descriptors.shape[1] * window != width:
                raise DataError("%s: %d columns x window %d, the classifier reads %d" % (
                    w.path, w.descriptors.shape[1], window, width))
    return corpus, stems, words


def recognizer_words(args, cfg, signers):
    """The ``--recognizer`` bundle, and the stems and words of ``--corpus``
    for ``signers``, checked against the bundle's classifier."""
    rec = load_recognizer(require(args.recognizer, "train-hmm"), cfg.pipeline)
    _, stems, words = load_corpus_words(args.corpus, signers, rec.classifier,
                                        rec.cfg.frontend.window)
    return rec, stems, words


def write_hyps(path, pairs_with_ids):
    lines = ["%s %s" % (wid, "".join(h)) for wid, h in pairs_with_ids]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_labeled_file(path):
    with open_input(path) as f:
        parts = [line.split(None, 1) for line in f if line.strip()]
    return {p[0]: list(p[1].strip()) if len(p) > 1 else [] for p in parts}


# ---------------------------------------------------------------------------
# Subcommands: each takes the parsed flags and the loaded Config, writes its
# artifacts and returns (summary line, output paths).

def cmd_gen_data(args, cfg):
    words = resolve_words(args, cfg)
    n_signers = option(args, "signers", cfg, "signers")
    reps = option(args, "reps", cfg, "repetitions")
    gcfg, seed = cfg.generator, cfg.pipeline.seed
    signers = synthgen.make_signers(n_signers, seed, gcfg)
    corpus = synthgen.generate_corpus(words, signers, seed, repetitions=reps, cfg=gcfg)
    synthgen.save_corpus(corpus, args.out)
    if args.images:
        img_dir = os.path.join(args.out, "images")
        os.makedirs(img_dir, exist_ok=True)
        for i, w in enumerate(corpus.words):
            signer = next(s for s in signers if s.signer_id == w.signer_id)
            frames, masks = synthgen.render_frames(w, signer, gcfg)
            stem = os.path.join(img_dir, "%s_w%04d" % (w.signer_id, i))
            os.makedirs(stem, exist_ok=True)
            for t, (frame, mask) in enumerate(zip(frames, masks)):
                write_png(os.path.join(stem, "f%04d.png" % t), frame)
                write_png(os.path.join(stem, "m%04d.png" % t),
                          (mask * 255).astype(np.uint8))
    return ("wrote %d sequences (%d signers x %d words x %d reps) to %s"
            % (len(corpus.words), n_signers, len(words), reps, args.out),
            [os.path.join(args.out, "manifest.json")])


def cmd_extract_features(args, cfg):
    corpus, stems, _ = load_corpus_words(args.corpus)
    img_root = require(os.path.join(args.corpus, "images"), "gen-data --images")
    per_signer_model = {}
    word_desc = {}
    by_stem = dict(zip(stems, corpus.words))
    for stem in sorted(by_stem):
        img_dir = os.path.join(img_root, stem)
        require(img_dir, "gen-data --images")
        signer = by_stem[stem].signer_id
        frames, masks, t = [], [], 0
        while os.path.exists(os.path.join(img_dir, "f%04d.png" % t)):
            frames.append(read_png(os.path.join(img_dir, "f%04d.png" % t)))
            masks.append(read_png(os.path.join(img_dir, "m%04d.png" % t)) > 127)
            t += 1
        if signer not in per_signer_model:
            per_signer_model[signer] = fit_hand_color_model(frames[:30], masks[:30])
        model = per_signer_model[signer]
        descs = []
        for frame in frames:
            mask = segment_hand(frame, model)
            if not mask.any():
                descs.append(np.zeros(HOG_DIM))
            else:
                descs.append(hog_descriptor(frame, mask))
        word_desc[stem] = np.asarray(descs)
    stacked = np.concatenate(list(word_desc.values()))   # the fit reads sorted stems
    pca = fit_pca(stacked, min(cfg.hog_pca, stacked.shape[1], len(stacked) - 1))
    reduced = [replace(w, descriptors=apply_pca(pca, word_desc[stem]))
               for stem, w in zip(stems, corpus.words)]
    written = synthgen.save_corpus(replace(corpus, words=reduced), args.out)
    return ("extracted HOG+PCA descriptors for %d sequences into %s"
            % (len(reduced), args.out),
            [os.path.join(args.out, stem + ".fmat") for stem in written])


def cmd_train_lm(args, cfg):
    words = resolve_words(args, cfg)
    lm = train_bigram(words, LetterAlphabet())
    lm.save(args.out)
    return "trained bigram LM on %d words -> %s" % (len(words), args.out), [args.out]


def cmd_train_classifier(args, cfg):
    _, _, words = load_corpus_words(args.corpus, args.signers)
    model, history = pipeline.train_frame_classifier(words, LetterAlphabet(),
                                                     cfg.pipeline)
    model.save(args.out)
    outputs = [args.out]
    if args.curve:
        atomic_write_text(args.curve, history_csv(history))
        outputs.append(args.curve)
    return ("trained classifier on %d sequences -> %s (final val error %.3f)"
            % (len(words), args.out, history[-1]["val_error"] if history else float("nan")),
            outputs)


def cmd_train_hmm(args, cfg):
    classifier = load_classifier(require(args.classifier, "train-classifier"))
    _, _, words = load_corpus_words(args.corpus, args.signers, classifier,
                                    cfg.pipeline.frontend.window)
    alphabet = LetterAlphabet()
    if args.lm:
        lm = load_arpa(require(args.lm, "train-lm"))
    else:
        lm = train_bigram(sorted({w.word for w in words}), alphabet)
    rec, loglik = pipeline.assemble_recognizer(words, alphabet, cfg.pipeline,
                                               classifier, lm)
    save_recognizer(rec, args.out)
    return ("trained HMM on %d sequences (EM log-lik %s) -> %s"
            % (len(words), ["%.0f" % v for v in loglik], args.out),
            [os.path.join(args.out, "hmm.json")])


def cmd_adapt(args, cfg):
    fraction = option(args, "fraction", cfg.pipeline, "adapt_fraction")
    rec, _, words = recognizer_words(args, cfg, args.signer)
    adapt_words, _ = pipeline.adaptation_split(words, fraction, cfg.pipeline.seed,
                                               evaluated=False)
    adapted, history = pipeline.adapt_recognizer(rec, adapt_words, LetterAlphabet(),
                                                 mode=args.mode,
                                                 label_source=args.labels)
    save_recognizer(adapted, args.out)
    return ("adapted (%s, %s labels, %.0f%% = %d words) -> %s; loss %.4f -> %.4f"
            % (args.mode, args.labels, 100 * fraction, len(adapt_words), args.out,
               history[0]["loss"], min(h["loss"] for h in history)),
            [os.path.join(args.out, "classifier.json")])


def cmd_align(args, cfg):
    rec, stems, words = recognizer_words(args, cfg, args.signers)
    aligned = pipeline.each_word(
        lambda w: forced_align(rec.hmm, rec.observations(w), w.letters), words)
    lines = [json.dumps({"stem": stem, "word": w.word, "spans": to_jsonable(segs),
                         "score": score}, sort_keys=True)
             for stem, w, (segs, score) in zip(stems, words, aligned)]
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    return "aligned %d sequences -> %s" % (len(words), args.out), [args.out]


def cmd_nbest(args, cfg):
    n = option(args, "n", cfg.pipeline.decode, "nbest")
    rec, stems, words = recognizer_words(args, cfg, args.signers)
    lattices = pipeline.nbest_lattices(rec, words, n)
    os.makedirs(args.out, exist_ok=True)
    outputs = []
    for stem, lattice in zip(stems, lattices):
        path = os.path.join(args.out, stem + ".lat.jsonl")
        save_lattice(path, lattice)
        outputs.append(path)
    return "wrote %d lattices (N=%d) to %s" % (len(lattices), n, args.out), outputs


def cmd_train_scrf(args, cfg):
    rec, _, words = recognizer_words(args, cfg, args.signers)
    train = {"firstpass": pipeline.train_firstpass,
             "rescoring": pipeline.train_rescoring}[args.mode]
    model, history = train(rec, words, LetterAlphabet(), cfg.scrf)
    model.save(args.out)
    return ("trained %s SCRF on %d sequences -> %s (objective %s)"
            % (args.mode, len(words), args.out, ["%.3f" % h for h in history[-3:]]),
            [args.out])


def cmd_decode(args, cfg):
    if args.lattices and not args.scrf:
        raise ConfigError("--lattices needs --scrf: only a segmental model rescores lattices")
    rec, stems, words = recognizer_words(args, cfg, args.signers)
    if args.scrf:
        model = pipeline.load_scrf(require(args.scrf, "train-scrf"), rec,
                                   LetterAlphabet(), cfg.scrf)
        if not args.lattices and [f.name for f in model.features] != ["firstpass"]:
            raise ConfigError("--scrf %s: a rescoring model needs --lattices" % args.scrf)
    if args.lattices:
        paths = [require(os.path.join(args.lattices, stem + ".lat.jsonl"), "nbest")
                 for stem in stems]
        lattices = [load_lattice(path, w.num_frames) for path, w in zip(paths, words)]
        pairs = pipeline.rescore_words(model, rec, words, lattices)
    elif args.scrf:
        pairs = pipeline.firstpass_decode(model, rec, words)
    else:
        pairs = pipeline.decode_words(rec, words)
    write_hyps(args.out, [(stem, hyp) for stem, (_, hyp) in zip(stems, pairs)])
    outputs = [args.out]
    if args.refs:
        write_hyps(args.refs, [(stem, w.letters) for stem, w in zip(stems, words)])
        outputs.append(args.refs)
    return "decoded %d sequences -> %s" % (len(words), args.out), outputs


def cmd_cascade(args, cfg):
    pcfg = cfg.pipeline
    alphabet = LetterAlphabet()
    corpus, _, _ = load_corpus_words(args.corpus)
    by_signer = pipeline.split_by_signer(corpus)
    eval_signer = args.eval_signer
    if eval_signer not in by_signer:
        raise DataError("signer %s not in corpus (have %s)"
                        % (eval_signer, ",".join(sorted(by_signer))))
    train_ids = [s for s in sorted(by_signer) if s != eval_signer]
    train_words = [w for s in train_ids for w in by_signer[s]]
    rec_train, rec_eval, eval_words = pipeline.cascade_recognizers(
        train_words, by_signer[eval_signer], alphabet, pcfg)
    result = pipeline.run_cascade(rec_train, rec_eval, train_words, eval_words,
                                  alphabet, pcfg, cfg.scrf)
    report = {"first_pass_ler": result["first_ler"],
              "second_pass_ler": result["second_ler"],
              "eval_signer": eval_signer, "train_signers": train_ids,
              "eval_sequences": len(eval_words)}
    write_json(args.out, report)
    return ("cascade: first pass LER %.2f%% -> second pass %.2f%% (%s)"
            % (result["first_ler"], result["second_ler"], args.out), [args.out])


def cmd_realign_adapt(args, cfg):
    pcfg = cfg.pipeline
    rec, _, words = recognizer_words(args, cfg, args.signer)
    adapt_words, eval_words = pipeline.adaptation_split(words, pcfg.adapt_fraction,
                                                        pcfg.seed)
    _, lers = pipeline.realign_adapt(rec, adapt_words, eval_words, LetterAlphabet(),
                                     iters=args.iters)
    report = {"signer": args.signer, "iterations": args.iters,
              "ler_per_iteration": lers}
    write_json(args.out, report)
    return ("realign-adapt %s: " % args.signer
            + "  ".join("iter %d LER %.2f%%" % (i + 1, l) for i, l in enumerate(lers)),
            [args.out])


def cmd_score(args, cfg):
    refs = read_labeled_file(require(args.ref, "decode --refs"))
    hyps = read_labeled_file(require(args.hyp, "decode"))
    missing = sorted(set(refs) - set(hyps))
    if missing:
        raise DataError("hypotheses missing for ids: %s" % ", ".join(missing[:5]))
    scores = score_corpus([(refs[k], hyps[k]) for k in sorted(refs)])
    outputs = []
    if args.json:
        slim = dict(scores)
        slim["words"] = [{k: v for k, v in w.items() if k != "alignment"}
                         for w in scores["words"]]
        write_json(args.json, slim)
        outputs.append(args.json)
    if args.report:
        atomic_write_text(args.report, format_report(scores))
        outputs.append(args.report)
    return ("LER %.4f%%  (D %d, S %d, I %d, N %d)"
            % (scores["ler"], scores["D"], scores["S"], scores["I"], scores["N"]),
            outputs)


def cmd_run_protocol(args, cfg):
    rows = pipeline.PROTOCOL_ROWS if args.rows is None else tuple(args.rows.split(","))
    if not set(rows) <= set(pipeline.PROTOCOL_ROWS):
        raise ConfigError("--rows must be a comma list from %s, got %r"
                          % (",".join(pipeline.PROTOCOL_ROWS), args.rows))
    corpus, _, _ = load_corpus_words(args.corpus)
    if args.verbose:   # progress lines go to stderr: stdout keeps the table
        logging.basicConfig(format="%(message)s")
        logging.getLogger("segspell").setLevel(logging.INFO)
    report = pipeline.run_protocol(corpus, cfg.pipeline, rows=rows)
    table = pipeline.format_protocol_table(report)
    write_json(args.out, report)
    table_path = os.path.splitext(args.out)[0] + ".txt"
    atomic_write_text(table_path, table)
    return table, [args.out, table_path]


# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="segspell",
        description="Fingerspelling sequence recognition experiments on "
                    "synthetic data: tandem GMM-HMM and segmental CRF "
                    "recognizers with signer adaptation.")
    sub = p.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="experiment config JSON")
    common.add_argument("--seed", type=int, help="override the config seed")

    def command(name, handler, help):
        sp = sub.add_parser(name, parents=[common], help=help)
        sp.set_defaults(handler=handler)
        return sp

    sp = command("gen-data", cmd_gen_data, "generate a synthetic corpus")
    sp.add_argument("--out", required=True)
    sp.add_argument("--words", type=int, help="use the first N list words")
    sp.add_argument("--wordlist", help="1, 2, both, or a word file")
    sp.add_argument("--signers", type=int)
    sp.add_argument("--reps", type=int)
    sp.add_argument("--images", action="store_true", help="also render toy frames")

    sp = command("extract-features", cmd_extract_features,
                 "hand segmentation + HOG + PCA descriptors from rendered frames")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--out", required=True)

    sp = command("train-lm", cmd_train_lm, "train the bigram letter LM (ARPA out)")
    sp.add_argument("--out", required=True)
    sp.add_argument("--wordlist", help="1, 2, both, or a word file")
    sp.add_argument("--words", type=int)

    sp = command("train-classifier", cmd_train_classifier, "train the frame MLP")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--signers", help="comma-separated signer ids to train on")
    sp.add_argument("--curve", help="write the learning-curve CSV here")

    sp = command("train-hmm", cmd_train_hmm,
                 "fit tandem PCAs + GMM-HMM; writes a recognizer bundle directory")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--classifier", required=True)
    sp.add_argument("--lm", help="ARPA LM (default: train on corpus words)")
    sp.add_argument("--out", required=True)
    sp.add_argument("--signers")

    sp = command("adapt", cmd_adapt, "adapt the frame classifier to a signer")
    sp.add_argument("--recognizer", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--signer", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--mode", default="fine-tune",
                    choices=["fine-tune", "LIN+UP", "LIN+LON"])
    sp.add_argument("--labels", default="GT", choices=["GT", "FA"])
    sp.add_argument("--fraction", type=float)

    sp = command("align", cmd_align, "forced-align transcriptions to frames")
    sp.add_argument("--recognizer", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--signers")

    sp = command("nbest", cmd_nbest, "N-best lattices from the tandem recognizer")
    sp.add_argument("--recognizer", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--n", type=int)
    sp.add_argument("--signers")

    sp = command("train-scrf", cmd_train_scrf, "train a segmental CRF")
    sp.add_argument("--recognizer", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--mode", default="firstpass", choices=["firstpass", "rescoring"])
    sp.add_argument("--signers")

    sp = command("decode", cmd_decode, "decode a corpus (tandem or first-pass SCRF)")
    sp.add_argument("--recognizer", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--refs", help="also write reference transcriptions here")
    sp.add_argument("--scrf", help="segmental model weights JSON (a rescoring one needs --lattices)")
    sp.add_argument("--lattices", help="lattice directory to rescore with --scrf")
    sp.add_argument("--signers")

    sp = command("cascade", cmd_cascade, "two-pass segmental cascade experiment")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--eval-signer", required=True)
    sp.add_argument("--out", required=True)

    sp = command("realign-adapt", cmd_realign_adapt,
                 "iterated forced-alignment adaptation")
    sp.add_argument("--recognizer", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--signer", required=True)
    sp.add_argument("--iters", type=int, default=2)
    sp.add_argument("--out", required=True)

    sp = command("score", cmd_score, "letter error rate with D/S/I decomposition")
    sp.add_argument("--ref", required=True)
    sp.add_argument("--hyp", required=True)
    sp.add_argument("--json", help="write the JSON report here")
    sp.add_argument("--report", help="write the aligned text report here")

    sp = command("run-protocol", cmd_run_protocol,
                 "dependent / independent / adapted table")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--rows", help="comma list from independent,FA,GT,dependent")
    sp.add_argument("--verbose", action="store_true")
    return p


def main(argv=None):
    """The runner: config, clock, handler, summary line, run record.  The
    record goes next to ``--out``, or next to the first output of a
    subcommand without one (none if it wrote nothing)."""
    args = build_parser().parse_args(argv)
    try:
        t0 = time.time()
        cfg = load_config(args.config, {"seed": args.seed})
        with recording_inputs() as inputs:
            summary, outputs = args.handler(args, cfg)
        print(summary)
        out = getattr(args, "out", None) or next(iter(outputs), None)
        if out:
            write_run_record(out, args.command, cfg, inputs, outputs, t0)
        return 0
    except (ConfigError, DataError, NoPathError) as e:
        print("error: %s" % e, file=sys.stderr)
        return e.exit_code
    except FileNotFoundError as e:
        print("error: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
