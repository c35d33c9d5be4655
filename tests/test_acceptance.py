"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria (tolerances pinned here):
 1. semi-Markov exactness vs brute force (>= 200 cases, 1e-9, < 30 s)
 2. CLL and MLP gradients vs central finite differences (< 1e-4, < 30 s)
 3. HMM: EM monotone over 10 iterations on 20 words; decode/N-best/forced
    alignment match exhaustive path enumeration; N=1 == Viterbi (< 60 s)
 4. edit-distance oracle sweep + exact LER formula (< 10 s)
 5. dimensional fidelity: 2688-dim HOG, 26/28 tandem blocks, 26 values,
    128 x 21 = 2688
 6. adaptation identities (bitwise) and fine-tuning loss decrease
 7. end-to-end trends on the default corpus (4 signers x 100 words x 2),
    full run < 10 min
 8. iterated forced-alignment adaptation does not regress by > 0.5 LER
 9. cascade second pass <= first pass + 0.5 LER in the adapted setting
10. byte-identical artifacts and reports for identical config + seed

Criteria 7-9 also pin their results at SEED (the constants below).
"""

import functools
import hashlib
import itertools
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from segspell import classifier as clf
from segspell import pipeline, scrf, synthgen
from segspell.alphabet import LetterAlphabet, PhonologicalFeatureTable
from segspell.cli import builtin_wordlist
from segspell.hmm import DecodeConfig, nbest, train_em, viterbi_decode
from segspell.lm import train_bigram
from segspell.metrics import ErrorDecomposition, align, ler
from segspell.segments import Segment
from segspell.vision import HOG_DIM, stack_window

SEED = 20160825

# The kept behaviour at SEED; a pinned value changes only with an
# explanation in CHANGES.md.  The full-scale protocol table, every cell to
# two decimals (one letter moves a cell by more): per signer the LER and
# its D, S and I rates, and each row's mean LER.
PROTOCOL_TABLE = {
    "independent": {"S1": "129.57 5.01 77.82 46.74", "S2": "108.82 8.27 77.82 22.73",
                    "S3": "115.90 11.69 75.68 28.54", "S4": "151.91 2.86 73.93 75.12",
                    "Mean": "126.55"},
    "FA": {"S1": "76.20 56.80 16.80 2.60", "S2": "80.36 52.81 25.07 2.47",
           "S3": "80.71 53.38 20.86 6.46", "S4": "92.81 20.87 51.28 20.67",
           "Mean": "82.52"},
    "GT": {"S1": "17.70 2.60 10.90 4.20", "S2": "68.11 0.99 15.00 52.12",
           "S3": "63.37 2.15 20.47 40.74", "S4": "67.32 1.18 15.35 50.79",
           "Mean": "54.13"},
    "dependent": {"S1": "0.20 0.10 0.00 0.10", "S2": "0.10 0.10 0.00 0.00",
                  "S3": "0.10 0.00 0.00 0.10", "S4": "0.39 0.00 0.00 0.39",
                  "Mean": "0.20"}}
# criterion 8's LERs of the two iterations per signer
FA_ITERATIONS = {"S1": ["75.90", "60.60"], "S2": ["81.44", "59.72"],
                 "S3": ["85.11", "73.07"], "S4": ["95.87", "88.78"]}
# criterion 9's first- and second-pass LERs, and the sha256 of its
# [reference, hypothesis] letter strings, first pass then second, as JSON
CASCADE = ("5.85", "5.85", "402a3d2070a9dac00d4999d56ab847f0c2a62329db65d84a437a1c5ff799613d")


def report(name, ok, detail=""):
    print("\n[%s] criterion %s %s" % ("PASS" if ok else "FAIL", name, detail))
    assert ok, "%s: %s" % (name, detail)


# ---------------------------------------------------------------------------
# Shared expensive state

@pytest.fixture(scope="module")
def full_corpus():
    cfg = synthgen.GeneratorConfig()
    signers = synthgen.make_signers(4, SEED, cfg)
    words = builtin_wordlist("1")[:100]
    return synthgen.generate_corpus(words, signers, SEED, repetitions=2, cfg=cfg)


@pytest.fixture(scope="module")
def protocol_state(full_corpus):
    """Everything criteria 7 and 8 need, computed once: the four protocol
    rows plus per-signer iterated-FA letter error rates, which start from
    the protocol's own signer-independent recognizers."""
    alphabet = LetterAlphabet()
    pcfg = pipeline.PipelineConfig()
    by_signer = pipeline.split_by_signer(full_corpus)
    signer_ids = list(by_signer)
    build = pipeline.build_recognizer
    captured = []   # (left-out signer, recognizer)

    def keep_independent(train, *args, **kwargs):
        rec = build(train, *args, **kwargs)
        left_out = set(signer_ids) - {w.signer_id for w in train}
        if len(left_out) == 1:   # a dependent run trains on one signer's words
            captured.append((left_out.pop(), rec))
        return rec

    t0 = time.time()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "build_recognizer", keep_independent)
        report_data = pipeline.run_protocol(full_corpus, pcfg)
    assert sorted(sid for sid, _ in captured) == signer_ids
    independents = dict(captured)
    fa_iters = {}
    for si, sid in enumerate(signer_ids):
        adapt_words, eval_words = pipeline.adaptation_split(
            by_signer[sid], pcfg.adapt_fraction, pcfg.seed + si)
        _, fa_iters[sid] = pipeline.realign_adapt(independents[sid], adapt_words,
                                                  eval_words, alphabet, iters=2)
    return {"report": report_data, "fa_iters": fa_iters,
            "elapsed": time.time() - t0}


# ---------------------------------------------------------------------------

class ToyLm:
    def __init__(self, probs):
        self.probs = probs

    def prob(self, a, b):
        return self.probs[(a, b)]

    def prob_matrix(self, prevs, nexts):
        return np.array([[self.probs.get((a, b), 1.0) for b in nexts] for a in prevs])


def enumerate_scrf(model, ctx):
    out = []

    def comps(rem, parts):
        if rem == 0:
            yield parts
            return
        for d in range(1, rem + 1):
            yield from comps(rem - d, parts + [d])

    for durs in comps(ctx.num_frames, []):
        for labels in itertools.product(model.labels, repeat=len(durs)):
            ok = model.initial_ok(labels[0]) and model.final_ok(labels[-1])
            for a, b in zip(labels, labels[1:]):
                ok = ok and model.transition_ok(a, b)
            segs, t = [], 0
            for l, d in zip(labels, durs):
                if d < model.min_dur(l) or d > model.max_dur(l, ctx.num_frames):
                    ok = False
                segs.append(Segment(l, t, t + d - 1))
                t += d
            if ok:
                out.append((list(labels), segs))
    return out


def test_criterion_1_semimarkov_exactness():
    t0 = time.time()
    rng = np.random.default_rng(1)
    cases = 0
    max_err = 0.0
    while cases < 200:
        T = int(rng.integers(1, 7))
        L = int(rng.integers(2, 4))
        lmax = int(rng.integers(1, 4))
        labels = ["A", "B", "C"][:L]
        with_lm = bool(rng.integers(0, 2))
        probs = {(a, b): float(rng.uniform(0.05, 1.0))
                 for a in [scrf.START_LABEL] + labels for b in labels}
        ctx = scrf.FeatureContext(T, letter_posteriors=rng.random((T, 4)),
                                  descriptors=rng.normal(size=(T, 3)),
                                  lm=ToyLm(probs))
        feats = [scrf.ClassifierStatFeature("mean", 4),
                 scrf.PeakFeature()]
        if with_lm:
            feats.append(scrf.LmFeature())
        model = scrf.SegmentalModel(labels, feats, max_duration=lmax)
        model.weights = rng.normal(size=model.total_dim)
        hyps = enumerate_scrf(model, ctx)
        if not hyps:
            continue
        cases += 1
        scores = np.array([model.score(l, s, ctx) for l, s in hyps])
        lz = scrf.log_partition(model, ctx)
        max_err = max(max_err, abs(lz - scrf._logsumexp(scores)))
        vl, vs, vscore = scrf.viterbi(model, ctx)
        besti = int(np.argmax(scores))
        max_err = max(max_err, abs(vscore - scores[besti]))
        assert vl == hyps[besti][0]
        assert [s.span() for s in vs] == [s.span() for s in hyps[besti][1]]
    elapsed = time.time() - t0
    report("1 (semi-Markov exactness)",
           cases >= 200 and max_err < 1e-9 and elapsed < 30,
           "%d cases, max |err| %.2e, %.1fs" % (cases, max_err, elapsed))


def test_criterion_2_gradient_checks():
    t0 = time.time()
    rng = np.random.default_rng(2)
    eps = 1e-5

    # SCRF conditional log-likelihood gradient on a 3-frame instance
    labels = ["A", "B"]
    probs = {(a, b): float(rng.uniform(0.1, 1.0))
             for a in [scrf.START_LABEL] + labels for b in labels}
    ctx = scrf.FeatureContext(3, letter_posteriors=rng.random((3, 3)),
                              descriptors=rng.normal(size=(3, 2)),
                              lm=ToyLm(probs))
    feats = [scrf.ClassifierStatFeature("mean", 3),
             scrf.ClassifierStatFeature("div_s", 3),
             scrf.PeakFeature(), scrf.LmFeature()]
    model = scrf.SegmentalModel(labels, feats, max_duration=3)
    model.weights = 0.5 * rng.normal(size=model.total_dim)
    ref = (["A", "B"], [Segment("A", 0, 1), Segment("B", 2, 2)])
    grad, _ = scrf.example_gradient(model, scrf.TrainingExample(ctx, ref[0], ref[1]))

    def cll(w):
        saved = model.weights
        model.weights = w
        tabs = scrf.compute_tables(model, ctx)
        _, lzc = scrf.clamped_expectation(model, ctx, ref[0], tabs=tabs)
        val = lzc - scrf.log_partition(model, ctx)
        model.weights = saved
        return val

    scrf_bad = 0
    idx = rng.choice(model.total_dim, size=20, replace=False)
    for i in idx:
        wp = model.weights.copy()
        wp[i] += eps
        wm = model.weights.copy()
        wm[i] -= eps
        fd = (cll(wp) - cll(wm)) / (2 * eps)
        if abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-8) >= 1e-4:
            scrf_bad += 1

    # MLP loss gradient
    mlp = clf.init_mlp(6, [8, 8], 4, list("abcd"), seed=2)
    x = rng.normal(size=(5, 6))
    y = rng.integers(0, 4, size=5)
    _, grads = clf.loss_and_gradients(mlp, x, y, weight_decay=1e-3)
    mlp_bad = 0
    mlp_checked = 0
    for li, (w, b) in enumerate(mlp.layers):
        for arr, g in ((w, grads[li][0]), (b, grads[li][1])):
            flat, gflat = arr.ravel(), np.asarray(g).ravel()
            for i in rng.choice(flat.size, size=4, replace=False):
                orig = flat[i]
                flat[i] = orig + eps
                lp, _ = clf.loss_and_gradients(mlp, x, y, weight_decay=1e-3)
                flat[i] = orig - eps
                lm, _ = clf.loss_and_gradients(mlp, x, y, weight_decay=1e-3)
                flat[i] = orig
                fd = (lp - lm) / (2 * eps)
                mlp_checked += 1
                if abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8) >= 1e-4:
                    mlp_bad += 1
    elapsed = time.time() - t0
    report("2 (gradient checks)",
           scrf_bad == 0 and mlp_bad == 0 and mlp_checked >= 20 and elapsed < 30,
           "SCRF 20 coords, MLP %d coords, %.1fs" % (mlp_checked, elapsed))


def test_criterion_3_hmm_correctness():
    from tests.test_hmm import enumerate_hypotheses, toy_model
    t0 = time.time()
    gen_cfg = synthgen.GeneratorConfig()
    signer = synthgen.make_signers(1, 3, gen_cfg)[0]
    words = ["AB", "BA", "ABBA", "AA", "BB"] * 4
    ws = [synthgen.generate_word(w, signer, (3, 0, i, 0), gen_cfg)
          for i, w in enumerate(words)]
    assert len(ws) == 20
    seqs = [w.descriptors for w in ws]
    _, ll = train_em(seqs, [w.letters for w in ws], ["A", "B"],
                     seqs[0].shape[1], iters=10, silence_states=3, components=2)
    em_ok = len(ll) == 10 and all(b - a >= -1e-8 for a, b in zip(ll, ll[1:]))

    rng = np.random.default_rng(3)
    model = toy_model(rng)
    lm = train_bigram(["AB", "BA", "A", "B", "AA"], LetterAlphabet())
    cfg = DecodeConfig(lm_weight=0.7, penalty=0.3, nbest=50)
    decode_ok = True
    path_counts = []
    for _ in range(15):
        obs = rng.normal(size=(int(rng.integers(3, 7)), 2))
        hyps = enumerate_hypotheses(model, lm, obs, cfg)
        path_counts.append(len(hyps))
        ranked = sorted(hyps.items(), key=lambda kv: -kv[1])
        letters, segs, score = viterbi_decode(model, lm, obs, cfg)
        key = tuple((s.label, s.start, s.end) for s in segs)
        decode_ok &= abs(score - ranked[0][1]) < 1e-9 and key == ranked[0][0]
        lat = nbest(model, lm, obs, cfg)
        decode_ok &= len(lat.hypotheses) == min(50, len(ranked))
        decode_ok &= all(abs(h.score - r[1]) < 1e-9
                         for h, r in zip(lat.hypotheses, ranked))
        lat1 = nbest(model, lm, obs, replace(cfg, nbest=1))
        decode_ok &= abs(lat1.hypotheses[0].score - score) < 1e-9
        decode_ok &= [s.span() for s in lat1.hypotheses[0].segments] == \
            [s.span() for s in segs]
        from segspell.hmm import forced_align
        fa_segs, fa_score = forced_align(model, obs, ["A", "B"])
        _, _, v0 = viterbi_decode(model, lm, obs, DecodeConfig(lm_weight=0, penalty=0))
        decode_ok &= fa_score <= v0 + 1e-9
    elapsed = time.time() - t0
    report("3 (HMM correctness)",
           em_ok and decode_ok and max(path_counts) <= 5000 and elapsed < 60,
           "EM monotone over %d iters, enum up to %d paths, %.1fs"
           % (len(ll), max(path_counts), elapsed))


def test_criterion_4_metric_oracle():
    t0 = time.time()

    @functools.lru_cache(maxsize=None)
    def oracle(ref, hyp):
        if not ref:
            return len(hyp)
        if not hyp:
            return len(ref)
        return min(oracle(ref[1:], hyp[1:]) + (ref[0] != hyp[0]),
                   oracle(ref[1:], hyp) + 1,
                   oracle(ref, hyp[1:]) + 1)

    strings = [""]
    for n in range(1, 5):
        strings += ["".join(p) for p in itertools.product("ABC", repeat=n)]
    cases = 0
    for ref in strings:
        for hyp in strings:
            assert align(ref, hyp).total_errors == oracle(ref, hyp)
            cases += 1
    rng = np.random.default_rng(4)
    for _ in range(2000):
        n1, n2 = rng.integers(5, 7), rng.integers(5, 7)
        ref = "".join(rng.choice(list("ABC"), size=n1))
        hyp = "".join(rng.choice(list("ABC"), size=n2))
        assert align(ref, hyp).total_errors == oracle(ref, hyp)
        cases += 1
    assert ler(ErrorDecomposition(2, 1, 1, 10)) == 40.0
    assert ler(ErrorDecomposition(0, 0, 0, 7)) == 0.0
    assert ler(ErrorDecomposition(3, 2, 5, 8)) == (3 + 2 + 5) / 8 * 100
    elapsed = time.time() - t0
    report("4 (metric oracle)", cases >= 14641 and elapsed < 10,
           "%d pairs (exhaustive <=4 plus sampled 5-6), %.1fs" % (cases, elapsed))


def test_criterion_5_dimensional_fidelity():
    ok = True
    details = []
    hog_dim = HOG_DIM
    ok &= hog_dim == 2688
    details.append("HOG %d" % hog_dim)
    letter_block = clf.classifier_block(
        clf.FramePosteriors(letters=np.full(28, 1 / 28)), "letter")
    ok &= letter_block.shape == (28,)
    sizes = {"SF POR": 4, "SF joints": 7, "SF quantity": 5, "SF thumb": 3,
             "SF handpart": 4, "UF": 3}
    feature_block = clf.classifier_block(
        clf.FramePosteriors(features={k: np.full(v, 1.0 / v)
                                      for k, v in sizes.items()}),
        "feature", feature_order=sorted(sizes))
    ok &= feature_block.shape == (26,)
    details.append("tandem blocks %d/%d" % (feature_block.shape[0],
                                            letter_block.shape[0]))
    total = PhonologicalFeatureTable().total_value_count
    ok &= total == 26
    details.append("phonological values %d" % total)
    window = stack_window(np.zeros((40, 128)), 20, 21)
    ok &= window.shape == (2688,)
    details.append("128x21 window %d" % window.shape[0])
    report("5 (dimensional fidelity)", ok, ", ".join(details))


def test_criterion_6_adaptation_identities(full_corpus):
    alphabet = LetterAlphabet()
    pcfg = pipeline.PipelineConfig()
    window, static_dim = pcfg.frontend.window, full_corpus.words[0].descriptors.shape[1]
    # signer-independent classifier on three signers; adapt to the fourth
    # with the default corpus split (criterion's "default synthetic split")
    by_signer = pipeline.split_by_signer(full_corpus)
    train = [w for sid in ("S1", "S2", "S3") for w in by_signer[sid]][:120]
    base, _ = pipeline.train_frame_classifier(train, alphabet, pcfg)
    s4 = by_signer["S4"]
    adapt_words, _ = pipeline.adaptation_split(s4, pcfg.adapt_fraction, pcfg.seed)
    xs, ys = [], []
    from segspell.vision import stack_windows
    for w in adapt_words:
        xs.append(stack_windows(w.descriptors, window))
        ys.extend(pipeline.ground_truth_frame_labels(w, alphabet))
    x = np.concatenate(xs)
    y = np.asarray(ys, dtype=int)

    up = clf.AdaptationModel("LIN+UP", base, window, static_dim)
    lon = clf.AdaptationModel("LIN+LON", base, window, static_dim)
    base_logits = base.forward(x)
    bitwise_up = np.array_equal(up.logits(x), base_logits)
    bitwise_lon = np.array_equal(lon.logits(x), base_logits)

    tcfg = replace(pcfg.adapt_train, max_epochs=6, seed=6)
    tuned, history = clf.adapt(base, (x, y), "fine-tune", tcfg, window, static_dim)
    final = clf.cross_entropy(tuned.predict_proba(x), y)
    decreased = final < history[0]["loss"]
    report("6 (adaptation identities)",
           bitwise_up and bitwise_lon and decreased,
           "LIN+UP bitwise %s, LIN+LON bitwise %s, fine-tune CE %.4f -> %.4f"
           % (bitwise_up, bitwise_lon, history[0]["loss"], final))


def test_criterion_7_end_to_end_trends(protocol_state):
    r = protocol_state["report"]["ler"]
    dep, ind = r["dependent"]["Mean"], r["independent"]["Mean"]
    gt, fa = r["GT"]["Mean"], r["FA"]["Mean"]
    gap = ind - dep
    gt_recovery = (ind - gt) / gap if gap > 0 else 0.0
    fa_recovery = (ind - fa) / gap if gap > 0 else 0.0
    elapsed = protocol_state["elapsed"]
    conditions = {
        "dependent <= 15": dep <= 15.0,
        "independent >= dependent + 15": ind >= dep + 15.0,
        "GT recovers >= 50% of the gap": gt_recovery >= 0.5,
        "0 < FA recovery < GT recovery": 0.0 < fa_recovery < gt_recovery,
        "full run < 10 min": elapsed < 600.0,
    }
    report("7 (end-to-end trends)", all(conditions.values()),
           "dep %.2f ind %.2f GT %.2f FA %.2f (GT rec %.0f%%, FA rec %.0f%%), "
           "%.0fs; %s" % (dep, ind, gt, fa, 100 * gt_recovery,
                          100 * fa_recovery, elapsed,
                          {k: v for k, v in conditions.items() if not v} or "all ok"))


def test_protocol_results_are_pinned(protocol_state):
    r = protocol_state["report"]
    table = {row: {sid: "%.2f %.2f %.2f %.2f" % tuple(
        r["details"][row][sid][k] for k in ("ler", "D_rate", "S_rate", "I_rate"))
        for sid in r["signers"]} for row in r["rows"]}
    for row in r["rows"]:
        table[row]["Mean"] = "%.2f" % r["ler"][row]["Mean"]
    assert table == PROTOCOL_TABLE
    assert {sid: ["%.2f" % v for v in lers]
            for sid, lers in protocol_state["fa_iters"].items()} == FA_ITERATIONS


def test_criterion_8_iterated_fa(protocol_state):
    iters = protocol_state["fa_iters"]
    first = float(np.mean([v[0] for v in iters.values()]))
    second = float(np.mean([v[1] for v in iters.values()]))
    report("8 (iterated forced alignment)", second <= first + 0.5,
           "mean LER iteration 1: %.2f, iteration 2: %.2f" % (first, second))


def test_criterion_9_cascade(full_corpus):
    alphabet = LetterAlphabet()
    pcfg = pipeline.PipelineConfig()
    scfg = pipeline.ScrfConfig()
    by_signer = pipeline.split_by_signer(full_corpus)
    # adapted setting: signer-independent models for S4, classifier
    # fine-tuned on S4 adaptation data; one token per word keeps the
    # cascade training set desk-sized
    train = [w for sid in ("S1", "S2", "S3")
             for i, w in enumerate(by_signer[sid]) if i % 2 == 0][:120]
    rec_train, rec_eval, eval_words = pipeline.cascade_recognizers(
        train, by_signer["S4"], alphabet, pcfg, full_corpus.word_list)
    t0 = time.time()
    result = pipeline.run_cascade(rec_train, rec_eval, train, eval_words[:60],
                                  alphabet, pcfg, scfg)
    ok = result["second_ler"] <= result["first_ler"] + 0.5
    report("9 (segmental cascade)", ok,
           "first pass %.2f -> second pass %.2f LER (%.0fs)"
           % (result["first_ler"], result["second_ler"], time.time() - t0))
    pairs = [["".join(ref), "".join(hyp)]
             for ref, hyp in result["first_pairs"] + result["second_pairs"]]
    assert ("%.2f" % result["first_ler"], "%.2f" % result["second_ler"],
            hashlib.sha256(json.dumps(pairs).encode()).hexdigest()) == CASCADE


def test_criterion_10_determinism(tmp_path):
    from segspell import cli
    d = tmp_path
    outs = []
    for run in (1, 2):
        corpus = d / ("c%d" % run)
        assert cli.main(["gen-data", "--out", str(corpus), "--wordlist", "1",
                         "--words", "8", "--signers", "2", "--seed", "77"]) == 0
        model = d / ("m%d.json" % run)
        assert cli.main(["train-classifier", "--corpus", str(corpus),
                         "--out", str(model), "--signers", "S1",
                         "--seed", "77"]) == 0
        rec = d / ("rec%d" % run)
        assert cli.main(["train-hmm", "--corpus", str(corpus),
                         "--classifier", str(model), "--out", str(rec),
                         "--signers", "S1", "--seed", "77"]) == 0
        hyp = d / ("h%d.txt" % run)
        ref = d / ("r%d.txt" % run)
        assert cli.main(["decode", "--recognizer", str(rec),
                         "--corpus", str(corpus), "--signers", "S2",
                         "--out", str(hyp), "--refs", str(ref)]) == 0
        sc = d / ("s%d.json" % run)
        assert cli.main(["score", "--ref", str(ref), "--hyp", str(hyp),
                         "--json", str(sc)]) == 0
        outs.append([(corpus / "manifest.json").read_bytes(),
                     model.read_bytes(),
                     (rec / "hmm.json").read_bytes(),
                     hyp.read_bytes(), sc.read_bytes()])
    identical = all(a == b for a, b in zip(outs[0], outs[1]))
    report("10 (determinism)", identical,
           "manifest/model/hmm/hypotheses/report byte-identical across runs")
