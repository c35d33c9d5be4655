"""The benchmark's workloads, their inputs, operations and output checks.

Every workload runs single-threaded in one process as one caller in a
closed loop: an iteration starts when the previous one has returned.  The
seed goes to ``make_signers``/``generate_corpus`` only; ``PipelineConfig``
and ``ScrfConfig`` stay at their defaults.

An operation is one decoded, aligned, lattice-built or rescored word, or
one recognizer (or rescoring model) build.  ``ValueError``,
``NoPathError`` and ``ReferenceNotInLattice`` raised by an operation are
counted against it and the run carries on; an operation whose output
fails a check counts as failed too.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from segspell import hmm, metrics, pipeline, scrf, synthgen
from segspell.alphabet import LetterAlphabet
from segspell.cli import builtin_wordlist
from segspell.segments import TilingError, check_tiling, letters_only

from tracer import EntryPoint, Patches

KNOWN_ERRORS = (ValueError, hmm.NoPathError, scrf.ReferenceNotInLattice)
ALPHABET = LetterAlphabet()
LETTERS = frozenset(ALPHABET.letters + ALPHABET.doubled)
SYMBOLS = frozenset(ALPHABET.symbols)
CFG = pipeline.PipelineConfig()
SCORE_TOLERANCE = 1e-9
TRAIN_SIGNERS = ("S1", "S2", "S3")
PROTOCOL_ROWS = ("dependent", "independent", "GT", "FA")

# Input sizes, in words of word list 1 (the corpus) and tokens of the timed
# part.  One iteration takes 7-11 s on one core, so a 30 s run repeats it
# three times and reports medians.  protocol needs 5 words: 10 tokens
# per signer fill its 10 signer-dependent folds.
SIZES = {
    "protocol": {"signers": 4, "words": 5},
    "cascade": {"words": 20, "train": 5, "eval": 5},
    "decode": {"words": 20, "s4": 6, "others": 3},
}
SETUP_REPEATS = {"protocol": 9, "cascade": 3, "decode": 3}
# Median seconds of one iteration at these sizes on a 2-vCPU x86-64 host
# (Python 3.11, one OpenBLAS thread); a run of --seconds s does
# round(seconds / NOMINAL_ITER_S) iterations.
NOMINAL_ITER_S = {"protocol": 9.6, "cascade": 9.6, "decode": 9.5}


# ---------------------------------------------------------------------------
# Inputs

def spread(items, n):
    """n items evenly spaced over ``items``, in order."""
    n = min(n, len(items))
    return [items[i * len(items) // n] for i in range(n)]


def rotate(by_signer, n, step=1):
    """n tokens of the training signers in turn, at evenly spaced positions
    of each signer's token list (every ``step``-th token), so that no word
    repeats for n up to the word count."""
    out = []
    for i in range(n):
        tokens = by_signer[TRAIN_SIGNERS[i % len(TRAIN_SIGNERS)]][::step]
        out.append(tokens[i * len(tokens) // n])
    return out


def make_corpus(seed, signers, words):
    word_list = spread(builtin_wordlist("1"), words)
    return synthgen.generate_corpus(word_list, synthgen.make_signers(signers, seed),
                                    seed, repetitions=2)


def word_id(w):
    return "%s/%s/%d" % (w.signer_id, w.word, w.seed_key[-1])


def frames(words):
    return sum(w.num_frames for w in words)


# ---------------------------------------------------------------------------
# Operations and their checks

class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass
class Op:
    kind: str
    word: str
    value: object = None
    error: str = None


@dataclass
class Outcome:
    """What one iteration produced: its operations, headline LER values,
    every LER cell, and the quality counts the per-layer report carries."""
    ops: list = field(default_factory=list)
    lers: dict = field(default_factory=dict)
    cells: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def run(self, kind, word, fn):
        """Run one operation; a known error is recorded and returns None."""
        try:
            value = fn()
        except KNOWN_ERRORS as exc:
            self.fail(kind, word, exc)
            return None
        self.ops.append(Op(kind, word, value))
        return value

    def fail(self, kind, word, exc):
        self.ops.append(Op(kind, word, error="%s: %s" % (type(exc).__name__, exc)))

    def watch(self, kind, ops_of):
        """Hook factory for Patches.replace, for calls made inside a pipeline
        function that cannot carry on after a failure: ``ops_of(args,
        value)`` turns each call into operations, and a known error is
        recorded as one failed ``kind`` operation and re-raised."""
        def make(original):
            def hook(*args, **kwargs):
                try:
                    value = original(*args, **kwargs)
                except KNOWN_ERRORS as exc:
                    self.fail(kind, "-", exc)
                    raise
                self.ops.extend(ops_of(args, value))
                return value
            return hook
        return make

    def ended_by(self, where, exc):
        """A known error ended a pipeline call; record it unless the hook
        that saw it already did."""
        if not (self.ops and self.ops[-1].error):
            self.fail(where, "-", exc)


def _segments(segs):
    return [[s.label, s.start, s.end] for s in segs]


def _check_labels(labels, allowed):
    bad = [l for l in labels if l not in allowed]
    if bad:
        raise CheckFailed("labels outside the alphabet: %r" % (bad,))


def _check_lattice(lattice, num_frames):
    scores = [h.score for h in lattice.hypotheses]
    if not all(math.isfinite(s) for s in scores):
        raise CheckFailed("non-finite lattice score")
    if any(b > a for a, b in zip(scores, scores[1:])):
        raise CheckFailed("lattice scores increase: %r" % (scores,))
    for h in lattice.hypotheses:
        _check_labels(h.labels, SYMBOLS)
        check_tiling(h.segments, num_frames)


def _check_finite(value, what):
    if not math.isfinite(value):
        raise CheckFailed("%s is not finite: %r" % (what, value))


def check_op(op):
    """Raise CheckFailed or TilingError if the output is wrong; return
    the part of the output that goes into the hypothesis digest."""
    v = op.value
    if op.kind == "decode":                  # (ref letters, hyp letters)
        _check_labels(v[1], LETTERS)
        return list(v[1])
    if op.kind == "viterbi":                 # (letters, segments, score), T
        (letters, segs, score), t_len = v
        _check_labels(letters, LETTERS)
        check_tiling(segs, t_len)
        _check_finite(score, "Viterbi score")
        return _segments(segs)
    if op.kind == "align":                   # (segments, score), T, reference
        (segs, score), t_len, ref = v
        check_tiling(segs, t_len)
        got = [s.label for s in segs if s.label in LETTERS]
        if got != list(ref):
            raise CheckFailed("alignment letters %r != reference %r" % (got, ref))
        _check_finite(score, "alignment score")
        return _segments(segs)
    if op.kind == "lattice":                 # lattice, T, Viterbi score or None
        lattice, t_len, best = v
        _check_lattice(lattice, t_len)
        top = lattice.hypotheses[0].score
        if best is not None and abs(top - best) > SCORE_TOLERANCE:
            raise CheckFailed("N-best top %r != Viterbi %r" % (top, best))
        return [_segments(h.segments) for h in lattice.hypotheses]
    if op.kind == "rescore":                 # (labels, best hypothesis, score), T
        (labels, best_hyp, score), t_len = v
        _check_labels(labels, SYMBOLS)
        check_tiling(best_hyp.segments, t_len)
        _check_finite(score, "rescore score")
        return list(labels)
    if op.kind == "train":                   # segmental model
        if not all(math.isfinite(x) for x in v.weights):
            raise CheckFailed("non-finite model weight")
        return None
    if op.kind == "build":
        return None
    raise ValueError("unknown operation kind %r" % (op.kind,))


@dataclass
class Verdict:
    attempted: int
    failed: int
    check_failures: list
    digest: str


def judge(outcome):
    """Check every operation and the LER values; digest the hypotheses."""
    failed = 0
    problems = []
    hyps = []
    for op in outcome.ops:
        if op.error is not None:
            failed += 1
            hyps.append([op.kind, op.word, "error"])
            continue
        try:
            hyps.append([op.kind, op.word, check_op(op)])
        except (CheckFailed, TilingError) as exc:
            failed += 1
            problems.append("%s %s: %s" % (op.kind, op.word, exc))
    for value in outcome.cells:
        if not math.isfinite(value):
            problems.append("LER cell is not finite: %r" % (value,))
    blob = json.dumps({"hypotheses": hyps, "ler": outcome.lers,
                       "cells": outcome.cells}, sort_keys=True)
    return Verdict(len(outcome.ops), failed, problems,
                   hashlib.sha256(blob.encode()).hexdigest()[:16])


def _ler(pairs):
    return metrics.score_corpus(pairs)["ler"] if pairs else None


# ---------------------------------------------------------------------------
# protocol

def setup_protocol(seed, size):
    corpus = make_corpus(seed, size["signers"], size["words"])
    return {"corpus": corpus, "frames": frames(corpus.words)}


def iterate_protocol(state):
    """run_protocol with all four rows.  It is one call, so its operations
    are seen through its calls to build_recognizer and decode_words.  A
    known error ends the iteration: the failing call counts as one failed
    operation, and what was not yet run is not counted as attempted."""
    out = Outcome()
    with Patches() as patches:
        patches.replace("pipeline", "build_recognizer", out.watch(
            "build", lambda args, rec: [Op("build", "recognizer")]))
        patches.replace("pipeline", "decode_words", out.watch(
            "decode", lambda args, pairs: [Op("decode", word_id(w), pair)
                                           for w, pair in zip(args[1], pairs)]))
        try:
            report = pipeline.run_protocol(state["corpus"], rows=PROTOCOL_ROWS)
        except KNOWN_ERRORS as exc:
            out.ended_by("protocol", exc)
            out.lers = {"ler." + row.lower(): None for row in PROTOCOL_ROWS}
            return out
    out.lers = {"ler." + row.lower(): report["ler"][row]["Mean"] for row in PROTOCOL_ROWS}
    out.cells = [report["ler"][row][col] for row in PROTOCOL_ROWS
                 for col in report["signers"] + ["Mean"]]
    return out


# ---------------------------------------------------------------------------
# cascade

def setup_cascade(seed, size):
    corpus = make_corpus(seed, 4, size["words"])
    by_signer = pipeline.split_by_signer(corpus)
    train = [w for sid in TRAIN_SIGNERS
             for i, w in enumerate(by_signer[sid]) if i % 2 == 0]
    rec_train = pipeline.build_recognizer(train, ALPHABET, CFG, corpus.word_list)
    adapt_words, eval_words = pipeline.adaptation_split(
        by_signer["S4"], CFG.adapt_fraction, CFG.seed)
    rec_eval, _ = pipeline.adapt_recognizer(rec_train, adapt_words, ALPHABET,
                                            "fine-tune", "GT")
    train_words = rotate(by_signer, size["train"], step=2)
    eval_words = spread(eval_words, size["eval"])
    return {"rec_train": rec_train, "rec_eval": rec_eval, "train": train_words,
            "eval": eval_words, "frames": frames(train_words + eval_words)}


def iterate_cascade(state):
    """run_cascade on the train and eval words.  Its first-pass lattices are
    seen through scrf.nbest_decode; a known error ends the iteration."""
    out = Outcome()
    with Patches() as patches:
        patches.replace("scrf", "nbest_decode", out.watch(
            "lattice", lambda args, lat: [Op("lattice", "frames=%d" % args[1].num_frames,
                                             (lat, args[1].num_frames, None))]))
        try:
            result = pipeline.run_cascade(state["rec_train"], state["rec_eval"],
                                          state["train"], state["eval"], ALPHABET, CFG)
        except KNOWN_ERRORS as exc:
            out.ended_by("cascade", exc)
            out.lers = {"ler.first_pass": None, "ler.second_pass": None}
            return out
    for w, first, second in zip(state["eval"], result["first_pairs"],
                                result["second_pairs"]):
        out.ops.append(Op("decode", word_id(w) + "/first", first))
        out.ops.append(Op("decode", word_id(w) + "/second", second))
    out.lers = {"ler.first_pass": result["first_ler"],
                "ler.second_pass": result["second_ler"]}
    out.cells = [result["first_ler"], result["second_ler"]]
    out.counts["scrf.second_pass_changed"] = sum(
        list(f[1]) != list(s[1]) for f, s in zip(result["first_pairs"],
                                                 result["second_pairs"]))
    return out


# ---------------------------------------------------------------------------
# decode

def setup_decode(seed, size):
    corpus = make_corpus(seed, 4, size["words"])
    by_signer = pipeline.split_by_signer(corpus)
    train = [w for sid in TRAIN_SIGNERS for w in by_signer[sid]]
    rec = pipeline.build_recognizer(train, ALPHABET, CFG, corpus.word_list)
    s4 = spread(by_signer["S4"], size["s4"])
    others = rotate(by_signer, size["others"])
    return {"rec": rec, "s4": s4, "others": others, "frames": frames(s4 + others)}


def iterate_decode(state):
    """Per S4 word: Viterbi, forced alignment to the reference and an N-best
    lattice.  Then N-best lattices for S1-S3 words train the rescoring
    model, which rescores each S4 lattice."""
    rec = state["rec"]
    out = Outcome()
    vit_pairs, s4_lattices = [], []
    for w in state["s4"]:
        obs = rec.observations(w)
        t_len = len(obs)
        vit = out.run("viterbi", word_id(w), lambda: (
            hmm.viterbi_decode(rec.hmm, rec.lm, obs, CFG.decode), t_len))
        out.run("align", word_id(w), lambda: (
            hmm.forced_align(rec.hmm, obs, w.letters), t_len, w.letters))
        best = vit[0][2] if vit else None
        lat = out.run("lattice", word_id(w), lambda: (
            hmm.nbest(rec.hmm, rec.lm, obs, CFG.decode), t_len, best))
        if vit:
            vit_pairs.append((w.letters, vit[0][0]))
        if lat:
            s4_lattices.append((w, lat[0]))
    train_words, train_lattices = [], []
    for w in state["others"]:
        obs = rec.observations(w)
        lat = out.run("lattice", word_id(w), lambda: (
            hmm.nbest(rec.hmm, rec.lm, obs, CFG.decode), len(obs), None))
        if lat:
            train_words.append(w)
            train_lattices.append(lat[0])
    all_lattices = [(w, lat) for w, lat in s4_lattices] + list(zip(train_words, train_lattices))
    out.counts["hmm.nbest.ref_in_lattice"] = (
        sum(any(h.letters == list(w.letters) for h in lat.hypotheses)
            for w, lat in all_lattices) / len(all_lattices) if all_lattices else 0.0)
    model = None
    if train_words:
        model = out.run("train", "rescoring", lambda: pipeline.train_rescoring(
            rec, train_words, ALPHABET, lattices=train_lattices)[0])
    rescored = []
    if model is not None:
        for w, lattice in s4_lattices:
            ctx = pipeline.make_context(rec, w, lm=rec.lm,
                                        baseline_frames=lattice.baseline_frames)
            res = out.run("rescore", word_id(w), lambda: (
                scrf.rescore(model, lattice, ctx), w.num_frames))
            if res:
                rescored.append((w.letters, letters_only(res[0][0])))
    out.counts["scrf.rescore.failed"] = sum(op.kind == "rescore" and op.error is not None
                                            for op in out.ops)
    out.lers = {"ler.viterbi": _ler(vit_pairs), "ler.rescored": _ler(rescored)}
    out.cells = [v for v in out.lers.values() if v is not None]
    return out


WORKLOADS = {
    "protocol": (setup_protocol, iterate_protocol),
    "cascade": (setup_cascade, iterate_cascade),
    "decode": (setup_decode, iterate_decode),
}


# ---------------------------------------------------------------------------
# Traced entry points

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _frames_of_result(a, k, r):
    return {"frames": len(r)}


def _has_adjacent_repeat(labels):
    return any(x == y for x, y in zip(labels, labels[1:]))


ENTRY_POINTS = (
    EntryPoint("vision", "stack_windows", ("frames",), lambda a, k, r: {
        "frames": len(r),
        "distinct": ((id(_arg(a, k, 0, "seq")), r.shape[1]), _arg(a, k, 0, "seq"))},
        distinct=True),
    EntryPoint("vision", "fit_pca"),
    EntryPoint("classifier", "train_mlp", ("epochs",),
        lambda a, k, r: {"epochs": len(r[1])}, per=("epochs", "epoch")),
    EntryPoint("classifier", "adapt"),
    EntryPoint("classifier", "MlpModel.predict_proba", ("frames",), _frames_of_result),
    EntryPoint("classifier", "AdaptationModel.predict_proba", ("frames",), _frames_of_result),
    EntryPoint("classifier", "build_tandem_observation"),
    EntryPoint("lm", "train_bigram"),
    EntryPoint("hmm", "train_em", ("iters",), lambda a, k, r: {"iters": len(r[1])},
        per=("iters", "iter")),
    EntryPoint("hmm", "build_decode_graph", (), lambda a, k, r: {"distinct": (
        (id(_arg(a, k, 0, "model")), id(_arg(a, k, 1, "lm")),
         _arg(a, k, 2, "cfg").lm_weight, _arg(a, k, 2, "cfg").penalty),
        (_arg(a, k, 0, "model"), _arg(a, k, 1, "lm")))}, distinct=True),
    EntryPoint("hmm", "viterbi_decode", ("frames",),
        lambda a, k, r: {"frames": len(_arg(a, k, 2, "seq"))}),
    EntryPoint("hmm", "forced_align", ("frames",),
        lambda a, k, r: {"frames": len(_arg(a, k, 1, "seq"))}),
    EntryPoint("hmm", "nbest", ("frames",), lambda a, k, r: {"frames": len(_arg(a, k, 2, "seq"))}),
    EntryPoint("scrf", "compute_tables", ("cells",), lambda a, k, r: {"cells": int(r.table.size)}),
    EntryPoint("scrf", "forward_pass"),
    EntryPoint("scrf", "backward_pass"),
    EntryPoint("scrf", "clamped_expectation"),
    EntryPoint("scrf", "free_expectation"),
    EntryPoint("scrf", "train_cll", ("epochs",), lambda a, k, r: {"epochs": len(r)},
        per=("epochs", "epoch")),
    EntryPoint("scrf", "nbest_decode"),
    EntryPoint("scrf", "rescore"),
    EntryPoint("pipeline", "build_recognizer"),
    EntryPoint("pipeline", "Recognizer.observations", ("frames",), lambda a, k, r: {
        "frames": len(r),
        "distinct": ((id(a[0].classifier), id(a[1])), (a[0].classifier, a[1]))},
        distinct=True),
    EntryPoint("pipeline", "decode_words"),
    EntryPoint("pipeline", "adapt_recognizer"),
    EntryPoint("pipeline", "train_firstpass", ("dropped",), lambda a, k, r: {
        "dropped": sum(_has_adjacent_repeat(list(w.labels))
                       for w in _arg(a, k, 1, "train_words"))}),
    EntryPoint("pipeline", "train_segment_classifier"),
    EntryPoint("pipeline", "make_context"),
    EntryPoint("metrics", "score_corpus"),
    EntryPoint("synthgen", "generate_corpus", phase="setup"),
)

# Quality counts an iteration reports, as (name, unit, better); 0 where the
# workload has no such output (HMM lattices only on decode, the second pass
# only on cascade).
QUALITY_SPECS = (("hmm.nbest.ref_in_lattice", "ratio", "higher"),
                 ("scrf.rescore.failed", "count", "lower"),
                 ("scrf.second_pass_changed", "count", "higher"))
