"""The kept behaviour, pinned: one iteration of each benchmark workload
(``perfbench/workloads.py``) at its benchmark size and default seed digests
to a fixed value.  A digest hashes
the decoded letters, the lattices' hypotheses and the LERs, not scores;
it changes only with an explanation in CHANGES.md.  The searches' own
results, scores to the last bit, are pinned on the same inputs.  Every
traced entry point resolves, so renaming one breaks this suite, not only
the benchmark."""

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402
import workloads  # noqa: E402

from segspell import hmm, pipeline, scrf  # noqa: E402

SEED = 20160825            # perfbench/run.py's default seed
DIGESTS = {"decode": "f6629b5f7bbfdde5", "cascade": "47c8dc1be833c4eb",
           "protocol": "cc4ab1ed2f52fb42"}
SEARCH_DIGESTS = {"decode": "b4d7ad514b3ba6ce", "cascade": "a2a318396d7baeba"}


@pytest.fixture(scope="module")
def workload_state():
    """Each workload's setup, made once for this module's tests."""
    made = {}

    def get(name):
        if name not in made:
            setup, _ = workloads.WORKLOADS[name]
            made[name] = setup(SEED, workloads.SIZES[name])
        return made[name]
    return get


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_workload_digest_is_pinned(name, workload_state):
    verdict = workloads.judge(workloads.WORKLOADS[name][1](workload_state(name)))
    assert (verdict.failed, verdict.check_failures) == (0, [])
    assert verdict.digest == DIGESTS[name]


def _hyp(labels, segments, score):
    return [list(labels), [[s.label, s.start, s.end] for s in segments], float(score).hex()]


def _lattice(lattice):
    return [_hyp(h.labels, h.segments, h.score) for h in lattice.hypotheses]


def _search_results(name, state):
    """decode: forced alignment, Viterbi and 8-best lattices of the HMM on
    each word; cascade: the first-pass model's Viterbi and 8-best lattices
    on each context ``run_cascade`` makes, the model trained as it trains
    it."""
    if name == "decode":
        rec, cfg = state["rec"], replace(workloads.CFG.decode, nbest=8)
        results = []
        for w in state["s4"] + state["others"]:
            obs = rec.observations(w)
            segs, score = hmm.forced_align(rec.hmm, obs, w.letters)
            results.append([_hyp([s.label for s in segs], segs, score),
                            _hyp(*hmm.viterbi_decode(rec.hmm, rec.lm, obs, cfg)),
                            _lattice(hmm.nbest(rec.hmm, rec.lm, obs, cfg))])
        return results
    first, _ = pipeline.train_firstpass(state["rec_train"], state["train"], workloads.ALPHABET)
    ctxs = ([pipeline.make_context(state["rec_train"], w) for w in state["train"]]
            + [pipeline.make_context(state["rec_eval"], w) for w in state["eval"]])
    return [[_hyp(*scrf.viterbi(first, ctx)), _lattice(scrf.nbest_decode(first, ctx, 8))]
            for ctx in ctxs]


@pytest.mark.parametrize("name", sorted(SEARCH_DIGESTS))
def test_search_results_are_pinned(name, workload_state):
    # labels, spans and every score's bits; a pin changes only with an
    # explanation in CHANGES.md
    blob = json.dumps(_search_results(name, workload_state(name)))
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == SEARCH_DIGESTS[name]


def test_traced_entry_points_resolve():
    # the tracer's own install finds and wraps each name (importing
    # workloads loads every traced module), and its uninstall puts every
    # original back
    originals = [tracer._lookup(ep.layer, ep.qualname)[2] for ep in workloads.ENTRY_POINTS]
    traced = tracer.Tracer(workloads.ENTRY_POINTS)
    traced.install(0)
    try:
        wrapped = [tracer._lookup(ep.layer, ep.qualname)[2] for ep in workloads.ENTRY_POINTS]
    finally:
        traced.uninstall()
    assert all(w.__wrapped__ is o for w, o in zip(wrapped, originals))
    assert [tracer._lookup(ep.layer, ep.qualname)[2]
            for ep in workloads.ENTRY_POINTS] == originals


def test_traced_cells_count_reads_the_table():
    from tests.test_scrf import random_ctx, random_model
    rng = np.random.default_rng(3)
    ctx = random_ctx(rng, 6)
    model = random_model(rng, ctx, ["A", "B", "C"], 4)
    (ep,) = [ep for ep in workloads.ENTRY_POINTS if ep.name == "scrf.compute_tables"]
    tables = scrf.compute_tables(model, ctx)
    assert ep.count((model, ctx), {}, tables) == {"cells": 6 * 4 * 3}
