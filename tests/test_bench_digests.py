"""The kept behaviour, pinned: one iteration of each benchmark workload
(``perfbench/workloads.py``) at its benchmark size and default seed digests
to a fixed value.  A digest hashes
the decoded letters, the lattices' hypotheses and the LERs, not scores;
it changes only with an explanation in CHANGES.md.  Every traced entry
point resolves, so renaming one breaks this suite, not only the benchmark."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 20160825            # perfbench/run.py's default seed
DIGESTS = {"decode": "f6629b5f7bbfdde5", "cascade": "47c8dc1be833c4eb",
           "protocol": "cc4ab1ed2f52fb42"}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_workload_digest_is_pinned(name):
    setup, iterate = workloads.WORKLOADS[name]
    verdict = workloads.judge(iterate(setup(SEED, workloads.SIZES[name])))
    assert (verdict.failed, verdict.check_failures) == (0, [])
    assert verdict.digest == DIGESTS[name]


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
    from segspell import scrf
    from tests.test_scrf import random_ctx, random_model
    rng = np.random.default_rng(3)
    ctx = random_ctx(rng, 6)
    model = random_model(rng, ctx, ["A", "B", "C"], 4)
    (ep,) = [ep for ep in workloads.ENTRY_POINTS if ep.name == "scrf.compute_tables"]
    tables = scrf.compute_tables(model, ctx)
    assert ep.count((model, ctx), {}, tables) == {"cells": 6 * 4 * 3}
