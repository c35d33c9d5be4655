"""The kept behaviour, pinned: one iteration of the ``decode`` and
``cascade`` benchmark workloads (``perfbench/workloads.py``) at their
benchmark sizes and default seed digests to fixed values.  A digest hashes
the decoded letters, the lattices' hypotheses and the LERs, not scores;
it changes only with an explanation in CHANGES.md."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SEED = 20160825            # perfbench/run.py's default seed
DIGESTS = {"decode": "f6629b5f7bbfdde5", "cascade": "47c8dc1be833c4eb"}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_workload_digest_is_pinned(name):
    setup, iterate = workloads.WORKLOADS[name]
    verdict = workloads.judge(iterate(setup(SEED, workloads.SIZES[name])))
    assert (verdict.failed, verdict.check_failures) == (0, [])
    assert verdict.digest == DIGESTS[name]
