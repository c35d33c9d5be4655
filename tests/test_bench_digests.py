"""The kept behaviour, pinned: one iteration of each benchmark workload
(``perfbench/workloads.py``) at its benchmark size and default seed digests
to a fixed value.  A digest hashes
the decoded letters, the lattices' hypotheses and the LERs, not scores;
it changes only with an explanation in CHANGES.md."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
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
