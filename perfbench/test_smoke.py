"""Tiny-scale checks of the benchmark itself; they are not part of the
repository's test suite.  Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.filterwarnings("ignore:classes absent from training data")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = {"protocol": {"signers": 2, "words": 5},
        "cascade": {"words": 5, "train": 2, "eval": 1},
        "decode": {"words": 5, "s4": 1, "others": 1}}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_iteration_computes_what_untraced_does(name):
    setup, iterate = workloads.WORKLOADS[name]
    tracer = Tracer(workloads.ENTRY_POINTS)
    loop = run.Loop(iterate, setup(7, TINY[name]), 2, tracer)
    loop.run()
    assert loop.traced == [False, True]
    verdicts = [workloads.judge(o) for o in loop.outcomes]
    assert [p for v in verdicts for p in v.check_failures] == []
    assert verdicts[0].digest == verdicts[1].digest
    assert verdicts[0].attempted > 0
    assert any(s.run == "iter1" for s in tracer.spans)


@pytest.mark.parametrize("name", sorted(TINY))
def test_iteration_count_depends_only_on_seconds(name):
    # A fixed count keeps attempted/failed a function of seed and --seconds.
    assert run.iteration_count(name, 30, False) == 3
    assert run.iteration_count(name, 1, False) == 1
    assert run.iteration_count(name, 1, True) == 2


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in run.layer_specs()]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "decode",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
