"""segspell benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload decode --seed 20160825 --seconds 30 --trace 0

Workloads (each one's reason is its ``why`` in ``BENCHMARK.json``):
``protocol`` (the training side), ``cascade`` (the segmental CRF cascade)
and ``decode`` (the inference side).
Each is set up several times, then iterated in a closed loop.  A run does
a fixed number of iterations, ``--seconds`` divided by the workload's
nominal iteration time (``workloads.NOMINAL_ITER_S``), so that its
operations, and the counts of attempted and failed ones, depend only on
the seed and ``--seconds``, not on the speed of the machine.
With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced iterations and prints
per-layer metrics from the traced ones, their overhead, and writes the spans
to ``perfbench/out/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# One BLAS thread, set before NumPy loads: with two OpenBLAS threads the
# protocol burns twice the CPU for a slower wall time on a two-core machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 20160825

END_TO_END_UNITS = {"wall_s": "s", "frames_per_s": "1/s", "cpu_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("protocol", "cascade", "decode"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {"machine": platform.machine(), "system": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS}


class Loop:
    """``iterations`` closed-loop iterations of one workload; with a tracer,
    every odd-numbered one is traced."""

    def __init__(self, iterate, state, iterations, tracer=None):
        self.iterate, self.state, self.iterations, self.tracer = iterate, state, iterations, tracer
        self.walls, self.cpus, self.traced, self.outcomes = [], [], [], []

    def one(self, index):
        traced = self.tracer is not None and index % 2 == 1
        if traced:
            self.tracer.install("iter%d" % index)
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            outcome = self.iterate(self.state)
        finally:
            w1, c1 = time.perf_counter(), time.process_time()
            if traced:
                self.tracer.uninstall()
        self.walls.append(w1 - w0)
        self.cpus.append(c1 - c0)
        self.traced.append(traced)
        self.outcomes.append(outcome)

    def run(self):
        for index in range(self.iterations):
            self.one(index)


def iteration_count(name, seconds, traced):
    """Iterations that fill about ``seconds`` at the nominal iteration
    time; a traced run needs one untraced and one traced iteration."""
    import workloads
    return max(2 if traced else 1, round(seconds / workloads.NOMINAL_ITER_S[name]))


def layer_specs():
    """(name, unit, better) of every per-layer metric a traced run reports."""
    import workloads
    from tracer import TRACE_SPECS, metric_specs
    return metric_specs(workloads.ENTRY_POINTS) + list(workloads.QUALITY_SPECS) \
        + list(TRACE_SPECS)


def summarize(values):
    return "median %.4f of %d (min %.4f, max %.4f)" % (
        statistics.median(values), len(values), min(values), max(values))


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "segspell" / "__init__.py").is_file():
        print("perfbench: no segspell sources at %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    warnings.filterwarnings("ignore", message="classes absent from training data")

    import workloads
    from tracer import Tracer

    name = args.workload
    setup, iterate = workloads.WORKLOADS[name]
    size = workloads.SIZES[name]
    tracer = Tracer(workloads.ENTRY_POINTS) if args.trace else None

    setup_times = []
    setup_runs = []
    for k in range(workloads.SETUP_REPEATS[name]):
        if tracer:
            setup_runs.append("setup%d" % k)
            tracer.install(setup_runs[-1])
        t0 = time.perf_counter()
        try:
            state = setup(args.seed, size)
        finally:
            setup_times.append(time.perf_counter() - t0)
            if tracer:
                tracer.uninstall()

    loop = Loop(iterate, state, iteration_count(name, args.seconds, tracer is not None),
                tracer)
    loop.run()

    verdicts = [workloads.judge(o) for o in loop.outcomes]
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    problems = [p for v in verdicts for p in v.check_failures]
    digests = sorted({v.digest for v in verdicts})
    correct = not problems and len(digests) == 1
    first = loop.outcomes[0]

    env = environment()
    print("perfbench workload=%s seed=%d seconds=%g trace=%d"
          % (name, args.seed, args.seconds, args.trace))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("  why: %s" % next(w["why"] for w in spec["workloads"] if w["name"] == name))
    print("  sizes: %s; frames in the timed part: %d" % (json.dumps(size), state["frames"]))
    print("  environment: %s" % json.dumps(env, sort_keys=True))
    print("  loop: closed, 1 caller, 1 thread; %d iterations (%d traced)"
          % (len(loop.walls), sum(loop.traced)))
    print("  operations: attempted %d, failed %d" % (attempted, failed))
    for op in (op for o in loop.outcomes[:1] for op in o.ops if op.error):
        print("    failed %s %s: %s" % (op.kind, op.word, op.error))
    for p in problems[:10]:
        print("    check failed: %s" % p)
    print("  digest: %s%s" % (" ".join(digests),
                              "" if len(digests) == 1 else "  (iterations disagree)"))

    plain = [i for i, t in enumerate(loop.traced) if not t]
    walls = [loop.walls[i] for i in plain]
    cpus = [loop.cpus[i] for i in plain]
    wall = statistics.median(walls)
    e2e = {"wall_s": wall, "frames_per_s": state["frames"] / wall,
           "cpu_s": statistics.median(cpus), "setup_s": statistics.median(setup_times),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    print("  end-to-end%s:" % (" (untraced iterations)" if tracer else ""))
    print("    wall_s %s s" % summarize(walls))
    print("      iterations: %s" % " ".join("%.3f%s" % (w, "T" if t else "")
                                          for w, t in zip(loop.walls, loop.traced)))
    print("    cpu_s %s s" % summarize(cpus))
    print("    setup_s %s s" % summarize(setup_times))
    print("    frames_per_s %.2f 1/s (%d frames / median wall_s)"
          % (e2e["frames_per_s"], state["frames"]))
    print("    peak_rss_mb %.1f MB" % e2e["peak_rss_mb"])
    print("    failed_frac %.4f (%d failed / %d attempted)"
          % (failed / attempted if attempted else 0.0, failed, attempted))
    for key, value in sorted(first.lers.items()):
        print("    %s %s %%" % (key, "n/a" if value is None else "%.2f" % value))

    if tracer:
        iter_runs = ["iter%d" % i for i, t in enumerate(loop.traced) if t]
        layer = tracer.layer_metrics(iter_runs, setup_runs)
        traced_walls = [w for w, t in zip(loop.walls, loop.traced) if t]
        layer["trace.overhead_s"] = statistics.median(traced_walls) - wall
        for key, _, _ in workloads.QUALITY_SPECS:
            layer[key] = first.counts.get(key, 0)
        units = {n: u for n, u, _ in layer_specs()}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / ("spans-%s-%d.jsonl" % (name, args.seed))
        tracer.write(span_file)
        print("  per-layer (median over %d traced iterations; spans in %s):"
              % (len(iter_runs), span_file.relative_to(ROOT)))
        print("    trace.overhead_s %.4f s (traced wall %s minus untraced %.4f)"
              % (layer["trace.overhead_s"], summarize(traced_walls), wall))
        for key in sorted(layer):
            print("    %s %.6g %s" % (key, layer[key], units[key]))
        metrics = {k: {"value": layer[k], "unit": u} for k, u in units.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
