"""Spans around segspell's public entry points, recorded from outside.

Each traced entry point is replaced, for the length of a traced run, in
every loaded ``segspell`` module that holds it (or on its class, for a
method), so callers pick the wrapper up wherever they look the name up.
Spans stay in memory (name, start, end, parent, run id, item counts) and
are written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class EntryPoint:
    """One traced name: ``layer`` is the segspell module it lives in,
    ``qualname`` is a function or ``Class.method``.  ``count`` maps
    (args, kwargs, result) to item counts for the span; a ``"distinct"``
    item is a (key, keep-alive object) pair used for useful-work ratios.
    ``per`` is (item, unit): ``s_per_<unit>`` is inclusive time divided
    by that item count."""
    layer: str
    qualname: str
    items: tuple = ()
    count: object = None
    per: tuple = None
    distinct: bool = False
    phase: str = "iteration"

    @property
    def name(self):
        return "%s.%s" % (self.layer, self.qualname)


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "items", "key",
                 "outer", "error")

    def __init__(self, name, parent, run, outer):
        self.name = name
        self.parent = parent
        self.run = run
        self.outer = outer
        self.start = self.end = 0.0
        self.items = None
        self.key = None
        self.error = None

    def to_jsonable(self, index):
        out = {"id": index, "name": self.name, "start": self.start,
               "end": self.end, "parent": self.parent, "run": self.run}
        if self.items:
            out["items"] = self.items
        if self.error:
            out["error"] = self.error
        return out


def _lookup(layer, qualname):
    module = sys.modules["segspell." + layer]
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, attr, owner.__dict__[attr] if owner_name else getattr(module, attr)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def replace(self, layer, qualname, make_wrapper):
        """Wrap ``segspell.<layer>.<qualname>`` everywhere it is looked up:
        on its class for a method, else in every loaded segspell module
        whose globals hold the same function."""
        owner, attr, original = _lookup(layer, qualname)
        wrapper = make_wrapper(original)
        if owner is not sys.modules["segspell." + layer]:
            holders = [owner]
        else:
            holders = [m for n, m in sorted(sys.modules.items())
                       if (n == "segspell" or n.startswith("segspell."))
                       and m is not None and getattr(m, attr, None) is original]
        for holder in holders:
            setattr(holder, attr, wrapper)
            self._undo.append((holder, attr, original))

    def undo(self):
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.undo()
        return False


class Tracer:
    """Records spans for a fixed table of entry points while installed."""

    def __init__(self, entry_points):
        self.entry_points = tuple(entry_points)
        self.spans = []
        self.runs = []
        self._stack = []
        self._active = {}
        self._keep = []
        self._run = None
        self._patches = Patches()

    def _wrap(self, ep, fn):
        name = ep.name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            depth = self._active.get(name, 0)
            span = Span(name, stack[-1] if stack else -1, self._run, depth == 0)
            stack.append(len(self.spans))
            self.spans.append(span)
            self._active[name] = depth + 1
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self._active[name] = depth
            if ep.count is not None:
                items = ep.count(args, kwargs, result)
                if ep.distinct:
                    # the kept object stays alive, so its id is never reused
                    span.key, keep = items.pop("distinct")
                    self._keep.append(keep)
                span.items = items
            return result
        return traced

    def install(self, run):
        """Start recording spans under run id ``run``."""
        self._run = run
        self.runs.append(run)
        for ep in self.entry_points:
            self._patches.replace(ep.layer, ep.qualname,
                                  functools.partial(self._wrap, ep))

    def uninstall(self):
        self._patches.undo()
        self._run = None

    # -- aggregation -------------------------------------------------------

    def _self_times(self):
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def per_run_metrics(self):
        """{run id: {metric name: value}} for every entry point."""
        self_times = self._self_times()
        by_run = {run: {} for run in self.runs}
        distinct = {run: {} for run in self.runs}
        for span, self_s in zip(self.spans, self_times):
            m = by_run[span.run]
            m["trace.spans"] = m.get("trace.spans", 0) + 1
            m[span.name + ".calls"] = m.get(span.name + ".calls", 0) + 1
            m[span.name + ".self_s"] = m.get(span.name + ".self_s", 0.0) + self_s
            if span.outer:
                m[span.name + ".s"] = m.get(span.name + ".s", 0.0) + span.end - span.start
            for item, n in (span.items or {}).items():
                key = "%s.%s" % (span.name, item)
                m[key] = m.get(key, 0) + n
            if span.key is not None:
                distinct[span.run].setdefault(span.name, set()).add(span.key)
        out = {}
        for run, m in by_run.items():
            row = {}
            for ep in self.entry_points:
                calls = m.get(ep.name + ".calls", 0)
                row[ep.name + ".calls"] = calls
                row[ep.name + ".s"] = m.get(ep.name + ".s", 0.0)
                row[ep.name + ".self_s"] = m.get(ep.name + ".self_s", 0.0)
                for item in ep.items:
                    row["%s.%s" % (ep.name, item)] = m.get("%s.%s" % (ep.name, item), 0)
                if ep.per:
                    n = row["%s.%s" % (ep.name, ep.per[0])]
                    row["%s.s_per_%s" % (ep.name, ep.per[1])] = \
                        row[ep.name + ".s"] / n if n else 0.0
                if ep.distinct:
                    seen = len(distinct[run].get(ep.name, ()))
                    row[ep.name + ".useful_ratio"] = seen / calls if calls else 0.0
            row["trace.spans"] = m.get("trace.spans", 0)
            out[run] = row
        return out

    def layer_metrics(self, iteration_runs, setup_runs):
        """Median over runs of each entry point's per-run values; entry
        points of the set-up phase take their median over set-up runs."""
        per_run = self.per_run_metrics()
        out = {}
        for ep in self.entry_points:
            runs = setup_runs if ep.phase == "setup" else iteration_runs
            for key in per_run[runs[0]]:
                if key.startswith(ep.name + "."):
                    out[key] = statistics.median(per_run[r][key] for r in runs)
        out["trace.spans"] = statistics.median(per_run[r]["trace.spans"]
                                               for r in iteration_runs)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for i, span in enumerate(self.spans):
                f.write(json.dumps(span.to_jsonable(i)) + "\n")


TRACE_SPECS = (("trace.overhead_s", "s", "lower"), ("trace.spans", "count", "lower"))


def metric_specs(entry_points):
    """(name, unit, better) of every per-entry-point metric, in report order."""
    specs = []
    for ep in entry_points:
        specs += [(ep.name + ".calls", "count", "lower"),
                  (ep.name + ".s", "s", "lower"),
                  (ep.name + ".self_s", "s", "lower")]
        specs += [("%s.%s" % (ep.name, item), "count", "lower") for item in ep.items]
        if ep.per:
            specs.append(("%s.s_per_%s" % (ep.name, ep.per[1]), "s", "lower"))
        if ep.distinct:
            specs.append((ep.name + ".useful_ratio", "ratio", "higher"))
    return specs
