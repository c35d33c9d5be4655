"""Semi-Markov (segmental) CRF.

A hypothesis is a label sequence plus a segmentation tiling the frames;
consecutive segments must change label.  Each segment scores its span
(the weights times the left-independent features of its frames under its
label) plus its label pair (the left-dependent features).  The
segmentation is a latent variable: the probability of a label sequence
sums over all segmentations consistent with it: over the candidate
segmentations of a lattice when it has one, else over the full
bounded-duration space.

Every score comes from one span path: a feature scores a batch of spans
under every label at once, a lattice hypothesis gathers its segments from
one call over the lattice's spans, and expectations weight the same
values by span posteriors.  ``FirstPassFeatures`` never builds its (spans,
block) values, each a sum of a few frame rows.  Inference is exact and
follows the first-order semi-CRF of Sarawagi & Cohen (NIPS 2004), on
``Tables``: span scores and an (L+1) x L transition matrix, row 0 the
START context, where the LM feature (it reads nothing but the label pair)
joins the structural constraints.  A score is linear in the weights, so
the rest of a table is built once per model and length.  One forward
sweep serves log-partition (log-sum-exp), N-best (maximum) and the
backward pass, which is the forward sweep in reversed time.

Training maximizes conditional log-likelihood by (sub)gradient ascent with
L2 and proximal (clip-at-zero) L1 steps, set by ``ScrfConfig``; the
gradient is the clamped (reference label sequence) feature expectation
minus the free one.  An epoch that overflows stops training (DataError).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .alphabet import BEGIN_SILENCE, END_SILENCE, SILENCES
from .fileio import (DataError, FieldError, check_fields, in_file, read_json, shaped_array,
                     write_json)
from .metrics import align
from .segments import (CandidateLattice, Hypothesis, NoPathError, check_tiling,
                       lattice_from_ranked, letters_only)

START_LABEL = "<start>"
NEG_INF = -np.inf


# ---------------------------------------------------------------------------
# Per-sequence inputs that feature functions may read

@dataclass
class FeatureContext:
    num_frames: int
    letter_posteriors: np.ndarray = None    # (T, C)
    descriptors: np.ndarray = None          # (T, d)
    lm: object = None
    baseline_frames: list = None            # length-T labels from the 1-best baseline

    def __post_init__(self):
        for name, arr in [("letter_posteriors", self.letter_posteriors),
                          ("descriptors", self.descriptors)]:
            if arr is not None and len(arr) != self.num_frames:
                raise ValueError("%s has %d frames, expected %d"
                                 % (name, len(arr), self.num_frames))
        if self.baseline_frames is not None and len(self.baseline_frames) != self.num_frames:
            raise ValueError("baseline labeling length mismatch")

    @cached_property
    def peak_curve(self):
        if self.descriptors is None:
            raise ValueError("peak curve requires descriptors")
        return smoothed_derivative(self.descriptors)


def smoothed_derivative(descriptors, window=5):
    """L2 norms of consecutive-frame differences (length T-1), smoothed by a
    centered moving average; windows shrink at the edges.

    A full window of fewer than 8 values is summed left to right,
    ``(((d0 + d1) + d2) + d3) + d4`` for window 5, then divided by its
    length: the bits ``diffs[lo:hi].mean()`` gives, since NumPy adds so
    few contiguous values in order.  Edge windows, and full windows of 8
    or more, use ``mean()`` itself."""
    x = np.asarray(descriptors, dtype=np.float64)
    diffs = np.linalg.norm(np.diff(x, axis=0), axis=1)
    n = len(diffs)
    half = window // 2
    width = 2 * half + 1
    out = np.empty_like(diffs)
    edges = range(n)
    if width < 8 and n >= width:
        total = diffs[:n - width + 1].copy()
        for k in range(1, width):
            total += diffs[k:n - width + 1 + k]
        out[half:n - half] = total / width
        edges = list(range(half)) + list(range(n - half, n))
    for i in edges:
        out[i] = diffs[max(0, i - half):min(n, i + half + 1)].mean()
    return out


def count_interior_minima(curve):
    """Strict interior local minima; a flat plateau of equal minimal values
    counts once, and runs touching either end are never minima."""
    c = np.asarray(curve, dtype=np.float64)
    m = len(c)
    count = 0
    i = 0
    while i < m:
        j = i
        while j + 1 < m and c[j + 1] == c[i]:
            j += 1
        if i > 0 and j < m - 1 and c[i - 1] > c[i] and c[j + 1] > c[j]:
            count += 1
        i = j + 1
    return count


def delta_peak(ctx, start, end):
    """1 iff the smoothed derivative restricted to the span has exactly one
    interior local minimum."""
    return 1.0 if count_interior_minima(ctx.peak_curve[start:end]) == 1 else 0.0


def segment_thirds(n):
    """Sizes of the three contiguous thirds: ceil(n/3) first, remainder split
    evenly with the earlier part larger."""
    a = -(-n // 3)
    rest = n - a
    b = -(-rest // 2)
    return a, b, rest - b


def span_thirds(rows, op):
    """``op`` (np.mean or np.max) over each contiguous third of a span's
    posterior rows, concatenated; an empty third gives zeros."""
    a, b, c = segment_thirds(len(rows))
    return np.concatenate([op(p, axis=0) if len(p) else np.zeros(rows.shape[1])
                           for p in (rows[0:a], rows[a:a + b], rows[a + b:a + b + c])])


# ---------------------------------------------------------------------------
# Feature functions, each over the model's labels.  A feature has ``block``
# weights, one block ``shared`` by all labels or one per label (in the
# model's label order).  A left-independent one scores the spans [starts[k],
# ends[k]] under every label (``span_scores``, from the (blocks, block)
# weight matrix ``wm``) and sums their values weighted by span posteriors
# (``span_expectation``).  Only the LM feature reads the left label, and
# nothing else: pair_matrix() gives every label pair's values.

class LmFeature:
    """Bigram probability p(right | left) of the labels across the edge,
    from ``ctx.lm``.  A pair the LM has no probability for scores 1.0: every
    pair from START (the LM's begin context is ``<s>``), after ``</s>`` or
    into ``<s>``, and every pair when the context has no LM."""

    name = "lm"
    left_dependent = True
    shared = True
    block = 1

    def pair_matrix(self, ctx, labels):
        """Values for every (left, right) pair, (L+1, L, 1); row 0 is START.
        They are read from the LM's ``prob_matrix``."""
        if ctx.lm is None:
            return np.ones((len(labels) + 1, len(labels), 1))
        return ctx.lm.prob_matrix([START_LABEL] + list(labels), labels)[..., None]


class _Scalar:
    """One value per (span, label) (``span_values``) and one weight, by
    default shared by all labels."""

    left_dependent = False
    shared = True
    block = 1

    def span_scores(self, ctx, starts, ends, labels, wm):
        return self.span_values(ctx, starts, ends, labels) * wm[:, 0]

    def span_expectation(self, ctx, starts, ends, labels, post):
        """(..., L, 1): the values summed with weights ``post[..., k, y]``."""
        return (post * self.span_values(ctx, starts, ends, labels)).sum(axis=-2)[..., None]


class BaselineFeature(_Scalar):
    """+1 iff the span covers exactly one baseline label run and that label
    matches the segment's label; -1 otherwise."""

    name = "baseline"

    def span_values(self, ctx, starts, ends, labels):
        frames = ctx.baseline_frames
        run = np.cumsum([0] + [a != b for a, b in zip(frames, frames[1:])])
        hit = np.array([[frames[s] == l for l in labels] for s in starts], dtype=bool)
        return np.where((run[starts] == run[ends])[:, None] & hit, 1.0, -1.0)


class _SpanVector:
    """One value vector of ``block`` values per span, scored against the
    weight block of the segment's label."""

    left_dependent = False
    shared = False

    def span_vectors(self, ctx, starts, ends):
        """Base vectors of the spans [starts[k], ends[k]], (spans, block)."""
        return np.array([self.base_vector(ctx, s, e) for s, e in zip(starts, ends)])

    def span_scores(self, ctx, starts, ends, labels, wm):
        """(spans, L): the vectors against each label's block, row of ``wm``."""
        return self.span_vectors(ctx, starts, ends) @ wm.T

    def span_expectation(self, ctx, starts, ends, labels, post):
        """(..., L, block): the vectors summed with weights ``post[..., k, y]``."""
        return post.swapaxes(-1, -2) @ self.span_vectors(ctx, starts, ends)


class ClassifierStatFeature(_SpanVector):
    """Per-label span statistics of the letter classifier's posteriors.

    kind 'mean'/'max' give one value per (label, classifier value); the
    'div_s'/'div_m' kinds give three, one per contiguous third of the span
    (empty thirds contribute zeros).  The classifier has ``num_classes``
    values per frame.
    """

    def __init__(self, kind, num_classes):
        if kind not in ("mean", "max", "div_s", "div_m"):
            raise ValueError("unknown statistic kind %r" % (kind,))
        self.block = (3 if kind.startswith("div") else 1) * num_classes
        self.kind = kind
        self.name = "classifier_letter_" + kind   # the name saved models store

    def base_vector(self, ctx, start, end):
        g = ctx.letter_posteriors[start:end + 1]
        if self.kind == "mean":
            return g.mean(axis=0)
        if self.kind == "max":
            return g.max(axis=0)
        return span_thirds(g, np.mean if self.kind == "div_s" else np.max)


class PeakFeature(_SpanVector):
    """Per-label single-peak indicator: entry y is delta(label = y) times
    whether the span's smoothed derivative has exactly one local minimum."""

    name = "peak"
    block = 1

    def base_vector(self, ctx, start, end):
        return np.array([delta_peak(ctx, start, end)])


class FirstPassFeatures(_SpanVector):
    """The first-pass feature set: per right label, the average classifier
    posterior over the span, posterior samples at the first/middle/last
    frames, posteriors at the two boundary frames, a duration one-hot
    (bucketed at L_max) and a bias, a block per label.  Its span products go
    through the few frame rows each span's values add up (``_rows``)."""

    name = "firstpass"

    def __init__(self, num_classes, max_duration):
        self.num_classes = num_classes
        self.max_duration = max_duration
        self.block = 6 * num_classes + max_duration + 1
        self._selectors = {}    # T -> (starts, ends, a): see _selector

    def span_vectors(self, ctx, starts, ends):
        return self.span_scores(ctx, starts, ends, None, np.eye(self.block))

    def _rows(self, ctx, starts, ends):
        """(a, parts): row k of the sparse ``a`` picks the frame rows that
        add up to span k's values: the posteriors' prefix sums at its end + 1
        and start (times +-1/d: the mean), the posteriors at its first,
        middle and last frames, its duration bucket and the bias.  ``parts``
        pairs each group of rows with the feature blocks it fills."""
        g = np.asarray(ctx.letter_posteriors, dtype=np.float64)
        t, c = len(g), self.num_classes
        block = [slice(k * c, (k + 1) * c) for k in range(6)] + [slice(6 * c, None)]
        cums = np.vstack([np.zeros(c), np.cumsum(g, axis=0)])
        return self._selector(t, starts, ends), [
            (cums, block[0:1]), (g, block[1::3]), (g, block[2:3]), (g, block[3::2]),
            (np.eye(self.max_duration + 1), block[6:])]

    def _selector(self, t, starts, ends):
        """``_rows``' ``a``, which depends on the spans and T alone.  The
        last one built for each T is kept with the arrays it was built for,
        so the tables and both expectations of a full-space span set (the
        same ``SpanIndex`` arrays on every call and epoch) build it once."""
        held = self._selectors.get(t)
        if held is None or held[0] is not starts or held[1] is not ends:
            from scipy.sparse import csr_array   # here: only first-pass users pay its 1.5 MB
            n, d = len(starts), ends + 1 - starts
            cols = np.stack([ends + 1, starts, t + 1 + starts, 2 * t + 1 + (starts + ends) // 2,
                             3 * t + 1 + ends, 4 * t + np.minimum(d, self.max_duration),
                             np.full(n, 4 * t + 1 + self.max_duration)], axis=1)
            vals = np.ones((n, 7))
            vals[:, 0], vals[:, 1] = 1.0 / d, -1.0 / d
            held = self._selectors[t] = (starts, ends, csr_array(
                (vals.ravel(), cols.ravel(), np.arange(0, 7 * n + 1, 7)),
                shape=(n, 4 * t + self.max_duration + 2)))
        return held[2]

    def span_scores(self, ctx, starts, ends, labels, wm):
        a, parts = self._rows(ctx, starts, ends)
        return a @ np.vstack([rows @ sum(wm[:, b] for b in blocks).T for rows, blocks in parts])

    def span_expectation(self, ctx, starts, ends, labels, post):
        a, parts = self._rows(ctx, starts, ends)
        sums = a.T @ np.moveaxis(post, -2, 0).reshape(len(starts), -1)
        sums = np.moveaxis(sums.reshape((-1,) + post.shape[:-2] + post.shape[-1:]), 0, -1)
        out, at = np.empty(sums.shape[:-1] + (self.block,)), 0
        for rows, blocks in parts:
            value = sums[..., at:at + len(rows)] @ rows
            for b in blocks:
                out[..., b] = value
            at += len(rows)
        return out


class FirstPassScoreFeature(_Scalar):
    """Span score under a trained first-pass model; summed over a
    segmentation this reproduces that model's total score.  The model must
    be left-independent and have the second pass's labels (see
    build_second_pass)."""

    name = "firstpass_score"

    def __init__(self, model):
        self.model = model

    def span_values(self, ctx, starts, ends, labels):
        return self.model.edge_scores(ctx, starts, ends)[0]


class SegmentClassifierFeature(_Scalar):
    """Posterior of a segment-level classifier for the hypothesized label,
    from a fixed-dimension summary: the means of the span's three thirds
    (``span_thirds`` with np.mean); its classes are the model's labels.
    Each label has its own weight."""

    name = "segment_classifier"
    shared = False

    def __init__(self, mlp):
        self.mlp = mlp

    def span_values(self, ctx, starts, ends, labels):
        """One classifier call for all spans."""
        g = ctx.letter_posteriors
        return self.mlp.predict_proba(np.array([span_thirds(g[s:e + 1], np.mean)
                                                for s, e in zip(starts, ends)]))


# ---------------------------------------------------------------------------
# Model

class ManifestError(DataError):
    pass


class SegmentalModel:
    """Feature registry plus weights, label set and duration bounds; each
    feature brings ``dims`` weights: its ``block``, once when ``shared``,
    else once per label.  ``weights`` start at zero, are set by training or
    ``load_weights``, and are what every score reads.

    Durations are bounded by ``max_duration`` except for the boundary
    silences, which are exempt; letters may also get a minimum duration.
    As ``transition_ok`` lets no label precede ``<s>`` or follow ``</s>``,
    their segments always touch the first or the last frame (``Tables``),
    with or without the optional initial- and final-label constraints.
    """

    def __init__(self, labels, features, max_duration=40, min_letter_duration=1,
                 initial_labels=None, final_labels=None):
        self.labels = list(labels)
        self.features = list(features)
        self.dims = [f.block * (1 if f.shared else len(self.labels)) for f in self.features]
        self.offsets = np.concatenate([[0], np.cumsum(self.dims)]).astype(int)
        self.total_dim = int(self.offsets[-1])
        self.weights = np.zeros(self.total_dim)
        self.max_duration = max_duration
        self.min_letter_duration = min_letter_duration
        self.initial_labels = set(initial_labels) if initial_labels is not None else None
        self.final_labels = set(final_labels) if final_labels is not None else None
        self._ids = {l: i for i, l in enumerate(self.labels)}
        self._structures = {}   # weight-free parts of Tables (compute_tables)

    @property
    def left_dependent(self):
        return any(f.left_dependent for f in self.features)

    def min_dur(self, label):
        return 1 if label in SILENCES else self.min_letter_duration

    def max_dur(self, label, num_frames):
        return num_frames if label in SILENCES else min(self.max_duration, num_frames)

    def transition_ok(self, prev, nxt):
        return prev != nxt and nxt != BEGIN_SILENCE and prev != END_SILENCE

    def initial_ok(self, label):
        return self.initial_labels is None or label in self.initial_labels

    def final_ok(self, label):
        return self.final_labels is None or label in self.final_labels

    def edge_scores(self, ctx, starts, ends):
        """(span, pair): the left-independent features' score of each span
        [starts[k], ends[k]] under each label (spans, L), duration bounds not
        applied, and the left-dependent ones' of each label pair (L+1, L),
        row 0 the START context."""
        nl = len(self.labels)
        span, pair = np.zeros((len(starts), nl)), np.zeros((nl + 1, nl))
        for f, off, dim in zip(self.features, self.offsets[:-1], self.dims):
            w = self.weights[off:off + dim]
            if f.left_dependent:
                pair += f.pair_matrix(ctx, self.labels) @ w
            else:
                span += f.span_scores(ctx, starts, ends, self.labels, w.reshape(-1, f.block))
        return span, pair

    def score(self, labels, segments, ctx):
        """Total weighted feature score of one labeled segmentation.

        The duration bounds only size the full-space tables, so a lattice
        hypothesis is scored as given, exactly as lattice training scores
        it."""
        check_tiling(segments, ctx.num_frames)
        if len(labels) != len(segments):
            raise ValueError("label/segment count mismatch")
        return float(lattice_scores(self, ctx, [(labels, segments)])[0])

    def final_mask(self):
        return np.array([0.0 if self.final_ok(l) else NEG_INF for l in self.labels])

    # -- serialization ------------------------------------------------------

    def manifest(self):
        return [{"name": f.name, "dim": int(d)} for f, d in zip(self.features, self.dims)]

    def save(self, path):
        write_json(path, {
            "schema": "segspell-scrf-1",
            "labels": self.labels,
            "manifest": self.manifest(),
            "max_duration": self.max_duration,
            "min_letter_duration": self.min_letter_duration,
            "initial_labels": sorted(self.initial_labels) if self.initial_labels is not None else None,
            "final_labels": sorted(self.final_labels) if self.final_labels is not None else None,
            "weights": self.weights.tolist(),
        })

    def load_weights(self, path):
        """Load weights; fails unless the stored manifest matches this
        model's registered feature functions and dimensions."""
        obj = read_json(path)
        if obj.get("manifest") != self.manifest():
            raise ManifestError("%s: feature manifest mismatch: stored %r vs registered %r"
                                % (path, obj.get("manifest"), self.manifest()))
        self.weights = shaped_array(obj.get("weights"), (self.total_dim,), "%s: weights" % path)
        return self


def _expectation(model, ctx, starts, ends, post, pair_post=None):
    """Expected features (..., total_dim): ``post[..., k, y]`` times the
    values of span k (frames [starts[k], ends[k]]) labeled y, summed over
    spans and labels, plus ``pair_post[..., p, y]`` times the values of the
    label pair (indexed like the transition matrix).  A shared block adds
    up its labels' values."""
    lead = post.shape[:-2]
    expect = np.zeros(lead + (model.total_dim,))
    for f, off, dim in zip(model.features, model.offsets[:-1], model.dims):
        if f.left_dependent:
            expect[..., off:off + dim] = np.einsum(
                "...py,pyk->...k", pair_post, f.pair_matrix(ctx, model.labels))
            continue
        e = f.span_expectation(ctx, starts, ends, model.labels, post)
        if f.shared:
            e = np.ones((1, e.shape[-2])) @ e
        expect[..., off:off + dim] = e.reshape(lead + (dim,))
    return expect


# ---------------------------------------------------------------------------
# Lattices: each hypothesis gathers its segments' scores from one edge_scores
# call over the lattice's distinct spans

def _lattice_spans(model, hyps):
    """The distinct spans of ``hyps``, (labels, segments) pairs, as (starts,
    ends), and per segment its hypothesis, span, label index and previous
    context (0 START, y+1 after label y)."""
    spans, rows = {}, []
    for h, (labels, segments) in enumerate(hyps):
        prev = 0
        for label, seg in zip(labels, segments):
            if label not in model._ids:
                raise DataError("lattice label %r is not one of the model's labels" % (label,))
            y = model._ids[label]
            rows.append((h, spans.setdefault((seg.start, seg.end), len(spans)), y, prev))
            prev = y + 1
    bounds = np.array(list(spans), dtype=int).reshape(-1, 2)
    return (bounds[:, 0], bounds[:, 1]) + tuple(np.array(rows, dtype=int).reshape(-1, 4).T)


def lattice_scores(model, ctx, hyps):
    """Total score of each (labels, segments) pair of ``hyps``."""
    starts, ends, hyp, span, label, prev = _lattice_spans(model, hyps)
    span_scores, pair_scores = model.edge_scores(ctx, starts, ends)
    return np.bincount(hyp, span_scores[span, label] + pair_scores[prev, label], len(hyps))


def lattice_feature_totals(model, ctx, hyps):
    """(H, total_dim) feature totals of each (labels, segments) pair of
    ``hyps``: an expectation whose span posteriors count their segments."""
    starts, ends, hyp, span, label, prev = _lattice_spans(model, hyps)
    nl = len(model.labels)
    post = np.zeros((len(hyps), len(starts), nl))
    post[hyp, span, label] = 1.0
    pairs = np.zeros((len(hyps), nl + 1, nl))
    np.add.at(pairs, (hyp, prev, label), 1.0)
    return _expectation(model, ctx, starts, ends, post, pairs)


# ---------------------------------------------------------------------------
# Log-space helpers

def _logsumexp(values):
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return NEG_INF
    m = float(np.max(values))
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(float(np.sum(np.exp(values - m))))


def _lse(values):
    """logsumexp along axis 0, overwriting ``values``; all -inf columns stay
    -inf (callers silence the log's divide-by-zero warning)."""
    m = values.max(axis=0)
    m[m == NEG_INF] = 0.0
    values -= m
    np.exp(values, out=values)
    out = np.log(values.sum(axis=0))
    out += m
    return out


# ---------------------------------------------------------------------------
# Score tables

class SpanIndex:
    """Start and exclusive end boundaries of the spans ``Tables`` scores for
    T frames: the table's (t, d <= dmax) cells row-major, (t, d) at row
    ``first_cell[t] + d - 1``, then [0, t) at ``enter[t-1]`` for t = 1..T, then
    [t, T) at ``leave[t]`` for t = 0..T-1.  ``by_end[end_cut[t]:end_cut[t+1]]``
    are the spans ending at t, shortest first (nbest_segmentations' tie
    order; a stable sort keeps cell (0, t) before its equal [0, t));
    ``reversed`` is (starts, by_end, end_cut) with frame t read as T - t."""

    def __init__(self, t_len, dmax):
        self.num_frames, self.dmax = t_len, dmax
        t, d = np.divmod(np.arange(t_len * dmax), dmax)
        t, e = t[t + d < t_len], (t + d + 1)[t + d < t_len]
        self.cells = len(t)
        self.first_cell = np.flatnonzero(e - t == 1)
        self.enter, self.leave = self.cells + np.arange(2 * t_len).reshape(2, t_len)
        b = np.arange(1, t_len + 1)
        self.starts = np.concatenate([t, 0 * b, b - 1])
        self.ends = np.concatenate([e, b, t_len + 0 * b])
        self.durations = self.ends - self.starts
        self.last = self.ends - 1            # inclusive last frames
        self.by_end, self.end_cut = self._grouped(self.ends)

    def _grouped(self, ends):
        order = np.argsort(ends * (self.num_frames + 1) + self.durations, kind="stable")
        return order, np.searchsorted(ends[order], np.arange(self.num_frames + 2))

    @cached_property
    def reversed(self):
        return (self.num_frames - self.ends,) + self._grouped(self.num_frames - self.starts)


@dataclass
class Tables:
    """One sequence's edge scores, the input of every inference routine.

    ``scores[k, y]`` scores a segment labeled y over span k of ``index``,
    -inf where infeasible; the unbounded ``<s>`` and ``</s>`` segments
    always cover [0, t) or [t, T) (``SegmentalModel``), 2T spans, not T^2.
    ``trans[p, y]`` scores label y after context p (row 0 START, row p+1
    label p); ``final[y]`` ends a hypothesis on y.  ``table[t, d-1, c]``
    views the scores of label ``columns[c]`` over frames [t, t+d)."""
    scores: np.ndarray                 # (spans, L)
    trans: np.ndarray                  # (L+1, L)
    final: np.ndarray                  # (L,)
    index: SpanIndex
    columns: np.ndarray                # the table's labels

    @property
    def table(self):
        ix = self.index
        table = np.full((ix.num_frames, ix.dmax, len(self.columns)), NEG_INF)
        table[ix.starts[:ix.cells], ix.durations[:ix.cells] - 1] = \
            self.scores[:ix.cells][:, self.columns]
        return table


def _structure(model, t_len):
    """The weight-free part of a T-frame sequence's ``Tables``, built once
    per model, length and constraints: (span index, infeasible (span, label)
    mask, constraint part of ``trans``, ``final``, table columns)."""
    key = (t_len, model.max_duration, model.min_letter_duration, *(
        s if s is None else frozenset(s) for s in (model.initial_labels, model.final_labels)))
    if key not in model._structures:
        labels = model.labels
        index = SpanIndex(t_len, min(model.max_duration, t_len))
        # the part of the span order that scores each label: table, enter, leave
        part = np.repeat([0, 1, 2], [index.cells, t_len, t_len])
        own = np.array([{BEGIN_SILENCE: 1, END_SILENCE: 2}.get(l, 0) for l in labels])
        dur = index.durations[:, None]
        infeasible = ((part[:, None] != own) | (dur < [model.min_dur(l) for l in labels])
                      | (dur > [model.max_dur(l, t_len) for l in labels]))
        trans = np.where([list(map(model.initial_ok, labels))]
                         + [[model.transition_ok(p, y) for y in labels] for p in labels],
                         0.0, NEG_INF)
        model._structures[key] = (index, infeasible, trans, model.final_mask(),
                                  np.flatnonzero(own == 0))
    return model._structures[key]


def compute_tables(model, ctx):
    """Every edge score of one sequence, as ``Tables``.

    Letters are scored over spans up to dmax = min(max_duration, T) frames,
    -inf outside their duration bounds; ``<s>`` only enters and ``</s>``
    only leaves, whatever ``initial_labels`` and ``final_labels`` say: one
    ``SegmentalModel.edge_scores`` call over T * dmax + 2T spans.  ``trans``
    adds the pair scores to the constraints (initial labels in row 0, -inf
    for disallowed pairs).  The rest is weight-free (``_structure``)."""
    index, infeasible, trans, final, letters = _structure(model, ctx.num_frames)
    scores, pair = model.edge_scores(ctx, index.starts, index.last)
    scores[infeasible] = NEG_INF
    return Tables(scores, trans + pair, final, index, letters)


# ---------------------------------------------------------------------------
# Exact inference over the full segmentation space

@np.errstate(divide="ignore")
def _sweep(scores, starts, order, cut, first, pair, reduce):
    """forward_pass's (alpha, prev_lse) for any grouping by end, START row and pair block."""
    scores, starts = scores[order], starts[order]
    seg, ctx = np.full((2, len(cut) - 1, len(first)), NEG_INF)
    ctx[0] = first
    for t in range(1, len(seg)):
        k = slice(cut[t], cut[t + 1])
        seg[t] = reduce(scores[k] + ctx[starts[k]])
        ctx[t] = reduce(seg[t][:, None] + pair)
    return seg, ctx


def forward_pass(tabs, reduce=_lse):
    """(alpha, prev_lse).  alpha[t, y]: log-sum over partial hypotheses
    covering frames [0, t) whose final segment has label y; prev_lse[t, y]:
    log-sum over contexts preceding a segment starting at t labeled y, with
    the pair score (START at t=0, which the enter spans also follow).
    ``reduce=np.maximum.reduce`` takes the best instead: the 1-best pass."""
    ix, trans = tabs.index, tabs.trans
    return _sweep(tabs.scores, ix.starts, ix.by_end, ix.end_cut, trans[0], trans[1:], reduce)


def backward_pass(tabs):
    """(tail, inner).  tail[t, p]: log-sum over completions of frames [t, T)
    given the previous segment ended at t with label p; tail[T] is the final
    score.  inner[t, y]: the same completions restricted to a first segment
    labeled y, without its pair score.  The forward sweep in reversed time."""
    inner, tail = _sweep(tabs.scores, *tabs.index.reversed, tabs.final, tabs.trans[1:].T, _lse)
    return tail[::-1], inner[:0:-1]


def log_partition(model, ctx, lattice=None):
    """log sum of exp(score) over the hypotheses of ``lattice``, or without
    one over every labeled segmentation of the sequence."""
    if lattice is not None:
        return _logsumexp(lattice_scores(model, ctx, [(h.labels, h.segments)
                                                      for h in lattice.hypotheses]))
    tabs = compute_tables(model, ctx)
    alpha, _ = forward_pass(tabs)
    return _logsumexp(alpha[ctx.num_frames] + tabs.final)


def viterbi(model, ctx):
    """Best labeled segmentation under the duration bounds, as (labels,
    segments, score): the top of ``nbest_decode``, so exact ties resolve
    to the shortest final segment, then the lowest previous-label index
    (and, at the last frame, the lowest label index).  NoPathError when no
    segmentation is legal."""
    top = nbest_decode(model, ctx, 1).hypotheses[0]
    return top.labels, top.segments, top.score


def _marginals(tabs):
    """(span posteriors (spans, L) in ``Tables.scores``' order, summed over
    the left label; logZ; alpha; inner)."""
    alpha, prev_lse = forward_pass(tabs)
    tail, inner = backward_pass(tabs)
    logz = _logsumexp(alpha[-1] + tabs.final)
    ix = tabs.index
    return (np.exp(prev_lse[ix.starts] + tabs.scores + tail[ix.ends] - logz),
            logz, alpha, inner)


# ---------------------------------------------------------------------------
# Training: conditional log-likelihood

# What lattice CLL training does with an example whose reference label
# sequence is not among its lattice's hypotheses.
REF_POLICIES = ("fail", "drop-example", "add-ground-truth", "use-best-match")


@dataclass(frozen=True)
class ScrfConfig:
    max_duration: int = in_file(default=40, at_least=1)
    min_letter_duration: int = in_file(default=2, at_least=1)
    learning_rate: float = in_file(default=2.0, at_least=0)
    epochs: int = in_file(default=10, at_least=0)
    l1: float = in_file(default=0.0, at_least=0)
    l2: float = in_file(default=1e-4, at_least=0)
    nbest: int = in_file(default=8, at_least=1)   # the cascade's first-pass lattices only
    init_scale: float = 8.0
    ref_policy: str = in_file(default="add-ground-truth", choices=REF_POLICIES)

    def __post_init__(self):
        check_fields(self)
        if self.min_letter_duration > self.max_duration:
            raise FieldError("min_letter_duration", "at most max_duration=%d"
                             % self.max_duration, self.min_letter_duration)


@dataclass
class TrainingExample:
    """Trains over the hypotheses of its ``lattice``, or without one over
    the full segmentation space."""
    ctx: FeatureContext
    ref_labels: list
    ref_segments: list
    lattice: object = None


class ReferenceNotInLattice(RuntimeError):
    pass


def clamped_expectation(model, ctx, ref_labels, tabs):
    """(expected features, log-partition) over the segmentations of
    ``tabs`` (``compute_tables``) consistent with the reference label
    sequence (constrained forward-backward).  All of them share the
    reference's label pairs, so the pair score of each reference position
    is one constant, and each position's recursion runs over every span at
    once.  The positions' span posteriors are summed into one (spans, L)
    array before the expectation.  NoPathError when no segmentation
    carries the reference labels."""
    t_len = ctx.num_frames
    k = len(ref_labels)
    lidx = [model._ids[l] for l in ref_labels]
    rows = [0] + [li + 1 for li in lidx[:-1]]
    pair = tabs.trans[rows, lidx]
    scores, starts, ends = tabs.scores, tabs.index.starts, tabs.index.ends
    # a[i, t]: the first i positions cover [0, t); b[i, t]: positions i..k-1
    # cover [t, T)
    a = np.full((k + 1, t_len + 1), NEG_INF)
    a[0, 0] = 0.0
    for i, y in enumerate(lidx):
        np.logaddexp.at(a[i + 1], ends, a[i, starts] + scores[:, y] + pair[i])
    b = np.full((k + 1, t_len + 1), NEG_INF)
    b[k, t_len] = tabs.final[lidx[-1]]
    for i in range(k - 1, -1, -1):
        np.logaddexp.at(b[i], starts, b[i + 1, ends] + scores[:, lidx[i]] + pair[i])
    logz_c = a[k, t_len] + b[k, t_len]
    if logz_c == NEG_INF:
        raise NoPathError("no segmentation of %d frames carries the reference %s"
                          % (t_len, "".join(letters_only(ref_labels))))

    post = np.zeros(scores.shape)
    for i, y in enumerate(lidx):
        post[:, y] += np.exp(a[i, starts] + scores[:, y] + pair[i] + b[i + 1, ends] - logz_c)
    counts = np.zeros(tabs.trans.shape)
    np.add.at(counts, (rows, lidx), 1.0)
    return _expectation(model, ctx, starts, tabs.index.last, post, counts), float(logz_c)


def free_expectation(model, ctx, tabs):
    """(expected features, logZ) over the full segmentation space of
    ``tabs`` (``compute_tables``).  A span labeled y from boundary s to e
    has posterior exp(prev_lse[s, y] + score + tail[e, y] - logZ); the
    label-pair posterior of (p, y) sums, over the boundary t where a
    segment labeled y starts, exp(alpha[t, p] + trans[p, y] + inner[t, y]
    - logZ)."""
    post, logz, alpha, inner = _marginals(tabs)
    pair_post = None
    if model.left_dependent:
        t_len, nl = inner.shape
        head = np.full((t_len, nl + 1), NEG_INF)   # context before boundary t
        head[0, 0] = 0.0
        head[1:, 1:] = alpha[1:t_len]
        vals = head[:, :, None] + tabs.trans[None] + inner[:, None, :] - logz
        pair_post = np.exp(vals).sum(axis=0)
    return _expectation(model, ctx, tabs.index.starts, tabs.index.last, post, pair_post), logz


def resolve_reference(example, policy):
    """``example`` when its reference labels are among its lattice's, else
    under ``policy`` None (drop-example), a copy whose lattice gains the
    annotated segmentation (add-ground-truth) or whose reference is the
    hypothesis of fewest letter errors (use-best-match); ``fail`` raises
    ReferenceNotInLattice.  ``example`` is never changed."""
    lattice = example.lattice
    ref = list(example.ref_labels)
    if any(list(h.labels) == ref for h in lattice.hypotheses):
        return example
    if policy == "fail":
        raise ReferenceNotInLattice("reference %r not among candidates" % ("".join(ref),))
    if policy == "drop-example":
        return None
    if policy == "add-ground-truth":   # the annotated segmentation
        hyp = Hypothesis(ref, list(example.ref_segments), 0.0)
        return replace(example, lattice=CandidateLattice(list(lattice.hypotheses) + [hyp],
                                                         lattice.baseline_frames))
    best = min(lattice.hypotheses,
               key=lambda h: align(ref, list(h.labels)).total_errors)
    return replace(example, ref_labels=list(best.labels))


def lattice_terms(model, example):
    """(feature totals (H, total_dim), reference mask (H,)) of a lattice
    example's hypotheses; both are weight-free."""
    hyps = example.lattice.hypotheses
    ref = list(example.ref_labels)
    return (lattice_feature_totals(model, example.ctx, [(h.labels, h.segments) for h in hyps]),
            np.array([list(h.labels) == ref for h in hyps]))


def example_gradient(model, example, terms=None):
    """(CLL gradient, log p(S_ref | O)) for one example: over its lattice's
    hypotheses when it has one (``terms``: its ``lattice_terms``, built here
    when not given), over the full segmentation space otherwise."""
    ctx = example.ctx
    if example.lattice is None:
        tabs = compute_tables(model, ctx)
        emp, logz_c = clamped_expectation(model, ctx, example.ref_labels, tabs=tabs)
        exp_free, logz = free_expectation(model, ctx, tabs=tabs)
        return emp - exp_free, logz_c - logz
    feats, in_ref = lattice_terms(model, example) if terms is None else terms
    scores = feats @ model.weights
    logz = _logsumexp(scores)
    logz_c = _logsumexp(np.where(in_ref, scores, NEG_INF))
    p_free = np.exp(scores - logz)
    p_clamped = np.exp(np.where(in_ref, scores - logz_c, NEG_INF))   # no exp of a masked score
    return (p_clamped - p_free) @ feats, float(logz_c - logz)


def train_cll(model, data, cfg):
    """Subgradient ascent on mean log p(S|O) - l2||w||^2 - l1||w||_1, set
    by ``cfg`` (``ScrfConfig``).  Each lattice example is resolved once
    (``resolve_reference``; a dropped one still counts in the mean) and
    its ``lattice_terms`` built, before the first epoch.  Step size decays
    as 1/(1+epoch); the L1 term applies as a proximal clip-at-zero step
    per coordinate.  Returns per-epoch objectives; DataError at the first
    epoch that overflows, does an invalid operation or ends not finite."""
    resolved = [ex if ex.lattice is None else resolve_reference(ex, cfg.ref_policy)
                for ex in data]
    kept = [(ex, None if ex.lattice is None else lattice_terms(model, ex))
            for ex in resolved if ex is not None]
    history = []
    n = max(len(data), 1)
    try:
        with np.errstate(over="raise", invalid="raise"):
            for epoch in range(cfg.epochs):
                lr = cfg.learning_rate / (1.0 + epoch)
                grad = np.zeros(model.total_dim)
                cll = 0.0
                for example, terms in kept:
                    g, ll = example_gradient(model, example, terms)
                    grad += g
                    cll += ll
                grad /= n
                step = model.weights + lr * (grad - 2.0 * cfg.l2 * model.weights)
                if cfg.l1 > 0:
                    step = np.sign(step) * np.maximum(np.abs(step) - lr * cfg.l1, 0.0)
                model.weights = step
                history.append(cll / n - cfg.l2 * float(np.sum(model.weights ** 2))
                               - cfg.l1 * float(np.sum(np.abs(model.weights))))
                if not math.isfinite(history[-1]):
                    raise FloatingPointError("objective %r" % history[-1])
    except FloatingPointError as e:
        raise DataError("scrf.learning_rate: training diverged at epoch %d (%s); lower it"
                        % (epoch + 1, e)) from None
    return history


# ---------------------------------------------------------------------------
# First-pass N-best, rescoring, and the two-pass cascade

def nbest_segmentations(tabs, n):
    """Top-n labeled segmentations of a first-order semi-Markov model.

    ``tabs`` (``Tables``) holds the span and label-pair scores and
    ``final[y]``, added to every complete hypothesis whose last label is y
    (-inf bars it).  Returns [(score, [(label index,
    start, end), ...])] best first, empty when no segmentation is legal;
    the hypotheses are distinct (label sequence, segmentation) pairs.

    A forward 1-best pass (``forward_pass``, reducing by maximum), then lazy
    k-best extraction (Huang & Chiang, IWPT 2005, Alg. 3), written as a
    loop over an explicit stack, so no recursion depth grows with T.  A
    node is a segment of label y ending at t, whose edges are the spans
    ending there, shortest first (``SpanIndex.by_end``), each read back
    through the context before its start; that context, whose edges are
    the previous labels with their pair score (START at t = 0); or the
    end, whose edges are the last labels with ``final``.  A node ranks its
    derivations on demand from a heap keyed (-score, edge, tail rank),
    seeded with each edge's best derivation (from the 1-best pass), sorted
    once and cut to n.  So exact ties keep the lower edge, then the lower
    rank: hypotheses of equal score rank by their (label, duration) pairs
    read from the last segment back, ascending, and ``viterbi`` is the top
    hypothesis.  Only the nodes the top n hypotheses read are ranked."""
    trans, final, ix = tabs.trans, tabs.final, tabs.index
    t_len, nl = ix.num_frames, len(final)
    # best[t, y]: the best segment of label y ending at t; ctx[t, y]: the
    # best context before a segment of label y starting at t
    best, ctx = forward_pass(tabs, np.maximum.reduce)

    # a node (t, y, True) holds the segments of label y ending at t,
    # (t, y, False) the contexts before one starting at t; the end is the
    # context (T, L, False), whose edges are the last labels
    end = (t_len, nl, False)
    weights, found, heaps = {}, {}, {}

    def tail(node, e):
        """The node edge e reads back to, None for START."""
        t, y, segment = node
        if segment:
            return int(ix.starts[ix.by_end[ix.end_cut[t] + e]]), y, False
        return (t, e, True) if t else None

    def open_node(node):
        t, y, segment = node
        if segment:
            k = ix.by_end[ix.end_cut[t]:ix.end_cut[t + 1]]
            w = tabs.scores[k, y]
            head = w + ctx[ix.starts[k], y]
        elif t == 0:
            w = head = trans[0, y:y + 1]
        else:
            w = final if y == nl else trans[1:, y]
            head = w + best[t]
        order = np.argsort(-head, kind="stable")[:n]
        weights[node], found[node] = w, []
        heaps[node] = [(-h, e, 0) for h, e in zip(head[order].tolist(), order.tolist())
                       if h > NEG_INF]

    def expand(node, k):
        """Rank the node's derivations up to rank k, or all it has."""
        stack = [(node, k)]
        while stack:
            v, k = stack[-1]
            if v not in found:
                open_node(v)
            got, heap = found[v], heaps[v]
            if len(got) > k or heap is None:
                stack.pop()
                continue
            if got:      # first queue the next derivation on the last one's edge
                _, e, r = got[-1]
                u = tail(v, e)
                if u is not None:
                    if u not in found or (len(found[u]) <= r + 1 and heaps[u] is not None):
                        stack.append((u, r + 1))
                        continue
                    if len(found[u]) > r + 1:
                        heapq.heappush(heap, (-(weights[v][e] + found[u][r + 1][0]), e, r + 1))
            if heap:
                neg, e, r = heapq.heappop(heap)
                got.append((-neg, e, r))
            else:
                heaps[v] = None

    ranked = []
    for i in range(n):
        expand(end, i)
        if len(found[end]) <= i:
            break
        node, r, spans = end, i, []
        while node is not None:
            expand(node, r)
            _, e, r = found[node][r]
            before = tail(node, e)
            if node[2]:
                spans.append((node[1], before[0], node[0] - 1))
            node = before
        spans.reverse()
        ranked.append((found[end][i][0], spans))
    return ranked


def nbest_decode(model, ctx, n):
    """Top-n labeled segmentations by score; hypotheses are distinct
    (label sequence, segmentation) pairs by construction.  NoPathError
    when no segmentation is legal."""
    return lattice_from_ranked(model.labels, nbest_segmentations(compute_tables(model, ctx), n),
                               ctx.num_frames)


def rescore(model, lattice, ctx):
    """Best lattice label sequence: argmax over label sequences of the
    log-sum-exp of their candidate segmentation scores.  Ties keep the
    earlier lattice entry.  Returns (labels, best candidate, sequence
    log-score)."""
    if lattice is None or not lattice.hypotheses:
        raise ValueError("empty lattice")
    hyps = lattice.hypotheses
    scores = lattice_scores(model, ctx, [(h.labels, h.segments) for h in hyps])
    groups = {}
    for i, h in enumerate(hyps):
        groups.setdefault(tuple(h.labels), []).append(i)
    best_key, best_score, best_hyp = None, NEG_INF, None
    for key, members in groups.items():
        seq_score = _logsumexp(scores[members])
        if seq_score > best_score:
            best_key, best_score = key, seq_score
            best_hyp = hyps[members[int(np.argmax(scores[members]))]]
    return list(best_key), best_hyp, float(best_score)


def build_second_pass(first_model, segment_mlp=None):
    """Second-pass model over first-pass lattices, with the first model's
    labels: first-pass score, segment-classifier posteriors, and peak
    features.  The first-pass score is a per-span feature, so the first
    model must not read the left label; the segment classifier's classes
    must be those labels."""
    if first_model.left_dependent:
        raise ValueError("the second pass needs a left-independent first-pass model")
    feats = [FirstPassScoreFeature(first_model), PeakFeature()]
    if segment_mlp is not None:
        if list(segment_mlp.class_names) != first_model.labels:
            raise ValueError("the segment classifier's classes are not the first pass's labels")
        feats.insert(1, SegmentClassifierFeature(segment_mlp))
    model = SegmentalModel(first_model.labels, feats, max_duration=first_model.max_duration,
                           min_letter_duration=first_model.min_letter_duration,
                           initial_labels=first_model.initial_labels,
                           final_labels=first_model.final_labels)
    model.weights[0] = 1.0  # start from the first-pass ranking
    return model
