"""Semi-Markov (segmental) CRF.

A hypothesis is a label sequence plus a segmentation tiling the frames;
consecutive segments must change label.  Each edge e carries its span
[t(e), T(e)], its left (previous) label and its right (current) label, and
is scored as the dot product of the weight vector with the registered
feature functions.  The segmentation is a latent variable: the probability
of a label sequence sums over all segmentations consistent with it, either
over the full bounded-duration space (first-pass mode) or over the
candidate segmentations of a lattice (rescoring mode).

Inference is exact and follows the first-order semi-CRF of Sarawagi &
Cohen (NIPS 2004).  An edge score splits into a span part, a (start,
duration, label) table with infeasible spans at -inf plus the boundary
silences' spans from and to the sequence edges, and a label-pair part, an
(L+1) x L transition matrix whose row 0 is the START context.
The only left-dependent feature (the LM feature) reads nothing but the
label pair, so it lives in that matrix next to the structural
constraints.  Forward/backward, Viterbi, N-best, marginals and both
feature expectations all run on these two arrays.

Training maximizes conditional log-likelihood by (sub)gradient ascent with
L2 and proximal (clip-at-zero) L1 steps; the gradient is the clamped
(reference label sequence) feature expectation minus the free one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .alphabet import BEGIN_SILENCE, END_SILENCE
from .fileio import read_json, write_json
from .segments import Segment, check_tiling

START_LABEL = "<start>"
NEG_INF = -np.inf


@dataclass(frozen=True)
class SegmentEdge:
    start: int   # t(e), inclusive
    end: int     # T(e), inclusive
    left: str    # s_l: previous label, START_LABEL on the first edge
    right: str   # s_r: label of the segment

    @property
    def duration(self):
        return self.end + 1 - self.start


def edges_of(labels, segments):
    prev = START_LABEL
    out = []
    for label, seg in zip(labels, segments):
        out.append(SegmentEdge(seg.start, seg.end, prev, label))
        prev = label
    return out


# ---------------------------------------------------------------------------
# Per-sequence inputs that feature functions may read

@dataclass
class FeatureContext:
    num_frames: int
    letter_posteriors: np.ndarray = None    # (T, C)
    feature_posteriors: dict = field(default_factory=dict)
    descriptors: np.ndarray = None          # (T, d)
    lm: object = None
    baseline_frames: list = None            # length-T labels from the 1-best baseline
    _peak_curve: np.ndarray = None

    def __post_init__(self):
        for name, arr in [("letter_posteriors", self.letter_posteriors),
                          ("descriptors", self.descriptors)]:
            if arr is not None and len(arr) != self.num_frames:
                raise ValueError("%s has %d frames, expected %d"
                                 % (name, len(arr), self.num_frames))
        if self.baseline_frames is not None and len(self.baseline_frames) != self.num_frames:
            raise ValueError("baseline labeling length mismatch")

    @property
    def peak_curve(self):
        if self._peak_curve is None:
            if self.descriptors is None:
                raise ValueError("peak curve requires descriptors")
            self._peak_curve = smoothed_derivative(self.descriptors)
        return self._peak_curve


def smoothed_derivative(descriptors, window=5):
    """L2 norms of consecutive-frame differences (length T-1), smoothed by a
    centered moving average; windows shrink at the edges."""
    x = np.asarray(descriptors, dtype=np.float64)
    diffs = np.linalg.norm(np.diff(x, axis=0), axis=1)
    half = window // 2
    out = np.empty_like(diffs)
    for i in range(len(diffs)):
        lo, hi = max(0, i - half), min(len(diffs), i + half + 1)
        out[i] = diffs[lo:hi].mean()
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


# ---------------------------------------------------------------------------
# Feature functions.  A feature is either lexicalized (a per-span base
# vector placed in the block of the edge's right label) or global (its
# eval() is called per edge).  Only the LM feature reads the left label,
# and it reads nothing else: a left-dependent feature gives its values for
# every label pair through pair_matrix().

class LmFeature:
    """Smoothed bigram probability of the labels across the edge (or its
    log, when configured).  Pairs outside the LM's domain score neutrally."""

    name = "lm"
    left_dependent = True
    lexicalized = False
    dim = 1

    def __init__(self, use_log=False):
        self.use_log = use_log

    def eval(self, edge, ctx):
        try:
            p = ctx.lm.prob(edge.left, edge.right)
        except (KeyError, AttributeError):
            p = 1.0
        return np.array([math.log(p) if self.use_log else p])

    def pair_matrix(self, ctx, labels):
        """Values for every (left, right) pair, (L+1, L, 1); row 0 is START."""
        return np.array([[self.eval(SegmentEdge(0, 0, left, right), ctx)
                          for right in labels]
                         for left in [START_LABEL] + list(labels)])


class BaselineFeature:
    """+1 iff the span covers exactly one baseline label run and that label
    matches the edge's right label; -1 otherwise."""

    name = "baseline"
    left_dependent = False
    lexicalized = False
    dim = 1

    def eval(self, edge, ctx):
        span = ctx.baseline_frames[edge.start:edge.end + 1]
        ok = len(set(span)) == 1 and span[0] == edge.right
        return np.array([1.0 if ok else -1.0])


class _Lexicalized:
    left_dependent = False
    lexicalized = True

    def __init__(self, labels):
        self.labels = list(labels)
        self._index = {l: i for i, l in enumerate(self.labels)}

    def label_index(self, label):
        return self._index.get(label)

    def eval(self, edge, ctx):
        bd = self.block_size(ctx)
        out = np.zeros(len(self.labels) * bd)
        idx = self._index.get(edge.right)
        if idx is not None:
            out[idx * bd:(idx + 1) * bd] = self.base_vector(ctx, edge.start, edge.end)
        return out

    def dimension(self, ctx):
        return len(self.labels) * self.block_size(ctx)

    def span_vectors(self, ctx, starts, ends):
        """Base vectors of the spans [starts[i], ends[i]], (spans, block)."""
        return np.array([self.base_vector(ctx, s, e) for s, e in zip(starts, ends)])


class ClassifierStatFeature(_Lexicalized):
    """Lexicalized span statistics of one frame classifier's outputs.

    kind 'mean'/'max' give one value per (label, classifier value); the
    'div_s'/'div_m' kinds give three, one per contiguous third of the span
    (empty thirds contribute zeros).
    """

    def __init__(self, labels, kind, classifier="letter"):
        super().__init__(labels)
        if kind not in ("mean", "max", "div_s", "div_m"):
            raise ValueError("unknown statistic kind %r" % (kind,))
        self.kind = kind
        self.classifier = classifier
        self.name = "classifier_%s_%s" % (classifier, kind)

    def _posteriors(self, ctx):
        post = ctx.letter_posteriors if self.classifier == "letter" \
            else ctx.feature_posteriors.get(self.classifier)
        if post is None:
            raise ValueError("classifier outputs %r missing from context"
                             % (self.classifier,))
        return post

    def block_size(self, ctx):
        per = 3 if self.kind.startswith("div") else 1
        return per * self._posteriors(ctx).shape[1]

    def base_vector(self, ctx, start, end):
        g = self._posteriors(ctx)[start:end + 1]
        if self.kind == "mean":
            return g.mean(axis=0)
        if self.kind == "max":
            return g.max(axis=0)
        a, b, c = segment_thirds(len(g))
        parts = [g[0:a], g[a:a + b], g[a + b:a + b + c]]
        op = np.mean if self.kind == "div_s" else np.max
        return np.concatenate([op(p, axis=0) if len(p) else np.zeros(g.shape[1])
                               for p in parts])


class PeakFeature(_Lexicalized):
    """Lexicalized single-peak indicator: entry y is delta(label = y) times
    whether the span's smoothed derivative has exactly one local minimum."""

    name = "peak"

    def block_size(self, ctx):
        return 1

    def base_vector(self, ctx, start, end):
        return np.array([delta_peak(ctx, start, end)])


class FirstPassFeatures(_Lexicalized):
    """The first-pass feature set: per right label, the average classifier
    posterior over the span, posterior samples at the first/middle/last
    frames, posteriors at the two boundary frames, a duration one-hot
    (bucketed at L_max) and a bias, all lexicalized."""

    name = "firstpass"

    def __init__(self, labels, num_classes, max_duration):
        super().__init__(labels)
        self.num_classes = num_classes
        self.max_duration = max_duration
        self.block = 6 * num_classes + max_duration + 1

    def block_size(self, ctx):
        return self.block

    def base_vector(self, ctx, start, end):
        g = ctx.letter_posteriors
        c = self.num_classes
        out = np.zeros(self.block)
        out[0:c] = g[start:end + 1].mean(axis=0)
        out[c:2 * c] = g[start]
        out[2 * c:3 * c] = g[(start + end) // 2]
        out[3 * c:4 * c] = g[end]
        out[4 * c:5 * c] = g[start]
        out[5 * c:6 * c] = g[end]
        out[6 * c + min(end + 1 - start, self.max_duration) - 1] = 1.0
        out[-1] = 1.0
        return out

    def span_vectors(self, ctx, starts, ends):
        """``base_vector`` of every span at once, the mean from a cumsum."""
        g = np.asarray(ctx.letter_posteriors, dtype=np.float64)
        c = self.num_classes
        cums = np.vstack([np.zeros(c), np.cumsum(g, axis=0)])
        d = ends + 1 - starts
        phi = np.zeros((len(starts), self.block))
        phi[:, :c] = (cums[ends + 1] - cums[starts]) / d[:, None]
        for k, at in enumerate([starts, (starts + ends) // 2, ends, starts, ends], 1):
            phi[:, k * c:(k + 1) * c] = g[at]
        phi[np.arange(len(d)), 6 * c + np.minimum(d, self.max_duration) - 1] = 1.0
        phi[:, -1] = 1.0
        return phi


class FirstPassScoreFeature:
    """Edge score under a trained first-pass model; summed over a
    segmentation this reproduces that model's total score.  The model must
    be left-independent (see build_second_pass)."""

    lexicalized = False
    left_dependent = False
    name = "firstpass_score"
    dim = 1

    def __init__(self, model):
        self.model = model

    def eval(self, edge, ctx):
        return np.array([self.model.edge_score(edge, ctx)])


class SegmentClassifierFeature:
    """Posterior of a segment-level classifier for the hypothesized label,
    from a fixed-dimension summary: the means of the span's three thirds."""

    lexicalized = False   # the value depends on the label itself
    left_dependent = False
    name = "segment_classifier"

    def __init__(self, labels, mlp):
        self.labels = list(labels)
        self._index = {l: i for i, l in enumerate(self.labels)}
        self.mlp = mlp
        self.dim = len(self.labels)

    def summary(self, ctx, start, end):
        g = ctx.letter_posteriors[start:end + 1]
        a, b, c = segment_thirds(len(g))
        parts = [g[0:a], g[a:a + b], g[a + b:a + b + c]]
        return np.concatenate([p.mean(axis=0) if len(p) else np.zeros(g.shape[1])
                               for p in parts])

    def eval(self, edge, ctx):
        out = np.zeros(self.dim)
        idx = self._index.get(edge.right)
        if idx is not None:
            probs = self.mlp.predict_proba(self.summary(ctx, edge.start, edge.end))[0]
            out[idx] = probs[idx]
        return out


# ---------------------------------------------------------------------------
# Model

class ManifestError(ValueError):
    pass


class SegmentalModel:
    """Feature registry plus weights, label set and duration bounds.

    Durations are bounded by ``max_duration`` except for the boundary
    silences, which are exempt; letters may also get a minimum duration.
    As ``transition_ok`` lets no label precede ``<s>`` or follow ``</s>``,
    their segments always touch the first or the last frame (``Tables``),
    with or without the optional initial- and final-label constraints.
    """

    def __init__(self, labels, features, dims, max_duration=40, min_letter_duration=1,
                 initial_labels=None, final_labels=None, weights=None):
        self.labels = list(labels)
        self.features = list(features)
        self.dims = [int(d) for d in dims]
        if len(self.dims) != len(self.features):
            raise ValueError("need one dimension per feature function")
        self.offsets = np.concatenate([[0], np.cumsum(self.dims)]).astype(int)
        self.total_dim = int(self.offsets[-1])
        self.weights = np.zeros(self.total_dim) if weights is None else \
            np.asarray(weights, dtype=np.float64)
        if len(self.weights) != self.total_dim:
            raise ValueError("weight vector length %d != feature dimensionality %d"
                             % (len(self.weights), self.total_dim))
        self.max_duration = max_duration
        self.min_letter_duration = min_letter_duration
        self.initial_labels = set(initial_labels) if initial_labels is not None else None
        self.final_labels = set(final_labels) if final_labels is not None else None
        self._label_index = {l: i for i, l in enumerate(self.labels)}

    @property
    def left_dependent(self):
        return any(f.left_dependent for f in self.features)

    def min_dur(self, label):
        if label in (BEGIN_SILENCE, END_SILENCE):
            return 1
        return self.min_letter_duration

    def max_dur(self, label, num_frames):
        if label in (BEGIN_SILENCE, END_SILENCE):
            return num_frames
        return min(self.max_duration, num_frames)

    def transition_ok(self, prev, nxt):
        if prev == nxt:
            return False
        if nxt == BEGIN_SILENCE or prev == END_SILENCE:
            return False
        return True

    def initial_ok(self, label):
        return self.initial_labels is None or label in self.initial_labels

    def final_ok(self, label):
        return self.final_labels is None or label in self.final_labels

    def feature_vector(self, edge, ctx):
        return np.concatenate([np.asarray(f.eval(edge, ctx), dtype=np.float64)
                               for f in self.features])

    def edge_score(self, edge, ctx, weights=None):
        w = self.weights if weights is None else weights
        total = 0.0
        for f, off, dim in zip(self.features, self.offsets[:-1], self.dims):
            if f.lexicalized:
                idx = f.label_index(edge.right)
                if idx is None:
                    continue
                bd = f.block_size(ctx)
                total += float(np.dot(w[off + idx * bd: off + (idx + 1) * bd],
                                      f.base_vector(ctx, edge.start, edge.end)))
            else:
                total += float(np.dot(w[off:off + dim], f.eval(edge, ctx)))
        return total

    def score(self, labels, segments, ctx, weights=None):
        """Total weighted feature score of one labeled segmentation.

        The duration bounds only size the full-space tables, so a lattice
        hypothesis is scored as given, exactly as lattice training scores
        it."""
        check_tiling(segments, ctx.num_frames)
        if len(labels) != len(segments):
            raise ValueError("label/segment count mismatch")
        return sum(self.edge_score(e, ctx, weights) for e in edges_of(labels, segments))

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
            raise ManifestError("feature manifest mismatch: stored %r vs registered %r"
                                % (obj.get("manifest"), self.manifest()))
        weights = np.asarray(obj["weights"], dtype=np.float64)
        if len(weights) != self.total_dim:
            raise ManifestError("stored weight length does not match manifest")
        self.weights = weights
        return self


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


def _lse(values, axis=0):
    """logsumexp along one axis; all -inf lines stay -inf."""
    m = values.max(axis=axis, keepdims=True)
    safe = np.where(m == NEG_INF, 0.0, m)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(values - safe).sum(axis=axis)) + np.squeeze(safe, axis)


# ---------------------------------------------------------------------------
# Score tables

@dataclass
class Tables:
    """One sequence's edge scores, the input of every inference routine.

    ``table[t, d-1, c]`` scores a segment labeled ``columns[c]`` over
    frames [t, t+d), d up to dmax.  The unbounded ``<s>`` and ``</s>``
    segments always cover [0, t) or [t, T) (``SegmentalModel``):
    ``enter[t, y]`` scores one labeled y over [0, t) and ``leave[t, y]``
    over [t, T), 2T spans instead of T^2.  Each span is scored in one of
    the three, infeasible ones at -inf.  ``trans[p, y]`` scores label y
    after context p (row 0 START, row p+1 label p); ``final[y]`` ends a
    hypothesis on y.  The feature values behind the scores are kept for
    the expectations: per left-independent feature one row per span of
    ``scores``, per left-dependent one (L+1, L, dim)."""
    table: np.ndarray                  # (T, dmax, len(columns))
    trans: np.ndarray                  # (L+1, L)
    final: np.ndarray                  # (L,)
    enter: np.ndarray                  # (T+1, L); row 0 unread
    leave: np.ndarray                  # (T+1, L); row T unread
    columns: np.ndarray                # the table's labels
    span_features: dict = field(default_factory=dict)
    pair_features: dict = field(default_factory=dict)

    def __post_init__(self):
        t_len, dmax, _ = self.table.shape
        # scores[k, y]: span k of _span_bounds labeled y; by_end (by_start)
        # lists the spans by end (start) boundary, shortest first: the tie
        # order of nbest_segmentations
        self.starts, self.ends = _span_bounds(t_len, dmax)
        cells, dur = len(self.starts) - 2 * t_len, self.ends - self.starts
        self.scores = np.full((len(dur), len(self.final)), NEG_INF)
        self.scores[:cells, self.columns] = self.table[self.starts[:cells], dur[:cells] - 1]
        self.scores[cells:] = np.concatenate([self.enter[1:], self.leave[:-1]])
        self.by_end = np.lexsort((dur, self.ends))
        self.by_start = np.lexsort((dur, self.starts))
        self.end_cut = np.searchsorted(self.ends[self.by_end], np.arange(t_len + 2))
        self.start_cut = np.searchsorted(self.starts[self.by_start], np.arange(t_len + 1))

    def ending_at(self, t):
        """(scores (m, L), starts (m,)) of the spans ending at boundary t."""
        k = self.by_end[self.end_cut[t]:self.end_cut[t + 1]]
        return self.scores[k], self.starts[k]

    def starting_at(self, t):
        """(scores (m, L), ends (m,)) of the spans starting at boundary t."""
        k = self.by_start[self.start_cut[t]:self.start_cut[t + 1]]
        return self.scores[k], self.ends[k]


def _span_bounds(t_len, dmax):
    """Start and exclusive end boundaries of every span ``Tables`` scores:
    the table's cells within the frames row-major, then [0, t) for t = 1..T,
    then [t, T) for t = 0..T-1."""
    t, d = np.divmod(np.arange(t_len * dmax), dmax)
    t, e = t[t + d < t_len], (t + d + 1)[t + d < t_len]
    b = np.arange(1, t_len + 1)
    return np.concatenate([t, 0 * b, b - 1]), np.concatenate([e, b, t_len + 0 * b])


def _label_blocks(f, labels):
    """(labels, their weight blocks) of a lexicalized feature's labels."""
    pairs = [(li, f.label_index(l)) for li, l in enumerate(labels)]
    return np.array([p for p in pairs if p[1] is not None], dtype=int).reshape(-1, 2).T


def compute_tables(model, ctx, weights=None):
    """Every edge score of one sequence, as ``Tables``.

    Letters fill the (T, dmax, letters) table, dmax = min(max_duration, T),
    -inf outside their duration bounds; ``<s>`` only enter and ``</s>``
    only leave, whatever ``initial_labels`` and ``final_labels`` say.  So
    feature values are computed for T * dmax + 2T spans: base vectors
    (spans, block) per lexicalized feature, edge values (spans, L, dim) per
    other left-independent one.  ``trans`` has the initial-label constraint
    in row 0, -inf for disallowed pairs, and each left-dependent feature's
    w . f(left, right)."""
    w_all = model.weights if weights is None else weights
    labels = model.labels
    nl, t_len = len(labels), ctx.num_frames
    dmax = min(model.max_duration, t_len)
    starts, ends = _span_bounds(t_len, dmax)
    scores = np.zeros((len(starts), nl))
    trans = np.where([list(map(model.initial_ok, labels))]
                     + [[model.transition_ok(p, y) for y in labels] for p in labels],
                     0.0, NEG_INF)
    span_features, pair_features = {}, {}
    for fi, (f, off, dim) in enumerate(zip(model.features, model.offsets[:-1], model.dims)):
        w = w_all[off:off + dim]
        if f.left_dependent:
            pair_features[fi] = phi = f.pair_matrix(ctx, labels)
            trans = trans + phi @ w
            continue
        if f.lexicalized:
            bd = f.block_size(ctx)
            phi = f.span_vectors(ctx, starts, ends - 1)
            wm = np.zeros((nl, bd))
            rows, blocks = _label_blocks(f, labels)
            wm[rows] = w.reshape(-1, bd)[blocks]
            scores += phi @ wm.T
        else:
            phi = np.array([[f.eval(SegmentEdge(int(a), int(e) - 1, START_LABEL, y), ctx)
                             for y in labels] for a, e in zip(starts, ends)])
            scores += phi @ w
        span_features[fi] = phi
    cells = len(starts) - 2 * t_len
    # the part of the span order that scores each label: table, enter, leave
    part = np.repeat([0, 1, 2], [cells, t_len, t_len])
    own = np.array([{BEGIN_SILENCE: 1, END_SILENCE: 2}.get(l, 0) for l in labels])
    dur = ends - starts
    scores[(part[:, None] != own) | (dur[:, None] < [model.min_dur(l) for l in labels])
           | (dur[:, None] > [model.max_dur(l, t_len) for l in labels])] = NEG_INF
    letters = np.flatnonzero(own == 0)
    table = np.full((t_len, dmax, len(letters)), NEG_INF)
    table[starts[:cells], dur[:cells] - 1] = scores[:cells, letters]
    enter, leave = np.full((2, t_len + 1, nl), NEG_INF)
    enter[1:], leave[:-1] = scores[cells:cells + t_len], scores[cells + t_len:]
    return Tables(table, trans, model.final_mask(), enter, leave, letters,
                  span_features, pair_features)


# ---------------------------------------------------------------------------
# Exact inference over the full segmentation space

def forward_pass(tabs):
    """(alpha, prev_lse).  alpha[t, y]: log-sum over partial hypotheses
    covering frames [0, t) whose final segment has label y; prev_lse[t, y]:
    log-sum over contexts preceding a segment starting at t labeled y, with
    the pair score (START at t=0, which the enter spans also follow)."""
    trans = tabs.trans
    t_len, nl = len(tabs.table), len(tabs.final)
    alpha = np.full((t_len + 1, nl), NEG_INF)
    prev_lse = np.full((t_len + 1, nl), NEG_INF)
    prev_lse[0] = trans[0]
    for t in range(1, t_len + 1):
        scores, starts = tabs.ending_at(t)
        alpha[t] = _lse(scores + prev_lse[starts])
        if t < t_len:
            prev_lse[t] = _lse(alpha[t][:, None] + trans[1:])
    return alpha, prev_lse


def backward_pass(tabs):
    """(tail, inner).  tail[t, p]: log-sum over completions of frames
    [t, T) given the previous segment ended at t with label p; tail[T]
    is the final score.  inner[t, y]: the same completions restricted to a
    first segment labeled y, without its pair score."""
    trans = tabs.trans
    t_len, nl = len(tabs.table), len(tabs.final)
    tail = np.full((t_len + 1, nl), NEG_INF)
    inner = np.full((t_len, nl), NEG_INF)
    tail[t_len] = tabs.final
    for t in range(t_len - 1, -1, -1):
        scores, ends = tabs.starting_at(t)
        inner[t] = _lse(scores + tail[ends])
        tail[t] = _lse(inner[t][:, None] + trans[1:].T)
    return tail, inner


def log_partition(model, ctx, mode="full", lattice=None, weights=None):
    """log sum over in-scope labeled segmentations of exp(score)."""
    if mode == "lattice":
        if lattice is None or not lattice.hypotheses:
            raise ValueError("lattice mode requires a non-empty lattice")
        scores = [model.score(list(h.labels), h.segments, ctx, weights)
                  for h in lattice.hypotheses]
        return _logsumexp(np.array(scores))
    if mode != "full":
        raise ValueError("mode must be 'full' or 'lattice'")
    tabs = compute_tables(model, ctx, weights)
    alpha, _ = forward_pass(tabs)
    return _logsumexp(alpha[ctx.num_frames] + tabs.final)


def viterbi(model, ctx, weights=None):
    """Best labeled segmentation under the duration bounds, as (labels,
    segments, score): the top of ``nbest_segmentations``, so exact ties
    resolve to the shortest final segment, then the lowest previous-label
    index (and, at the last frame, the lowest label index)."""
    ranked = nbest_segmentations(compute_tables(model, ctx, weights), 1)
    if not ranked:
        raise ValueError("no legal segmentation (check duration bounds)")
    score, spans = ranked[0]
    segments = [Segment(model.labels[y], start, end) for y, start, end in spans]
    return [s.label for s in segments], segments, score


def _marginals(tabs):
    """(span posteriors (spans, L) in ``Tables.scores``' order, summed over
    the left label; logZ; alpha; inner)."""
    alpha, prev_lse = forward_pass(tabs)
    tail, inner = backward_pass(tabs)
    logz = _logsumexp(alpha[-1] + tabs.final)
    return (np.exp(prev_lse[tabs.starts] + tabs.scores + tail[tabs.ends] - logz),
            logz, alpha, inner)


def edge_marginals(model, ctx, weights=None, tabs=None):
    """Posterior probability of each (start, duration, right label) edge
    (summed over the left label), shape (T, T, L), plus logZ."""
    if tabs is None:
        tabs = compute_tables(model, ctx, weights)
    post, logz, _, _ = _marginals(tabs)
    marg = np.zeros((ctx.num_frames, ctx.num_frames, post.shape[1]))
    np.add.at(marg, (tabs.starts, tabs.ends - tabs.starts - 1), post)
    return marg, logz


# ---------------------------------------------------------------------------
# Training: conditional log-likelihood

@dataclass
class TrainingExample:
    ctx: FeatureContext
    ref_labels: list
    ref_segments: list
    lattice: object = None


class ReferenceNotInLattice(RuntimeError):
    pass


def candidate_feature_totals(model, ctx, hyp):
    total = np.zeros(model.total_dim)
    for e in edges_of(list(hyp.labels), hyp.segments):
        total += model.feature_vector(e, ctx)
    return total


def _expectation(model, tabs, post, pair_post):
    """Expected features: post[k, y] * f(span k labeled y) summed over spans
    (``Tables.scores``' order) and labels, one (spans, L)^T @ (spans, block)
    product per lexicalized feature, plus pair_post[p, y] * f(p, y) summed
    over label pairs (indexed like the transition matrix)."""
    expect = np.zeros(model.total_dim)
    for fi, phi in tabs.span_features.items():
        f, off, dim = model.features[fi], model.offsets[fi], model.dims[fi]
        if f.lexicalized:
            rows, blocks = _label_blocks(f, model.labels)
            expect[off:off + dim].reshape(-1, phi.shape[1])[blocks] += (post.T @ phi)[rows]
        else:
            expect[off:off + dim] += np.einsum("ky,kyd->d", post, phi)
    for fi, phi in tabs.pair_features.items():
        off, dim = model.offsets[fi], model.dims[fi]
        expect[off:off + dim] += np.einsum("py,pyk->k", pair_post, phi)
    return expect


def clamped_expectation(model, ctx, ref_labels, weights=None, tabs=None):
    """(expected features, log-partition) over segmentations consistent with
    the reference label sequence (constrained forward-backward).  All of
    them share the reference's label pairs, so the pair score of each
    reference position is one constant, and each position's recursion runs
    over every span at once.  The positions' span posteriors are summed
    into one (spans, L) array before the expectation."""
    if tabs is None:
        tabs = compute_tables(model, ctx, weights)
    t_len = ctx.num_frames
    k = len(ref_labels)
    lidx = [model._label_index[l] for l in ref_labels]
    rows = [0] + [li + 1 for li in lidx[:-1]]
    pair = tabs.trans[rows, lidx]
    scores, starts, ends = tabs.scores, tabs.starts, tabs.ends
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
        return None, NEG_INF

    post = np.zeros(scores.shape)
    for i, y in enumerate(lidx):
        post[:, y] += np.exp(a[i, starts] + scores[:, y] + pair[i] + b[i + 1, ends] - logz_c)
    counts = np.zeros(tabs.trans.shape)
    np.add.at(counts, (rows, lidx), 1.0)
    return _expectation(model, tabs, post, counts), float(logz_c)


def free_expectation(model, ctx, weights=None, tabs=None):
    """(expected features, logZ) over the full segmentation space.  A span
    labeled y from boundary s to e has posterior exp(prev_lse[s, y] + score
    + tail[e, y] - logZ); the label-pair posterior of (p, y) sums, over the
    boundary t where a segment labeled y starts, exp(alpha[t, p] +
    trans[p, y] + inner[t, y] - logZ)."""
    if tabs is None:
        tabs = compute_tables(model, ctx, weights)
    post, logz, alpha, inner = _marginals(tabs)
    pair_post = None
    if tabs.pair_features:
        t_len, nl = inner.shape
        head = np.full((t_len, nl + 1), NEG_INF)   # context before boundary t
        head[0, 0] = 0.0
        head[1:, 1:] = alpha[1:t_len]
        vals = head[:, :, None] + tabs.trans[None] + inner[:, None, :] - logz
        pair_post = np.exp(vals).sum(axis=0)
    return _expectation(model, tabs, post, pair_post), logz


def example_gradient(model, example, mode, ref_policy="add-ground-truth"):
    """(CLL gradient, log p(S_ref | O)) for one example."""
    ctx = example.ctx
    if mode == "full":
        tabs = compute_tables(model, ctx)
        emp, logz_c = clamped_expectation(model, ctx, example.ref_labels, tabs=tabs)
        if emp is None:
            raise ValueError("reference labels admit no segmentation")
        exp_free, logz = free_expectation(model, ctx, tabs=tabs)
        return emp - exp_free, logz_c - logz
    if mode != "lattice":
        raise ValueError("mode must be 'full' or 'lattice'")
    lattice = _lattice_with_reference(example, ref_policy)
    if lattice is None:  # dropped example
        return np.zeros(model.total_dim), 0.0
    if example.lattice is not lattice:
        example.lattice = lattice
    feats = getattr(example, "_feat_cache", None)
    if feats is None or len(feats) != len(lattice.hypotheses):
        feats = [candidate_feature_totals(model, ctx, h) for h in lattice.hypotheses]
        example._feat_cache = feats
    scores = np.array([float(np.dot(model.weights, f)) for f in feats])
    ref = list(example.ref_labels)
    in_ref = np.array([list(h.labels) == ref for h in lattice.hypotheses])
    logz = _logsumexp(scores)
    logz_c = _logsumexp(np.where(in_ref, scores, NEG_INF))
    p_free = np.exp(scores - logz)
    p_clamped = np.where(in_ref, np.exp(scores - logz_c), 0.0)
    grad = np.zeros(model.total_dim)
    for pc, pf, f in zip(p_clamped, p_free, feats):
        grad += (pc - pf) * f
    return grad, float(logz_c - logz)


# What lattice CLL training does with an example whose reference label
# sequence is not among its lattice's hypotheses.
REF_POLICIES = ("fail", "drop-example", "add-ground-truth", "add-forced-alignment",
                "use-best-match")


def _lattice_with_reference(example, policy):
    from .hmm import Hypothesis, CandidateLattice
    if policy not in REF_POLICIES:
        raise ValueError("unknown reference policy %r" % (policy,))
    lattice = example.lattice
    ref = list(example.ref_labels)
    if any(list(h.labels) == ref for h in lattice.hypotheses):
        return lattice
    if policy == "fail":
        raise ReferenceNotInLattice("reference %r not among candidates" % ("".join(ref),))
    if policy == "drop-example":
        return None
    if policy in ("add-ground-truth", "add-forced-alignment"):
        # with the forced-alignment policy the caller puts aligned spans in
        # ref_segments; ground truth uses the annotated segmentation
        hyp = Hypothesis(ref, list(example.ref_segments), 0.0)
        return CandidateLattice(list(lattice.hypotheses) + [hyp], lattice.baseline_frames)
    from .metrics import align   # use-best-match
    best = min(lattice.hypotheses,
               key=lambda h: align(ref, list(h.labels)).total_errors)
    example.ref_labels = list(best.labels)
    return lattice


def train_cll(model, data, l1=0.0, l2=0.0, learning_rate=0.5, epochs=10,
              mode="lattice", ref_policy="add-ground-truth"):
    """Subgradient ascent on mean log p(S|O) - l2||w||^2 - l1||w||_1.

    Step size decays as 1/(1+epoch); the L1 term applies as a proximal
    clip-at-zero step per coordinate.  Returns per-epoch objectives."""
    history = []
    n = max(len(data), 1)
    for epoch in range(epochs):
        lr = learning_rate / (1.0 + epoch)
        grad = np.zeros(model.total_dim)
        cll = 0.0
        for example in data:
            g, ll = example_gradient(model, example, mode, ref_policy)
            grad += g
            cll += ll
        grad /= n
        step = model.weights + lr * (grad - 2.0 * l2 * model.weights)
        if l1 > 0:
            step = np.sign(step) * np.maximum(np.abs(step) - lr * l1, 0.0)
        model.weights = step
        history.append(cll / n - l2 * float(np.sum(model.weights ** 2))
                       - l1 * float(np.sum(np.abs(model.weights))))
    return history


def sequence_log_posterior(model, ctx, ref_labels):
    """log p(S_ref | O) in full mode."""
    tabs = compute_tables(model, ctx)
    _, logz_c = clamped_expectation(model, ctx, ref_labels, tabs=tabs)
    if logz_c == NEG_INF:
        return NEG_INF
    return logz_c - log_partition(model, ctx, "full")


# ---------------------------------------------------------------------------
# First-pass N-best, rescoring, and the two-pass cascade

def _best_columns(rows, n):
    """Columns of the n best entries of each row of ``rows`` (R, m >= n),
    in column order.  Of equal finite values the lower column is kept, as
    a stable sort of the negated row keeps it; a row where argpartition
    split such a tie at the n-th value is sorted outright.  Which -inf
    entries fill a row is left open."""
    k = rows.shape[1] - n
    cols = np.sort(np.argpartition(rows, k, axis=1)[:, k:], axis=1)
    kth = np.take_along_axis(rows, cols, 1).min(axis=1, keepdims=True)
    split = np.isfinite(kth[:, 0]) & ((rows >= kth).sum(1) > n)
    for i in np.flatnonzero(split):
        cols[i] = np.sort(np.argsort(-rows[i], kind="stable")[:n])
    return cols


def _merge_top_n(offsets, lists, n):
    """Row-wise top n of ``offsets[i, j] + lists[i, j, r]``, each list
    ``lists[i, j]`` sorted best first: returns (column j * n + r, score),
    both (R, n) and best first; exact ties keep the lower column.

    An entry can reach its row's top n only from one of the n lists with
    the best heads ``offsets + lists[..., 0]``: those n heads rank above
    every entry of any other list.  So only those lists' n x n entries are
    ranked (the frontier of Huang & Chiang, IWPT 2005, Alg. 2)."""
    n_rows, m = offsets.shape
    idx = np.arange(n_rows)[:, None]
    if m > n:
        pick = _best_columns(offsets + lists[:, :, 0], n)
    else:
        pick = np.broadcast_to(np.arange(m), (n_rows, m))
    cand = (offsets[idx, pick][:, :, None] + lists[idx, pick]).reshape(n_rows, -1)
    cols = _best_columns(cand, n)
    scores = cand[idx, cols]
    order = np.argsort(-scores, axis=1, kind="stable")
    p, r = np.divmod(cols[idx, order], n)
    return pick[idx, p] * n + r, scores[idx, order]


def nbest_segmentations(tabs, n):
    """Top-n labeled segmentations of a first-order semi-Markov model.

    ``tabs`` (``Tables``; feature values are not read) holds the span and
    label-pair scores and ``final[y]``, added to every complete hypothesis
    whose last label is y (-inf bars it).  Returns [(score, [(label index,
    start, end), ...])] best first, empty when no segmentation is legal;
    the hypotheses are distinct (label sequence, segmentation) pairs.

    List Viterbi (Huang & Chiang, IWPT 2005) with all labels of a boundary
    t ranked at once, by one ``_merge_top_n`` per step: over the spans
    ending at t, shortest first (``Tables.ending_at``; span score plus the
    start's merged list), over (L, L) previous labels for the merge (their
    lists at t plus the pair score, -inf where forbidden) and over the L
    lists at T plus ``final``.  Exact ties keep the lowest column, the
    order of a stable sort of the negated row: hypotheses of equal score
    rank by their (label, duration) pairs read from the last segment back,
    ascending.  ``viterbi`` is the top hypothesis."""
    trans = tabs.trans
    t_len, nl = len(tabs.table), len(tabs.final)
    # cell_s[t, y, r]: r-th best score of a segment of label y ending at t,
    # cell_bp its start * n + rank; merged_s[t, y, r]: r-th best over
    # previous labels with the pair score, merged_bp its column
    cell_s = np.full((t_len + 1, nl, n), NEG_INF)
    cell_bp = np.zeros((t_len + 1, nl, n), dtype=int)
    merged_s = np.full((t_len + 1, nl, n), NEG_INF)
    merged_bp = np.zeros((t_len + 1, nl, n), dtype=int)
    merged_s[0, :, 0] = trans[0]
    for t in range(1, t_len + 1):
        scores, starts = tabs.ending_at(t)
        cols, cell_s[t] = _merge_top_n(scores.T, merged_s[starts].transpose(1, 0, 2), n)
        cell_bp[t] = starts[cols // n] * n + cols % n
        if t < t_len:
            merged_bp[t], merged_s[t] = _merge_top_n(
                trans[1:].T, np.broadcast_to(cell_s[t], (nl, nl, n)), n)
    top, scores = _merge_top_n(tabs.final[None], cell_s[t_len][None], n)
    ranked = []
    for col, sc in zip(top[0], scores[0]):
        if sc == NEG_INF:
            break
        y, r = divmod(int(col), n)
        spans = []
        t = t_len
        while t > 0:
            a, rank = divmod(int(cell_bp[t, y, r]), n)
            spans.append((y, a, t - 1))
            t = a
            y, r = divmod(int(merged_bp[t, y, rank]), n)
        spans.reverse()
        ranked.append((float(sc), spans))
    return ranked


def nbest_decode(model, ctx, n):
    """Top-n labeled segmentations by score; hypotheses are distinct
    (label sequence, segmentation) pairs by construction."""
    from .hmm import lattice_from_ranked
    ranked = nbest_segmentations(compute_tables(model, ctx), n)
    if not ranked:
        raise ValueError("no legal segmentation for N-best decode")
    return lattice_from_ranked(model.labels, ranked, ctx.num_frames)


def rescore(model, lattice, ctx):
    """Best lattice label sequence: argmax over label sequences of the
    log-sum-exp of their candidate segmentation scores.  Ties keep the
    earlier lattice entry.  Returns (labels, best candidate, sequence
    log-score)."""
    if lattice is None or not lattice.hypotheses:
        raise ValueError("empty lattice")
    groups = {}
    order = []
    for h in lattice.hypotheses:
        key = tuple(h.labels)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(h)
    best_key, best_score, best_hyp = None, NEG_INF, None
    for key in order:
        scores = [model.score(list(h.labels), h.segments, ctx) for h in groups[key]]
        seq_score = _logsumexp(np.array(scores))
        if seq_score > best_score:
            best_key, best_score = key, seq_score
            best_hyp = groups[key][int(np.argmax(scores))]
    return list(best_key), best_hyp, float(best_score)


def build_second_pass(first_model, labels, segment_mlp=None):
    """Second-pass model over first-pass lattices: first-pass score,
    segment-classifier posteriors, and peak features.  The first-pass score
    is a per-span feature, so the first model must not read the left
    label."""
    if first_model.left_dependent:
        raise ValueError("the second pass needs a left-independent first-pass model")
    feats = [FirstPassScoreFeature(first_model)]
    dims = [1]
    if segment_mlp is not None:
        f = SegmentClassifierFeature(labels, segment_mlp)
        feats.append(f)
        dims.append(f.dim)
    pk = PeakFeature(labels)
    feats.append(pk)
    dims.append(len(labels))
    model = SegmentalModel(labels, feats, dims,
                           max_duration=first_model.max_duration,
                           min_letter_duration=first_model.min_letter_duration,
                           initial_labels=first_model.initial_labels,
                           final_labels=first_model.final_labels)
    model.weights[0] = 1.0  # start from the first-pass ranking
    return model
