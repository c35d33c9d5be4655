"""Gaussian-mixture HMM recognizer over tandem observations.

Each letter is a left-to-right chain of three emitting states (no skips);
the begin/end silences get their own longer chains.  Emissions are
diagonal-covariance GMMs, scored by two matrix products
(``vision.diag_gaussian_logpdf_gemm``) and summed over components by
``vision.logsumexp_last``: a reduction over the short component axis runs
NumPy's loop once per (frame, state), elementwise passes do not.
Decoding runs over a composite graph silence - letter loop - silence with
bigram-LM-weighted letter transitions and a per-letter insertion penalty;
boundary silences may be skipped so sequences need not start or end with
non-signing frames.  That policy is stated once, at unit level, by
``unit_transitions``; ``_graph`` expands it, or forced alignment's
reference chain, into states.  Only a forbidden move scores -inf: with
floored variances, finite observations have finite emissions, so a word
has no path only when the graph allows none.

N-best lattices run on the semi-Markov engine (``scrf.nbest_segmentations``):
each unit's best within-unit state path over every span is one span score,
written straight into the engine's span order (the boundary silences' from
and to the sequence edges only), and the unit-level policy is the engine's
transition matrix.  The span scores come from a state-major chain DP
(``span_table``), each of whose NumPy calls runs over every (start, unit) cell.
Viterbi and forced alignment stay frame-synchronous over the state graph:
the engine's 1-best on the span table is O(T^2) per word and measured
about 2x slower on a 2-vCPU x86-64 host (0.10-0.14 s against 0.06-0.07 s
for nine words of 74-193 frames), with scores within 3e-12.  The dense
recursion reads the transposed transition matrix, so each state's
predecessors are one contiguous row: 1.3x faster than a maximum over
columns on nine words of 1,025 frames (96 states), with identical scores
and paths.

Training supports two modes: segmented (each unit trained on its annotated
spans, initialized from a uniform within-span state split) and flat-start
(embedded EM over whole-word composite chains from a global-statistics
initialization).  Both run one exact forward-backward over all spans (or
words) with the same state count at once, padded to the longest.
Per-iteration total log-likelihood is recorded and is non-decreasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alphabet import BEGIN_SILENCE, END_SILENCE, SILENCES
from .fileio import DataError, check_fields, in_file, read_model, shaped_array, write_json
from .scrf import SpanIndex, Tables, nbest_segmentations
from .segments import NoPathError, Segment, check_tiling, lattice_from_ranked, letters_only
from .vision import diag_gaussian_logpdf_gemm, logsumexp_last


@dataclass
class DecodeConfig:
    lm_weight: float = 1.0
    penalty: float = 0.0       # per decoded letter; larger means fewer letters
    nbest: int = in_file(default=8, at_least=1)

    def __post_init__(self):
        check_fields(self)


class LetterHmm:
    SCHEMA = "segspell-hmm-1"
    SUM_TOLERANCE = 1e-9     # on a state's mixture weights and stay/advance pair

    def __init__(self, letters, dim, letter_states=3, silence_states=9,
                 components=2, var_floor=1e-4):
        self.letters = tuple(letters)
        self.units = self.letters + SILENCES
        self.dim = dim
        self.letter_states = letter_states
        self.silence_states = silence_states
        self.components = components
        self.var_floor = var_floor

        counts = [letter_states] * len(self.letters) + [silence_states] * 2
        self.unit_nstates = dict(zip(self.units, counts))
        self.unit_first = dict(zip(self.units, (np.cumsum(counts) - counts).tolist()))
        self.state_unit_index = np.repeat(np.arange(len(self.units)), counts)
        self.n_states = s = len(self.state_unit_index)

        self.means = np.zeros((s, components, dim))
        self.variances = np.ones((s, components, dim))
        self.log_weights = np.full((s, components), -math.log(components))
        # two-outcome transitions per state: stay vs advance (advance from a
        # unit's final state means leaving the unit)
        self.log_self = np.full(s, math.log(0.5))
        self.log_next = np.full(s, math.log(0.5))

    def unit_states(self, unit):
        first = self.unit_first[unit]
        return range(first, first + self.unit_nstates[unit])

    def emission_logprobs(self, seq):
        seq = np.asarray(seq, dtype=np.float64)
        if seq.ndim != 2 or seq.shape[1] != self.dim:
            raise ValueError("observation dim %s does not match model dim %d"
                             % (seq.shape[1:], self.dim))
        return self.emission_logprobs_subset(seq, slice(None))[1]

    def emission_logprobs_subset(self, seq, states):
        """Per-component (T, k, M) and total (T, k) emission log-probs of
        the k selected states, by one ``diag_gaussian_logpdf_gemm``; the
        total by ``logsumexp_last`` (a reduction's bits, 6x faster at M = 2)."""
        seq = np.asarray(seq, dtype=np.float64)
        mu, var = (a[states].reshape(-1, self.dim) for a in (self.means, self.variances))
        lw = self.log_weights[states]
        ll = diag_gaussian_logpdf_gemm(seq, mu, var).reshape(len(seq), *lw.shape) + lw
        return ll, logsumexp_last(ll)

    def to_jsonable(self):
        return {
            "schema": self.SCHEMA,
            "letters": list(self.letters),
            "dim": self.dim,
            "letter_states": self.letter_states,
            "silence_states": self.silence_states,
            "components": self.components,
            "var_floor": self.var_floor,
            "means": self.means.tolist(),
            "variances": self.variances.tolist(),
            "log_weights": self.log_weights.tolist(),
            "log_self": self.log_self.tolist(),
            "log_next": self.log_next.tolist(),
        }

    @classmethod
    def from_jsonable(cls, obj):
        """Refuses another schema, a parameter array whose shape does not fit
        the model's states, components and dimension, a variance below
        ``var_floor`` or not above 0, a log-probability above 0, and weights
        or a stay/advance pair off a sum of 1 by over ``SUM_TOLERANCE``
        (DataError naming the array); training floors every variance."""
        if obj.get("schema") != cls.SCHEMA:
            raise DataError("unsupported model schema: %r" % obj.get("schema"))
        model = cls(obj["letters"], obj["dim"], obj["letter_states"],
                    obj["silence_states"], obj["components"], obj["var_floor"])
        for name in ("means", "variances", "log_weights", "log_self", "log_next"):
            setattr(model, name, shaped_array(obj[name], getattr(model, name).shape, name))
        least = model.variances.min()
        if not (least >= model.var_floor and least > 0):
            raise DataError("variances hold %r, below var_floor %r or not above 0"
                            % (float(least), model.var_floor))
        for name in ("log_weights", "log_self", "log_next"):
            top = getattr(model, name).max()
            if top > 0:
                raise DataError("%s holds %r, a log-probability above 0" % (name, float(top)))
        for name, total in (("log_weights", np.exp(model.log_weights).sum(axis=1)),
                            ("log_self and log_next",
                             np.exp(model.log_self) + np.exp(model.log_next))):
            miss = float(np.abs(total - 1.0).max())
            if miss > cls.SUM_TOLERANCE:
                raise DataError("%s of a state miss a sum of 1 by %.3g" % (name, miss))
        return model

    def save(self, path):
        write_json(path, self.to_jsonable())

    @classmethod
    def load(cls, path):
        return read_model(path, cls.from_jsonable)


# ---------------------------------------------------------------------------
# Training

def _global_init(model, sequences):
    allx = np.concatenate(sequences)
    mean = allx.mean(axis=0)
    var = np.maximum(allx.var(axis=0), model.var_floor)
    shift = (np.arange(model.components) - (model.components - 1) / 2.0) * 0.2
    model.means[:] = mean + shift[:, None] * np.sqrt(var)
    model.variances[:] = var
    model.log_weights[:] = -math.log(model.components)
    model.log_self[:] = math.log(0.5)
    model.log_next[:] = math.log(0.5)


class _Accumulator:
    def __init__(self, model):
        s, m, d = model.means.shape
        self.gamma = np.zeros((s, m))
        self.mean_acc = np.zeros((s, m, d))
        self.sq_acc = np.zeros((s, m, d))
        self.self_count = np.zeros(s)
        self.advance_count = np.zeros(s)

    def apply(self, model):
        seen = self.gamma.sum(axis=1) > 0   # an unseen state keeps its parameters
        w = np.maximum(self.gamma[seen], 1e-12)
        model.log_weights[seen] = np.log(w / w.sum(axis=1, keepdims=True))
        means = self.mean_acc[seen] / w[:, :, None]
        model.means[seen] = means
        model.variances[seen] = np.maximum(self.sq_acc[seen] / w[:, :, None] - means ** 2,
                                           model.var_floor)
        total = self.self_count + self.advance_count
        moved = seen & (total > 0)
        p_self = np.clip(self.self_count[moved] / total[moved], 1e-4, 1 - 1e-4)
        # math.log: np.log differs from it in the last bit for some values
        model.log_self[moved] = [math.log(p) for p in p_self]
        model.log_next[moved] = [math.log(1.0 - p) for p in p_self]


def _forward_backward(model, chains, acc):
    """Exact forward-backward on left-to-right chains, given as
    (observations, global state indices), each entered at its first state
    and left (one 'advance') after its final frame.  Chains with the same
    state count run as one batch padded to the longest.  Each accumulator
    gets one ``np.bincount`` (a state may recur: repeated letters) in chain
    order, t-major within a chain: the sums of a chain-at-a-time pass.
    Returns the chain log-likelihoods in input order."""
    lls = np.empty(len(chains))
    parts = {name: [] for name in
             ("self_count", "advance_count", "gamma", "mean_acc", "sq_acc")}
    for k in sorted({len(st) for _, st in chains}):
        ids = np.array([i for i, (_, st) in enumerate(chains) if len(st) == k])
        lens = np.array([len(chains[i][0]) for i in ids])
        if lens.min() < k:
            raise NoPathError("span of %d frames cannot traverse %d states"
                              % (lens.min(), k))
        n, t_max = len(ids), lens.max()
        states = np.array([chains[i][1] for i in ids])
        framed = np.arange(t_max) < lens[:, None]
        x = np.zeros((n, t_max, model.dim))
        x[framed] = np.concatenate([chains[i][0] for i in ids])
        emis = np.zeros((n, t_max, k))
        comp = np.zeros((n, t_max, k, model.components))
        for st in np.unique(states, axis=0):  # one call per unit when segmented
            r, t = np.nonzero(framed & (states == st).all(axis=1)[:, None])
            comp[r, t], emis[r, t] = model.emission_logprobs_subset(x[r, t], st)
        log_self = model.log_self[states]
        log_next = model.log_next[states]
        rows = np.arange(n)

        alpha = np.full((n, t_max, k), -np.inf)
        alpha[:, 0, 0] = emis[:, 0, 0]
        move = np.full((n, k), -np.inf)
        for t in range(1, t_max):
            stay = alpha[:, t - 1] + log_self
            move[:, 1:] = alpha[:, t - 1, :-1] + log_next[:, :-1]
            alpha[:, t] = emis[:, t] + np.logaddexp(stay, move)
        ll = alpha[rows, lens - 1, k - 1] + log_next[:, k - 1]
        lls[ids] = ll

        # beta starts at each chain's own last frame; padded frames stay -inf
        beta = np.full((n, t_max, k), -np.inf)
        beta[rows, lens - 1, k - 1] = log_next[:, k - 1]
        move = np.full((n, k), -np.inf)
        for t in range(t_max - 2, -1, -1):
            stay = beta[:, t + 1] + log_self + emis[:, t + 1]
            move[:, :-1] = beta[:, t + 1, 1:] + log_next[:, :-1] + emis[:, t + 1, 1:]
            beta[:, t] = np.where((t < lens - 1)[:, None],
                                  np.logaddexp(stay, move), beta[:, t])

        ll = ll[:, None, None]
        gamma = np.where(framed[:, :, None], np.exp(np.minimum(alpha + beta - ll, 0.0)), 0.0)
        steps = np.arange(t_max - 1) < (lens - 1)[:, None]
        stay = np.exp(np.minimum(alpha[:, :-1] + log_self[:, None] + emis[:, 1:]
                                 + beta[:, 1:] - ll, 0.0))
        adv = np.exp(np.minimum(alpha[:, :-1, :-1] + log_next[:, None, :-1]
                                + emis[:, 1:, 1:] + beta[:, 1:, 1:] - ll, 0.0))
        at_step = np.broadcast_to(states[:, None, :], stay.shape)[steps]
        parts["self_count"].append((np.repeat(ids, (lens - 1) * k),
                                    at_step.reshape(-1), stay[steps].reshape(-1)))
        parts["advance_count"].append((np.repeat(ids, (lens - 1) * (k - 1)),
                                       at_step[:, :-1].reshape(-1),
                                       adv[steps].reshape(-1)))
        parts["advance_count"].append((ids, states[:, -1], np.ones(n)))  # final exit

        resp = gamma[..., None] * np.exp(np.minimum(comp - emis[..., None], 0.0))
        per_state = (np.repeat(ids, k), states.reshape(-1))
        parts["gamma"].append(per_state + (resp.sum(axis=1).reshape(n * k, -1),))
        for name, y in (("mean_acc", x), ("sq_acc", x * x)):
            val = np.einsum("ntsm,ntd->nsmd", resp, y)
            parts[name].append(per_state + (val.reshape(n * k, *val.shape[2:]),))

    for name, chunks in parts.items():
        owner, idx, val = (np.concatenate(c) for c in zip(*chunks))
        order, total = np.argsort(owner, kind="stable"), getattr(acc, name)
        cell = np.arange(total.size).reshape(total.shape)[idx[order]]
        total += np.bincount(cell.ravel(), val[order].ravel(), total.size).reshape(total.shape)
    return lls


def _segmented_init(model, sequences, segmentations):
    """Closed-form fit from a uniform within-span state split: each span's
    ``np.array_split`` parts, one per state, every state's statistics
    summed in frame order."""
    segs = []
    for seq, spans in zip(sequences, segmentations):
        check_tiling(spans, len(seq))
        for seg in spans:
            if seg.label not in model.unit_nstates:
                raise ValueError("segment label %r has no model" % (seg.label,))
        segs.extend(spans)
    allx = np.concatenate(sequences)   # the spans tile it in order
    lens = np.array([seg.duration for seg in segs])
    parts = np.array([model.unit_nstates[seg.label] for seg in segs])
    first = np.repeat([model.unit_first[seg.label] for seg in segs], lens)
    i = np.arange(len(allx)) - np.repeat(np.cumsum(lens) - lens, lens)
    q, r = np.repeat(lens // parts, lens), np.repeat(lens % parts, lens)
    # the first r parts of a span have q + 1 frames, the others q
    state = first + np.where(i < r * (q + 1), i // (q + 1),
                             r + (i - r * (q + 1)) // np.maximum(q, 1))
    s, m, d = model.means.shape
    n = np.bincount(state, minlength=s)
    runs = np.bincount(state[(i == 0) | (np.diff(state, prepend=-1) != 0)], minlength=s)
    cell = np.arange(s * d).reshape(s, d)[state].ravel()   # (state, dim) of each value
    mean = np.bincount(cell, allx.ravel(), s * d).reshape(s, d) / np.maximum(n, 1)[:, None]
    dev = allx - mean[state]
    dev *= dev
    sq = np.bincount(cell, dev.ravel(), s * d).reshape(s, d)

    gmean, gvar = allx.mean(axis=0), np.maximum(allx.var(axis=0), model.var_floor)
    # units with no annotated spans are pushed far from the data so decoding
    # never hypothesizes them
    mean = np.where((n > 0)[:, None], mean, gmean + 100.0 * np.sqrt(gvar))
    var = np.where((n > 1)[:, None],
                   np.maximum(sq / np.maximum(n, 1)[:, None], model.var_floor), gvar)
    p_self = np.where(n > 0, np.clip((n - runs) / np.maximum(n, 1), 1e-4, 1 - 1e-4), 0.5)
    shift = (np.arange(m) - (m - 1) / 2.0) * 0.2
    model.means[:] = mean[:, None, :] + shift[None, :, None] * np.sqrt(var)[:, None, :]
    model.variances[:] = var[:, None, :]
    model.log_weights[:] = -math.log(m)
    model.log_self[:] = [math.log(p) for p in p_self]
    model.log_next[:] = [math.log(1.0 - p) for p in p_self]


def train_em(sequences, transcriptions, letters, dim, segmentations=None,
             iters=2, letter_states=3, silence_states=9, components=2,
             var_floor=1e-4):
    """Train a LetterHmm; returns (model, per-iteration log-likelihoods).

    With segmentations, each unit is trained on its own spans (segmented
    mode); without, embedded EM runs over whole-word composite chains
    (flat-start).  iters=0 returns the mode's initialization.  An overflow
    or an invalid operation raises DataError naming its EM iteration, 0 for
    the initialization."""
    if not sequences:
        raise ValueError("no training sequences")
    if len(sequences) != len(transcriptions):
        raise ValueError("sequence/transcription count mismatch")
    sequences = [np.asarray(seq, dtype=np.float64) for seq in sequences]
    model = LetterHmm(letters, dim, letter_states, silence_states,
                      components, var_floor)
    if segmentations is not None and len(segmentations) != len(sequences):
        raise ValueError("sequence/segmentation count mismatch")
    loglik_curve, it = [], 0
    try:
        with np.errstate(over="raise", invalid="raise"):
            if segmentations is not None:
                _segmented_init(model, sequences, segmentations)
                # spans shorter than their chain are skipped; the set is
                # fixed, so the EM curve stays comparable across iterations
                chains = [(seq[seg.start:seg.end + 1], list(model.unit_states(seg.label)))
                          for seq, segs in zip(sequences, segmentations) for seg in segs
                          if seg.duration >= model.unit_nstates[seg.label]]
            else:
                _global_init(model, sequences)
                chains = [(seq, [s for u in (BEGIN_SILENCE, *word, END_SILENCE)
                                 for s in model.unit_states(u)])
                          for seq, word in zip(sequences, transcriptions)]
            for it in range(1, iters + 1):
                acc = _Accumulator(model)
                total = 0.0
                for ll in _forward_backward(model, chains, acc):
                    total += ll
                acc.apply(model)
                loglik_curve.append(total)
            if iters > 0 and segmentations is None:
                # flat-start: units never seen in any transcription keep their
                # broad global-statistics emissions; push them away from the
                # data so they are never decoded
                unseen = acc.gamma.sum(axis=1) == 0
                if unseen.any():
                    var = np.maximum(np.concatenate(sequences).var(axis=0), model.var_floor)
                    model.means[unseen] += 100.0 * np.sqrt(var)
    except FloatingPointError as e:
        raise DataError("HMM training failed at EM iteration %d (0 is the "
                        "initialization): %s; check the observations" % (it, e)) from None
    return model, loglik_curve


# ---------------------------------------------------------------------------
# Decoding graph

def unit_transitions(model, lm, cfg):
    """The decode graph's unit-level policy, in ``model.units`` order.

    Returns (trans, final): ``trans`` is (U+1, U) with row 0 the START
    context and row i+1 following unit i; ``final[u]`` scores ending after
    unit u.  A letter is entered with its weighted bigram log-probability
    minus the insertion penalty, from START, from ``<s>`` or from a letter
    (itself too, unless it has a single state, where re-entry would be
    the self-loop); ``</s>`` follows letters only and the word may end
    after a letter or ``</s>``.  Skipping a boundary silence moves its LM
    term to the direct entry or exit.  Everything else is -inf."""
    idx = {u: i for i, u in enumerate(model.units)}
    trans = np.full((len(idx) + 1, len(idx)), -np.inf)
    final = np.full(len(idx), -np.inf)
    lw, pen = cfg.lm_weight, cfg.penalty
    beg, end = idx[BEGIN_SILENCE], idx[END_SILENCE]
    trans[0, beg] = 0.0
    final[end] = 0.0
    letters = list(model.letters)
    li = np.array([idx[l] for l in letters], dtype=int)
    # weighted log-probabilities: row 0 from <s>, column -1 into </s>
    lp = lw * lm.logprobs[np.ix_(*lm.cells([BEGIN_SILENCE] + letters,
                                            letters + [END_SILENCE]))]
    trans[0, li] = trans[beg + 1, li] = lp[0, :-1] - pen
    trans[li + 1, end] = final[li] = lp[1:, -1]
    pairs = lp[1:, :-1] - pen
    pairs[np.diag([model.unit_nstates[l] == 1 for l in letters])] = -np.inf
    trans[np.ix_(li + 1, li)] = pairs
    return trans, final


def _graph(model, units, trans, final):
    """Dense log-transition matrix plus initial/final vectors of the unit
    sequence ``units`` (a unit may repeat) under a unit-level policy:
    ``trans`` (U+1, U), row 0 the START context and row i+1 following
    ``units[i]``, and ``final`` (U,).  Within-unit self-loops and advances,
    each allowed unit pair as an edge from the first unit's last state (with
    its exit probability) to the second's first state, the rest -inf."""
    counts = np.array([model.unit_nstates[u] for u in units])
    states = np.concatenate([model.unit_states(u) for u in units])
    last = np.cumsum(counts) - 1
    first = last - counts + 1
    a = np.full((len(states), len(states)), -np.inf)
    a[np.diag_indices(len(states))] = model.log_self[states]
    inner = np.delete(np.arange(len(states)), last)
    a[inner, inner + 1] = model.log_next[states[inner]]
    exits = model.log_next[states[last]]
    src, dst = np.nonzero(np.isfinite(trans[1:]))
    a[last[src], first[dst]] = exits[src] + trans[1:][src, dst]
    pi, omega = np.full((2, len(states)), -np.inf)
    pi[first] = trans[0]
    omega[last] = exits + final
    return a, pi, omega


def build_decode_graph(model, lm, cfg):
    """The decode graph: ``unit_transitions`` expanded over ``model.units``
    into states (``_graph``)."""
    return _graph(model, model.units, *unit_transitions(model, lm, cfg))


def _path_segments(units, unit_of, path):
    """The segments of a state path, state s being in unit
    ``units[unit_of[s]]``.  A segment ends where the unit changes or where
    the state index falls: a unit re-entered after itself."""
    path = np.asarray(path)
    ids = unit_of[path]
    cuts = np.flatnonzero((np.diff(ids) != 0) | (np.diff(path) < 0)) + 1
    bounds = [0] + cuts.tolist() + [len(path)]
    return [Segment(units[ids[b]], b, e - 1) for b, e in zip(bounds, bounds[1:])]


def _viterbi(a, pi, omega, emis):
    """Best state path through a dense log-transition graph: (score, path).
    A tie goes to the lowest-numbered predecessor, then end state.  Each
    state's predecessors are one contiguous row of the transposed graph."""
    t_len, s = emis.shape
    into = np.ascontiguousarray(a.T)       # into[j, i]: the move i -> j
    rows = np.arange(s)
    score = pi + emis[0]
    bps = np.zeros((t_len, s), dtype=int)
    for t in range(1, t_len):
        cand = into + score
        bps[t] = np.argmax(cand, axis=1)
        score = cand[rows, bps[t]] + emis[t]
    final = score + omega
    path = [int(np.argmax(final))]
    for t in range(t_len - 1, 0, -1):
        path.append(int(bps[t, path[-1]]))
    return float(final[path[0]]), path[::-1]


def viterbi_decode(model, lm, seq, cfg, graph=None):
    """Best path through the composite decode graph (``graph``, when given,
    is ``build_decode_graph(model, lm, cfg)`` built once for many words).

    Returns (letter sequence without silences, segmentation including any
    decoded boundary silences, total log score)."""
    a, pi, omega = graph if graph is not None else build_decode_graph(model, lm, cfg)
    best, path = _viterbi(a, pi, omega, model.emission_logprobs(seq))
    if best == -np.inf:
        raise NoPathError("no legal path (sequence too short for any letter sequence?)")
    segs = _path_segments(model.units, model.state_unit_index, path)
    letters = letters_only([s.label for s in segs])
    return letters, segs, best


def forced_align(model, seq, letters):
    """Best state path constrained to the given letter sequence: Viterbi
    over the chain of its units' states (``_graph``).

    Each boundary silence is either absent or entered at its first state and
    left from its last: START enters ``<s>`` or the first letter, each unit
    enters the next, and the word ends after the last letter or ``</s>``.
    Scoring uses emissions and HMM transitions only.  Returns (segmentation
    tiling the sequence, score)."""
    if not letters:
        raise ValueError("empty letter sequence")
    if len(seq) < len(letters) * model.letter_states:
        raise NoPathError("sequence of %d frames too short for %d letters"
                          % (len(seq), len(letters)))
    units = [BEGIN_SILENCE] + list(letters) + [END_SILENCE]
    n = len(units)
    trans = np.where(np.eye(n + 1, n, dtype=bool), 0.0, -np.inf)
    trans[0, 1] = 0.0
    final = np.where(np.arange(n) < n - 2, -np.inf, 0.0)
    states = np.concatenate([model.unit_states(u) for u in units])
    best, path = _viterbi(*_graph(model, units, trans, final),
                          model.emission_logprobs_subset(seq, states)[1])
    if best == -np.inf:
        raise NoPathError("no alignment path for the constrained sequence")
    unit_id = np.repeat(np.arange(n), [model.unit_nstates[u] for u in units])
    return _path_segments(units, unit_id, path), best


# ---------------------------------------------------------------------------
# N-best lattices

def span_table(model, emis, policy):
    """The N-best engine's input: ``scrf.Tables`` of every unit span's best
    within-unit state path, with ``policy`` = ``unit_transitions``.

    A letter's span [t, t+d) enters its first state at frame t and leaves
    its last state after frame t+d-1, that exit's ``log_next`` included;
    it is -inf when d is below the unit's state count.  Letters are
    unbounded (dmax = T).  ``unit_transitions`` enters ``<s>`` only from
    START and leaves ``</s>`` only to the end, so only their spans [0, t)
    and [t, T) are scored.  The chain DP runs over all start frames at
    once, one step per duration, for each group of units with the same
    state count, and writes each duration's scores straight into their
    ``SpanIndex`` rows.  State-major, so each of a step's four in-place
    calls runs over one contiguous run, not k-element inner loops: row j of
    the flat v holds state j of every (start, unit) cell, and a run also
    updates the cells past each row's last start, which feed only each other."""
    t_len = len(emis)
    ix = SpanIndex(t_len, t_len)
    scores = np.full((len(ix.starts), len(model.units)), -np.inf)
    beg, end = model.units.index(BEGIN_SILENCE), model.units.index(END_SILENCE)
    letters = len(model.letters)               # the first units
    for k in sorted(set(model.unit_nstates.values())):
        group = [i for i, u in enumerate(model.units) if model.unit_nstates[u] == k]
        g, w = len(group), t_len * len(group)
        states = np.array([list(model.unit_states(model.units[i])) for i in group])
        # v[j*w + t*g + u]: unit u's best path over frames [t, t+d), now in state j
        e = emis[:, states].transpose(2, 0, 1).ravel()
        log_self = np.tile(model.log_self[states].T, t_len).ravel()
        log_next = np.tile(model.log_next[states].T, t_len).ravel()
        lead = letters if k == model.letter_states else 0   # letters come first
        v, move = np.full((2, k * w), -np.inf)
        v[:w] = e[:w]
        last = (k - 1) * w          # row k-1: the units' final states
        for d in range(1, t_len + 1):
            n = last + (t_len - d + 1) * g      # row k-1 through its last start
            out = (v[last:n] + log_next[last:n]).reshape(-1, g)
            if lead:
                scores[ix.first_cell[:t_len - d + 1] + (d - 1), :lead] = out[:, :lead]
            if beg in group:        # <s> over [0, d), </s> over [T-d, T)
                scores[ix.enter[d - 1], beg] = out[0, group.index(beg)]
            if end in group:
                scores[ix.leave[t_len - d], end] = out[t_len - d, group.index(end)]
            n -= g                  # through row k-1's starts in bounds at d+1
            adv = max(n - w, 0)     # the advances j-1 -> j; none when k is 1
            np.add(v[:adv], log_next[:adv], out=move[w:w + adv])
            np.add(v[:n], log_self[:n], out=v[:n])
            np.maximum(v[w:n], move[w:n], out=v[w:n])
            np.add(v[:n], e[d * g:d * g + n], out=v[:n])
    return Tables(scores, *policy, ix, np.arange(letters))


def nbest(model, lm, seq, cfg, policy=None):
    """Top-N distinct (label sequence, segmentation) hypotheses by score.

    Runs ``scrf.nbest_segmentations`` on the unit span table and the
    decode-graph policy of ``unit_transitions`` (``policy``, when given, is
    its result built once for many words); a hypothesis scores its
    best state path, so within-unit state wiggles never produce duplicate
    hypotheses.  The engine returns only finite-score hypotheses
    (NoPathError when there are none).  ``viterbi_decode`` does not use
    this path: on the span table it is O(T^2) per word and about 2x slower
    (module docstring)."""
    emis = model.emission_logprobs(seq)
    policy = policy if policy is not None else unit_transitions(model, lm, cfg)
    return lattice_from_ranked(model.units, nbest_segmentations(
        span_table(model, emis, policy), cfg.nbest), len(emis))
