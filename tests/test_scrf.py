import copy
import itertools
import math

import numpy as np
import pytest

from segspell import scrf
from segspell.scrf import (START_LABEL, BaselineFeature, ClassifierStatFeature,
                           FeatureContext, FirstPassFeatures, LmFeature,
                           ManifestError, PeakFeature, ScrfConfig, SegmentalModel,
                           TrainingExample, _logsumexp, clamped_expectation,
                           compute_tables, count_interior_minima, delta_peak,
                           example_gradient, forward_pass, backward_pass,
                           free_expectation, log_partition, nbest_decode,
                           resolve_reference, rescore, segment_thirds, train_cll,
                           viterbi)
from segspell.fileio import DataError
from segspell.metrics import align
from segspell.segments import (CandidateLattice, Hypothesis, NoPathError, Segment,
                               frame_labels)


class ToyLm:
    def __init__(self, probs):
        self.probs = probs

    def prob(self, a, b):
        return self.probs[(a, b)]

    def prob_matrix(self, prevs, nexts):
        return np.array([[self.probs.get((a, b), 1.0) for b in nexts] for a in prevs])


def enumerate_all(model, ctx):
    """All (label sequence, segmentation) pairs under the model's
    constraints; the independent oracle for exact inference."""
    T = ctx.num_frames
    out = []

    def comps(rem, parts):
        if rem == 0:
            yield parts
            return
        for d in range(1, rem + 1):
            yield from comps(rem - d, parts + [d])

    for durs in comps(T, []):
        for labels in itertools.product(model.labels, repeat=len(durs)):
            ok = model.initial_ok(labels[0]) and model.final_ok(labels[-1])
            for a, b in zip(labels, labels[1:]):
                ok = ok and model.transition_ok(a, b)
            segs, t = [], 0
            for l, d in zip(labels, durs):
                if d < model.min_dur(l) or d > model.max_dur(l, T):
                    ok = False
                segs.append(Segment(l, t, t + d - 1))
                t += d
            if ok:
                out.append((list(labels), segs))
    return out


def random_ctx(rng, T, with_lm=True, labels=("A", "B", "C")):
    probs = {}
    for a in [START_LABEL] + list(labels):
        for b in labels:
            probs[(a, b)] = float(rng.uniform(0.05, 1.0))
    return FeatureContext(T, letter_posteriors=rng.random((T, 4)),
                          descriptors=rng.normal(size=(T, 3)),
                          lm=ToyLm(probs) if with_lm else None,
                          baseline_frames=None)


def random_model(rng, ctx, labels, lmax, with_lm=True):
    feats = [ClassifierStatFeature("mean", 4), PeakFeature()]
    if with_lm:
        feats.append(LmFeature())
    model = SegmentalModel(list(labels), feats, max_duration=lmax)
    model.weights = rng.normal(size=model.total_dim)
    return model


# ---------------------------------------------------------------------------
# Oracles: one edge at a time, from the features' dense definitions

def firstpass_vectors(f, ctx, starts, ends):
    """``FirstPassFeatures`` values built block by block, (spans, block):
    the dense oracle of its factored span products."""
    g = np.asarray(ctx.letter_posteriors, dtype=np.float64)
    c = f.num_classes
    cums = np.vstack([np.zeros(c), np.cumsum(g, axis=0)])
    d = ends + 1 - starts
    phi = np.zeros((len(starts), f.block))
    phi[:, :c] = (cums[ends + 1] - cums[starts]) / d[:, None]
    for k, at in enumerate([starts, (starts + ends) // 2, ends, starts, ends], 1):
        phi[:, k * c:(k + 1) * c] = g[at]
    phi[np.arange(len(d)), 6 * c + np.minimum(d, f.max_duration) - 1] = 1.0
    phi[:, -1] = 1.0
    return phi


def span_vectors(f, ctx, starts, ends):
    if isinstance(f, FirstPassFeatures):
        return firstpass_vectors(f, ctx, starts, ends)
    return f.span_vectors(ctx, starts, ends)


def edge_feature_vector(model, ctx, prev, label, start, end):
    """Feature vector of the segment [start, end] labeled ``label`` after
    ``prev`` (START_LABEL first), one span at a time: a vector feature's
    values from ``span_vectors`` (``firstpass_vectors`` for the first pass)
    in the block of the segment's label, or one shared by all labels."""
    y = model.labels.index(label)
    row = 0 if prev == START_LABEL else model.labels.index(prev) + 1
    parts = []
    for f, dim in zip(model.features, model.dims):
        out = np.zeros(dim)
        if f.left_dependent:
            out[:] = f.pair_matrix(ctx, model.labels)[row, y]
        else:
            b, bd = 0 if f.shared else y, f.block
            span = np.array([start]), np.array([end])
            out[b * bd:(b + 1) * bd] = (f.span_values(ctx, *span, model.labels)[0, y]
                                        if hasattr(f, "span_values") else
                                        span_vectors(f, ctx, *span)[0])
        parts.append(out)
    return np.concatenate(parts)


def edge_feature_totals(model, ctx, labels, segments):
    """Feature totals of one labeled segmentation, edge by edge."""
    prevs = [START_LABEL] + list(labels[:-1])
    return sum(edge_feature_vector(model, ctx, p, l, s.start, s.end)
               for p, l, s in zip(prevs, labels, segments))


def edge_marginals(model, ctx):
    """Posterior probability of each (start, duration, right label) edge
    (summed over the left label), shape (T, T, L), plus logZ."""
    tabs = compute_tables(model, ctx)
    post, logz, _, _ = scrf._marginals(tabs)
    marg = np.zeros((ctx.num_frames, ctx.num_frames, post.shape[1]))
    np.add.at(marg, (tabs.index.starts, tabs.index.ends - tabs.index.starts - 1), post)
    return marg, logz


def sequence_log_posterior(model, ctx, ref_labels):
    """log p(S_ref | O) in full mode."""
    tabs = compute_tables(model, ctx)
    _, logz_c = clamped_expectation(model, ctx, ref_labels, tabs=tabs)
    if logz_c == -np.inf:
        return -np.inf
    return logz_c - log_partition(model, ctx)


class TestFeatureFunctions:
    def test_lm_feature_direct_lookup(self):
        ctx = FeatureContext(4, lm=ToyLm({("A", "B"): 0.5}))
        f = LmFeature()
        assert f.pair_matrix(ctx, ["A", "B"])[1, 1, 0] == 0.5   # row A, column B

    def test_lm_feature_neutral_outside_domain(self):
        ctx = FeatureContext(4, lm=ToyLm({("A", "B"): 0.5}))
        assert LmFeature().pair_matrix(ctx, ["Q"])[0, 0, 0] == 1.0

    def test_lm_feature_in_unit_interval(self):
        rng = np.random.default_rng(0)
        from segspell.lm import train_bigram
        lm = train_bigram(["TULIP", "ROAD", "QUIZ"])
        ctx = FeatureContext(4, lm=lm)
        letters = [chr(ord("A") + i) for i in range(26)]
        values = LmFeature().pair_matrix(ctx, letters)
        for _ in range(100):
            i, j = rng.integers(26), rng.integers(26)
            a, b = letters[i], letters[j]
            v = values[i + 1, j, 0]
            assert 0.0 < v <= 1.0
            assert v == pytest.approx(math.exp(lm.logprob(a, b)), abs=1e-12)

    def test_baseline_feature_cases(self):
        frames = ["A"] * 5 + ["B"] * 5
        ctx = FeatureContext(10, baseline_frames=frames)
        values = BaselineFeature().span_values(ctx, np.array([0, 3, 1]), np.array([4, 6, 3]),
                                               ["A", "B"])
        assert values[0, 0] == 1.0
        assert values[1, 0] == -1.0  # spans A/B
        assert values[2, 1] == -1.0  # mismatch

    def test_classifier_mean(self):
        g = np.array([[0.2, 0.0], [0.4, 0.0]])
        ctx = FeatureContext(2, letter_posteriors=g)
        f = ClassifierStatFeature("mean", 2)
        model = SegmentalModel(["A", "B", "Q"], [f], max_duration=2)
        vec = edge_feature_vector(model, ctx, START_LABEL, "A", 0, 1)
        assert vec[0] == pytest.approx(0.3)

    def test_div_thirds_of_six(self):
        g = np.array([[0.0], [1.0], [0.0], [1.0], [0.0], [1.0]])
        ctx = FeatureContext(6, letter_posteriors=g)
        div_s = ClassifierStatFeature("div_s", 1)
        div_m = ClassifierStatFeature("div_m", 1)
        span = np.array([0]), np.array([5])
        np.testing.assert_allclose(div_s.span_vectors(ctx, *span)[0], [0.5, 0.5, 0.5])
        np.testing.assert_allclose(div_m.span_vectors(ctx, *span)[0], [1.0, 1.0, 1.0])

    def test_thirds_rule(self):
        assert segment_thirds(6) == (2, 2, 2)
        assert segment_thirds(7) == (3, 2, 2)
        assert segment_thirds(8) == (3, 3, 2)
        assert segment_thirds(4) == (2, 1, 1)
        assert segment_thirds(1) == (1, 0, 0)

    def test_peak_shapes(self):
        # descriptor sequences engineered so consecutive-difference norms
        # form V, W and monotone shapes over the whole curve
        def ctx_from_steps(steps):
            x = np.concatenate([[0.0], np.cumsum(steps)])[:, None]
            return FeatureContext(len(x), descriptors=x)

        v_ctx = ctx_from_steps([5, 4, 3, 1, 3, 4, 5])
        assert delta_peak(v_ctx, 0, v_ctx.num_frames - 1) == 1.0
        # two wide valleys that survive the 5-frame smoothing
        w_ctx = ctx_from_steps([9, 3, 1, 3, 9, 9, 9, 9, 3, 1, 3, 9])
        assert delta_peak(w_ctx, 0, w_ctx.num_frames - 1) == 0.0
        mono_ctx = ctx_from_steps([9, 8, 7, 6, 5, 4, 3])
        assert delta_peak(mono_ctx, 0, mono_ctx.num_frames - 1) == 0.0

    def test_interior_minima_plateau_counts_once(self):
        assert count_interior_minima([3, 1, 1, 1, 3]) == 1
        assert count_interior_minima([3, 1, 1, 3, 1, 3]) == 2
        assert count_interior_minima([1, 1, 3, 4]) == 0  # touches boundary
        assert count_interior_minima([4, 3, 2, 1]) == 0  # monotone

    def test_firstpass_one_frame_segment(self):
        rng = np.random.default_rng(1)
        g = rng.random((5, 3))
        ctx = FeatureContext(5, letter_posteriors=g)
        f = FirstPassFeatures(3, 4)
        base = f.span_vectors(ctx, np.array([2]), np.array([2]))[0]
        np.testing.assert_allclose(base, firstpass_vectors(f, ctx, np.array([2]), np.array([2]))[0],
                                   rtol=0, atol=1e-15)
        for k in range(6):
            np.testing.assert_allclose(base[3 * k:3 * (k + 1)], g[2])
        duration = base[18:22]
        assert duration.sum() == 1.0 and duration[0] == 1.0
        assert base[-1] == 1.0

    def test_firstpass_dimensionality(self):
        labels = [str(i) for i in range(30)]
        f = FirstPassFeatures(28, 40)
        assert f.block == 3 * 28 + 28 + 2 * 28 + 40 + 1
        assert SegmentalModel(labels, [f]).dims == [30 * (3 * 28 + 28 + 2 * 28 + 40 + 1)]


class TestScore:
    def test_zero_weights_zero_score(self):
        rng = np.random.default_rng(2)
        ctx = random_ctx(rng, 5)
        model = random_model(rng, ctx, ["A", "B"], 3)
        model.weights = np.zeros(model.total_dim)
        segs = [Segment("A", 0, 2), Segment("B", 3, 4)]
        assert model.score(["A", "B"], segs, ctx) == 0.0

    def test_score_linear_in_weights(self):
        rng = np.random.default_rng(3)
        ctx = random_ctx(rng, 5)
        model = random_model(rng, ctx, ["A", "B"], 3)
        segs = [Segment("A", 0, 2), Segment("B", 3, 4)]
        s1 = model.score(["A", "B"], segs, ctx)
        model.weights = 2 * model.weights
        assert model.score(["A", "B"], segs, ctx) == pytest.approx(2 * s1, rel=1e-12)

    def test_hand_computed_two_edge_toy(self):
        g = np.array([[0.2, 0.8], [0.6, 0.4], [1.0, 0.0]])
        ctx = FeatureContext(3, letter_posteriors=g,
                             lm=ToyLm({(START_LABEL, "A"): 0.5, ("A", "B"): 0.25}))
        f1 = ClassifierStatFeature("mean", 2)
        f2 = LmFeature()
        model = SegmentalModel(["A", "B"], [f1, f2], max_duration=3)
        model.weights = np.array([1.0, 2.0, 3.0, 4.0, 10.0])
        segs = [Segment("A", 0, 1), Segment("B", 2, 2)]
        # edge 1: mean g over frames 0..1 in the A block = (0.4, 0.6);
        # edge 2: g at frame 2 in the B block = (1.0, 0.0); lm: 0.5 + 0.25
        expected = (1.0 * 0.4 + 2.0 * 0.6) + (3.0 * 1.0 + 4.0 * 0.0) + 10.0 * 0.75
        assert model.score(["A", "B"], segs, ctx) == pytest.approx(expected, abs=1e-12)

    def test_invalid_tiling_rejected(self):
        rng = np.random.default_rng(4)
        ctx = random_ctx(rng, 5)
        model = random_model(rng, ctx, ["A", "B"], 3)
        with pytest.raises(Exception):
            model.score(["A"], [Segment("A", 0, 3)], ctx)

    def test_lattice_segment_beyond_duration_bound_rescores(self):
        # a lattice segment longer than max_duration (a slow signer's letter)
        # is scored as given, exactly as lattice training scores it
        rng = np.random.default_rng(22)
        labels = ["A", "B"]
        ctx = random_ctx(rng, 8, labels=labels)
        model = random_model(rng, ctx, labels, 3)
        long_hyp = Hypothesis(["A", "B"], [Segment("A", 0, 5), Segment("B", 6, 7)], 0.0)
        short_hyp = Hypothesis(["B", "A", "B"], [Segment("B", 0, 2), Segment("A", 3, 5),
                                                 Segment("B", 6, 7)], 0.0)
        lattice = CandidateLattice([long_hyp, short_hyp], ["A"] * 8)
        totals = [float(np.dot(model.weights,
                               edge_feature_totals(model, ctx, h.labels, h.segments)))
                  for h in lattice.hypotheses]
        assert model.score(long_hyp.labels, long_hyp.segments, ctx) == \
            pytest.approx(totals[0], abs=1e-12)
        labels_out, best, score = rescore(model, lattice, ctx)
        i = int(np.argmax(totals))   # distinct label sequences: no grouping
        assert best is lattice.hypotheses[i] and labels_out == list(best.labels)
        assert score == pytest.approx(totals[i], abs=1e-12)


class TestExactInference:
    def test_t1_two_labels_zero_weights_log2(self):
        ctx = FeatureContext(1, letter_posteriors=np.zeros((1, 2)),
                             descriptors=np.zeros((1, 2)))
        f = ClassifierStatFeature("mean", 2)
        model = SegmentalModel(["A", "B"], [f], max_duration=3)
        assert log_partition(model, ctx) == pytest.approx(math.log(2), abs=1e-12)

    def test_log_partition_viterbi_marginals_vs_enumeration(self):
        rng = np.random.default_rng(6)
        pick = np.random.default_rng(60)   # reference choice, off the case stream
        for case in range(40):
            T = int(rng.integers(1, 7))
            L = int(rng.integers(2, 4))
            lmax = int(rng.integers(1, 4))
            with_lm = bool(rng.integers(0, 2))
            labels = ["A", "B", "C"][:L]
            ctx = random_ctx(rng, T, with_lm=with_lm, labels=labels)
            model = random_model(rng, ctx, labels, lmax, with_lm=with_lm)
            if case % 3 == 2:   # pin the first and last labels, as the first pass does
                model.initial_labels, model.final_labels = {labels[0]}, {labels[-1]}
            hyps = enumerate_all(model, ctx)
            if not hyps:
                continue
            scores = np.array([model.score(l, s, ctx) for l, s in hyps])
            assert log_partition(model, ctx) == \
                pytest.approx(_logsumexp(scores), abs=1e-9)
            vl, vs, vscore = viterbi(model, ctx)
            besti = int(np.argmax(scores))
            assert vscore == pytest.approx(scores[besti], abs=1e-9)
            assert vl == hyps[besti][0]
            assert [s.span() for s in vs] == [s.span() for s in hyps[besti][1]]
            assert vscore <= log_partition(model, ctx) + 1e-12
            # per-frame coverage marginals sum to one
            marg, _ = edge_marginals(model, ctx)
            for frame in range(T):
                cover = 0.0
                for a in range(T):
                    for dm in range(marg.shape[1]):
                        if a <= frame <= a + dm:
                            cover += marg[a, dm, :].sum()
                assert cover == pytest.approx(1.0, abs=1e-8)
            # free and clamped feature expectations are the probability-
            # weighted feature totals over all / reference-consistent hypotheses
            feats = np.array([edge_feature_totals(model, ctx, l, s) for l, s in hyps])
            probs = np.exp(scores - _logsumexp(scores))
            free, _ = free_expectation(model, ctx)
            np.testing.assert_allclose(free, probs @ feats, rtol=0, atol=1e-9)
            ref = hyps[int(pick.integers(len(hyps)))][0]
            in_ref = np.array([l == ref for l, _ in hyps])
            clamped_scores = np.where(in_ref, scores, -np.inf)
            clamped, logz_c = clamped_expectation(model, ctx, ref)
            assert logz_c == pytest.approx(_logsumexp(clamped_scores), abs=1e-9)
            np.testing.assert_allclose(
                clamped, np.exp(clamped_scores - logz_c) @ feats, rtol=0, atol=1e-9)

    def test_engineered_dominant_segmentation(self):
        g = np.zeros((4, 2))
        g[:2, 0] = 1.0
        g[2:, 1] = 1.0
        ctx = FeatureContext(4, letter_posteriors=g)
        f = ClassifierStatFeature("mean", 2)
        model = SegmentalModel(["A", "B"], [f], max_duration=4)
        model.weights = np.array([50.0, -50.0, -50.0, 50.0])
        labels, segs, _ = viterbi(model, ctx)
        assert labels == ["A", "B"]
        assert [s.span() for s in segs] == [(0, 1), (2, 3)]

    def test_constant_feature_shift_keeps_argmax(self):
        rng = np.random.default_rng(7)
        ctx = random_ctx(rng, 5, with_lm=False)

        class BiasFeature(scrf._Scalar):
            name = "bias"

            def span_values(self, ctx, starts, ends, labels):
                return np.ones((len(starts), len(labels)))

        labels = ["A", "B"]
        f = ClassifierStatFeature("mean", 4)
        bias = BiasFeature()
        model = SegmentalModel(labels, [f, bias], max_duration=3)
        model.weights[:-1] = rng.normal(size=model.total_dim - 1)
        l1, s1, _ = viterbi(model, ctx)
        model.weights[-1] += 5.0
        l2, s2, _ = viterbi(model, ctx)
        assert l1 == l2 and [x.span() for x in s1] == [x.span() for x in s2]

    def test_lattice_partition_and_rescore_agree_with_full_on_tiny(self):
        rng = np.random.default_rng(8)
        labels = ["A", "B"]
        ctx = random_ctx(rng, 3, with_lm=False, labels=labels)
        model = random_model(rng, ctx, labels, 3, with_lm=False)
        hyps = enumerate_all(model, ctx)
        lattice = CandidateLattice(
            [Hypothesis(l, s, model.score(l, s, ctx)) for l, s in hyps],
            ["A"] * 3)
        assert log_partition(model, ctx, lattice) == \
            pytest.approx(log_partition(model, ctx), abs=1e-9)
        vl, _, _ = viterbi(model, ctx)
        rl, _, _ = rescore(model, lattice, ctx)
        scores = {}
        for l, s in hyps:
            scores.setdefault(tuple(l), []).append(model.score(l, s, ctx))
        best_seq = max(scores, key=lambda k: _logsumexp(np.array(scores[k])))
        assert tuple(rl) == best_seq
        assert rl == vl  # full-space lattice: rescoring agrees with viterbi

    def test_empty_lattice_rejected(self):
        rng = np.random.default_rng(9)
        ctx = random_ctx(rng, 3, with_lm=False)
        model = random_model(rng, ctx, ["A", "B"], 3, with_lm=False)
        with pytest.raises(ValueError):
            rescore(model, None, ctx)
        with pytest.raises(ValueError):
            CandidateLattice([], [])


def silence_model(rng, ctx, labels, lmax, pinned, with_lm=False, kind="firstpass",
                  baseline=False):
    """A model whose labels include <s> and </s>; ``pinned`` also sets the
    first pass's initial and final labels."""
    stat = FirstPassFeatures(4, lmax) if kind == "firstpass" else \
        ClassifierStatFeature(kind, 4)
    feats = [stat, PeakFeature()] + [LmFeature()] * with_lm
    if baseline:
        ctx.baseline_frames = [labels[i] for i in rng.integers(len(labels), size=ctx.num_frames)]
        feats.append(BaselineFeature())
    model = SegmentalModel(labels, feats, max_duration=lmax,
                           initial_labels={"<s>"} if pinned else None,
                           final_labels={"</s>"} if pinned else None)
    model.weights = rng.normal(size=model.total_dim)
    return model


class TestBoundarySilences:
    """<s> and </s> have no duration bound and sit only at the sequence
    edges, so the tables score them as 2T boundary spans; the engine must
    still be exact, with or without the initial/final constraints."""

    def test_exact_inference_vs_enumeration(self):
        rng = np.random.default_rng(23)
        pick = np.random.default_rng(230)
        label_sets = [["<s>", "A", "B", "</s>"], ["A", "</s>", "B", "<s>"]]
        for case in range(24):
            lmax = 1 + case % 2
            T = int(rng.integers(lmax + 3, 7))   # T > max_duration + 2
            labels = label_sets[case % 2]
            ctx = random_ctx(rng, T, with_lm=case % 3 != 0, labels=labels)
            model = silence_model(rng, ctx, labels, lmax, pinned=case % 4 < 2,
                                  with_lm=case % 3 != 0,
                                  kind="firstpass" if case % 5 else "mean",
                                  baseline=case % 6 == 5)
            hyps = enumerate_all(model, ctx)
            assert any(l[0] == "<s>" and s[0].duration > lmax + 1 for l, s in hyps)
            scores = np.array([model.score(l, s, ctx) for l, s in hyps])
            logz = _logsumexp(scores)
            assert log_partition(model, ctx) == pytest.approx(logz, abs=1e-9)
            vl, vs, vscore = viterbi(model, ctx)
            besti = int(np.argmax(scores))
            assert vscore == pytest.approx(scores[besti], abs=1e-9)
            assert (vl, [s.span() for s in vs]) == \
                (hyps[besti][0], [s.span() for s in hyps[besti][1]])
            marg, _ = edge_marginals(model, ctx)
            for frame in range(T):
                cover = sum(marg[a, d].sum() for a in range(T) for d in range(T - a)
                            if a <= frame <= a + d)
                assert cover == pytest.approx(1.0, abs=1e-8)
            feats = np.array([edge_feature_totals(model, ctx, l, s) for l, s in hyps])
            probs = np.exp(scores - logz)
            free, _ = free_expectation(model, ctx)
            np.testing.assert_allclose(free, probs @ feats, rtol=0, atol=1e-9)
            ref = hyps[int(pick.integers(len(hyps)))][0]
            in_ref = np.array([l == ref for l, _ in hyps])
            clamped_scores = np.where(in_ref, scores, -np.inf)
            clamped, logz_c = clamped_expectation(model, ctx, ref)
            assert logz_c == pytest.approx(_logsumexp(clamped_scores), abs=1e-9)
            np.testing.assert_allclose(
                clamped, np.exp(clamped_scores - logz_c) @ feats, rtol=0, atol=1e-9)
            ranked = sorted(scores, reverse=True)[:8]
            got = [h.score for h in nbest_decode(model, ctx, 8).hypotheses]
            np.testing.assert_allclose(got, ranked, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("pinned", [True, False])
    def test_gradient_matches_finite_differences(self, pinned):
        rng = np.random.default_rng(24)
        labels = ["<s>", "A", "B", "</s>"]
        ctx = random_ctx(rng, 7, labels=labels)
        model = silence_model(rng, ctx, labels, 2, pinned, with_lm=True)
        model.weights *= 0.5
        ref_labels = ["<s>", "A", "B", "</s>"]
        ref_segs = [Segment("<s>", 0, 2), Segment("A", 3, 4), Segment("B", 5, 5),
                    Segment("</s>", 6, 6)]
        grad, _ = example_gradient(model, TrainingExample(ctx, ref_labels, ref_segs))

        def cll(w):
            saved, model.weights = model.weights, w
            val = sequence_log_posterior(model, ctx, ref_labels)
            model.weights = saved
            return val

        eps = 1e-5
        for i in rng.choice(model.total_dim, size=30, replace=False):
            step = np.zeros(model.total_dim)
            step[i] = eps
            fd = (cll(model.weights + step) - cll(model.weights - step)) / (2 * eps)
            # a zero gradient leaves only the differences' rounding, about 1e-11
            assert abs(fd - grad[i]) <= 1e-4 * max(abs(fd), abs(grad[i]), 1e-6), (i, fd, grad[i])

    def test_tables_hold_letters_to_max_duration_and_2t_silence_spans(self):
        rng = np.random.default_rng(25)
        labels = ["<s>", "A", "B", "</s>"]
        ctx = random_ctx(rng, 12, labels=labels)
        model = silence_model(rng, ctx, labels, 3, pinned=False)
        tabs = compute_tables(model, ctx)
        assert tabs.table.shape == (12, 3, 2) and list(tabs.columns) == [1, 2]
        enter, leave = enter_leave(tabs)
        assert np.isfinite(enter[1:, 0]).all() and np.isfinite(leave[:-1, 3]).all()
        assert np.isneginf(np.delete(enter, 0, axis=1)).all()
        assert np.isneginf(np.delete(leave, 3, axis=1)).all()
        # a silence spanning the whole word is scored as given
        full = [Segment("<s>", 0, 11)]
        assert enter[12, 0] + tabs.trans[0, 0] == \
            pytest.approx(model.score(["<s>"], full, ctx), abs=1e-12)

    def test_one_frame_has_no_path(self):
        # a pinned model needs <s> and </s> frames: one frame has no
        # segmentation, and every search over it raises NoPathError, as the
        # HMM's do; the N-best engine itself returns no hypotheses
        rng = np.random.default_rng(27)
        labels = ["<s>", "A", "B", "</s>"]
        ctx = random_ctx(rng, 1, labels=labels)
        model = silence_model(rng, ctx, labels, 3, pinned=True)
        assert scrf.nbest_segmentations(compute_tables(model, ctx), 4) == []
        ref = ["<s>", "A", "</s>"]
        for search in (lambda: viterbi(model, ctx), lambda: nbest_decode(model, ctx, 4),
                       lambda: clamped_expectation(model, ctx, ref),
                       lambda: example_gradient(model, TrainingExample(
                           ctx, ref, [Segment("<s>", 0, 0)]))):
            with pytest.raises(NoPathError, match="1 frames"):
                search()


class TestTraining:
    def test_gradient_matches_finite_differences_full(self):
        rng = np.random.default_rng(10)
        labels = ["A", "B"]
        ctx = random_ctx(rng, 4, labels=labels)
        feats = [ClassifierStatFeature("mean", 4),
                 ClassifierStatFeature("div_s", 4),
                 PeakFeature(), LmFeature()]
        model = SegmentalModel(labels, feats, max_duration=3)
        model.weights = 0.5 * rng.normal(size=model.total_dim)
        ref_labels = ["A", "B"]
        ref_segs = [Segment("A", 0, 1), Segment("B", 2, 3)]
        ex = TrainingExample(ctx, ref_labels, ref_segs)
        grad, _ = example_gradient(model, ex)

        def cll(w):
            saved = model.weights
            model.weights = w
            tabs = compute_tables(model, ctx)
            _, lzc = clamped_expectation(model, ctx, ref_labels, tabs=tabs)
            val = lzc - log_partition(model, ctx)
            model.weights = saved
            return val

        eps = 1e-5
        idx = rng.choice(model.total_dim, size=25, replace=False)
        for i in idx:
            wp = model.weights.copy()
            wp[i] += eps
            wm = model.weights.copy()
            wm[i] -= eps
            fd = (cll(wp) - cll(wm)) / (2 * eps)
            rel = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-8)
            assert rel < 1e-4, (i, fd, grad[i])

    def test_gradient_matches_finite_differences_lattice(self):
        rng = np.random.default_rng(11)
        labels = ["A", "B"]
        ctx = random_ctx(rng, 4, labels=labels)
        ctx.baseline_frames = ["A", "A", "B", "B"]
        feats = [ClassifierStatFeature("max", 4), BaselineFeature(), LmFeature()]
        model = SegmentalModel(labels, feats, max_duration=4)
        model.weights = 0.3 * rng.normal(size=model.total_dim)
        hyps = [ (["A", "B"], [Segment("A", 0, 1), Segment("B", 2, 3)]),
                 (["A", "B"], [Segment("A", 0, 2), Segment("B", 3, 3)]),
                 (["B", "A"], [Segment("B", 0, 1), Segment("A", 2, 3)]) ]
        lattice = CandidateLattice([Hypothesis(l, s, 0.0) for l, s in hyps],
                                   ctx.baseline_frames)
        ex = TrainingExample(ctx, ["A", "B"], hyps[0][1], lattice)
        grad, _ = example_gradient(model, ex)

        def cll(w):
            saved = model.weights
            model.weights = w
            scores = np.array([model.score(l, s, ctx) for l, s in hyps])
            in_ref = np.array([l == ["A", "B"] for l, _ in hyps])
            val = _logsumexp(scores[in_ref]) - _logsumexp(scores)
            model.weights = saved
            return val

        eps = 1e-5
        for i in rng.choice(model.total_dim, size=min(20, model.total_dim), replace=False):
            wp = model.weights.copy()
            wp[i] += eps
            wm = model.weights.copy()
            wm[i] -= eps
            fd = (cll(wp) - cll(wm)) / (2 * eps)
            rel = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-8)
            assert rel < 1e-4

    def test_zero_weights_posterior_is_counting_ratio(self):
        rng = np.random.default_rng(12)
        labels = ["A", "B"]
        ctx = random_ctx(rng, 4, with_lm=False, labels=labels)
        model = random_model(rng, ctx, labels, 3, with_lm=False)
        model.weights = np.zeros(model.total_dim)
        hyps = enumerate_all(model, ctx)
        ref = ["A", "B"]
        consistent = sum(1 for l, _ in hyps if l == ref)
        assert consistent > 0
        logp = sequence_log_posterior(model, ctx, ref)
        assert logp == pytest.approx(math.log(consistent / len(hyps)), abs=1e-9)

    def test_cll_training_improves_reference_posterior(self):
        rng = np.random.default_rng(13)
        labels = ["A", "B"]
        ctx = random_ctx(rng, 5, with_lm=False, labels=labels)
        model = random_model(rng, ctx, labels, 3, with_lm=False)
        model.weights = np.zeros(model.total_dim)
        ref = (["A", "B"], [Segment("A", 0, 2), Segment("B", 3, 4)])
        data = [TrainingExample(ctx, ref[0], ref[1])]
        history = train_cll(model, data, ScrfConfig(learning_rate=2.0, epochs=15, l2=0.0))
        assert all(b >= a - 1e-9 for a, b in zip(history, history[1:]))
        # the reference label sequence becomes the most probable one
        hyps = enumerate_all(model, ctx)
        by_seq = {}
        for l, s in hyps:
            by_seq.setdefault(tuple(l), []).append(model.score(l, s, ctx))
        ranked = sorted(by_seq, key=lambda k: -_logsumexp(np.array(by_seq[k])))
        assert ranked[0] == tuple(ref[0])

    def test_cll_divergence_names_the_learning_rate(self):
        # the first epoch's step overflows the objective; training used to
        # go on and fail only where a later stage read the weights
        rng = np.random.default_rng(13)
        labels = ["A", "B"]
        ctx = random_ctx(rng, 5, with_lm=False, labels=labels)
        model = random_model(rng, ctx, labels, 3, with_lm=False)
        model.weights = np.zeros(model.total_dim)
        data = [TrainingExample(ctx, ["A", "B"], [Segment("A", 0, 2), Segment("B", 3, 4)])]
        with pytest.raises(DataError, match="^scrf.learning_rate: training diverged at epoch 1 "):
            train_cll(model, data, ScrfConfig(learning_rate=1e200, epochs=3))

    def test_l1_proximal_step_zeroes_coordinates(self):
        rng = np.random.default_rng(14)
        labels = ["A", "B"]
        ctx = random_ctx(rng, 4, with_lm=False, labels=labels)
        model = random_model(rng, ctx, labels, 3, with_lm=False)
        ref = (["A", "B"], [Segment("A", 0, 1), Segment("B", 2, 3)])
        train_cll(model, [TrainingExample(ctx, ref[0], ref[1])],
                  ScrfConfig(l1=5.0, l2=0.0, learning_rate=0.5, epochs=5))
        assert np.mean(model.weights == 0.0) > 0.5

    def test_reference_policies(self):
        rng = np.random.default_rng(15)
        labels = ["A", "B"]
        ctx = random_ctx(rng, 4, with_lm=False, labels=labels)
        model = random_model(rng, ctx, labels, 4, with_lm=False)
        other = Hypothesis(["B"], [Segment("B", 0, 3)], 0.0)
        lattice = CandidateLattice([other], ["B"] * 4)
        ref_segs = [Segment("A", 0, 1), Segment("B", 2, 3)]

        ex = TrainingExample(ctx, ["A", "B"], ref_segs, lattice)
        with pytest.raises(scrf.ReferenceNotInLattice):
            resolve_reference(ex, "fail")
        assert resolve_reference(ex, "drop-example") is None

        added = resolve_reference(ex, "add-ground-truth")
        assert [h.labels for h in added.lattice.hypotheses] == [["B"], ["A", "B"]]
        assert added.lattice.hypotheses[-1].segments == ref_segs
        assert added.ref_labels == ["A", "B"]

        matched = resolve_reference(ex, "use-best-match")
        assert matched.ref_labels == ["B"] and matched.lattice is lattice
        # the input example is never changed, and one whose reference is
        # in its lattice comes back as it is
        assert ex.ref_labels == ["A", "B"] and ex.lattice is lattice
        assert lattice.hypotheses == [other]
        assert all(resolve_reference(matched, p) is matched for p in scrf.REF_POLICIES)


# ---------------------------------------------------------------------------
# Oracle: CLL training as it was with a mode switch, the reference policy
# applied in every epoch by rewriting the examples, and the lattice feature
# totals cached on them

def _oracle_lattice_with_reference(example, policy):
    lattice = example.lattice
    ref = list(example.ref_labels)
    if any(list(h.labels) == ref for h in lattice.hypotheses):
        return lattice
    if policy == "fail":
        raise scrf.ReferenceNotInLattice("reference %r not among candidates" % ("".join(ref),))
    if policy == "drop-example":
        return None
    if policy == "add-ground-truth":
        hyp = Hypothesis(ref, list(example.ref_segments), 0.0)
        return CandidateLattice(list(lattice.hypotheses) + [hyp], lattice.baseline_frames)
    best = min(lattice.hypotheses, key=lambda h: align(ref, list(h.labels)).total_errors)
    example.ref_labels = list(best.labels)
    return lattice


def _oracle_example_gradient(model, example, mode, ref_policy):
    ctx = example.ctx
    if mode == "full":
        tabs = compute_tables(model, ctx)
        emp, logz_c = clamped_expectation(model, ctx, example.ref_labels, tabs=tabs)
        exp_free, logz = free_expectation(model, ctx, tabs=tabs)
        return emp - exp_free, logz_c - logz
    lattice = _oracle_lattice_with_reference(example, ref_policy)
    if lattice is None:
        return np.zeros(model.total_dim), 0.0
    example.lattice = lattice
    feats = getattr(example, "_feat_cache", None)
    if feats is None or len(feats) != len(lattice.hypotheses):
        feats = scrf.lattice_feature_totals(model, ctx, [(h.labels, h.segments)
                                                         for h in lattice.hypotheses])
        example._feat_cache = feats
    scores = feats @ model.weights
    ref = list(example.ref_labels)
    in_ref = np.array([list(h.labels) == ref for h in lattice.hypotheses])
    logz = _logsumexp(scores)
    logz_c = _logsumexp(np.where(in_ref, scores, -np.inf))
    p_free = np.exp(scores - logz)
    p_clamped = np.where(in_ref, np.exp(scores - logz_c), 0.0)
    return (p_clamped - p_free) @ feats, float(logz_c - logz)


def _oracle_train_cll(model, data, l1, l2, learning_rate, epochs, mode, ref_policy):
    history = []
    n = max(len(data), 1)
    for epoch in range(epochs):
        lr = learning_rate / (1.0 + epoch)
        grad = np.zeros(model.total_dim)
        cll = 0.0
        for example in data:
            g, ll = _oracle_example_gradient(model, example, mode, ref_policy)
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


def _training_data(lattices):
    """A model and four examples over labels A, B, C; with ``lattices``
    each gets a lattice of enumerated hypotheses, the reference among them
    for the first two only."""
    rng = np.random.default_rng(30)
    labels = ["A", "B", "C"]
    refs = [["A", "B"], ["B", "C", "A"], ["C", "A"], ["A", "C", "B"]]
    ctxs = [random_ctx(rng, t, labels=labels) for t in (5, 6, 5, 6)]
    model = random_model(rng, ctxs[0], labels, 3)
    data = []
    for i, (ctx, ref) in enumerate(zip(ctxs, refs)):
        hyps = enumerate_all(model, ctx)
        ref_segs = next(s for l, s in hyps if l == ref)
        lattice = None
        if lattices:
            pool = [h for h in hyps if h[0] != ref]
            picked = [pool[j] for j in rng.choice(len(pool), size=4, replace=False)]
            if i < 2:
                picked.insert(1, (ref, ref_segs))
            lattice = CandidateLattice([Hypothesis(l, s, 0.0) for l, s in picked],
                                       frame_labels(picked[0][1], ctx.num_frames))
        data.append(TrainingExample(ctx, list(ref), ref_segs, lattice))
    return model, data


class TestTrainCllOracle:
    CFG = dict(l1=0.01, l2=1e-3, learning_rate=1.5, epochs=4)

    def _both(self, lattices, policy):
        model, data = _training_data(lattices)
        old_model, old_data = copy.deepcopy(model), copy.deepcopy(data)
        old = _oracle_train_cll(old_model, old_data, mode="lattice" if lattices else "full",
                                ref_policy=policy, **self.CFG)
        new = train_cll(model, data, ScrfConfig(ref_policy=policy, **self.CFG))
        return (model, new, data), (old_model, old)

    def test_full_space_data(self):
        (model, new, _), (old_model, old) = self._both(False, "fail")
        assert np.array_equal(model.weights, old_model.weights) and new == old

    @pytest.mark.parametrize("policy", ["drop-example", "add-ground-truth", "use-best-match"])
    def test_lattice_data(self, policy):
        (model, new, _), (old_model, old) = self._both(True, policy)
        assert np.array_equal(model.weights, old_model.weights) and new == old
        assert not np.array_equal(model.weights, _training_data(True)[0].weights)

    def test_fail_raises_before_any_update(self):
        model, data = _training_data(True)
        start = model.weights.copy()
        with pytest.raises(scrf.ReferenceNotInLattice) as new:
            train_cll(model, data, ScrfConfig(ref_policy="fail", **self.CFG))
        with pytest.raises(scrf.ReferenceNotInLattice) as old:
            _oracle_train_cll(copy.deepcopy(model), copy.deepcopy(data), mode="lattice",
                              ref_policy="fail", **self.CFG)
        assert str(new.value) == str(old.value)
        assert np.array_equal(model.weights, start)

    @pytest.mark.parametrize("policy", ["add-ground-truth", "use-best-match"])
    def test_data_left_unchanged(self, policy):
        model, data = _training_data(True)
        before = [(vars(ex).copy(), ex.lattice, list(ex.lattice.hypotheses),
                   list(ex.ref_labels)) for ex in data]
        train_cll(model, data, ScrfConfig(ref_policy=policy, **self.CFG))
        for ex, (attrs, lattice, hyps, ref) in zip(data, before):
            assert vars(ex) == attrs and ex.lattice is lattice
            assert ex.lattice.hypotheses == hyps and ex.ref_labels == ref


class TestRescoreCascade:
    def test_single_hypothesis_lattice(self):
        rng = np.random.default_rng(16)
        ctx = random_ctx(rng, 4, with_lm=False)
        model = random_model(rng, ctx, ["A", "B"], 4, with_lm=False)
        h = Hypothesis(["A"], [Segment("A", 0, 3)], 0.0)
        labels, best, _ = rescore(model, CandidateLattice([h], ["A"] * 4), ctx)
        assert labels == ["A"] and best is h

    def test_baseline_weight_selects_baseline_hypothesis(self):
        baseline = ["A"] * 3 + ["B"] * 3
        ctx = FeatureContext(6, letter_posteriors=np.zeros((6, 2)),
                             baseline_frames=baseline)
        f = BaselineFeature()
        model = SegmentalModel(["A", "B"], [f], max_duration=6)
        model.weights = np.array([4.0])
        good = Hypothesis(["A", "B"], [Segment("A", 0, 2), Segment("B", 3, 5)], 0.0)
        bad = Hypothesis(["B", "A"], [Segment("B", 0, 2), Segment("A", 3, 5)], 0.0)
        worse = Hypothesis(["A"], [Segment("A", 0, 5)], 0.0)
        lat = CandidateLattice([bad, good, worse], baseline)
        labels, _, _ = rescore(model, lat, ctx)
        assert labels == ["A", "B"]

    def test_rescore_output_always_from_lattice(self):
        rng = np.random.default_rng(17)
        ctx = random_ctx(rng, 5, with_lm=False)
        model = random_model(rng, ctx, ["A", "B"], 5, with_lm=False)
        hyps = [Hypothesis(["A"], [Segment("A", 0, 4)], 0.0),
                Hypothesis(["B", "A"], [Segment("B", 0, 1), Segment("A", 2, 4)], 0.0)]
        lat = CandidateLattice(hyps, ["A"] * 5)
        labels, _, _ = rescore(model, lat, ctx)
        assert labels in ([h.labels for h in hyps])

    def test_second_pass_weight_one_reproduces_first_pass(self):
        rng = np.random.default_rng(18)
        labels = ["A", "B"]
        ctx = random_ctx(rng, 5, with_lm=False, labels=labels)
        first = random_model(rng, ctx, labels, 3, with_lm=False)
        lattice = nbest_decode(first, ctx, 5)
        # distinct label sequences only, so LSE grouping equals per-candidate max
        seen = set()
        uniq = [h for h in lattice.hypotheses
                if tuple(h.labels) not in seen and not seen.add(tuple(h.labels))]
        lattice = CandidateLattice(uniq, lattice.baseline_frames)
        second = scrf.build_second_pass(first)
        np.testing.assert_array_equal(second.weights[:1], [1.0])
        assert second.weights[1:].sum() == 0.0
        labels2, _, _ = scrf.rescore(second, lattice, ctx)
        assert labels2 == list(lattice.hypotheses[0].labels)

    def test_second_pass_refuses_classifier_of_other_labels(self):
        # the segment classifier's posterior columns are the model's labels
        rng = np.random.default_rng(18)
        ctx = random_ctx(rng, 5, with_lm=False)
        first = random_model(rng, ctx, ["A", "B"], 3, with_lm=False)

        class OtherMlp:
            class_names = ["B", "A"]

        with pytest.raises(ValueError, match="segment classifier"):
            scrf.build_second_pass(first, OtherMlp())

    def test_segment_summary_constant_posterior(self):
        g = np.full((6, 3), 1.0 / 3)
        s = scrf.span_thirds(g, np.mean)
        np.testing.assert_allclose(s[:3], s[3:6])
        np.testing.assert_allclose(s[3:6], s[6:])

    def test_nbest_decode_matches_enumeration(self):
        rng = np.random.default_rng(19)
        for case in range(20):
            T = int(rng.integers(2, 7))
            labels = ["A", "B"]
            with_lm = case % 2 == 1
            ctx = random_ctx(rng, T, with_lm=with_lm, labels=labels)
            model = random_model(rng, ctx, labels, 3, with_lm=with_lm)
            hyps = enumerate_all(model, ctx)
            scores = sorted((model.score(l, s, ctx) for l, s in hyps), reverse=True)
            lat = nbest_decode(model, ctx, min(8, len(hyps)))
            for h, expected in zip(lat.hypotheses, scores):
                assert h.score == pytest.approx(expected, abs=1e-9)


class TestSerialization:
    def test_weights_roundtrip_and_manifest_check(self, tmp_path):
        rng = np.random.default_rng(20)
        labels = ["A", "B"]
        ctx = random_ctx(rng, 4, with_lm=False, labels=labels)
        model = random_model(rng, ctx, labels, 3, with_lm=False)
        path = str(tmp_path / "scrf.json")
        model.save(path)
        fresh = random_model(np.random.default_rng(21), ctx, labels, 3, with_lm=False)
        fresh.load_weights(path)
        np.testing.assert_array_equal(fresh.weights, model.weights)
        other = SegmentalModel(labels, [PeakFeature()], max_duration=3)
        with pytest.raises(ManifestError):
            other.load_weights(path)


# ---------------------------------------------------------------------------
# The N-best engine against the per-(frame, label) loop it replaced

def reference_nbest_segmentations(table, trans, final, n):
    """The per-(frame, label) loop form of ``scrf.nbest_segmentations``,
    kept as its oracle on tie-free tables: among exactly tied scores it
    keeps whatever argpartition returns."""
    t_len, dmax, nl = table.shape
    cell_s = np.full((t_len + 1, nl, n), -np.inf)
    cell_bp = np.full((t_len + 1, nl, n, 3), -1, dtype=int)
    merged_s = np.full((t_len + 1, nl, n), -np.inf)
    merged_bp = np.zeros((t_len + 1, nl, n, 2), dtype=int)
    merged_s[0, :, 0] = trans[0]
    merged_bp[0] = -1
    for t in range(1, t_len + 1):
        n_d = min(dmax, t)
        starts = t - np.arange(1, n_d + 1)
        bases = table[starts, t - starts - 1, :]
        for li in range(nl):
            cand = bases[:, li][:, None] + merged_s[starts, li, :]
            flat = cand.ravel()
            k = min(n, flat.size)
            top = np.argpartition(flat, -k)[-k:]
            top = top[np.argsort(flat[top], kind="stable")[::-1]]
            top = top[flat[top] > -np.inf]
            cell_s[t, li, :len(top)] = flat[top]
            di, ri = np.unravel_index(top, cand.shape)
            for r, (d_idx, rank) in enumerate(zip(di, ri)):
                a = int(starts[d_idx])
                lp, pr = merged_bp[a, li, rank]
                cell_bp[t, li, r] = (a, lp, pr)
        if t < t_len:
            for li in range(nl):
                allowed = np.where(trans[1:, li] > -np.inf)[0]
                if len(allowed) == 0:
                    continue
                pool = (cell_s[t, allowed, :] + trans[allowed + 1, li][:, None]).ravel()
                k = min(n, pool.size)
                top = np.argpartition(pool, -k)[-k:]
                top = top[np.argsort(pool[top], kind="stable")[::-1]]
                top = top[pool[top] > -np.inf]
                merged_s[t, li, :len(top)] = pool[top]
                pi, ri = np.unravel_index(top, (len(allowed), n))
                merged_bp[t, li, :len(top), 0] = allowed[pi]
                merged_bp[t, li, :len(top), 1] = ri
    finals = []
    for li in range(nl):
        for r in range(n):
            sc = cell_s[t_len, li, r] + final[li]
            if sc > -np.inf:
                finals.append((float(sc), li, r))
    finals.sort(key=lambda c: -c[0])
    ranked = []
    for sc, li, r in finals[:n]:
        spans = []
        t = t_len
        while t > 0:
            a, lp, pr = cell_bp[t, li, r]
            spans.append((li, int(a), t - 1))
            t, li, r = int(a), int(lp), int(pr)
        spans.reverse()
        ranked.append((sc, spans))
    return ranked


def tables_from_parts(table, trans, final, enter, leave, columns):
    """``scrf.Tables`` from a (T, dmax, columns) table and the (T+1, L)
    scores of the spans [0, t) (``enter[t]``) and [t, T) (``leave[t]``)."""
    ix = scrf.SpanIndex(*table.shape[:2])
    scores = np.full((len(ix.starts), len(final)), -np.inf)
    scores[:ix.cells, columns] = table[ix.starts[:ix.cells], ix.durations[:ix.cells] - 1]
    scores[ix.cells:] = np.concatenate([enter[1:], leave[:-1]])
    return scrf.Tables(scores, trans, final, ix, columns)


def engine_nbest(table, trans, final, n):
    """``scrf.nbest_segmentations`` on a table without boundary spans."""
    none = np.full((len(table) + 1, len(final)), -np.inf)
    return scrf.nbest_segmentations(
        tables_from_parts(table, trans, final, none, none, np.arange(len(final))), n)


def enter_leave(tabs):
    """The (T+1, L) scores of the spans [0, t) and [t, T), row t, as
    ``tables_from_parts`` takes them."""
    T, cells = tabs.index.num_frames, tabs.index.cells
    enter, leave = np.full((2, T + 1, len(tabs.final)), -np.inf)
    enter[1:], leave[:-1] = tabs.scores[cells:cells + T], tabs.scores[cells + T:]
    return enter, leave


def random_semi_markov(rng, T, dmax, L, draw=None):
    """Span table, pair scores and final scores with -inf masks."""
    draw = draw or (lambda size: rng.normal(size=size))
    table, trans, final = draw((T, dmax, L)), draw((L + 1, L)), draw(L)
    table[rng.random(table.shape) < 0.2] = -np.inf
    trans[rng.random(trans.shape) < 0.3] = -np.inf
    final[rng.random(L) < 0.3] = -np.inf
    return table, trans, final


def ranked_by_brute_force(table, trans, final, enter=None, leave=None, columns=None):
    """Every legal hypothesis, best first; exact ties ordered by their
    (label, duration) pairs read from the last segment back, ascending.
    ``enter``/``leave`` add spans from frame 0 and to the last frame, as in
    ``scrf.Tables``."""
    T, dmax, _ = table.shape
    L = len(final)
    columns = range(L) if columns is None else columns
    out = []

    def spans_from(t):
        for d in range(1, min(dmax, T - t) + 1):
            for c, y in enumerate(columns):
                yield y, t + d, table[t, d - 1, c]
        for y in range(L):
            if leave is not None:
                yield y, T, leave[t, y]
            if enter is not None and t == 0:
                for e in range(1, T + 1):
                    yield y, e, enter[e, y]

    def extend(t, prev, score, spans):
        if t == T:
            if score + final[prev] > -np.inf:
                out.append((float(score + final[prev]), spans))
            return
        for y, e, span in spans_from(t):
            s = score + span + trans[prev + 1, y]
            if s > -np.inf:
                extend(e, y, s, spans + [(y, t, e - 1)])

    extend(0, -1, 0.0, [])
    return sorted(out, key=lambda h: (-h[0], [(y, e + 1 - a) for y, a, e in h[1][::-1]]))


def random_boundary_tables(rng, T, dmax, L, draw):
    """Tables of L >= 3 labels: one scored only over [0, t) (enter, like
    <s>), one only over [t, T) (leave, like </s>), the rest by the table."""
    table, trans, final = random_semi_markov(rng, T, dmax, L, draw)
    beg, end, *letters = rng.permutation(L)
    enter, leave = np.full((T + 1, L), -np.inf), np.full((T + 1, L), -np.inf)
    enter[1:, beg], leave[:-1, end] = draw(T), draw(T)
    enter[1:, beg][rng.random(T) < 0.2] = -np.inf
    leave[:-1, end][rng.random(T) < 0.2] = -np.inf
    letters = np.sort(letters)
    return tables_from_parts(table[:, :, letters], trans, final, enter, leave, letters)


class TestNBestEngine:
    def test_equals_reference_loop_on_tie_free_tables(self):
        # T > dmax + 2, T < dmax, and n above the number of legal hypotheses
        shapes = [(9, 3, 3, 5), (12, 2, 4, 8), (3, 6, 3, 4), (2, 5, 2, 30),
                  (4, 4, 2, 40), (7, 7, 5, 1), (10, 10, 3, 6), (1, 3, 4, 3)]
        rng = np.random.default_rng(41)
        short = nonempty = 0
        for case in range(40):
            T, dmax, L, n = shapes[case % len(shapes)]
            args = random_semi_markov(rng, T, dmax, L) + (n,)
            got = engine_nbest(*args)
            assert got == reference_nbest_segmentations(*args)
            nonempty += bool(got)
            short += 0 < len(got) < n
        assert nonempty >= 30 and short >= 5

    def test_equals_reference_loop_large(self):
        rng = np.random.default_rng(42)
        args = random_semi_markov(rng, 100, 100, 30) + (8,)
        got = engine_nbest(*args)
        assert len(got) == 8
        assert got == reference_nbest_segmentations(*args)

    def test_planted_ties_keep_lowest_column(self):
        # every hypothesis of two frames and labels 0, 1 scores 0: the final
        # pool ranks by last label, a label's segments ending at T by
        # duration (one-frame first), and the merge by previous label
        zeros = np.zeros((2, 2, 2))
        ranked = engine_nbest(zeros, np.zeros((3, 2)), np.zeros(2), 6)
        assert ranked == [(0.0, [(0, 0, 0), (0, 1, 1)]),
                          (0.0, [(1, 0, 0), (0, 1, 1)]),
                          (0.0, [(0, 0, 1)]),
                          (0.0, [(0, 0, 0), (1, 1, 1)]),
                          (0.0, [(1, 0, 0), (1, 1, 1)]),
                          (0.0, [(1, 0, 1)])]
        for n in range(1, 6):
            assert engine_nbest(zeros, np.zeros((3, 2)),
                                            np.zeros(2), n) == ranked[:n]

    def test_tied_tables_match_brute_force_order(self):
        rng = np.random.default_rng(43)
        cut_ties = 0
        for case in range(100):
            T, dmax, L = int(rng.integers(1, 7)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
            n = int(rng.integers(1, 13))
            args = random_semi_markov(rng, T, dmax, L,
                                      lambda size: rng.integers(-1, 2, size=size).astype(float))
            expected = ranked_by_brute_force(*args)
            assert engine_nbest(*args, n) == expected[:n]
            cut_ties += n < len(expected) and expected[n - 1][0] == expected[n][0]
        assert cut_ties >= 10

    def test_boundary_tables_match_brute_force_order(self):
        # float tables (no ties) and integer tables (ties cut at the n-th
        # rank), with the boundary labels anywhere in the label order
        rng = np.random.default_rng(45)
        cut_ties = 0
        for case in range(120):
            T, dmax, L = int(rng.integers(1, 7)), int(rng.integers(1, 4)), int(rng.integers(3, 5))
            n = int(rng.integers(1, 13))
            draw = (lambda size: rng.normal(size=size)) if case % 3 == 0 else \
                (lambda size: rng.integers(-1, 2, size=size).astype(float))
            tabs = random_boundary_tables(rng, T, dmax, L, draw)
            expected = ranked_by_brute_force(tabs.table, tabs.trans, tabs.final,
                                             *enter_leave(tabs), tabs.columns)
            got = scrf.nbest_segmentations(tabs, n)
            if case % 3 == 0:   # sums in another order: equal to rounding
                assert [h[1] for h in got] == [h[1] for h in expected[:n]]
                np.testing.assert_allclose([h[0] for h in got],
                                           [h[0] for h in expected[:n]], rtol=0, atol=1e-12)
            else:
                assert got == expected[:n]
                cut_ties += n < len(expected) and expected[n - 1][0] == expected[n][0]
        assert cut_ties >= 10

    def test_tied_silence_scrf_ranks_by_the_tie_rule(self):
        # all-zero weights tie every hypothesis, so the ranking is the tie
        # rule alone: (label, duration) pairs from the last segment back
        rng = np.random.default_rng(46)
        labels = ["<s>", "A", "B", "</s>"]
        for T, pinned in [(5, True), (6, False)]:
            ctx = random_ctx(rng, T, with_lm=False, labels=labels)
            model = silence_model(rng, ctx, labels, 2, pinned)
            model.weights = np.zeros(model.total_dim)
            order = [(l, [s.span() for s in segs]) for l, segs in sorted(
                enumerate_all(model, ctx),
                key=lambda h: [(labels.index(s.label), s.duration) for s in h[1][::-1]])]
            got = nbest_decode(model, ctx, 12).hypotheses
            assert [(h.labels, [s.span() for s in h.segments]) for h in got] == order[:12]
            vl, vs, _ = viterbi(model, ctx)
            assert (vl, [s.span() for s in vs]) == order[0]

    def test_best_of_tied_scrf_is_viterbi(self):
        rng = np.random.default_rng(44)
        for T in (3, 5, 7):
            ctx = random_ctx(rng, T, with_lm=False)
            model = random_model(rng, ctx, ["A", "B", "C"], 3, with_lm=False)
            model.weights = np.zeros(model.total_dim)
            labels, segments, score = viterbi(model, ctx)
            for n in (1, 4):
                best = nbest_decode(model, ctx, n).hypotheses[0]
                assert best.labels == labels and best.score == score
                assert [s.span() for s in best.segments] == [s.span() for s in segments]

    def test_rank0_cut_keeps_the_tie_order(self):
        # small integer tables tie everywhere and small n cuts each node's
        # rank-0 edges: the end's last labels often tie across the n-th
        # place, where the lower label must be kept
        rng = np.random.default_rng(47)
        seen = {"L > n": 0, "head tie at n": 0, "n == 1": 0, "-inf head": 0, "cut tie": 0}
        for case in range(400):
            n = int(rng.integers(1, 5))
            T, dmax, L = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(2, 6))
            args = random_semi_markov(rng, T, dmax, L,
                                      lambda size: rng.integers(-1, 2, size=size).astype(float))
            expected = ranked_by_brute_force(*args)
            assert engine_nbest(*args, n) == expected[:n]
            heads = np.full(L, -np.inf)     # each last label's best hypothesis
            for score, spans in expected:
                heads[spans[-1][0]] = max(heads[spans[-1][0]], score)
            heads = -np.sort(-heads)
            seen["L > n"] += L > n
            seen["head tie at n"] += L > n and heads[n] > -np.inf and heads[n - 1] == heads[n]
            seen["n == 1"] += n == 1
            seen["-inf head"] += bool(np.isneginf(heads).any())
            seen["cut tie"] += n < len(expected) and expected[n - 1][0] == expected[n][0]
        assert min(seen.values()) >= 20, seen

    def test_long_table_needs_no_deep_recursion(self):
        # every hypothesis has at least T / dmax = 750 segments, each read
        # back through its node and its context's node
        rng = np.random.default_rng(48)
        args = random_semi_markov(rng, 1500, 2, 3) + (8,)
        got = engine_nbest(*args)
        assert len(got) == 8
        assert got == reference_nbest_segmentations(*args)


# ---------------------------------------------------------------------------
# The span path: factored first-pass features, lean passes, lattices

class TestFactoredFirstPass:
    @pytest.mark.parametrize("T, lmax", [(30, 8), (5, 8), (1, 4), (8, 8)])
    def test_scores_and_expectation_match_dense_vectors(self, T, lmax):
        rng = np.random.default_rng(50 + T)
        labels = ["<s>", "A", "B", "C", "</s>"]
        ctx = FeatureContext(T, letter_posteriors=rng.dirichlet(np.ones(6), size=T))
        f = FirstPassFeatures(6, lmax)
        index = scrf.SpanIndex(T, min(lmax, T))
        starts, ends = index.starts, index.ends - 1
        phi = firstpass_vectors(f, ctx, starts, ends)
        np.testing.assert_allclose(f.span_vectors(ctx, starts, ends), phi, rtol=0, atol=1e-14)
        for _ in range(3):
            wm = rng.normal(scale=3.0, size=(len(labels), f.block))
            dense = phi @ wm.T
            got = f.span_scores(ctx, starts, ends, labels, wm)
            assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max()
            post = rng.random((2, len(starts), len(labels)))   # batched
            dense = post.swapaxes(-1, -2) @ phi
            got = f.span_expectation(ctx, starts, ends, labels, post)
            assert got.shape == dense.shape
            assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max()
            np.testing.assert_allclose(f.span_expectation(ctx, starts, ends, labels, post[0]),
                                       got[0], rtol=0, atol=0)

    def test_tables_keep_weight_free_structure_only(self):
        rng = np.random.default_rng(52)
        labels = ["<s>", "A", "B", "</s>"]
        ctx = random_ctx(rng, 9, labels=labels)
        model = silence_model(rng, ctx, labels, 3, pinned=True)
        first = compute_tables(model, ctx)
        model.weights = rng.normal(size=model.total_dim)
        second = compute_tables(model, ctx)
        assert second.index is first.index and len(model._structures) == 1
        spans, block = len(first.index.starts), model.features[0].block
        kept = [a for entry in model._structures.values() for a in entry
                if isinstance(a, np.ndarray)]
        kept += [a for a in vars(first.index).values() if isinstance(a, np.ndarray)]
        assert all(a.size <= spans * len(labels) and block not in a.shape for a in kept)
        # another constraint setting gets its own structure
        model.final_labels = None
        assert compute_tables(model, ctx).index is not first.index

    def test_selector_built_once_per_span_set(self):
        # the tables and both expectations of one full-space span set share
        # one sparse selector across epochs; a lattice's spans of the same
        # length get their own, and every result keeps its bits
        rng = np.random.default_rng(56)
        labels = ["<s>", "A", "B", "</s>"]
        ctx = random_ctx(rng, 11, labels=labels)
        model = silence_model(rng, ctx, labels, 4, pinned=True)
        f, ref = model.features[0], ["<s>", "A", "B", "</s>"]

        def epoch():
            tabs = compute_tables(model, ctx)
            return [tabs.scores, free_expectation(model, ctx, tabs=tabs)[0],
                    clamped_expectation(model, ctx, ref, tabs=tabs)[0]]

        epoch()
        a = f._selectors[11][2]
        model.weights = rng.normal(size=model.total_dim)
        again = epoch()
        assert f._selectors[11][2] is a
        lattice = [(["<s>", "A", "</s>"], [Segment("<s>", 0, 2), Segment("A", 3, 7),
                                           Segment("</s>", 8, 10)])]
        scrf.lattice_scores(model, ctx, lattice)
        assert f._selectors[11][2] is not a
        f._selectors.clear()
        for kept, rebuilt in zip(again, epoch()):
            assert np.array_equal(kept, rebuilt)

    def test_from_parts_views_round_trip(self):
        rng = np.random.default_rng(53)
        tabs = random_boundary_tables(rng, 6, 3, 4, lambda size: rng.normal(size=size))
        again = tables_from_parts(tabs.table, tabs.trans, tabs.final,
                                  *enter_leave(tabs), tabs.columns)
        np.testing.assert_array_equal(again.scores, tabs.scores)


def reference_lse(values, axis=0):
    m = values.max(axis=axis, keepdims=True)
    safe = np.where(m == -np.inf, 0.0, m)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(values - safe).sum(axis=axis)) + np.squeeze(safe, axis)


def reference_forward_backward(tabs):
    """Forward and backward passes with one fancy-indexed read and one
    ``errstate`` per step: the oracle of the lean passes."""
    trans, t_len, nl = tabs.trans, tabs.index.num_frames, len(tabs.final)
    ix = tabs.index
    alpha = np.full((t_len + 1, nl), -np.inf)
    prev_lse = np.full((t_len + 1, nl), -np.inf)
    prev_lse[0] = trans[0]
    for t in range(1, t_len + 1):
        k = ix.by_end[ix.end_cut[t]:ix.end_cut[t + 1]]
        alpha[t] = reference_lse(tabs.scores[k] + prev_lse[ix.starts[k]])
        if t < t_len:
            prev_lse[t] = reference_lse(alpha[t][:, None] + trans[1:])
    tail = np.full((t_len + 1, nl), -np.inf)
    inner = np.full((t_len, nl), -np.inf)
    tail[t_len] = tabs.final
    for t in range(t_len - 1, -1, -1):
        k = ix.by_start[ix.start_cut[t]:ix.start_cut[t + 1]]
        inner[t] = reference_lse(tabs.scores[k] + tail[ix.ends[k]])
        tail[t] = reference_lse(inner[t][:, None] + trans[1:].T)
    return alpha, prev_lse, tail, inner


class TestLeanPasses:
    def test_bit_identical_to_reference_loop(self):
        rng = np.random.default_rng(54)
        for case in range(30):
            T, dmax, L = int(rng.integers(1, 12)), int(rng.integers(1, 6)), int(rng.integers(3, 6))
            tabs = random_boundary_tables(rng, T, dmax, L, lambda size: rng.normal(size=size))
            alpha, prev_lse, tail, inner = reference_forward_backward(tabs)
            got_a, got_p = forward_pass(tabs)
            got_t, got_i = backward_pass(tabs)
            for got, want in [(got_a, alpha), (got_p, prev_lse), (got_t, tail), (got_i, inner)]:
                assert np.array_equal(got, want)

    def test_bit_identical_on_scrf_tables(self):
        rng = np.random.default_rng(55)
        labels = ["<s>", "A", "B", "</s>"]
        ctx = random_ctx(rng, 40, labels=labels)
        tabs = compute_tables(silence_model(rng, ctx, labels, 6, pinned=True, with_lm=True), ctx)
        alpha, prev_lse, tail, inner = reference_forward_backward(tabs)
        assert np.array_equal(forward_pass(tabs)[0], alpha)
        assert np.array_equal(backward_pass(tabs)[1], inner)


class TestLatticeSpanPath:
    def lattice(self, rng, T, labels, n=6):
        hyps = []
        for _ in range(n):
            cuts = np.sort(rng.choice(np.arange(1, T), size=int(rng.integers(0, 4)), replace=False))
            bounds = [0] + cuts.tolist() + [T]
            seq = [labels[rng.integers(len(labels))]]
            for _ in bounds[2:]:
                seq.append(rng.choice([l for l in labels if l != seq[-1]]))
            hyps.append(Hypothesis(seq, [Segment(l, a, b - 1) for l, a, b
                                         in zip(seq, bounds, bounds[1:])], 0.0))
        return CandidateLattice(hyps, [labels[0]] * T)

    def test_totals_and_scores_match_edge_oracle(self):
        rng = np.random.default_rng(56)
        labels = ["A", "B", "C"]
        for case in range(8):
            ctx = random_ctx(rng, 9, labels=labels)
            ctx.baseline_frames = [labels[i] for i in rng.integers(3, size=9)]
            feats = [FirstPassFeatures(4, 3), ClassifierStatFeature("div_m", 4),
                     PeakFeature(), BaselineFeature(), LmFeature()]
            model = SegmentalModel(labels, feats, max_duration=3)
            model.weights = rng.normal(size=model.total_dim)
            lat = self.lattice(rng, 9, labels)
            pairs = [(h.labels, h.segments) for h in lat.hypotheses]
            oracle = np.array([edge_feature_totals(model, ctx, l, s) for l, s in pairs])
            np.testing.assert_allclose(scrf.lattice_feature_totals(model, ctx, pairs),
                                       oracle, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(scrf.lattice_scores(model, ctx, pairs),
                                       oracle @ model.weights, rtol=1e-12, atol=1e-9)

    def test_segment_classifier_one_call_per_lattice(self):
        rng = np.random.default_rng(57)
        labels = ["A", "B", "C"]

        class CountingMlp:
            calls = 0
            class_names = labels

            def predict_proba(self, x):
                CountingMlp.calls += 1
                return np.tile(np.array([0.2, 0.3, 0.5]), (len(x), 1))

        ctx = random_ctx(rng, 9, with_lm=False, labels=labels)
        first = random_model(rng, ctx, labels, 3, with_lm=False)
        second = scrf.build_second_pass(first, CountingMlp())
        second.weights[1:4] = [1.0, 2.0, 3.0]
        lat = self.lattice(rng, 9, labels)
        rescore(second, lat, ctx)
        assert CountingMlp.calls == 1
        # the value is the posterior of the segment's own label, per label
        seg = lat.hypotheses[0].segments[0]
        lone = scrf.lattice_scores(second, ctx, [([seg.label], [Segment(seg.label, 0, 8)])])
        y = labels.index(seg.label)
        first_score = first.score([seg.label], [Segment(seg.label, 0, 8)], ctx)
        peak = second.weights[4 + y] * delta_peak(ctx, 0, 8)
        assert lone[0] == pytest.approx(first_score + [0.2, 0.6, 1.5][y] + peak, abs=1e-12)

    def test_unknown_label_rejected(self):
        rng = np.random.default_rng(58)
        ctx = random_ctx(rng, 4, with_lm=False)
        model = random_model(rng, ctx, ["A", "B"], 3, with_lm=False)
        with pytest.raises(ValueError, match="'Q'"):
            model.score(["Q"], [Segment("Q", 0, 3)], ctx)
