import itertools
import math

import numpy as np
import pytest

from segspell import hmm, synthgen
from segspell.alphabet import LetterAlphabet
from segspell.fileio import DataError
from segspell.hmm import (DecodeConfig, LetterHmm, NoPathError,
                          build_decode_graph, forced_align, nbest, train_em,
                          viterbi_decode)
from segspell.lm import train_bigram
from segspell.segments import (CandidateLattice, Hypothesis, Segment, check_tiling,
                               load_lattice, save_lattice)


def toy_model(rng, letters=("A", "B"), letter_states=1, silence_states=1, dim=2):
    model = LetterHmm(list(letters), dim=dim, letter_states=letter_states,
                      silence_states=silence_states, components=1)
    model.means = rng.normal(size=model.means.shape)
    model.variances = np.full(model.variances.shape, 0.5)
    model.log_self[:] = math.log(0.6)
    model.log_next[:] = math.log(0.4)
    return model


def enumerate_hypotheses(model, lm, obs, cfg):
    """Brute-force search over all state paths in the decode graph, reduced
    to best score per (labels, spans) hypothesis."""
    a, pi, omega = build_decode_graph(model, lm, cfg)
    emis = model.emission_logprobs(obs)
    T, S = emis.shape
    out = {}
    state_unit = [model.units[u] for u in model.state_unit_index]

    def hyp_key(path):
        segs = []
        start = 0
        for i in range(1, T + 1):
            if i == T or state_unit[path[i]] != state_unit[path[i - 1]] \
                    or path[i] < path[i - 1]:
                segs.append((state_unit[path[start]], start, i - 1))
                start = i
        return tuple(segs)

    def rec(t, s, score, path):
        score = score + emis[t, s]
        if t == T - 1:
            if omega[s] > -np.inf:
                key = hyp_key(path)
                full = score + omega[s]
                if key not in out or full > out[key]:
                    out[key] = full
            return
        for s2 in range(S):
            if a[s, s2] > -np.inf:
                rec(t + 1, s2, score + a[s, s2], path + [s2])

    for s in range(S):
        if pi[s] > -np.inf:
            rec(0, s, pi[s], [s])
    return out


@pytest.fixture(scope="module")
def toy_lm():
    return train_bigram(["AB", "BA", "A", "B", "AA"], LetterAlphabet())


def reference_viterbi(a, pi, omega, emis):
    """The column-wise form of ``hmm._viterbi``, kept as its oracle: the
    maximum over each column of score[:, None] + a."""
    t_len, s = emis.shape
    score = pi + emis[0]
    bps = np.zeros((t_len, s), dtype=int)
    for t in range(1, t_len):
        cand = score[:, None] + a
        bps[t] = np.argmax(cand, axis=0)
        score = cand[bps[t], np.arange(s)] + emis[t]
    final = score + omega
    path = [int(np.argmax(final))]
    for t in range(t_len - 1, 0, -1):
        path.append(int(bps[t, path[-1]]))
    return float(final[path[0]]), path[::-1]


class TestViterbiExact:
    def test_matches_enumeration(self, toy_lm):
        rng = np.random.default_rng(3)
        cfg = DecodeConfig(lm_weight=0.7, penalty=0.3)
        model = toy_model(rng)
        for _ in range(20):
            T = int(rng.integers(3, 7))
            obs = rng.normal(size=(T, 2))
            hyps = enumerate_hypotheses(model, toy_lm, obs, cfg)
            best_key, best_score = max(hyps.items(), key=lambda kv: kv[1])
            letters, segs, score = viterbi_decode(model, toy_lm, obs, cfg)
            assert score == pytest.approx(best_score, abs=1e-9)
            assert tuple((s.label, s.start, s.end) for s in segs) == best_key

    def test_transposed_recursion_equals_column_loop_on_tied_graphs(self):
        # small integer scores tie many predecessors and end states; both
        # forms must pick the same (lowest) ones and the same score bits
        rng = np.random.default_rng(31)
        ties = 0
        for case in range(60):
            s, t_len = int(rng.integers(1, 9)), int(rng.integers(1, 12))
            draw = (lambda size: rng.integers(-2, 1, size=size).astype(float)) \
                if case % 2 else (lambda size: rng.normal(size=size))
            a, pi, omega, emis = draw((s, s)), draw(s), draw(s), draw((t_len, s))
            a[rng.random((s, s)) < 0.4] = -np.inf
            pi[rng.random(s) < 0.3] = -np.inf
            got = hmm._viterbi(a, pi, omega, emis)
            assert got == reference_viterbi(a, pi, omega, emis)
            if t_len > 1:   # a tied predecessor at the first step
                cand = (pi + emis[0])[:, None] + a
                ties += ((cand == cand.max(axis=0)) & (cand > -np.inf)).sum(axis=0).max() > 1
        assert ties >= 10

    def test_single_letter_vocabulary(self, toy_lm):
        rng = np.random.default_rng(4)
        model = toy_model(rng, letters=("A",), letter_states=2)
        obs = rng.normal(size=(6, 2))
        letters, _, _ = viterbi_decode(model, toy_lm, obs, DecodeConfig())
        assert set(letters) == {"A"}

    def test_segmentation_tiles(self, toy_lm):
        rng = np.random.default_rng(5)
        model = toy_model(rng, letter_states=2, silence_states=2)
        obs = rng.normal(size=(12, 2))
        _, segs, _ = viterbi_decode(model, toy_lm, obs, DecodeConfig())
        check_tiling(segs, 12)

    def test_too_short_sequence_no_path(self, toy_lm):
        rng = np.random.default_rng(6)
        model = toy_model(rng, letter_states=3, silence_states=3)
        with pytest.raises(NoPathError):
            viterbi_decode(model, toy_lm, rng.normal(size=(2, 2)), DecodeConfig())

    def test_insertion_penalty_monotone(self, toy_lm):
        rng = np.random.default_rng(7)
        model = toy_model(rng)
        obs = rng.normal(size=(10, 2))
        counts = []
        for pen in (0.0, 1.0, 2.0, 4.0, 8.0, 16.0):
            letters, _, _ = viterbi_decode(model, toy_lm, obs,
                                           DecodeConfig(penalty=pen))
            counts.append(len(letters))
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_lm_weight_zero_ignores_lm(self, toy_lm):
        rng = np.random.default_rng(8)
        model = toy_model(rng)
        obs = rng.normal(size=(8, 2))
        other_lm = train_bigram(["BBBB", "BB"], LetterAlphabet())
        cfg = DecodeConfig(lm_weight=0.0, penalty=0.0)
        out1 = viterbi_decode(model, toy_lm, obs, cfg)
        out2 = viterbi_decode(model, other_lm, obs, cfg)
        assert out1[0] == out2[0]
        assert out1[2] == pytest.approx(out2[2], abs=1e-9)

    def test_dimension_mismatch(self, toy_lm):
        rng = np.random.default_rng(9)
        model = toy_model(rng)
        with pytest.raises(ValueError):
            viterbi_decode(model, toy_lm, rng.normal(size=(5, 3)), DecodeConfig())


class TestNBest:
    def test_matches_enumeration_and_n1_equals_viterbi(self, toy_lm):
        cfg = DecodeConfig(lm_weight=0.7, penalty=0.3, nbest=50)
        repeats = 0
        # single-state letters, then two-state letters, where a letter may
        # follow itself as a new segment ("AA" as two spans)
        for seed, letter_states in ((10, 1), (16, 2)):
            rng = np.random.default_rng(seed)
            model = toy_model(rng, letter_states=letter_states)
            for _ in range(12):
                T = int(rng.integers(3, 7))
                obs = rng.normal(size=(T, 2))
                hyps = enumerate_hypotheses(model, toy_lm, obs, cfg)
                ranked = sorted(hyps.items(), key=lambda kv: -kv[1])
                lat = nbest(model, toy_lm, obs, cfg)
                assert len(lat.hypotheses) == min(50, len(ranked))
                for h, (key, score) in zip(lat.hypotheses, ranked):
                    assert h.score == pytest.approx(score, abs=1e-9)
                    assert hyps[tuple((s.label, s.start, s.end) for s in h.segments)] \
                        == pytest.approx(h.score, abs=1e-9)
                    repeats += any(a == b for a, b in zip(h.labels, h.labels[1:]))
                keys = [tuple((s.label, s.start, s.end) for s in h.segments)
                        for h in lat.hypotheses]
                assert len(set(keys)) == len(keys)
                v = viterbi_decode(model, toy_lm, obs,
                                   DecodeConfig(lm_weight=0.7, penalty=0.3))
                lat1 = nbest(model, toy_lm, obs,
                             DecodeConfig(lm_weight=0.7, penalty=0.3, nbest=1))
                assert len(lat1.hypotheses) == 1
                assert lat1.hypotheses[0].score == pytest.approx(v[2], abs=1e-9)
                assert [s.span() for s in lat1.hypotheses[0].segments] == \
                    [s.span() for s in v[1]]
        assert repeats > 0

    def test_scores_non_increasing(self, toy_lm):
        rng = np.random.default_rng(11)
        model = toy_model(rng)
        obs = rng.normal(size=(8, 2))
        lat = nbest(model, toy_lm, obs, DecodeConfig(nbest=10))
        scores = [h.score for h in lat.hypotheses]
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_baseline_frames_cover_sequence(self, toy_lm):
        rng = np.random.default_rng(12)
        model = toy_model(rng)
        obs = rng.normal(size=(9, 2))
        lat = nbest(model, toy_lm, obs, DecodeConfig(nbest=3))
        assert len(lat.baseline_frames) == 9

    def test_too_short_sequence_no_path(self, toy_lm):
        rng = np.random.default_rng(6)
        model = toy_model(rng, letter_states=3, silence_states=3)
        with pytest.raises(NoPathError):
            nbest(model, toy_lm, rng.normal(size=(2, 2)), DecodeConfig(nbest=4))

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            DecodeConfig(nbest=0)


class TestForcedAlign:
    def test_unique_tiling_single_frame_states(self, toy_lm):
        rng = np.random.default_rng(13)
        model = toy_model(rng, letter_states=3, silence_states=1)
        # exactly 3 frames per letter, silences skipped
        obs = rng.normal(size=(6, 2))
        segs, _ = forced_align(model, obs, ["A", "B"])
        assert [s.span() for s in segs] == [(0, 2), (3, 5)]

    def test_alignment_tiles(self, toy_lm):
        rng = np.random.default_rng(14)
        model = toy_model(rng, letter_states=2, silence_states=2)
        obs = rng.normal(size=(14, 2))
        segs, _ = forced_align(model, obs, ["A", "B", "A"])
        check_tiling(segs, 14)
        letters = [s.label for s in segs if s.label not in ("<s>", "</s>")]
        assert letters == ["A", "B", "A"]

    def test_constrained_score_below_viterbi(self, toy_lm):
        rng = np.random.default_rng(15)
        model = toy_model(rng)
        cfg = DecodeConfig(lm_weight=0.0, penalty=0.0)
        for _ in range(10):
            obs = rng.normal(size=(int(rng.integers(4, 9)), 2))
            _, fa_score = forced_align(model, obs, ["A", "B"])
            _, _, v_score = viterbi_decode(model, toy_lm, obs, cfg)
            assert fa_score <= v_score + 1e-9

    def test_matches_exhaustive_chain_paths(self):
        rng = np.random.default_rng(18)
        model = toy_model(rng, letter_states=2, silence_states=2)
        model.log_self[:] = np.log(rng.uniform(0.2, 0.8, model.n_states))
        model.log_next[:] = np.log1p(-np.exp(model.log_self))
        letters = ["A", "B", "A"]
        units = ["<s>", *letters, "</s>"]
        states = [s for u in units for s in model.unit_states(u)]
        unit_of = [i for i, u in enumerate(units) for _ in model.unit_states(u)]
        k = len(states)
        # each boundary silence (two states) is present or skipped
        starts, ends = [0, 2], [k - 1, k - 3]
        for t_len in range(6, 12):
            obs = rng.normal(size=(t_len, 2))
            emis = model.emission_logprobs(obs)
            best = (-np.inf, None)
            for s0, steps in itertools.product(starts, itertools.product(
                    (0, 1), repeat=t_len - 1)):
                pos = list(s0 + np.cumsum((0,) + steps))
                if pos[-1] not in ends:
                    continue
                score = sum(emis[t, states[p]] for t, p in enumerate(pos))
                score += sum(model.log_next[states[p]] if step else model.log_self[states[p]]
                             for p, step in zip(pos, steps))
                score += model.log_next[states[pos[-1]]]
                if score > best[0]:
                    best = (score, pos)
            if best[1] is None:
                with pytest.raises(NoPathError):
                    forced_align(model, obs, letters)
                continue
            segs, score = forced_align(model, obs, letters)
            assert score == pytest.approx(best[0], abs=1e-9)
            runs = [(units[unit_of[p]], t) for t, p in enumerate(best[1])
                    if t == 0 or unit_of[p] != unit_of[best[1][t - 1]]]
            assert [(s.label, s.start) for s in segs] == runs
            check_tiling(segs, t_len)

    def test_too_short_rejected(self, toy_lm):
        rng = np.random.default_rng(16)
        model = toy_model(rng, letter_states=3)
        with pytest.raises(NoPathError):
            forced_align(model, rng.normal(size=(5, 2)), ["A", "B"])

    def test_empty_letters_rejected(self, toy_lm):
        rng = np.random.default_rng(17)
        model = toy_model(rng)
        with pytest.raises(ValueError):
            forced_align(model, rng.normal(size=(5, 2)), [])


def reference_states_to_segments(model, state_path):
    """The per-frame splitter ``viterbi_decode`` used before the vectorized
    one."""
    state_unit = [model.units[u] for u in model.state_unit_index]
    segs = []
    start = 0
    for t in range(1, len(state_path) + 1):
        boundary = (t == len(state_path)
                    or state_unit[state_path[t]] != state_unit[state_path[t - 1]]
                    or state_path[t] < state_path[t - 1])
        if boundary:
            segs.append(Segment(state_unit[state_path[start]], start, t - 1))
            start = t
    return segs


def reference_chain_segments(units, unit_id, path):
    """The run bounds ``forced_align`` used before the shared splitter."""
    ids = unit_id[path]
    bounds = [0] + (np.flatnonzero(np.diff(ids)) + 1).tolist() + [len(path)]
    return [Segment(units[ids[b]], b, e - 1) for b, e in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("letter_states", [1, 2, 3])
def test_path_splitter_matches_both_old_splitters(letter_states):
    # random state paths, with letters re-entered after themselves, and
    # forced alignment's chain paths (never falling) split as before
    rng = np.random.default_rng(31 + letter_states)
    model = LetterHmm(["A", "B", "C"], dim=1, letter_states=letter_states, silence_states=2)
    for _ in range(200):
        path = rng.integers(model.n_states, size=int(rng.integers(1, 30)))
        if rng.random() < 0.5:   # runs of repeated states, as paths have
            path = np.repeat(path, rng.integers(1, 4, size=len(path)))
        assert hmm._path_segments(model.units, model.state_unit_index, path.tolist()) == \
            reference_states_to_segments(model, path.tolist())
        units = ["<s>"] + list(rng.choice(["A", "B", "C"], size=int(rng.integers(1, 5)))) \
            + ["</s>"]
        unit_id = np.concatenate([np.full(model.unit_nstates[u], i)
                                  for i, u in enumerate(units)])
        chain = np.sort(rng.integers(len(unit_id), size=int(rng.integers(1, 30))))
        assert hmm._path_segments(units, unit_id, chain) == \
            reference_chain_segments(units, unit_id, chain)


def reference_train_em(sequences, transcriptions, letters, dim,
                       segmentations=None, iters=2, letter_states=3,
                       silence_states=9, components=2):
    """EM one span at a time with per-frame loops, a per-state M-step and a
    per-span segmented initialization: the oracle for the whole-array
    ``train_em``."""
    def chain_forward_backward(model, states, emis, acc):
        k, t_len = len(states), emis.shape[0]
        if t_len < k:
            raise NoPathError("span too short")
        log_self, log_next = model.log_self[states], model.log_next[states]
        alpha = np.full((t_len, k), -np.inf)
        alpha[0, 0] = emis[0, 0]
        for t in range(1, t_len):
            move = np.full(k, -np.inf)
            move[1:] = alpha[t - 1, :-1] + log_next[:-1]
            alpha[t] = emis[t] + np.logaddexp(alpha[t - 1] + log_self, move)
        ll = alpha[t_len - 1, k - 1] + log_next[k - 1]
        beta = np.full((t_len, k), -np.inf)
        beta[t_len - 1, k - 1] = log_next[k - 1]
        for t in range(t_len - 2, -1, -1):
            move = np.full(k, -np.inf)
            move[:-1] = beta[t + 1, 1:] + log_next[:-1] + emis[t + 1, 1:]
            beta[t] = np.logaddexp(beta[t + 1] + log_self + emis[t + 1], move)
        gamma = np.exp(np.minimum(alpha + beta - ll, 0.0))
        for t in range(t_len - 1):
            np.add.at(acc.self_count, states, np.exp(np.minimum(
                alpha[t] + log_self + emis[t + 1] + beta[t + 1] - ll, 0.0)))
            np.add.at(acc.advance_count, states[:-1], np.exp(np.minimum(
                alpha[t, :-1] + log_next[:-1] + emis[t + 1, 1:]
                + beta[t + 1, 1:] - ll, 0.0)))
        acc.advance_count[states[-1]] += 1.0
        return ll, gamma

    def segmented_init(model, sequences, segmentations):
        s, m, d = model.means.shape
        frames = [[] for _ in range(s)]
        runs = np.zeros(s)
        for seq, segs in zip(sequences, segmentations):
            for seg in segs:
                parts = np.array_split(seq[seg.start:seg.end + 1],
                                       model.unit_nstates[seg.label])
                for j, part in enumerate(parts):
                    if len(part):
                        frames[model.unit_first[seg.label] + j].append(part)
                        runs[model.unit_first[seg.label] + j] += 1
        allx = np.concatenate(sequences)
        gmean, gvar = allx.mean(axis=0), np.maximum(allx.var(axis=0), model.var_floor)
        gstd = np.sqrt(gvar)
        for state in range(s):
            if frames[state]:
                x = np.concatenate(frames[state])
                mean = x.mean(axis=0)
                var = np.maximum(x.var(axis=0), model.var_floor) if len(x) > 1 else gvar
                p_self = min(max((len(x) - runs[state]) / len(x), 1e-4), 1 - 1e-4)
            else:
                mean, var, p_self = gmean + 100.0 * gstd, gvar, 0.5
            std = np.sqrt(var)
            for comp in range(m):
                shift = (comp - (m - 1) / 2.0) * 0.2
                model.means[state, comp] = mean + shift * (std if frames[state] else gstd)
            model.variances[state] = var
            model.log_weights[state] = -math.log(m)
            model.log_self[state] = math.log(p_self)
            model.log_next[state] = math.log(1.0 - p_self)

    def apply(acc, model):
        occ = acc.gamma.sum(axis=1)
        for s in range(len(occ)):
            if occ[s] <= 0:
                continue
            w = np.maximum(acc.gamma[s], 1e-12)
            model.log_weights[s] = np.log(w / w.sum())
            means = acc.mean_acc[s] / w[:, None]
            model.means[s] = means
            model.variances[s] = np.maximum(acc.sq_acc[s] / w[:, None] - means ** 2,
                                            model.var_floor)
            total = acc.self_count[s] + acc.advance_count[s]
            if total > 0:
                p_self = min(max(acc.self_count[s] / total, 1e-4), 1 - 1e-4)
                model.log_self[s] = math.log(p_self)
                model.log_next[s] = math.log(1.0 - p_self)

    def accumulate_span(model, units, x, acc):
        states = np.concatenate([np.array(list(model.unit_states(u))) for u in units])
        ll_comp, emis = model.emission_logprobs_subset(x, states)
        ll, gamma = chain_forward_backward(model, states, emis, acc)
        resp = gamma[:, :, None] * np.exp(np.minimum(ll_comp - emis[:, :, None], 0.0))
        np.add.at(acc.gamma, states, resp.sum(axis=0))
        np.add.at(acc.mean_acc, states, np.einsum("tsm,td->smd", resp, x))
        np.add.at(acc.sq_acc, states, np.einsum("tsm,td->smd", resp, x * x))
        return ll

    model = LetterHmm(letters, dim, letter_states, silence_states, components)
    if segmentations is not None:
        segmented_init(model, sequences, segmentations)
    else:
        hmm._global_init(model, sequences)
    curve = []
    for _ in range(iters):
        acc = hmm._Accumulator(model)
        total = 0.0
        for i, seq in enumerate(sequences):
            if segmentations is None:
                total += accumulate_span(model, ["<s>", *transcriptions[i], "</s>"],
                                         seq, acc)
                continue
            for seg in segmentations[i]:
                if seg.duration >= model.unit_nstates[seg.label]:
                    total += accumulate_span(model, [seg.label],
                                             seq[seg.start:seg.end + 1], acc)
        apply(acc, model)
        curve.append(total)
    if iters > 0 and segmentations is None:
        unseen = acc.gamma.sum(axis=1) == 0
        if unseen.any():
            allx = np.concatenate(sequences)
            model.means[unseen] += 100.0 * np.sqrt(
                np.maximum(allx.var(axis=0), model.var_floor))[None, None, :]
    return model, curve


class TestEm:
    @pytest.fixture(scope="class")
    def sequences(self, gen_config):
        signer = synthgen.make_signers(1, 5, gen_config)[0]
        words = ["AB", "BA", "ABBA", "AA", "BB"] * 4
        ws = [synthgen.generate_word(w, signer, (5, 0, i, 0), gen_config)
              for i, w in enumerate(words)]
        return ws

    @pytest.mark.parametrize("segmented", [True, False], ids=["segmented", "flat"])
    @pytest.mark.parametrize("letter_states, silence_states", [(3, 3), (3, 9), (12, 2)])
    def test_batched_em_equals_per_span_reference(self, sequences, segmented,
                                                 letter_states, silence_states):
        seqs = [w.descriptors for w in sequences]
        if segmented:
            durations = {s.duration for w in sequences for s in w.segments}
            assert len(durations) > 5   # mixed span lengths in every batch
            if letter_states == 12:         # some letter spans are skipped
                assert min(s.duration for w in sequences for s in w.segments
                           if s.label in "AB") < letter_states
        args = (seqs, [w.letters for w in sequences], ["A", "B"], seqs[0].shape[1])
        kwargs = dict(segmentations=[w.segments for w in sequences] if segmented
                      else None, iters=3, letter_states=letter_states,
                      silence_states=silence_states, components=2)
        model, curve = train_em(*args, **kwargs)
        ref, ref_curve = reference_train_em(*args, **kwargs)
        assert np.array_equal(curve, ref_curve)
        for name in ("means", "variances", "log_weights", "log_self", "log_next"):
            assert np.array_equal(getattr(model, name), getattr(ref, name)), name

    def test_segmented_init_equals_reference_on_edge_cases(self):
        # B unseen; one 2-frame A span over 3 states leaves a state empty
        # and two with a single frame; C spans of 1-4 frames over 3 states
        rng = np.random.default_rng(4)
        seqs = [rng.normal(size=(9, 3)), rng.normal(size=(12, 3))]
        segs = [[Segment("<s>", 0, 2), Segment("A", 3, 4), Segment("C", 5, 5),
                 Segment("</s>", 6, 8)],
                [Segment("C", 0, 3), Segment("A", 4, 10), Segment("C", 11, 11)]]
        args = (seqs, [["A", "C"], ["C", "A", "C"]], ["A", "B", "C"], 3)
        kwargs = dict(segmentations=segs, iters=0, letter_states=3,
                      silence_states=2, components=3)
        model, _ = train_em(*args, **kwargs)
        ref, _ = reference_train_em(*args, **kwargs)
        for name in ("means", "variances", "log_weights", "log_self", "log_next"):
            assert np.array_equal(getattr(model, name), getattr(ref, name)), name

    def test_span_shorter_than_chain_no_path(self, sequences):
        seqs = [w.descriptors for w in sequences] + [sequences[0].descriptors[:8]]
        words = [w.letters for w in sequences] + [["A", "B"]]
        with pytest.raises(NoPathError):
            train_em(seqs, words, ["A", "B"], seqs[0].shape[1], iters=1,
                     letter_states=3, silence_states=2)

    def test_flat_start_loglik_non_decreasing(self, sequences):
        seqs = [w.descriptors for w in sequences]
        _, ll = train_em(seqs, [w.letters for w in sequences], ["A", "B"],
                         seqs[0].shape[1], iters=10, silence_states=3,
                         components=2)
        assert len(ll) == 10
        assert all(b - a >= -1e-8 for a, b in zip(ll, ll[1:]))

    def test_segmented_loglik_non_decreasing(self, sequences):
        seqs = [w.descriptors for w in sequences]
        _, ll = train_em(seqs, [w.letters for w in sequences], ["A", "B"],
                         seqs[0].shape[1],
                         segmentations=[w.segments for w in sequences],
                         iters=10, silence_states=3, components=2)
        assert all(b - a >= -1e-8 for a, b in zip(ll, ll[1:]))

    def test_zero_iterations_equals_flat_start_init(self, sequences):
        seqs = [w.descriptors for w in sequences]
        model, ll = train_em(seqs, [w.letters for w in sequences], ["A", "B"],
                             seqs[0].shape[1], iters=0, silence_states=3)
        assert ll == []
        allx = np.concatenate(seqs)
        # every state carries the global statistics, deterministically split
        mid = model.components // 2
        for state in range(model.n_states):
            np.testing.assert_allclose(model.means[state].mean(axis=0),
                                       allx.mean(axis=0), atol=1e-9)
        np.testing.assert_allclose(model.log_self, math.log(0.5), atol=1e-12)

    def test_segmented_init_means_are_split_averages(self):
        # 1-D observations, 1-component GMM: state means equal the sample
        # means of the uniform 3-way split of each letter span
        seqs = [np.arange(22, dtype=float).reshape(-1, 1)]
        segs = [[Segment("<s>", 0, 4), Segment("A", 5, 16), Segment("</s>", 17, 21)]]
        model, _ = train_em(seqs, [["A"]], ["A"], 1, segmentations=segs,
                            iters=0, letter_states=3, silence_states=2,
                            components=1)
        span = np.arange(5, 17, dtype=float)
        expected = [part.mean() for part in np.array_split(span, 3)]
        first = model.unit_first["A"]
        for j in range(3):
            assert model.means[first + j, 0, 0] == pytest.approx(expected[j], abs=1e-9)

    def test_span_sequence_mismatch_rejected(self, sequences):
        seqs = [w.descriptors for w in sequences]
        bad = [[Segment("A", 0, 5)] for _ in sequences]  # does not tile
        with pytest.raises(Exception):
            train_em(seqs, [w.letters for w in sequences], ["A", "B"],
                     seqs[0].shape[1], segmentations=bad, iters=1)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            train_em([], [], ["A"], 2)

    @pytest.mark.parametrize("segmented, value, iteration", [
        (True, 1e200, 0), (True, 1e154, 1), (False, 1e200, 0), (False, 1e154, 2)])
    def test_extreme_observation_is_refused(self, segmented, value, iteration):
        # one finite extreme value overflows the initialization's squared
        # deviations (1e200) or an EM step's statistics (1e154); training
        # used to return a NaN curve with RuntimeWarnings only
        rng = np.random.default_rng(5)
        seqs = [rng.normal(size=(30, 2)) for _ in range(3)]
        seqs[1][12, 0] = value
        segs = [[Segment("<s>", 0, 8), Segment("A", 9, 14), Segment("B", 15, 20),
                 Segment("</s>", 21, 29)]] * 3
        with pytest.raises(DataError, match="EM iteration %d " % iteration):
            train_em(seqs, [["A", "B"]] * 3, ["A", "B"], 2,
                     segmentations=segs if segmented else None, iters=2)


class TestSerialization:
    def test_model_roundtrip(self, tmp_path, toy_lm):
        rng = np.random.default_rng(20)
        model = toy_model(rng, letter_states=2, silence_states=2)
        path = str(tmp_path / "hmm.json")
        model.save(path)
        loaded = LetterHmm.load(path)
        obs = rng.normal(size=(8, 2))
        out1 = viterbi_decode(model, toy_lm, obs, DecodeConfig())
        out2 = viterbi_decode(loaded, toy_lm, obs, DecodeConfig())
        assert out1[0] == out2[0]
        assert out1[2] == pytest.approx(out2[2], abs=1e-12)

    @pytest.mark.parametrize("name, value", [
        ("variances", -1.0), ("variances", 0.0), ("variances", 5e-5),
        ("log_weights", 0.5), ("log_self", 5.0), ("log_next", 1e-9)])
    def test_not_a_probability_model_refused(self, tmp_path, name, value):
        # a variance below var_floor (1e-4 here) or not above 0, or a
        # log-probability above 0
        model = toy_model(np.random.default_rng(20))
        getattr(model, name).flat[0] = value
        path = str(tmp_path / "hmm.json")
        model.save(path)
        with pytest.raises(DataError) as e:
            LetterHmm.load(path)
        assert path in str(e.value) and name in str(e.value)

    @pytest.mark.parametrize("name, array, value", [
        pytest.param("log_weights", "log_weights", math.log(0.75), id="weights"),  # + 0.5
        pytest.param("log_self and log_next", "log_self", math.log(0.4), id="stay-advance")])
    def test_probabilities_not_summing_to_one_refused(self, tmp_path, name, array, value):
        # every entry a log-probability, but one state's distribution is not
        model = LetterHmm(["A", "B"], dim=2, letter_states=1, silence_states=1, components=2)
        getattr(model, array).flat[0] = value
        path = str(tmp_path / "hmm.json")
        model.save(path)
        with pytest.raises(DataError) as e:
            LetterHmm.load(path)
        assert path in str(e.value) and name in str(e.value)

    def test_sums_within_the_tolerance_load(self, tmp_path):
        model = toy_model(np.random.default_rng(20))
        model.log_self[0] = math.log(0.6 + 0.5 * LetterHmm.SUM_TOLERANCE)
        path = str(tmp_path / "hmm.json")
        model.save(path)
        assert LetterHmm.load(path).log_self[0] == model.log_self[0]

    def test_model_at_the_bounds_loads(self, tmp_path):
        # a log-probability of 0 loads when its complement is 0 too: the
        # stay/advance pair still sums to 1, exp(-1000) being 0 in float64
        model = toy_model(np.random.default_rng(20))
        model.variances.flat[0] = model.var_floor
        model.log_weights.flat[0] = model.log_self[0] = 0.0
        model.log_next[0] = -1000.0
        path = str(tmp_path / "hmm.json")
        model.save(path)
        assert LetterHmm.load(path).variances.flat[0] == model.var_floor

    def test_lattice_jsonl_roundtrip(self, tmp_path):
        hyps = [Hypothesis(["<s>", "A", "</s>"],
                           [Segment("<s>", 0, 2), Segment("A", 3, 6),
                            Segment("</s>", 7, 9)], -12.5),
                Hypothesis(["<s>", "B", "</s>"],
                           [Segment("<s>", 0, 1), Segment("B", 2, 6),
                            Segment("</s>", 7, 9)], -14.0)]
        lat = CandidateLattice(hyps, ["<s>"] * 3 + ["A"] * 4 + ["</s>"] * 3)
        path = str(tmp_path / "x.lat.jsonl")
        save_lattice(path, lat)
        with open(path) as f:
            assert len(f.read().strip().split("\n")) == 2
        loaded = load_lattice(path)
        assert loaded.hypotheses[0].labels == ["<s>", "A", "</s>"]
        assert loaded.hypotheses[0].score == -12.5
        assert loaded.baseline_frames == lat.baseline_frames

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_lattice_non_finite_score_refused(self, tmp_path, constant):
        hyps = [Hypothesis(["A"], [Segment("A", 0, 3)], -1.0),
                Hypothesis(["B"], [Segment("B", 0, 3)], -2.0)]
        path = tmp_path / "x.lat.jsonl"
        save_lattice(str(path), CandidateLattice(hyps, ["A"] * 4))
        path.write_text(path.read_text().replace("-2.0", constant))
        with pytest.raises(DataError) as e:
            load_lattice(str(path))
        assert "%s line 2" % path in str(e.value)


def reference_unit_transitions(model, lm, cfg):
    """The decode graph's unit policy built one ``lm.logprob`` call at a
    time: the oracle of the table-indexed ``unit_transitions``."""
    from segspell.alphabet import BEGIN_SILENCE, END_SILENCE
    idx = {u: i for i, u in enumerate(model.units)}
    trans = np.full((len(idx) + 1, len(idx)), -np.inf)
    final = np.full(len(idx), -np.inf)
    lw, pen = cfg.lm_weight, cfg.penalty
    beg, end = idx[BEGIN_SILENCE], idx[END_SILENCE]
    trans[0, beg] = 0.0
    final[end] = 0.0
    for l1 in model.letters:
        i = idx[l1]
        trans[0, i] = trans[beg + 1, i] = lw * lm.logprob(BEGIN_SILENCE, l1) - pen
        trans[i + 1, end] = final[i] = lw * lm.logprob(l1, END_SILENCE)
        for l2 in model.letters:
            if l2 != l1 or model.unit_nstates[l1] > 1:
                trans[i + 1, idx[l2]] = lw * lm.logprob(l1, l2) - pen
    return trans, final


@pytest.mark.parametrize("letter_states", [1, 3])
@pytest.mark.parametrize("lm_weight, penalty", [(1.0, 0.0), (2.7, 1.3), (0.35, -4.0)])
def test_unit_transitions_match_per_pair_lookups(letter_states, lm_weight, penalty):
    rng = np.random.default_rng(61)
    alphabet = LetterAlphabet()
    lm = train_bigram(["TULIP", "ROAD", "QUIZ", "ANNA", "BOX"], alphabet)
    letters = ("Q", "A", "N", "Z", "B")
    model = toy_model(rng, letters, letter_states=letter_states)
    cfg = DecodeConfig(lm_weight=lm_weight, penalty=penalty)
    got, want = hmm.unit_transitions(model, lm, cfg), reference_unit_transitions(model, lm, cfg)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def reference_span_table(model, emis, policy):
    """``hmm.span_table`` through a dense (T, T, units) table of every span,
    then the engine's span order: the oracle of the direct layout."""
    from segspell.alphabet import BEGIN_SILENCE, END_SILENCE
    from tests.test_scrf import tables_from_parts
    t_len, units = len(emis), model.units
    spans = np.full((t_len, t_len, len(units)), -np.inf)
    for u, unit in enumerate(units):
        states = list(model.unit_states(unit))
        for t in range(t_len):
            v = np.full(len(states), -np.inf)
            v[0] = emis[t, states[0]]
            for d in range(1, t_len - t + 1):
                spans[t, d - 1, u] = v[-1] + model.log_next[states[-1]]
                if t + d < t_len:
                    move = np.concatenate([[-np.inf], v[:-1] + model.log_next[states[:-1]]])
                    v = np.maximum(v + model.log_self[states], move) + emis[t + d, states]
    beg, end = units.index(BEGIN_SILENCE), units.index(END_SILENCE)
    enter, leave = np.full((2, t_len + 1, len(units)), -np.inf)
    enter[1:, beg] = spans[0, :, beg]
    leave[:-1, end] = spans[np.arange(t_len), t_len - 1 - np.arange(t_len), end]
    letters = len(model.letters)
    return tables_from_parts(spans[:, :, :letters], *policy, enter, leave, np.arange(letters))


@pytest.mark.parametrize("letter_states, silence_states", [(1, 1), (2, 3), (3, 2), (3, 9)])
def test_span_table_equals_dense_reference(toy_lm, letter_states, silence_states):
    # letters and silences in one state-count group, then in two, the last
    # the recognizer's default; T runs below, at and above each state count
    rng = np.random.default_rng(62)
    model = toy_model(rng, letter_states=letter_states, silence_states=silence_states)
    stay = rng.uniform(0.2, 0.8, size=model.n_states)
    model.log_self, model.log_next = np.log(stay), np.log(1 - stay)
    policy = hmm.unit_transitions(model, toy_lm, DecodeConfig(lm_weight=0.7, penalty=0.3))
    for T in (1, 2, 3, 5, 8, 9, 10, 40):
        emis = model.emission_logprobs(rng.normal(size=(T, 2)))
        got, want = hmm.span_table(model, emis, policy), reference_span_table(model, emis, policy)
        assert np.array_equal(got.scores, want.scores)
        assert (got.index.num_frames, got.index.dmax) == (want.index.num_frames, want.index.dmax)
        assert np.array_equal(got.columns, want.columns)
        assert np.array_equal(got.trans, want.trans) and np.array_equal(got.final, want.final)
