import math

import numpy as np
import pytest

from segspell import synthgen
from segspell.alphabet import LetterAlphabet
from segspell.hmm import (LOG_ZERO, CandidateLattice, DecodeConfig, Hypothesis,
                          LetterHmm, NoPathError, build_decode_graph,
                          forced_align, load_lattice, nbest, save_lattice,
                          train_em, viterbi_decode)
from segspell.lm import train_bigram
from segspell.segments import Segment, check_tiling


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

    def hyp_key(path):
        segs = []
        start = 0
        for i in range(1, T + 1):
            if i == T or model.state_unit[path[i]] != model.state_unit[path[i - 1]] \
                    or path[i] < path[i - 1]:
                segs.append((model.state_unit[path[start]], start, i - 1))
                start = i
        return tuple(segs)

    def rec(t, s, score, path):
        score = score + emis[t, s]
        if t == T - 1:
            if omega[s] > LOG_ZERO / 2:
                key = hyp_key(path)
                full = score + omega[s]
                if key not in out or full > out[key]:
                    out[key] = full
            return
        for s2 in range(S):
            if a[s, s2] > LOG_ZERO / 2:
                rec(t + 1, s2, score + a[s, s2], path + [s2])

    for s in range(S):
        if pi[s] > LOG_ZERO / 2:
            rec(0, s, pi[s], [s])
    return out


@pytest.fixture(scope="module")
def toy_lm():
    return train_bigram(["AB", "BA", "A", "B", "AA"], LetterAlphabet())


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
        segs, _ = forced_align(model, obs, ["A", "B"], include_silences="never")
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


class TestEm:
    @pytest.fixture(scope="class")
    def sequences(self, gen_config):
        signer = synthgen.make_signers(1, 5, gen_config)[0]
        words = ["AB", "BA", "ABBA", "AA", "BB"] * 4
        ws = [synthgen.generate_word(w, signer, (5, 0, i, 0), gen_config)
              for i, w in enumerate(words)]
        return ws

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
