import dataclasses
import math

import numpy as np
import pytest

from segspell import pipeline, synthgen
from segspell.alphabet import (BEGIN_SILENCE, END_SILENCE, LetterAlphabet,
                               PhoneticFeatureTable)
from segspell.cli import builtin_wordlist
from segspell.scrf import FeatureContext, delta_peak, smoothed_derivative
from segspell.segments import Segment, check_tiling


class TestGenerateWord:
    def test_deterministic_bit_identical(self, signers, gen_config):
        w1 = synthgen.generate_word("TULIP", signers[0], (1, 0, 0, 0), gen_config)
        w2 = synthgen.generate_word("TULIP", signers[0], (1, 0, 0, 0), gen_config)
        assert np.array_equal(w1.descriptors, w2.descriptors)
        assert w1.segments == w2.segments
        assert w1.peaks == w2.peaks

    def test_speed_doubles_preclamp_durations(self, signers, gen_config):
        import dataclasses
        s1 = dataclasses.replace(signers[0], speed=1.0)
        s2 = dataclasses.replace(signers[0], speed=2.0)
        w1 = synthgen.generate_word("ROAD", s1, (2, 0, 0, 0), gen_config)
        w2 = synthgen.generate_word("ROAD", s2, (2, 0, 0, 0), gen_config)
        np.testing.assert_allclose(np.asarray(w2.raw_durations),
                                   2.0 * np.asarray(w1.raw_durations), rtol=1e-12)

    def test_noise_free_identity_signer_hits_targets(self, gen_config):
        import dataclasses
        dim = synthgen.descriptor_dim(gen_config)
        clean = synthgen.SyntheticSigner(
            signer_id="T", speed=1.0, rotation=np.eye(dim), bias=np.zeros(dim),
            hand_color=(0.8, 0.4, 0.3), nonsigning_amplitude=1.0,
            nonsigning_frames=(11, 16), noise_level=0.0)
        cfg = dataclasses.replace(gen_config, jitter=0.0)
        word = synthgen.generate_word("BOX", clean, (3, 0, 0, 0), cfg)
        from segspell.alphabet import PhoneticFeatureTable
        table = PhoneticFeatureTable()
        for unit, peak in zip(word.labels, word.peaks):
            if unit in (BEGIN_SILENCE, END_SILENCE):
                target = synthgen.rest_pose(unit)
            else:
                target = synthgen.letter_target(table.phonetic_values(unit))
            np.testing.assert_allclose(word.descriptors[peak, :synthgen.POSE_DIM],
                                       target, atol=1e-12)

    def test_durations_within_bounds(self, signers, gen_config):
        for seed in range(5):
            w = synthgen.generate_word("MISSISSIPPI", signers[3], (seed, 0, 0, 0),
                                       gen_config)
            for seg, label in zip(w.segments, w.labels):
                if label not in (BEGIN_SILENCE, END_SILENCE):
                    assert 2 <= seg.duration <= 40

    def test_peaks_inside_segments_and_tiling(self, signers, gen_config):
        w = synthgen.generate_word("GEORGE", signers[1], (4, 0, 0, 0), gen_config)
        check_tiling(w.segments, w.num_frames)
        assert w.labels[0] == BEGIN_SILENCE and w.labels[-1] == END_SILENCE
        for seg, peak in zip(w.segments, w.peaks):
            assert seg.start <= peak <= seg.end

    def test_empty_and_unknown_words_rejected(self, signers, gen_config):
        with pytest.raises(ValueError):
            synthgen.generate_word("", signers[0], (0, 0, 0, 0), gen_config)
        with pytest.raises(Exception):
            synthgen.generate_word("A1", signers[0], (0, 0, 0, 0), gen_config)

    def test_doubled_token_single_prolonged_segment(self, signers, gen_config):
        alphabet = LetterAlphabet(doubled=("ZZ",))
        w = synthgen.generate_word("PIZZA", signers[0], (5, 0, 0, 0), gen_config,
                                   alphabet=alphabet)
        assert w.labels == [BEGIN_SILENCE, "P", "I", "ZZ", "A", END_SILENCE]
        zz = w.segments[3]
        others = [s.duration for s, l in zip(w.segments[1:-1], w.labels[1:-1])
                  if l != "ZZ"]
        assert zz.duration > np.mean(others)


class TestPeakConsistency:
    def test_delta_peak_on_every_segment(self, signers, gen_config):
        words = ["TULIP", "ROAD", "GEORGE", "ANN", "MISSISSIPPI", "TALLAHASSEE",
                 "QUIZ", "BOO", "XEROX", "SQUIREL"]
        for si, signer in enumerate(signers):
            for wi, word in enumerate(words):
                w = synthgen.generate_word(word, signer, (11, si, wi, 0), gen_config)
                ctx = FeatureContext(w.num_frames, descriptors=w.descriptors)
                for seg in w.segments:
                    assert delta_peak(ctx, seg.start, seg.end) == 1.0, \
                        (word, signer.signer_id, seg)

    def test_smoothed_minimum_near_peak(self, signers, gen_config):
        w = synthgen.generate_word("VENICE", signers[2], (12, 0, 0, 0), gen_config)
        ctx = FeatureContext(w.num_frames, descriptors=w.descriptors)
        curve = ctx.peak_curve
        for seg, peak in zip(w.segments, w.peaks):
            lo, hi = seg.start, seg.end  # diff indices within the span
            idx = np.argmin(curve[lo:hi]) + lo
            assert abs(idx - peak) <= gen_config.peak_hold + 1


class TestCorpus:
    def test_each_word_twice_per_signer(self, signers, gen_config):
        corpus = synthgen.generate_corpus(["SUN", "ART"], signers[:1], 7,
                                          repetitions=2, cfg=gen_config)
        assert len(corpus.words) == 4

    def test_full_multiplication(self, signers, gen_config):
        corpus = synthgen.generate_corpus(["SUN", "ART", "INK"], signers, 7,
                                          repetitions=2, cfg=gen_config)
        assert len(corpus.words) == 3 * 4 * 2
        by_signer = pipeline.split_by_signer(corpus)
        for s in signers:
            assert len(by_signer[s.signer_id]) == 6

    def test_300_word_list_gives_600_tokens(self, gen_config):
        from segspell.cli import builtin_wordlist
        signer = synthgen.make_signers(1, 3, gen_config)
        corpus = synthgen.generate_corpus(builtin_wordlist("1")[:300], signer, 3,
                                          repetitions=2, cfg=gen_config)
        assert len(corpus.words) == 600

    def test_regeneration_from_manifest_bit_identical(self, tmp_path, signers,
                                                      gen_config):
        corpus = synthgen.generate_corpus(["BOX", "JOE"], signers[:2], 9,
                                          repetitions=1, cfg=gen_config)
        d = str(tmp_path / "corpus")
        stems = synthgen.save_corpus(corpus, d)
        loaded, loaded_stems = synthgen.load_corpus(d)
        assert loaded_stems == stems == ["S1_w0000", "S1_w0001", "S2_w0002", "S2_w0003"]
        assert (loaded.word_list, loaded.seed, loaded.repetitions) == (["BOX", "JOE"], 9, 1)
        for orig, saved in zip(corpus.words, loaded.words):
            signer = next(s for s in signers if s.signer_id == orig.signer_id)
            regen = synthgen.generate_word(saved.word, signer, saved.seed_key, gen_config)
            assert np.array_equal(regen.descriptors, orig.descriptors)
            assert regen.segments == orig.segments

    def test_saved_descriptors_round_trip_f32(self, tmp_path, signers, gen_config):
        corpus = synthgen.generate_corpus(["SUN"], signers[:1], 9,
                                          repetitions=1, cfg=gen_config)
        d = str(tmp_path / "c2")
        synthgen.save_corpus(corpus, d)
        loaded, _ = synthgen.load_corpus(d)
        np.testing.assert_allclose(loaded.words[0].descriptors,
                                   corpus.words[0].descriptors, atol=1e-5)

    def test_speed_ratio_configurable(self, gen_config):
        import dataclasses
        cfg = dataclasses.replace(gen_config, speed_ratio=1.8)
        signers = synthgen.make_signers(4, 0, cfg)
        speeds = [s.speed for s in signers]
        assert max(speeds) / min(speeds) == pytest.approx(1.8, abs=1e-9)


class TestRenderFrames:
    def test_mask_area_matches_prior(self, signers, gen_config):
        word = synthgen.generate_word("SUN", signers[0], (13, 0, 0, 0), gen_config)
        frames, masks = synthgen.render_frames(word, signers[0], gen_config)
        h, w = gen_config.image_size
        target = synthgen.HAND_AREA_FRACTION * h * w
        for mask in masks[::10]:
            assert abs(mask.sum() - target) / target <= 0.1

    def test_signer_hand_colors_differ(self, signers, gen_config):
        word0 = synthgen.generate_word("SUN", signers[0], (14, 0, 0, 0), gen_config)
        word1 = synthgen.generate_word("SUN", signers[1], (14, 1, 0, 0), gen_config)
        f0, m0 = synthgen.render_frames(word0, signers[0], gen_config)
        f1, m1 = synthgen.render_frames(word1, signers[1], gen_config)

        def hand_hist(frames, masks):
            pix = np.concatenate([f[m] for f, m in zip(frames[:10], masks[:10])])
            return np.histogram(pix[:, 0], bins=16, range=(0, 255))[0] + 1.0

        h0, h1 = hand_hist(f0, m0), hand_hist(f1, m1)
        chi2 = np.sum((h0 - h1) ** 2 / (h0 + h1))
        assert chi2 > 50.0

    def test_frames_uint8_and_mask_bool(self, signers, gen_config):
        word = synthgen.generate_word("ART", signers[0], (15, 0, 0, 0), gen_config)
        frames, masks = synthgen.render_frames(word, signers[0], gen_config)
        assert frames[0].dtype == np.uint8
        assert masks[0].dtype == np.bool_
        assert len(frames) == word.num_frames


# ---------------------------------------------------------------------------
# Oracle: the generator as it was written with per-frame loops.  The
# vectorized generator must give the same bits on every token.

def reference_smoothed_derivative(descriptors, window=5):
    x = np.asarray(descriptors, dtype=np.float64)
    diffs = np.linalg.norm(np.diff(x, axis=0), axis=1)
    half = window // 2
    out = np.empty_like(diffs)
    for i in range(len(diffs)):
        lo, hi = max(0, i - half), min(len(diffs), i + half + 1)
        out[i] = diffs[lo:hi].mean()
    return out


def reference_generate_word(word, signer, seed_key, cfg, alphabet, table):
    unit, orthogonalize = synthgen._unit, synthgen._orthogonalize
    tokens = alphabet.tokenize(word)
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    lo, hi = cfg.letter_duration
    raw = []
    durations = []
    for tok in tokens:
        base = rng.uniform(lo, hi)
        if len(tok) == 2:
            base *= cfg.doubled_scale
        pre_clamp = base * signer.speed
        raw.append(pre_clamp)
        durations.append(int(np.clip(round(pre_clamp), 2, 40)))
    sil_lo, sil_hi = signer.nonsigning_frames
    d_begin = int(rng.integers(sil_lo, sil_hi + 1))
    d_end = int(rng.integers(sil_lo, sil_hi + 1))
    units = [BEGIN_SILENCE] + tokens + [END_SILENCE]
    unit_durs = [d_begin] + durations + [d_end]
    t_len = sum(unit_durs)
    peaks = []
    start = 0
    for d in unit_durs:
        peaks.append(start + d // 2)
        start += d
    targets = []
    for u in units:
        if u in (BEGIN_SILENCE, END_SILENCE):
            base = synthgen.rest_pose(u)
        else:
            base = synthgen.letter_target(
                table.phonetic_values(u[0] * 2 if len(u) == 2 else u))
        targets.append(base + cfg.jitter * rng.normal(size=synthgen.POSE_DIM))
    amp = signer.nonsigning_amplitude
    pre = targets[0] + amp * unit(rng.normal(size=synthgen.POSE_DIM))
    post = targets[-1] + amp * unit(rng.normal(size=synthgen.POSE_DIM))
    knot_t, knot_x = [0], [pre]
    bounds = [0] + peaks + [t_len - 1]
    for i, (p, x) in enumerate(zip(peaks, targets)):
        hold_l = min(cfg.peak_hold, max(0, (p - bounds[i] - 3) // 2))
        hold_r = min(cfg.peak_hold, max(0, (bounds[i + 2] - p - 3) // 2))
        knot_t.extend([p - hold_l, p + hold_r])
        knot_x.extend([x, x])
    knot_t.append(t_len - 1)
    knot_x.append(post)
    ktimes, kvals = [0], [knot_x[0]]
    for t, x in zip(knot_t[1:], knot_x[1:]):
        t = min(max(t, ktimes[-1] + 1), t_len - 1)
        if t <= ktimes[-1]:
            kvals[-1] = x
        else:
            ktimes.append(t)
            kvals.append(x)
    pose = np.empty((t_len, synthgen.POSE_DIM))
    for a, b, xa, xb in zip(ktimes, ktimes[1:], kvals, kvals[1:]):
        delta = xb - xa
        dist_ab = float(np.linalg.norm(delta))
        bounce = None
        if xa is not xb and dist_ab < cfg.min_transition and b - a >= 3:
            e1 = unit(orthogonalize(rng.normal(size=synthgen.POSE_DIM), delta))
            e2 = unit(orthogonalize(rng.normal(size=synthgen.POSE_DIM), delta, e1))
            bounce = (0.5 * (cfg.min_transition - dist_ab), e1, e2)
        for t in range(a, b + 1):
            s = synthgen._smoothstep((t - a) / (b - a))
            pose[t] = xa + s * delta
            if bounce is not None:
                radius, e1, e2 = bounce
                psi = 2.0 * math.pi * s
                pose[t] += radius * (math.sin(psi) * e1 + (1.0 - math.cos(psi)) * e2)
    pose[ktimes[-1]:] = kvals[-1]
    mids = np.arange(t_len - 1) + 0.5
    dist = np.min(np.abs(mids[:, None] - np.asarray(peaks)[None, :]), axis=1)
    dwell = 0.35 + 0.65 * np.minimum(1.0, dist / cfg.dwell_ramp)
    wobble = np.empty((t_len, 2 * cfg.wobble_circles))
    for c in range(cfg.wobble_circles):
        theta = rng.uniform(0, 2 * math.pi)
        signs = rng.choice([-1.0, 1.0], size=t_len - 1)
        angles = theta + np.concatenate([[0.0], np.cumsum(signs * cfg.wobble_step * dwell)])
        wobble[:, 2 * c] = synthgen.WOBBLE_AMPLITUDE * np.cos(angles)
        wobble[:, 2 * c + 1] = synthgen.WOBBLE_AMPLITUDE * np.sin(angles)
    desc = np.concatenate([pose, wobble], axis=1)
    if signer.noise_level > 0:
        desc = desc + signer.noise_level * rng.normal(size=desc.shape)
    desc = desc @ signer.rotation.T + signer.bias
    curve = reference_smoothed_derivative(desc)
    cuts = []
    for p0, p1 in zip(peaks, peaks[1:]):
        mid = (p0 + p1) // 2
        lo = max(p0 + 1, mid - 2)
        hi = min(p1 - 2, mid + 2)
        if hi < lo:
            m = min(max(mid, p0 + 1), max(p1 - 1, p0 + 1))
        else:
            m = lo + int(np.argmax(curve[lo:hi + 1]))
        cuts.append(m)
    segments = [Segment(u, s, e) for u, s, e in
                zip(units, [0] + [m + 1 for m in cuts], cuts + [t_len - 1])]
    return desc, segments, peaks, raw


def oracle_tokens(signers, gen_config):
    """(word, signer, seed key, config, alphabet) for 317 tokens: list-1
    words, the ZZ alphabet, one-letter words, adjacent repeated letters,
    and signers and configs without noise or wobble."""
    plain, zz = LetterAlphabet(), LetterAlphabet(doubled=("ZZ",))
    quiet = [dataclasses.replace(s, noise_level=0.0) for s in signers]
    still = dataclasses.replace(gen_config, wobble_circles=0)
    still_signers = synthgen.make_signers(4, 12, still)
    repeated = ["ANN", "BOO", "MISSISSIPPI", "TALLAHASSEE", "AAAA", "EE", "BOOKKEEPER"]
    tokens = []
    for wi, word in enumerate(builtin_wordlist("1")[:160]):
        tokens.append((word, signers[wi % 4], (7, wi % 4, wi, 0), gen_config, plain))
    for wi, word in enumerate(["PIZZA", "JAZZ", "ZZ", "FIZZ", "BUZZ", "ZZZ"] * 4):
        tokens.append((word, signers[wi % 4], (8, wi % 4, wi, 0), gen_config, zz))
    for wi, word in enumerate("ABCDEFGHIJKLMNOPQRSTUVWXYZ"):
        tokens.append((word, signers[wi % 4], (9, wi % 4, wi, 1), gen_config, plain))
    for wi, word in enumerate(repeated * 4):
        tokens.append((word, signers[wi % 4], (10, wi % 4, wi, 0), gen_config, plain))
    for wi, word in enumerate(builtin_wordlist("2")[:40] + repeated[:4]):
        tokens.append((word, quiet[wi % 4], (11, wi % 4, wi, 0), gen_config, plain))
    for wi, word in enumerate(builtin_wordlist("2")[40:70] + repeated[4:] + ["Q", "JAZZ"]):
        tokens.append((word, still_signers[wi % 4], (12, wi % 4, wi, 0), still,
                       zz if "ZZ" in word else plain))
    return tokens


class TestGeneratorOracle:
    def test_tokens_match_reference_bit_for_bit(self, signers, gen_config):
        table = PhoneticFeatureTable()
        tokens = oracle_tokens(signers, gen_config)
        assert len(tokens) >= 300
        for word, signer, key, cfg, alphabet in tokens:
            got = synthgen.generate_word(word, signer, key, cfg, alphabet, table)
            desc, segments, peaks, raw = reference_generate_word(
                word, signer, key, cfg, alphabet, table)
            assert np.array_equal(got.descriptors, desc), (word, key)
            assert got.segments == segments, (word, key)
            assert got.peaks == peaks, (word, key)
            assert got.raw_durations == raw, (word, key)

    @pytest.mark.parametrize("window", [3, 5, 7])
    def test_smoothed_derivative_matches_reference(self, window):
        rng = np.random.default_rng(np.random.SeedSequence((16, window)))
        for frames in range(1, 16):
            for scale in 10.0 ** np.arange(-3, 4):
                for _ in range(5):
                    x = scale * rng.normal(size=(frames, 6))
                    assert np.array_equal(smoothed_derivative(x, window),
                                          reference_smoothed_derivative(x, window)), \
                        (frames, scale)
