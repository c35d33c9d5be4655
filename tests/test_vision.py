import math

import numpy as np
import pytest

from segspell import synthgen, vision


def solid_frame(color, h=24, w=32):
    img = np.empty((h, w, 3))
    img[:] = color
    return img


def blob_frames(n, hand_color=(0.8, 0.45, 0.35), bg=(0.2, 0.25, 0.3), h=24, w=32):
    rng = np.random.default_rng(42)
    frames, masks = [], []
    for _ in range(n):
        img = solid_frame(bg, h, w) + 0.01 * rng.normal(size=(h, w, 3))
        mask = np.zeros((h, w), dtype=bool)
        r, c = int(rng.integers(6, h - 6)), int(rng.integers(6, w - 6))
        mask[r - 3:r + 3, c - 3:c + 3] = True
        img[mask] = hand_color
        img[mask] += 0.01 * rng.normal(size=(mask.sum(), 3))
        frames.append(np.clip(img, 0, 1))
        masks.append(mask)
    return frames, masks


LOG_2PI = float(np.log(2.0 * np.pi))


def reference_hmm_emissions(model, seq, states):
    """``LetterHmm.emission_logprobs_subset`` before the shared kernel."""
    diff = seq[:, None, None, :] - model.means[None, states]
    np.square(diff, out=diff)
    diff /= model.variances[None, states]
    ll = -0.5 * (np.sum(diff, axis=3)
                 + np.sum(np.log(model.variances[states]), axis=2)[None]
                 + model.dim * LOG_2PI)
    ll += model.log_weights[None, states]
    m = ll.max(axis=2)
    return ll, m + np.log(np.sum(np.exp(ll - m[:, :, None]), axis=2))


def reference_gmm_log_density(gmm, x):
    """``DiagGmm.log_density`` before the shared kernel."""
    diff = x[:, None, :] - gmm.means[None, :, :]
    ll = -0.5 * (np.sum(diff * diff / gmm.variances[None], axis=2)
                 + np.sum(np.log(gmm.variances), axis=1)[None]
                 + gmm.means.shape[1] * LOG_2PI)
    ll = ll + np.log(gmm.weights)[None]
    m = ll.max(axis=1)
    return m + np.log(np.sum(np.exp(ll - m[:, None]), axis=1))


def reference_em_step_loglik(gmm, x):
    """``fit_diag_gmm``'s E-step log-likelihoods before the shared kernel."""
    diff = x[:, None, :] - gmm.means[None]
    return (-0.5 * (np.sum(diff * diff / gmm.variances[None], axis=2)
                    + np.sum(np.log(gmm.variances), axis=1)[None]
                    + x.shape[1] * LOG_2PI)
            + np.log(gmm.weights)[None])


def reference_bg_log_density(model, lab_image):
    """``HandColorModel.bg_log_density`` before the shared kernel."""
    diff = lab_image - model.bg_mean
    return -0.5 * (np.sum(diff * diff / model.bg_var, axis=2)
                   + np.sum(np.log(model.bg_var), axis=2) + 3 * LOG_2PI)


def test_gaussian_kernel_matches_the_four_old_densities():
    # the HMM emissions (all states and a subset), the hand GMM, the GMM
    # E-step and the per-pixel background keep their bits
    from segspell.hmm import LetterHmm
    rng = np.random.default_rng(41)
    for _ in range(60):
        t, d, m = (int(v) for v in rng.integers(1, [20, 9, 4]))
        scale = 10.0 ** rng.uniform(-3, 2)
        hmm = LetterHmm(["A", "B"], dim=d, letter_states=int(rng.integers(1, 4)),
                        silence_states=2, components=m)
        hmm.means = scale * rng.normal(size=hmm.means.shape)
        hmm.variances = 10.0 ** rng.uniform(-4, 2, size=hmm.variances.shape)
        hmm.log_weights = np.log(rng.dirichlet(np.ones(m), size=hmm.n_states))
        seq = scale * rng.normal(size=(t, d))
        subset = np.sort(rng.choice(hmm.n_states, size=int(rng.integers(1, hmm.n_states + 1)),
                                    replace=False))
        for states in (slice(None), subset):
            for got, want in zip(hmm.emission_logprobs_subset(seq, states),
                                 reference_hmm_emissions(hmm, seq, states)):
                assert np.array_equal(got, want)
        gmm = vision.DiagGmm(rng.dirichlet(np.ones(m)), scale * rng.normal(size=(m, d)),
                             10.0 ** rng.uniform(-4, 2, size=(m, d)))
        x = scale * rng.normal(size=(t, d))
        assert np.array_equal(gmm.log_density(x), reference_gmm_log_density(gmm, x))
        assert np.array_equal(
            vision.diag_gaussian_logpdf(x[:, None, :], gmm.means, gmm.variances)
            + np.log(gmm.weights)[None], reference_em_step_loglik(gmm, x))
        h, w = (int(v) for v in rng.integers(1, 12, size=2))
        bg = vision.HandColorModel(gmm, scale * rng.normal(size=(h, w, 3)),
                                   10.0 ** rng.uniform(-4, 2, size=(h, w, 3)), 0.1, -5.0)
        lab = scale * rng.normal(size=(h, w, 3))
        assert np.array_equal(bg.bg_log_density(lab), reference_bg_log_density(bg, lab))


class TestHandColorModel:
    def test_prior_is_roi_fraction(self):
        frames, masks = blob_frames(8)
        model = vision.fit_hand_color_model(frames, masks)
        expected = np.mean([m.mean() for m in masks])
        assert model.prior_hand == pytest.approx(expected, abs=1e-12)

    def test_degenerate_single_color_floored(self):
        frames = [solid_frame((0.5, 0.5, 0.5)) for _ in range(3)]
        masks = [np.zeros((24, 32), dtype=bool) for _ in range(3)]
        for m in masks:
            m[8:16, 10:20] = True
        model = vision.fit_hand_color_model(frames, masks)
        lab = vision.rgb_to_lab(solid_frame((0.5, 0.5, 0.5)))[0, 0]
        np.testing.assert_allclose(model.hand_gmm.means, lab[None, :].repeat(3, 0),
                                   atol=1e-6)
        assert (model.hand_gmm.variances >= 1e-4 - 1e-12).all()

    def test_held_out_hand_pixels_pass_odds(self):
        frames, masks = blob_frames(40)
        model = vision.fit_hand_color_model(frames[:30], masks[:30])
        hits = total = 0
        for frame, mask in zip(frames[30:], masks[30:]):
            lab = vision.rgb_to_lab(frame)
            lh = model.hand_log_density(lab.reshape(-1, 3)).reshape(mask.shape)
            lb = model.bg_log_density(lab)
            passed = lh + math.log(model.prior_hand) > lb + math.log(1 - model.prior_hand)
            hits += passed[mask].sum()
            total += mask.sum()
        assert hits / total >= 0.95

    def test_empty_roi_rejected(self):
        frames = [solid_frame((0.5, 0.5, 0.5))]
        with pytest.raises(ValueError):
            vision.fit_hand_color_model(frames, [np.zeros((24, 32), dtype=bool)])

    def test_odds_scale_consistency(self):
        # adding the same constant to both log densities leaves the mask
        # unchanged (the odds test compares the two sides directly)
        frames, masks = blob_frames(10)
        model = vision.fit_hand_color_model(frames[:8], masks[:8])
        base = vision.segment_hand(frames[9], model)
        shifted = vision.HandColorModel(model.hand_gmm, model.bg_mean, model.bg_var,
                                        model.prior_hand,
                                        model.hand_logdensity_floor)
        lab = vision.rgb_to_lab(frames[9])
        lh = model.hand_log_density(lab.reshape(-1, 3))
        lb = model.bg_log_density(lab)
        c = 3.7
        passed_base = lh.reshape(lab.shape[:2]) + math.log(model.prior_hand) > \
            lb + math.log(1 - model.prior_hand)
        passed_shift = (lh.reshape(lab.shape[:2]) + c) + math.log(model.prior_hand) > \
            (lb + c) + math.log(1 - model.prior_hand)
        assert np.array_equal(passed_base, passed_shift)
        assert base[masks[9]].mean() > 0.8


class TestSegmentHand:
    def test_largest_component_kept(self):
        mask = np.zeros((20, 30), dtype=bool)
        mask[2:7, 2:12] = True     # 50 px
        mask[12:17, 20:26] = True  # 30 px
        out = vision.largest_component(mask)
        assert out[2:7, 2:12].all()
        assert not out[12:17, 20:26].any()

    def test_all_fail_empty_mask(self):
        frames, masks = blob_frames(8)
        model = vision.fit_hand_color_model(frames, masks)
        bg_only = solid_frame((0.2, 0.25, 0.3))
        out = vision.segment_hand(bg_only, model)
        assert not out.any()

    def test_exclusion_and_region(self):
        frames, masks = blob_frames(12)
        model = vision.fit_hand_color_model(frames[:10], masks[:10])
        frame, mask = frames[11], masks[11]
        out = vision.segment_hand(frame, model, exclusion_mask=mask)
        assert not out[mask].any()
        region = (0, 0, 1, 1)
        out2 = vision.segment_hand(frame, model, signing_region=region)
        assert not out2.any() or out2[:1, :1].all()

    def test_size_mismatch_rejected(self):
        frames, masks = blob_frames(5)
        model = vision.fit_hand_color_model(frames, masks)
        with pytest.raises(ValueError):
            vision.segment_hand(np.zeros((10, 10, 3)), model)

    def test_iou_and_odds_rate_on_rendered_frames(self, signers, gen_config):
        word = synthgen.generate_word("BOX", signers[0], (1, 2, 3), gen_config)
        frames, masks = synthgen.render_frames(word, signers[0], gen_config)
        model = vision.fit_hand_color_model(frames[:30], masks[:30])
        ious = []
        hits = total = 0
        for frame, mask in zip(frames[30:40], masks[30:40]):
            out = vision.segment_hand(frame, model)
            inter = (out & mask).sum()
            union = (out | mask).sum()
            ious.append(inter / union)
            lab = vision.rgb_to_lab(frame)
            lh = model.hand_log_density(lab.reshape(-1, 3)).reshape(mask.shape)
            lb = model.bg_log_density(lab)
            passed = lh + math.log(model.prior_hand) > \
                lb + math.log(1 - model.prior_hand)
            hits += passed[mask].sum()
            total += mask.sum()
        assert min(ious) >= 0.9
        assert hits / total >= 0.95


class TestHog:
    def test_descriptor_length_2688(self):
        assert vision.HOG_DIM == 2688
        rng = np.random.default_rng(0)
        img = rng.random((64, 80))
        mask = np.zeros((64, 80), dtype=bool)
        mask[10:50, 20:70] = True
        desc = vision.hog_descriptor(img, mask)
        assert desc.shape == (2688,)

    def test_constant_image_zero_descriptor(self):
        img = np.full((128, 128), 0.5)
        mask = np.ones((128, 128), dtype=bool)
        desc = vision.hog_descriptor(img, mask)
        assert np.all(desc == 0.0)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            vision.hog_descriptor(np.zeros((32, 32)), np.zeros((32, 32), dtype=bool))

    def test_matches_per_pixel_oracle_and_rotation(self):
        # independent per-pixel gradient histogram oracle, and the cell
        # permutation + 4-bin rotation between an image and its 90-degree
        # rotated copy
        rng = np.random.default_rng(7)
        size, nb = 128, 8
        xs, ys = np.meshgrid(np.arange(size), np.arange(size))
        img = np.zeros((size, size))
        for _ in range(6):
            cx, cy, s, a = rng.uniform(20, 108), rng.uniform(20, 108), \
                rng.uniform(8, 25), rng.uniform(0.5, 1.5)
            img += a * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * s * s))
        mask = np.ones((size, size), dtype=bool)

        def oracle(image):
            padded = np.pad(image, 1, mode="edge")
            out = []
            for g in (4, 8, 16):
                cell = size // g
                hist = np.zeros((g, g, nb))
                for i in range(size):
                    for j in range(size):
                        gx = (padded[i + 1, j + 2] - padded[i + 1, j]) / 2.0
                        gy = (padded[i + 2, j + 1] - padded[i, j + 1]) / 2.0
                        mag = math.hypot(gx, gy)
                        theta = math.atan2(gy, gx) % math.pi
                        b = min(int(theta / math.pi * nb), nb - 1)
                        hist[i // cell, j // cell, b] += mag
                vec = hist.ravel()
                out.append(vec / (np.linalg.norm(vec) + 1e-6))
            return np.concatenate(out), [np.zeros(0)]

        d1 = vision.hog_descriptor(img, mask)
        o1, _ = oracle(img)
        np.testing.assert_allclose(d1, o1, atol=1e-12)

        rot = np.rot90(img).copy()
        d2 = vision.hog_descriptor(rot, mask)
        o2, _ = oracle(rot)
        np.testing.assert_allclose(d2, o2, atol=1e-12)

        # relation: cell (i,j) of the rotated image is cell (j, g-1-i) of the
        # original with orientation bins shifted by nb/2
        offset = 0
        for g in (4, 8, 16):
            block1 = d1[offset:offset + g * g * nb].reshape(g, g, nb)
            block2 = d2[offset:offset + g * g * nb].reshape(g, g, nb)
            expected = np.zeros_like(block2)
            for i in range(g):
                for j in range(g):
                    expected[i, j] = np.roll(block1[j, g - 1 - i], nb // 2)
            np.testing.assert_allclose(block2, expected, atol=1e-10)
            offset += g * g * nb

    def test_position_invariance_via_bounding_box(self):
        rng = np.random.default_rng(3)
        patch = rng.random((40, 40))
        frame1 = np.zeros((128, 160))
        frame2 = np.zeros((128, 160))
        mask1 = np.zeros((128, 160), dtype=bool)
        mask2 = np.zeros((128, 160), dtype=bool)
        frame1[10:50, 20:60] = patch
        mask1[10:50, 20:60] = True
        frame2[70:110, 100:140] = patch
        mask2[70:110, 100:140] = True
        d1 = vision.hog_descriptor(frame1, mask1)
        d2 = vision.hog_descriptor(frame2, mask2)
        np.testing.assert_allclose(d1, d2, atol=1e-12)


class TestPca:
    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 5))
        model = vision.fit_pca(x, 5)
        proj = vision.apply_pca(model, x)
        recon = proj @ model.components + model.mean
        np.testing.assert_allclose(recon, x, atol=1e-8)

    def test_variances_non_increasing_and_orthonormal(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(40, 8)) * np.arange(1, 9)
        model = vision.fit_pca(x, 6)
        assert all(a >= b - 1e-12 for a, b in zip(model.variances, model.variances[1:]))
        gram = model.components @ model.components.T
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-8)

    def test_toy_matrix_against_closed_form(self):
        x = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 2.0]])
        mean = x.mean(axis=0)
        c = (x - mean).T @ (x - mean) / 2.0
        # closed-form 2x2 eigensolver
        tr, det = c[0, 0] + c[1, 1], c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]
        disc = math.sqrt(tr * tr / 4 - det)
        lam1, lam2 = tr / 2 + disc, tr / 2 - disc
        v1 = np.array([c[0, 1], lam1 - c[0, 0]])
        v1 /= np.linalg.norm(v1)
        model = vision.fit_pca(x, 2)
        assert model.variances[0] == pytest.approx(lam1, abs=1e-10)
        assert model.variances[1] == pytest.approx(lam2, abs=1e-10)
        assert abs(np.dot(model.components[0], v1)) == pytest.approx(1.0, abs=1e-10)
        proj = vision.apply_pca(model, x)
        oracle = (x - mean) @ np.column_stack([v1 * np.sign(np.dot(model.components[0], v1)),
                                               model.components[1]])
        np.testing.assert_allclose(proj, oracle, atol=1e-8)

    def test_mean_projects_to_zero(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(15, 6))
        model = vision.fit_pca(x, 3)
        np.testing.assert_allclose(vision.apply_pca(model, x.mean(axis=0)),
                                   np.zeros(3), atol=1e-9)

    def test_k_out_of_range(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 6))
        with pytest.raises(ValueError):
            vision.fit_pca(x, 5)  # k > n-1
        with pytest.raises(ValueError):
            vision.fit_pca(x[:1], 1)


class TestTemporal:
    def test_window_identity(self):
        seq = np.arange(20.0).reshape(5, 4)
        np.testing.assert_array_equal(vision.stack_window(seq, 2, 1), seq[2])

    def test_window_2688(self):
        seq = np.zeros((30, 128))
        assert vision.stack_window(seq, 10, 21).shape == (2688,)

    def test_window_replicate_padding(self):
        seq = np.arange(12.0).reshape(4, 3)
        w = vision.stack_window(seq, 0, 3)
        np.testing.assert_array_equal(w[:3], seq[0])
        np.testing.assert_array_equal(w[3:6], seq[0])
        np.testing.assert_array_equal(w[6:], seq[1])

    def test_window_must_be_odd(self):
        with pytest.raises(ValueError):
            vision.stack_window(np.zeros((5, 2)), 1, 4)
        with pytest.raises(ValueError, match="odd"):
            vision.stack_windows(np.zeros((5, 2)), 4)

    @pytest.mark.parametrize("t_len, w", [(3, 5), (1, 21), (7, 1), (30, 21), (12, 5)])
    def test_windows_equal_per_frame_stacks(self, t_len, w):
        seq = np.random.default_rng(t_len).normal(size=(t_len, 4))
        expected = np.stack([vision.stack_window(seq, t, w) for t in range(t_len)])
        assert np.array_equal(vision.stack_windows(seq, w), expected)

    def test_windows_of_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty sequence"):
            vision.stack_windows(np.zeros((0, 4)), 5)
