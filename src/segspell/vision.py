"""Hand segmentation and descriptor extraction.

Pipeline pieces: a color model scoring pixels as hand vs background, mask
cleanup with largest-connected-component selection, gradient-orientation
histograms over a three-level spatial pyramid (2688 dims), PCA reduction,
and multi-frame window stacking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .fileio import shaped_array

LOG_2PI = float(np.log(2.0 * np.pi))


def diag_gaussian_logpdf(x, means, variances):
    """log N(x; means, diag(variances)) over the last axis; the three
    broadcast against each other.  The squared differences are divided in
    place, as the HMM's emissions need at their (frames, states,
    components, dim) size."""
    diff = x - means
    np.square(diff, out=diff)
    diff /= variances
    return -0.5 * (np.sum(diff, axis=-1) + np.sum(np.log(variances), axis=-1)
                   + means.shape[-1] * LOG_2PI)


# ---------------------------------------------------------------------------
# Color space

def rgb_to_lab(image):
    """sRGB uint8/float image (H, W, 3) -> L*a*b float array."""
    rgb = np.asarray(image, dtype=np.float64)
    if rgb.max() > 1.0:
        rgb = rgb / 255.0
    # sRGB -> linear RGB
    lin = np.where(rgb <= 0.04045, rgb / 12.92, ((rgb + 0.055) / 1.055) ** 2.4)
    m = np.array([[0.4124564, 0.3575761, 0.1804375],
                  [0.2126729, 0.7151522, 0.0721750],
                  [0.0193339, 0.1191920, 0.9503041]])
    xyz = lin @ m.T
    white = np.array([0.95047, 1.0, 1.08883])
    xyz = xyz / white
    eps, kappa = 216.0 / 24389.0, 24389.0 / 27.0
    f = np.where(xyz > eps, np.cbrt(xyz), (kappa * xyz + 16.0) / 116.0)
    lab = np.empty_like(xyz)
    lab[..., 0] = 116.0 * f[..., 1] - 16.0
    lab[..., 1] = 500.0 * (f[..., 0] - f[..., 1])
    lab[..., 2] = 200.0 * (f[..., 1] - f[..., 2])
    return lab


def polygon_mask(vertices, shape):
    """Rasterize a polygon (list of (row, col)) into a binary mask
    using the even-odd rule at pixel centers."""
    verts = np.asarray(vertices, dtype=np.float64)
    h, w = shape
    rows, cols = np.mgrid[0:h, 0:w]
    px = cols + 0.0
    py = rows + 0.0
    inside = np.zeros(shape, dtype=bool)
    n = len(verts)
    for i in range(n):
        y0, x0 = verts[i]
        y1, x1 = verts[(i + 1) % n]
        cond = (py < max(y0, y1)) & (py >= min(y0, y1))
        if y1 != y0:
            xint = x0 + (py - y0) * (x1 - x0) / (y1 - y0)
            inside ^= cond & (px < xint)
    return inside


# ---------------------------------------------------------------------------
# Diagonal-covariance Gaussian mixture (hand color model)

@dataclass
class DiagGmm:
    weights: np.ndarray   # (K,)
    means: np.ndarray     # (K, D)
    variances: np.ndarray # (K, D)

    def log_density(self, x):
        """Componentwise log N summed over dims, logsumexp over components."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        ll = diag_gaussian_logpdf(x[:, None, :], self.means, self.variances)
        ll = ll + np.log(self.weights)[None]
        m = ll.max(axis=1)
        return m + np.log(np.sum(np.exp(ll - m[:, None]), axis=1))


def _kmeans_init(x, k):
    # deterministic: centers at evenly spaced quantiles along the first axis
    order = np.argsort(x[:, 0], kind="stable")
    idx = [order[int(round(q * (len(order) - 1)))] for q in np.linspace(0.05, 0.95, k)]
    centers = x[idx].astype(np.float64)
    for _ in range(10):
        d2 = ((x[:, None, :] - centers[None]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        for j in range(k):
            sel = x[assign == j]
            if len(sel):
                centers[j] = sel.mean(axis=0)
    return centers, assign


def fit_diag_gmm(x, k, var_floor):
    """Diagonal GMM of the rows of ``x``: k-means start, 20 EM iterations."""
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    k = min(k, n)
    centers, assign = _kmeans_init(x, k)
    weights = np.array([(assign == j).mean() for j in range(k)])
    weights = np.maximum(weights, 1e-6)
    weights /= weights.sum()
    variances = np.empty((k, d))
    for j in range(k):
        sel = x[assign == j]
        variances[j] = sel.var(axis=0) if len(sel) > 1 else x.var(axis=0)
    variances = np.maximum(variances, var_floor)
    gmm = DiagGmm(weights, centers, variances)
    for _ in range(20):
        ll = (diag_gaussian_logpdf(x[:, None, :], gmm.means, gmm.variances)
              + np.log(gmm.weights)[None])
        m = ll.max(axis=1, keepdims=True)
        resp = np.exp(ll - m)
        resp /= resp.sum(axis=1, keepdims=True)
        nk = resp.sum(axis=0)
        gmm.weights = np.maximum(nk / n, 1e-9)
        gmm.weights /= gmm.weights.sum()
        gmm.means = (resp.T @ x) / np.maximum(nk[:, None], 1e-12)
        sq = resp.T @ (x * x)
        gmm.variances = np.maximum(sq / np.maximum(nk[:, None], 1e-12)
                                   - gmm.means ** 2, var_floor)
    return gmm


VAR_FLOOR = 1e-4   # of the hand color model's variances


@dataclass
class HandColorModel:
    hand_gmm: DiagGmm
    bg_mean: np.ndarray       # (H, W, 3)
    bg_var: np.ndarray        # (H, W, 3)
    prior_hand: float
    hand_logdensity_floor: float

    def hand_log_density(self, lab_pixels):
        return self.hand_gmm.log_density(lab_pixels)

    def bg_log_density(self, lab_image):
        return diag_gaussian_logpdf(lab_image, self.bg_mean, self.bg_var)


def fit_hand_color_model(frames, rois):
    """Fit the hand/background color model from annotated frames.

    ``frames`` are RGB images; ``rois`` give the hand region per frame as a
    binary mask or as polygon vertices.  The hand model is a 3-component
    diagonal GMM of the annotated pixels.  The background model is a single
    Gaussian per pixel fit over frames where that pixel is not in or near
    (within 5 pixels of) a hand region.  The hand prior is the fraction of
    annotated hand pixels, and its density floor their 1st percentile.
    """
    if len(frames) == 0 or len(frames) != len(rois):
        raise ValueError("need matching non-empty frame and ROI lists")
    shape = np.asarray(frames[0]).shape[:2]
    labs, masks = [], []
    for frame, roi in zip(frames, rois):
        lab = rgb_to_lab(frame)
        roi = np.asarray(roi)
        mask = roi.astype(bool) if roi.ndim == 2 else polygon_mask(roi, shape)
        if not mask.any():
            raise ValueError("empty hand ROI")
        labs.append(lab)
        masks.append(mask)

    hand_pixels = np.concatenate([lab[m] for lab, m in zip(labs, masks)])
    hand_gmm = fit_diag_gmm(hand_pixels, 3, VAR_FLOOR)

    structure = np.ones((11, 11), dtype=bool)   # dilation by 5 pixels
    count = np.zeros(shape)
    acc = np.zeros(shape + (3,))
    acc2 = np.zeros(shape + (3,))
    for lab, m in zip(labs, masks):
        excl = ndimage.binary_dilation(m, structure=structure)
        keep = ~excl
        count += keep
        acc += lab * keep[..., None]
        acc2 += lab * lab * keep[..., None]
    # pixels never observed as background fall back to the global statistics
    global_mean = acc.sum(axis=(0, 1)) / np.maximum(count.sum(), 1.0)
    global_var = np.maximum(acc2.sum(axis=(0, 1)) / np.maximum(count.sum(), 1.0)
                            - global_mean ** 2, VAR_FLOOR)
    safe = np.maximum(count, 1.0)[..., None]
    bg_mean = acc / safe
    bg_var = np.maximum(acc2 / safe - bg_mean ** 2, VAR_FLOOR)
    missing = count < 2
    bg_mean[missing] = global_mean
    bg_var[missing] = global_var

    prior = float(np.mean([m.mean() for m in masks]))
    floor = float(np.percentile(hand_gmm.log_density(hand_pixels), 1.0))
    return HandColorModel(hand_gmm, bg_mean, bg_var, prior, floor)


def segment_hand(frame, model, exclusion_mask=None, signing_region=None):
    """Binary hand mask for one RGB frame.

    Pixels pass the prior-weighted odds test, then exclusion-mask pixels,
    low hand-density pixels and pixels outside the signing region are
    suppressed; the result is the largest 8-connected surviving component
    (all-false if nothing survives).
    """
    lab = rgb_to_lab(frame)
    h, w = lab.shape[:2]
    if model.bg_mean.shape[:2] != (h, w):
        raise ValueError("frame size %s does not match model %s"
                         % ((h, w), model.bg_mean.shape[:2]))
    log_hand = model.hand_log_density(lab.reshape(-1, 3)).reshape(h, w)
    log_bg = model.bg_log_density(lab)
    passed = (log_hand + np.log(model.prior_hand)
              > log_bg + np.log(1.0 - model.prior_hand))
    passed &= log_hand >= model.hand_logdensity_floor
    if exclusion_mask is not None:
        passed &= ~np.asarray(exclusion_mask, dtype=bool)
    if signing_region is not None:
        r0, c0, r1, c1 = signing_region
        region = np.zeros((h, w), dtype=bool)
        region[r0:r1, c0:c1] = True
        passed &= region
    return largest_component(passed)


def largest_component(mask):
    """Largest 8-connected component; ties go to the component whose
    topmost-leftmost pixel comes first in row-major order."""
    labels, n = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
    if n == 0:
        return np.zeros_like(mask, dtype=bool)
    sizes = ndimage.sum_labels(np.ones_like(labels), labels, index=np.arange(1, n + 1))
    best_size = sizes.max()
    candidates = [i + 1 for i, s in enumerate(sizes) if s == best_size]
    if len(candidates) == 1:
        return labels == candidates[0]
    flat = labels.ravel()
    firsts = {c: np.argmax(flat == c) for c in candidates}
    winner = min(candidates, key=lambda c: firsts[c])
    return labels == winner


# ---------------------------------------------------------------------------
# HOG pyramid descriptor

HOG_SIZE = 128            # side of the square the hand crop is resized to
HOG_GRIDS = (4, 8, 16)    # cells per side at each pyramid level
HOG_BINS = 8              # orientation bins over [0, pi)
HOG_EPSILON = 1e-6        # keeps an empty level's normalization finite
HOG_DIM = sum(g * g for g in HOG_GRIDS) * HOG_BINS   # 2688


def resize_bilinear(image, out_h, out_w):
    image = np.asarray(image, dtype=np.float64)
    in_h, in_w = image.shape[:2]
    ys = (np.arange(out_h) + 0.5) * in_h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * in_w / out_w - 0.5
    ys = np.clip(ys, 0, in_h - 1)
    xs = np.clip(xs, 0, in_w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    a = image[np.ix_(y0, x0)]
    b = image[np.ix_(y0, x1)]
    c = image[np.ix_(y1, x0)]
    d = image[np.ix_(y1, x1)]
    return (a * (1 - wy) * (1 - wx) + b * (1 - wy) * wx
            + c * wy * (1 - wx) + d * wy * wx)


def resize_nearest(image, out_h, out_w):
    image = np.asarray(image)
    in_h, in_w = image.shape[:2]
    ys = np.clip(((np.arange(out_h) + 0.5) * in_h / out_h).astype(int), 0, in_h - 1)
    xs = np.clip(((np.arange(out_w) + 0.5) * in_w / out_w).astype(int), 0, in_w - 1)
    return image[np.ix_(ys, xs)]


def hog_descriptor(frame, mask):
    """Pyramid of unsigned gradient-orientation histograms over the masked
    hand region, resized from its tight bounding box to the canonical size.

    Gradients are central differences with replicated edges; orientations in
    [0, pi) fall into hard bins; each pyramid level is L2-normalized as one
    block.  Pixels outside the mask contribute nothing.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("empty mask: no hand region to describe")
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim == 3:
        frame = frame.mean(axis=2)
    rows = np.where(mask.any(axis=1))[0]
    cols = np.where(mask.any(axis=0))[0]
    crop = frame[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    mcrop = mask[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    size = HOG_SIZE
    if crop.shape != (size, size):
        crop = resize_bilinear(crop, size, size)
        mcrop = resize_nearest(mcrop.astype(np.uint8), size, size).astype(bool)

    padded = np.pad(crop, 1, mode="edge")
    gx = (padded[1:-1, 2:] - padded[1:-1, :-2]) / 2.0
    gy = (padded[2:, 1:-1] - padded[:-2, 1:-1]) / 2.0
    mag = np.hypot(gx, gy)
    theta = np.arctan2(gy, gx) % np.pi
    nb = HOG_BINS
    bins = np.minimum((theta / np.pi * nb).astype(int), nb - 1)
    mag = mag * mcrop

    pieces = []
    for g in HOG_GRIDS:
        cell = size // g
        ci = np.arange(size) // cell
        hist = np.zeros((g, g, nb))
        np.add.at(hist, (ci[:, None].repeat(size, 1), ci[None, :].repeat(size, 0), bins), mag)
        vec = hist.ravel()
        norm = np.linalg.norm(vec)
        pieces.append(vec / (norm + HOG_EPSILON))
    return np.concatenate(pieces)


# ---------------------------------------------------------------------------
# PCA

@dataclass
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # (k, d), orthonormal rows
    variances: np.ndarray   # (k,), non-increasing

    def to_jsonable(self):
        return {"mean": self.mean.tolist(),
                "components": self.components.tolist(),
                "variances": self.variances.tolist()}

    @classmethod
    def from_jsonable(cls, obj):
        """Refuses arrays of disagreeing shapes (DataError)."""
        mean = shaped_array(obj["mean"], (None,), "mean")
        components = shaped_array(obj["components"], (None, len(mean)), "components")
        return cls(mean, components,
                   shaped_array(obj["variances"], (len(components),), "variances"))


def fit_pca(data, k):
    """Top-k eigenvectors of the sample covariance (rows = observations)."""
    x = np.asarray(data, dtype=np.float64)
    n, d = x.shape
    if n < 2:
        raise ValueError("need at least two observations")
    if not 1 <= k <= min(n - 1, d):
        raise ValueError("component count %d out of range [1, %d]" % (k, min(n - 1, d)))
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals, kind="stable")[::-1][:k]
    comps = vecs[:, order].T
    # deterministic sign: largest-magnitude coefficient of each row positive
    for row in comps:
        j = np.argmax(np.abs(row))
        if row[j] < 0:
            row *= -1.0
    return PcaModel(mean, comps, np.maximum(vals[order], 0.0))


def apply_pca(model, x):
    x = np.asarray(x, dtype=np.float64)
    return (x - model.mean) @ model.components.T


# ---------------------------------------------------------------------------
# Temporal operations

def stack_window(seq, t, w):
    """Concatenate frames t-(w-1)/2 .. t+(w-1)/2 with replicate padding."""
    if w % 2 != 1:
        raise ValueError("window size must be odd")
    seq = np.asarray(seq, dtype=np.float64)
    half = (w - 1) // 2
    idx = np.clip(np.arange(t - half, t + half + 1), 0, len(seq) - 1)
    return seq[idx].reshape(-1)


def stack_windows(seq, w):
    """All window stacks of a sequence, shape (T, w*d): one gather of the
    replicate-padded frame indices, row t equal to ``stack_window(seq, t, w)``."""
    if w % 2 != 1:
        raise ValueError("window size must be odd")
    seq = np.asarray(seq, dtype=np.float64)
    if len(seq) == 0:
        raise ValueError("cannot stack windows of an empty sequence")
    half = (w - 1) // 2
    idx = np.clip(np.arange(len(seq))[:, None] + np.arange(-half, half + 1),
                  0, len(seq) - 1)
    return seq[idx].reshape(len(seq), -1)
