"""Deterministic synthetic fingerspelling corpus generator.

Each word becomes a descriptor sequence with a begin silence, one segment
per letter, and an end silence.  Letter segments carry a target descriptor
derived from the letter's phonetic table row; frames interpolate between
neighboring targets with a smoothstep dwell, so motion (the descriptor
derivative) is minimal exactly at each segment's peak of articulation and
the smoothed-derivative curve has a single interior minimum per segment.

Signer variation: a per-signer duration scale (speed), a random orthogonal
appearance transform plus bias on descriptor space, hand color (for image
mode), and the amplitude/length of the non-signing motion at the edges.
Orthogonal transforms preserve frame-to-frame distances, so the peak
structure survives the signer mapping.  Extra variation comes from
constant-step "wobble" channels (random walks on circles) whose increments
have constant norm, and from per-segment target jitter; optional iid frame
noise is available but defaults low enough not to disturb the peaks.

All randomness derives from per-word-instance seeds spawned from the
corpus seed by a (signer index, word index, repetition) key, so any word
regenerates bit-identically from the manifest.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .alphabet import (BEGIN_SILENCE, END_SILENCE, SILENCES, LetterAlphabet,
                       PhoneticFeatureTable)
from .fileio import (DataError, FieldError, check_fields, in_file, read_matrix, read_model,
                     write_json, write_matrix)
from .scrf import smoothed_derivative
from .segments import Segment, check_tiling, from_jsonable, letters_only, to_jsonable

TOUCH_CODES = {"-": -1.0, "i": -0.6, "m": -0.2, "m/i": 0.2, "p": 0.6, "r": 1.0}
PALM_CODES = {"for": -1.0, "in": 0.0, "dwn": 1.0}
POSE_DIM = 14
WOBBLE_AMPLITUDE = 0.25       # radius of each wobble channel's circle
HAND_AREA_FRACTION = 0.06     # the hand blob's share of a rendered frame


def letter_target(row):
    """Numeric pose vector for one phonetic table row, roughly in [-1, 1]."""
    fingers = [(a - 135.0) / 45.0 for a in row.finger_angles()]
    return np.array(fingers + [
        row.spread,
        row.thumb_z / 90.0,
        (row.thumb_pip - 45.0) / 45.0,
        (row.thumb_touch - 135.0) / 45.0,
        TOUCH_CODES[row.touch_finger],
        PALM_CODES[row.palm],
    ])


def rest_pose(which):
    """Hand-at-rest targets for the begin/end silences, outside the letter
    cloud (palm-code dimension pushed past any letter value)."""
    pose = np.full(POSE_DIM, 0.4)
    pose[-1] = 3.0 if which == BEGIN_SILENCE else 3.4
    return pose


@dataclass
class SyntheticSigner:
    signer_id: str
    speed: float                  # duration scale; > 1 signs slower
    rotation: np.ndarray          # orthogonal map on descriptor space
    bias: np.ndarray
    hand_color: tuple             # RGB in [0, 1], image mode
    nonsigning_amplitude: float
    nonsigning_frames: tuple      # (lo, hi) inclusive range
    noise_level: float = 0.003    # iid per-frame descriptor noise

    def __post_init__(self):
        if self.speed <= 0:
            raise ValueError("speed factor must be positive")
        if self.noise_level < 0:
            raise ValueError("noise level must be non-negative")


@dataclass
class GeneratorConfig:
    letter_duration: tuple[float, float] = (8.0, 14.0)   # pre-speed sampling range
    doubled_scale: float = 1.7
    jitter: float = 0.06                   # per-segment target jitter
    wobble_circles: int = in_file(default=3, at_least=0)
    wobble_step: float = 0.5               # radians per frame
    dwell_ramp: float = 4.0                # frames over which motion resumes
    peak_hold: int = 2                     # frames the target pose is held
    min_transition: float = 1.3            # motion floor between peaks
    appearance_strength: float = 1.0
    bias_strength: float = 0.4
    speed_ratio: float = in_file(default=1.8, above=0)
    image_size: tuple[int, int] = in_file(default=(48, 64), at_least=1)   # (H, W)

    def __post_init__(self):
        check_fields(self)
        low, high = self.letter_duration
        if low > high:
            raise FieldError("letter_duration", "a range with low <= high",
                             self.letter_duration)


@dataclass
class SyntheticWord:
    word: str
    signer_id: str
    labels: list                  # unit labels incl. boundary silences
    segments: list                # Segment list tiling the frames
    peaks: list                   # one peak frame per unit
    descriptors: np.ndarray       # (T, D)
    raw_durations: list           # pre-clamp letter durations (floats)
    seed_key: tuple
    path: str = field(default=None, compare=False)   # the .fmat it was read from

    @property
    def num_frames(self):
        return len(self.descriptors)

    @property
    def letters(self):
        return letters_only(self.labels)


def descriptor_dim(cfg):
    return POSE_DIM + 2 * cfg.wobble_circles


def make_signers(count, seed, cfg=None):
    """Signers with speeds spanning cfg.speed_ratio and per-signer random
    orthogonal appearance transforms."""
    cfg = cfg or GeneratorConfig()
    dim = descriptor_dim(cfg)
    r = cfg.speed_ratio
    speeds = np.geomspace(1.0 / math.sqrt(r), math.sqrt(r), count) if count > 1 \
        else np.array([1.0])
    signers = []
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0x516, i)))
        g = rng.normal(size=(dim, dim))
        skew = (g - g.T) / 2.0
        rotation = expm(cfg.appearance_strength * skew)
        bias = cfg.bias_strength * rng.normal(size=dim)
        hue = i / max(count, 1)
        hand_color = (0.55 + 0.4 * math.cos(2 * math.pi * hue),
                      0.35 + 0.25 * math.sin(2 * math.pi * hue),
                      0.30 + 0.15 * math.cos(2 * math.pi * hue + 1.3))
        signers.append(SyntheticSigner(
            signer_id="S%d" % (i + 1),
            speed=float(speeds[i]),
            rotation=rotation,
            bias=bias,
            hand_color=tuple(np.clip(hand_color, 0.05, 0.95)),
            nonsigning_amplitude=0.8 + 0.2 * (i % 3),
            nonsigning_frames=(11, 16),
        ))
    return signers


def _smoothstep(u):
    return u * u * (3.0 - 2.0 * u)


def generate_word(word, signer, seed_key, cfg=None, alphabet=None, table=None):
    """One synthetic word token; bit-identical for identical arguments."""
    cfg = cfg or GeneratorConfig()
    alphabet = alphabet or LetterAlphabet()
    table = table or PhoneticFeatureTable()
    if not word:
        raise ValueError("empty word")
    tokens = alphabet.tokenize(word)
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))

    lo, hi = cfg.letter_duration
    raw = []
    for tok, base in zip(tokens, rng.uniform(lo, hi, len(tokens)).tolist()):
        if len(tok) == 2:  # doubled letter: one prolonged articulation
            base *= cfg.doubled_scale
        raw.append(base * signer.speed)
    durations = [min(max(round(d), 2), 40) for d in raw]
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

    bases = np.array([rest_pose(u) if u in SILENCES else
                      letter_target(table.phonetic_values(u[0] * 2 if len(u) == 2 else u))
                      for u in units])
    targets = bases + cfg.jitter * rng.normal(size=bases.shape)

    amp = signer.nonsigning_amplitude
    pre = targets[0] + amp * _unit(rng.normal(size=POSE_DIM))
    post = targets[-1] + amp * _unit(rng.normal(size=POSE_DIM))
    # each articulation holds its target pose around the peak, so the only
    # motion there is the wobble dip centered on the peak; holds shrink when
    # neighboring peaks are close, keeping a real transition in between.
    # Knots name their pose by its row in ``poses``: pre, one per unit, post.
    poses = np.vstack([pre, targets, post])
    knot_t, knot_x = [0], [0]
    bounds = [0] + peaks + [t_len - 1]
    for i, p in enumerate(peaks):
        gap_prev = p - bounds[i]
        gap_next = bounds[i + 2] - p
        hold_l = min(cfg.peak_hold, max(0, (gap_prev - 3) // 2))
        hold_r = min(cfg.peak_hold, max(0, (gap_next - 3) // 2))
        knot_t.extend([p - hold_l, p + hold_r])
        knot_x.extend([i + 1, i + 1])
    knot_t.append(t_len - 1)
    knot_x.append(len(poses) - 1)
    # enforce strictly increasing knot times (tight gaps collapse the hold)
    ktimes, kvals = [0], [knot_x[0]]
    for t, x in zip(knot_t[1:], knot_x[1:]):
        t = min(max(t, ktimes[-1] + 1), t_len - 1)
        if t <= ktimes[-1]:
            kvals[-1] = x
        else:
            ktimes.append(t)
            kvals.append(x)
    # frame t < t_len - 1 lies on the interval [a, b) with a <= t < b, so a
    # shared knot takes the later interval's pose
    xa = poses[kvals[:-1]]
    delta = poses[kvals[1:]] - xa
    kt = np.asarray(ktimes)
    span = np.repeat(np.arange(len(kt) - 1), np.diff(kt))
    s = _smoothstep((np.arange(t_len - 1) - kt[span]) / (kt[span + 1] - kt[span]))
    pose = np.empty((t_len, POSE_DIM))
    pose[:-1] = xa[span] + s[:, None] * delta[span]
    pose[-1] = poses[kvals[-1]]
    # transitions with too little motion (repeated letters, short edge
    # moves) get a circular bounce orthogonal to the direct path, paced by
    # the same smoothstep so motion still dips only at the knots
    for k, d in enumerate(delta):
        dist_ab = _norm(d)
        a, b = ktimes[k], ktimes[k + 1]
        if kvals[k] != kvals[k + 1] and dist_ab < cfg.min_transition and b - a >= 3:
            e1 = _unit(_orthogonalize(rng.normal(size=POSE_DIM), d))
            e2 = _unit(_orthogonalize(rng.normal(size=POSE_DIM), d, e1))
            radius = 0.5 * (cfg.min_transition - dist_ab)
            psi = (2.0 * math.pi * s[a:b]).tolist()
            sin = np.array([math.sin(v) for v in psi])
            cos = np.array([math.cos(v) for v in psi])
            pose[a:b] += radius * (sin[:, None] * e1 + (1.0 - cos)[:, None] * e2)

    # wobble channels: random walks on circles whose angular step (hence
    # increment norm) shrinks near articulation peaks, so all motion dips
    # exactly at each segment's peak and the derivative stays V-shaped
    mids = np.arange(t_len - 1) + 0.5
    dist = np.min(np.abs(mids[:, None] - np.asarray(peaks)[None, :]), axis=1)
    dwell = 0.35 + 0.65 * np.minimum(1.0, dist / cfg.dwell_ramp)
    theta = np.empty((cfg.wobble_circles, 1))
    signs = np.empty((cfg.wobble_circles, t_len - 1))
    for c in range(cfg.wobble_circles):
        theta[c] = rng.uniform(0, 2 * math.pi)
        signs[c] = rng.choice([-1.0, 1.0], size=t_len - 1)
    steps = np.zeros((cfg.wobble_circles, t_len))
    np.cumsum(signs * cfg.wobble_step * dwell, axis=1, out=steps[:, 1:])
    angles = theta + steps
    wobble = np.empty((t_len, 2 * cfg.wobble_circles))
    wobble[:, 0::2] = (WOBBLE_AMPLITUDE * np.cos(angles)).T
    wobble[:, 1::2] = (WOBBLE_AMPLITUDE * np.sin(angles)).T

    desc = np.concatenate([pose, wobble], axis=1)
    if signer.noise_level > 0:
        desc = desc + signer.noise_level * rng.normal(size=desc.shape)
    desc = desc @ signer.rotation.T + signer.bias

    # ground-truth boundaries sit at the maximum-motion frame between
    # consecutive peaks, so each segment brackets its own motion dip
    curve = smoothed_derivative(desc)
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
    starts = [0] + [m + 1 for m in cuts]
    ends = cuts + [t_len - 1]
    segments = [Segment(u, s, e) for u, s, e in zip(units, starts, ends)]

    check_tiling(segments, t_len)
    return SyntheticWord(word=word, signer_id=signer.signer_id, labels=list(units),
                         segments=segments, peaks=peaks, descriptors=desc,
                         raw_durations=raw, seed_key=tuple(seed_key))


def _norm(v):
    """``np.linalg.norm`` of a float vector (the same bits), without its
    argument handling."""
    return math.sqrt(v.dot(v))


def _unit(v):
    n = _norm(v)
    return v / n if n > 0 else v


def _orthogonalize(v, *others):
    for o in others:
        n = _norm(o)
        if n > 0:
            v = v - (np.dot(v, o) / (n * n)) * o
    return v


@dataclass
class Corpus:
    words: list                   # SyntheticWord instances
    word_list: list
    seed: int
    repetitions: int


def generate_corpus(word_list, signers, seed, repetitions=2, cfg=None):
    """Every word spelled ``repetitions`` times by every signer, with
    per-token seeds spawned from (seed, signer index, word index, rep)."""
    if not word_list:
        raise ValueError("empty word list")
    cfg = cfg or GeneratorConfig()
    alphabet = LetterAlphabet()
    table = PhoneticFeatureTable()
    words = []
    for si, signer in enumerate(signers):
        for wi, word in enumerate(word_list):
            for rep in range(repetitions):
                key = (seed, si, wi, rep)
                words.append(generate_word(word, signer, key, cfg, alphabet, table))
    return Corpus(words, list(word_list), seed, repetitions)


# ---------------------------------------------------------------------------
# Corpus on disk: manifest + binary descriptor matrices + ground truth

def save_corpus(corpus, directory):
    """Write ``corpus`` to ``directory``: for each word a ``<stem>.fmat`` of
    its descriptors and a ``<stem>.json`` of everything else, then
    ``manifest.json``.  Returns the stems, ``<signer>_w<index>`` in word
    order."""
    os.makedirs(directory, exist_ok=True)
    entries = []
    for i, w in enumerate(corpus.words):
        stem = "%s_w%04d" % (w.signer_id, i)
        write_matrix(os.path.join(directory, stem + ".fmat"), w.descriptors)
        write_json(os.path.join(directory, stem + ".json"), {
            "word": w.word,
            "signer": w.signer_id,
            "labels": w.labels,
            "segments": to_jsonable(w.segments),
            "peaks": w.peaks,
            "raw_durations": w.raw_durations,
            "seed_key": list(w.seed_key),
        })
        entries.append({"stem": stem, "word": w.word, "signer": w.signer_id,
                        "seed_key": list(w.seed_key)})
    write_json(os.path.join(directory, "manifest.json"), {
        "seed": corpus.seed,
        "signers": list(dict.fromkeys(w.signer_id for w in corpus.words)),
        "word_list": corpus.word_list,
        "repetitions": corpus.repetitions,
        "entries": entries,
    })
    return [e["stem"] for e in entries]


def read_manifest(directory):
    """The corpus manifest; refuses one whose ``signers`` is not a non-empty
    list of strings, ``seed`` not an integer, ``word_list`` not a list of
    strings, ``repetitions`` not an integer of at least 1, or without a list
    of ``entries`` that each name their word's files by a string ``stem``
    (DataError naming the file)."""
    def strings(value):
        return isinstance(value, list) and all(isinstance(v, str) for v in value)

    def integer(value):
        return isinstance(value, int) and not isinstance(value, bool)

    def checked(manifest):
        for key, ok, what in (
                ("signers", lambda v: strings(v) and len(v) > 0, "a non-empty list of strings"),
                ("seed", integer, "an integer"),
                ("word_list", strings, "a list of strings"),
                ("repetitions", lambda v: integer(v) and v >= 1, "an integer >= 1")):
            if not ok(manifest[key]):
                raise ValueError("%s must be %s, got %r" % (key, what, manifest[key]))
        if not all(isinstance(e["stem"], str) for e in manifest["entries"]):
            raise ValueError("an entry's stem is not a string")
        return manifest
    return read_model(os.path.join(directory, "manifest.json"), checked)


def load_corpus(directory):
    """The corpus in ``directory`` and its words' stems, in manifest order.

    Refuses a manifest ``read_manifest`` refuses, a word whose metadata is
    incomplete, whose segments do not tile its descriptor frames or whose
    ``labels`` are not its segments' labels, and a manifest entry whose
    ``word``, ``signer`` or ``seed_key`` is not the one in its word's
    ``.json`` (DataError naming the file)."""
    manifest = read_manifest(directory)
    words = []
    for entry in manifest["entries"]:
        stem = os.path.join(directory, entry["stem"])
        desc = read_matrix(stem + ".fmat")
        w = read_model(stem + ".json", lambda meta: SyntheticWord(
            word=meta["word"], signer_id=meta["signer"], labels=meta["labels"],
            segments=check_tiling(from_jsonable(meta["segments"]), len(desc)),
            peaks=meta["peaks"], descriptors=desc, raw_durations=meta["raw_durations"],
            seed_key=tuple(meta["seed_key"]), path=stem + ".fmat"))
        if [s.label for s in w.segments] != w.labels:
            raise DataError("%s.json: labels %s are not its segments' labels %s" % (
                stem, w.labels, [s.label for s in w.segments]))
        for key, value in (("word", w.word), ("signer", w.signer_id),
                           ("seed_key", list(w.seed_key))):
            if entry.get(key) != value:
                raise DataError("%s: entry %s has %s %r, its .json %r" % (
                    os.path.join(directory, "manifest.json"), entry["stem"], key,
                    entry.get(key), value))
        words.append(w)
    corpus = Corpus(words, manifest["word_list"], manifest["seed"], manifest["repetitions"])
    return corpus, [e["stem"] for e in manifest["entries"]]


# ---------------------------------------------------------------------------
# Image mode

def render_frames(synth_word, signer, cfg=None):
    """Toy frames: background plus an elliptical hand blob whose orientation
    and eccentricity encode the frame's pose; returns (frames, masks) with
    frames uint8 RGB and masks boolean."""
    cfg = cfg or GeneratorConfig()
    h, w = cfg.image_size
    rng = np.random.default_rng(np.random.SeedSequence(tuple(synth_word.seed_key) + (0x1A6E,)))
    area = HAND_AREA_FRACTION * h * w
    frames = []
    masks = []
    yy, xx = np.mgrid[0:h, 0:w]
    bg = np.array([0.16, 0.22, 0.30])
    hand = np.array(signer.hand_color)
    for t in range(synth_word.num_frames):
        d = synth_word.descriptors[t]
        angle = 0.9 * math.atan(d[0])
        ratio = 1.6 + 0.8 * math.tanh(d[1])
        a = math.sqrt(area * ratio / math.pi)
        b = area / (math.pi * a)
        cy = h / 2 + 2.0 * math.tanh(d[2])
        cx = w / 2 + 3.0 * math.tanh(d[3])
        ca, sa = math.cos(angle), math.sin(angle)
        u = (xx - cx) * ca + (yy - cy) * sa
        v = -(xx - cx) * sa + (yy - cy) * ca
        mask = (u / a) ** 2 + (v / b) ** 2 <= 1.0
        img = np.empty((h, w, 3))
        img[:] = bg
        img[mask] = hand
        img += 0.015 * rng.normal(size=img.shape)
        frames.append((np.clip(img, 0, 1) * 255).astype(np.uint8))
        masks.append(mask)
    return frames, masks
