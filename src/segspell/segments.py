"""Labeled segmentations of frame sequences, and lattices of them.

A segmentation is an ordered list of ``Segment(label, start, end)`` with
``end`` inclusive; consecutive segments must tile the frame range exactly.
A lattice is a list of scored (labels, segmentation) hypotheses, saved as
JSON lines, one hypothesis per line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .alphabet import SILENCES
from .fileio import DataError, atomic_write_text, open_input, refuse_non_finite


@dataclass(frozen=True)
class Segment:
    label: str
    start: int
    end: int  # inclusive

    @property
    def duration(self):
        return self.end + 1 - self.start

    def span(self):
        return (self.start, self.end)


class TilingError(ValueError):
    pass


class NoPathError(RuntimeError):
    """No path of a search, HMM or segmental, fits the sequence; the command
    line exits 3.  ``pipeline.each_word`` sets ``word`` to the word searched,
    and the message then starts with that word's file."""
    exit_code = 3
    word = None

    def __str__(self):
        path = getattr(self.word, "path", None)
        return super().__str__() if path is None else "%s: %s" % (path, super().__str__())


def check_tiling(segments, num_frames):
    """``segments``; TilingError unless they tile [0, num_frames) exactly."""
    if not segments:
        raise TilingError("empty segmentation for %d frames" % num_frames)
    if segments[0].start != 0:
        raise TilingError("segmentation starts at %d, not 0" % segments[0].start)
    for prev, cur in zip(segments, segments[1:]):
        if cur.start != prev.end + 1:
            raise TilingError("gap/overlap between %r and %r" % (prev, cur))
    for seg in segments:
        if seg.end < seg.start:
            raise TilingError("empty segment %r" % (seg,))
    if segments[-1].end != num_frames - 1:
        raise TilingError("segmentation ends at %d, expected %d"
                          % (segments[-1].end, num_frames - 1))
    return segments


def frame_labels(segments, num_frames):
    """Expand a segmentation to one label per frame."""
    check_tiling(segments, num_frames)
    out = []
    for seg in segments:
        out.extend([seg.label] * seg.duration)
    return out


def letters_only(labels):
    """Drop the boundary-silence labels ``<s>`` and ``</s>`` from a label
    sequence."""
    return [l for l in labels if l not in SILENCES]


def to_jsonable(segments):
    return [[s.label, s.start, s.end] for s in segments]


def from_jsonable(items):
    return [Segment(str(l), int(a), int(b)) for l, a, b in items]


# ---------------------------------------------------------------------------
# Lattices

@dataclass
class Hypothesis:
    labels: list
    segments: list
    score: float

    @property
    def letters(self):
        return letters_only(self.labels)


@dataclass
class CandidateLattice:
    hypotheses: list
    baseline_frames: list

    def __post_init__(self):
        if not self.hypotheses:
            raise ValueError("empty lattice")


def lattice_from_hypotheses(hyps, num_frames):
    return CandidateLattice(hyps, frame_labels(hyps[0].segments, num_frames))


def lattice_from_ranked(labels, ranked, num_frames):
    """CandidateLattice from ``scrf.nbest_segmentations`` output; NoPathError if empty."""
    if not ranked:
        raise NoPathError("no legal segmentation of %d frames" % num_frames)
    hyps = []
    for score, spans in ranked:
        segs = [Segment(labels[li], start, end) for li, start, end in spans]
        hyps.append(Hypothesis([s.label for s in segs], segs, score))
    return lattice_from_hypotheses(hyps, num_frames)


def save_lattice(path, lattice):
    lines = [json.dumps({"labels": h.labels, "spans": to_jsonable(h.segments),
                         "score": h.score}, sort_keys=True)
             for h in lattice.hypotheses]
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_lattice(path, num_frames=None):
    """Refuses a file without hypotheses, a line without ``spans`` or
    ``score``, and a hypothesis that does not tile the frames of the first
    one, or ``num_frames`` frames when given (DataError naming the file)."""
    hyps = []
    with open_input(path, "rb") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line, parse_constant=refuse_non_finite("the line"))
                segs = from_jsonable(obj["spans"])
                num_frames = num_frames or segs[-1].end + 1
                check_tiling(segs, num_frames)
                hyps.append(Hypothesis([s.label for s in segs], segs, float(obj["score"])))
            except (IndexError, KeyError, OverflowError, TypeError, ValueError) as e:
                raise DataError("%s line %d: not a lattice hypothesis (%s)"
                                % (path, lineno, e)) from None
    if not hyps:
        raise DataError("%s: no lattice hypotheses" % path)
    return lattice_from_hypotheses(hyps, num_frames)
