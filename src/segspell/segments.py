"""Labeled segmentations of frame sequences.

A segmentation is an ordered list of ``Segment(label, start, end)`` with
``end`` inclusive; consecutive segments must tile the frame range exactly.
"""

from __future__ import annotations

from dataclasses import dataclass


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


def check_tiling(segments, num_frames):
    """Raise TilingError unless the segments tile [0, num_frames) exactly."""
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


def frame_labels(segments, num_frames):
    """Expand a segmentation to one label per frame."""
    check_tiling(segments, num_frames)
    out = []
    for seg in segments:
        out.extend([seg.label] * seg.duration)
    return out


def letters_only(labels, silences=("<s>", "</s>")):
    """Drop boundary-silence labels from a label sequence."""
    return [l for l in labels if l not in silences]


def labels_from_peaks(letters, peaks, signing_start, signing_end, num_frames):
    """Per-frame labels from letter peak positions.

    The boundary between consecutive letters is the midpoint between their
    peaks; an odd gap rounds the boundary toward the earlier letter.  Frames
    before ``signing_start`` / after ``signing_end`` are labeled as the
    begin/end silences.
    """
    if len(letters) != len(peaks):
        raise ValueError("need one peak per letter")
    if sorted(peaks) != list(peaks):
        raise ValueError("peaks must be increasing")
    out = ["<s>"] * num_frames
    bounds = [signing_start]
    for a, b in zip(peaks, peaks[1:]):
        bounds.append((a + b) // 2 + 1)
    bounds.append(signing_end + 1)
    for letter, lo, hi in zip(letters, bounds, bounds[1:]):
        for t in range(lo, hi):
            out[t] = letter
    for t in range(signing_end + 1, num_frames):
        out[t] = "</s>"
    return out


def to_jsonable(segments):
    return [[s.label, s.start, s.end] for s in segments]


def from_jsonable(items):
    return [Segment(str(l), int(a), int(b)) for l, a, b in items]
