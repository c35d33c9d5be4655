"""File formats: binary float matrices, PNG images, atomic writes, checked
JSON model files, the recording of the input files a run opens, and the
declaration and checking of config dataclass fields.

Matrix format (.fmat): little-endian header of 4 magic bytes ``FMAT``,
uint32 row count, uint32 column count, followed by the row-major float32
payload.

The PNG codec covers exactly what this package emits and consumes:
8-bit grayscale and 8-bit RGB, non-interlaced, every scanline unfiltered
(filter type 0) on write and on read.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import json
import math
import numbers
import os
import struct
import tempfile
import typing
import zlib
from dataclasses import MISSING, field, fields, is_dataclass

import numpy as np

MATRIX_MAGIC = b"FMAT"


class DataError(ValueError):
    """A data or model file is missing or does not hold what its reader
    expects; the command line exits 3."""
    exit_code = 3


_recorded_inputs = contextvars.ContextVar("recorded_inputs", default=None)


def open_input(path, mode="r"):
    """``open`` for a file the program reads as input: UTF-8 text unless
    ``mode`` is binary.  Inside ``recording_inputs`` the path is noted."""
    f = open(path, mode, encoding=None if "b" in mode else "utf-8")
    if _recorded_inputs.get() is not None:
        _recorded_inputs.get().append(path)
    return f


@contextlib.contextmanager
def recording_inputs():
    """The list of the paths ``open_input`` opens inside the block."""
    token = _recorded_inputs.set([])
    try:
        yield _recorded_inputs.get()
    finally:
        _recorded_inputs.reset(token)


def atomic_write_bytes(path, payload):
    """Write via temp file + rename so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text):
    atomic_write_bytes(path, text.encode("utf-8"))


def write_json(path, obj):
    """Refuses NaN and infinity (DataError naming the file) before anything
    is written."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as e:
        raise DataError("%s not written: %s" % (path, e)) from None
    atomic_write_text(path, text + "\n")


def refuse_non_finite(where):
    """A json ``parse_constant`` that refuses NaN and infinity with a
    DataError naming ``where``."""
    def refuse(constant):
        raise DataError("%s holds %s, not a finite number" % (where, constant))
    return refuse


def read_json(path, allow_nan=False):
    """Refuses text that is not JSON, and NaN and infinity unless
    ``allow_nan`` (DataError naming the file)."""
    with open_input(path) as f:
        try:
            return json.load(f, parse_constant=None if allow_nan else refuse_non_finite(path))
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise DataError("%s: not valid JSON: %s" % (path, e)) from None


def read_model(path, from_jsonable):
    """``from_jsonable`` of the JSON in ``path``; what it refuses (a
    missing entry, one of the wrong type or value) names the file."""
    obj = read_json(path)
    try:
        return from_jsonable(obj)
    except KeyError as e:
        raise DataError("%s: no %s entry" % (path, e)) from None
    except (AttributeError, IndexError, TypeError, ValueError) as e:
        raise DataError("%s: %s" % (path, e)) from None


def shaped_array(value, shape, what):
    """``value`` as a finite float array of ``shape`` (None: any length on
    that axis); DataError naming ``what`` otherwise."""
    try:
        arr = np.array(value, dtype=np.float64)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != len(shape) or any(
            n is not None and n != m for n, m in zip(shape, arr.shape)):
        raise DataError("%s has %s, expected %s" % (
            what, "ragged rows" if arr is None else "shape %s" % (arr.shape,),
            " x ".join("n" if n is None else str(n) for n in shape)))
    if not np.isfinite(arr).all():
        raise DataError("%s holds NaN or infinity" % what)
    return arr


def write_matrix(path, matrix):
    m = np.asarray(matrix, dtype=np.float32)
    if m.ndim != 2:
        raise ValueError("matrix must be 2-D, got shape %s" % (m.shape,))
    header = MATRIX_MAGIC + struct.pack("<II", m.shape[0], m.shape[1])
    atomic_write_bytes(path, header + m.astype("<f4").tobytes(order="C"))


def read_matrix(path):
    """Refuses a file without the matrix header, with the wrong payload
    size or with NaN or infinity (DataError naming the file)."""
    with open_input(path, "rb") as f:
        raw = f.read()
    if raw[:4] != MATRIX_MAGIC or len(raw) < 12:
        raise DataError("%s: bad magic or header, not a matrix file" % path)
    rows, cols = struct.unpack("<II", raw[4:12])
    if len(raw) != 12 + 4 * rows * cols:
        raise DataError("%s: truncated payload (%d bytes for a %d x %d matrix)"
                        % (path, len(raw) - 12, rows, cols))
    return shaped_array(np.frombuffer(raw[12:], dtype="<f4").reshape(rows, cols), (rows, cols),
                        path)


# ---------------------------------------------------------------------------
# PNG

def _png_chunk(tag, payload):
    body = tag + payload
    return struct.pack(">I", len(payload)) + body + struct.pack(">I", zlib.crc32(body))


def write_png(path, image):
    """Write uint8 image: (H, W) grayscale or (H, W, 3) RGB."""
    arr = np.asarray(image)
    if arr.dtype != np.uint8:
        raise ValueError("PNG writer expects uint8 data")
    if arr.ndim == 2:
        color_type, channels = 0, 1
    elif arr.ndim == 3 and arr.shape[2] == 3:
        color_type, channels = 2, 3
    else:
        raise ValueError("unsupported image shape %s" % (arr.shape,))
    h, w = arr.shape[:2]
    flat = arr.reshape(h, w * channels)
    scanlines = b"".join(b"\x00" + flat[i].tobytes() for i in range(h))
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    payload = (b"\x89PNG\r\n\x1a\n"
               + _png_chunk(b"IHDR", ihdr)
               + _png_chunk(b"IDAT", zlib.compress(scanlines, 6))
               + _png_chunk(b"IEND", b""))
    atomic_write_bytes(path, payload)


def read_png(path):
    """Read an 8-bit grayscale or RGB PNG into a uint8 array; a file that is
    not one, is cut short, declares a compression or filter method other
    than 0 or has a filtered scanline raises DataError naming it."""
    with open_input(path, "rb") as f:
        raw = f.read()
    try:
        return _decode_png(raw)
    except (IndexError, ValueError, struct.error, zlib.error) as e:
        raise DataError("%s: %s" % (path, e)) from None


def _decode_png(raw):
    if raw[:8] != b"\x89PNG\r\n\x1a\n":
        raise ValueError("not a PNG file")
    pos = 8
    idat = b""
    meta = None
    while pos < len(raw):
        (length,) = struct.unpack(">I", raw[pos:pos + 4])
        tag = raw[pos + 4:pos + 8]
        payload = raw[pos + 8:pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            w, h, depth, color_type, comp, filt, interlace = struct.unpack(">IIBBBBB", payload)
            if depth != 8 or color_type not in (0, 2) or interlace != 0:
                raise ValueError("only 8-bit gray/RGB non-interlaced PNG supported")
            for field, method in (("compression", comp), ("filter", filt)):
                if method != 0:     # the only method defined, and write_png's
                    raise ValueError("%s method %d; only 0 is defined" % (field, method))
            meta = (h, w, 1 if color_type == 0 else 3)
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
    if meta is None:
        raise ValueError("missing IHDR")
    h, w, channels = meta
    data = zlib.decompress(idat)
    stride = w * channels + 1               # a filter byte, then the pixels
    if len(data) != h * stride:
        raise ValueError("image data holds %d bytes, not %d" % (len(data), h * stride))
    rows = np.frombuffer(data, dtype=np.uint8).reshape(h, stride)
    filtered = np.flatnonzero(rows[:, 0])
    if len(filtered):                       # write_png filters no scanline
        raise ValueError("scanline %d has filter type %d; only 0 is read"
                         % (filtered[0], rows[filtered[0], 0]))
    return rows[:, 1:].reshape((h, w) if channels == 1 else (h, w, channels)).copy()


def sha256_file(path):
    import hashlib
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Config fields: each default, type and legal range declared once, on the
# config dataclass, and checked by its __post_init__ and the config loader

class FieldError(ValueError):
    """A config value outside its field's declared type or range; the
    message starts with the field's ``name``."""

    def __init__(self, name, requirement, value):
        super().__init__("%s must be %s, got %r" % (name, requirement, value))
        self.name = name


def in_file(path=MISSING, fixed=(), at_least=None, above=None, below=None,
            choices=None, **kw):
    """A config dataclass field with ``default``/``default_factory`` as for
    ``dataclasses.field``.  ``path`` is its dotted place in a config file
    below the enclosing section (its own name when not given, None: not in
    the file); a config dataclass there fills that section, less the
    ``fixed`` fields the program sets itself.  Its value must be of the
    annotated type and within ``at_least``, ``above``, ``below`` and
    ``choices`` (each item of a tuple)."""
    meta = {"fixed": fixed, "bounds": (at_least, above, below, choices)}
    if path is not MISSING:
        meta["config"] = path
    return field(metadata=meta, **kw)


_TYPES = {int: (numbers.Integral, "an integer"),   # the values of a field type
          float: (numbers.Real, "a finite number"), str: (str, "a string")}


@functools.cache
def _declarations(cls):
    """{name: (type, bounds)} of the fields of config dataclass ``cls``
    that it checks itself: not its sections or its raw dict."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.metadata.get("bounds", (None,) * 4))
            for f in fields(cls) if hints[f.name] is not dict
            and not is_dataclass(hints[f.name])}


def _check(name, kind, bounds, value):
    if kind not in _TYPES:   # tuple[X, ...], tuple[X, X] or X | None
        args = typing.get_args(kind)
        if typing.get_origin(kind) is tuple:
            if not isinstance(value, (tuple, list)) or Ellipsis not in args \
                    and len(value) != len(args):
                raise FieldError(name, "a list of %d values" % len(args)
                                 if Ellipsis not in args else "a list", value)
            for v in value:
                _check(name, args[0], bounds, v)
            return
        if value is None:
            return
        kind = args[0]
    values, what = _TYPES[kind]
    if not isinstance(value, values) or isinstance(value, bool) \
            or kind is float and not math.isfinite(value):
        raise FieldError(name, what, value)
    at_least, above, below, choices = bounds
    if choices is not None and value not in choices:
        raise FieldError(name, "one of %s" % ", ".join(choices), value)
    if (at_least is not None and value < at_least or above is not None
            and value <= above or below is not None and value >= below):
        raise FieldError(name, " and ".join("%s %s" % (word, bound) for word, bound in (
            ("at least", at_least), ("above", above), ("below", below))
            if bound is not None), value)


def check_fields(config):
    """Check each field of a config dataclass against its declaration; every
    config dataclass's ``__post_init__`` calls this."""
    for name, (kind, bounds) in _declarations(type(config)).items():
        _check(name, kind, bounds, getattr(config, name))
