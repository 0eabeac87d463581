"""Containers, on-disk formats and hashed input reads for volumes, projections and masks.

Volumes travel as a JSON sidecar plus a flat little-endian raw file; projected
images and mask footprints travel as binary (P5) PGM. PGM carries no metadata,
so loaders take the view and label id as parameters.

Each input rule has one body here: ``_file_chunks`` reads and hashes every
input file, ``_load_json_file`` decodes every JSON one, ``_read_pair`` is the
one sidecar/payload reader, and ``_occupancy`` is the one u8 label rule, for
whole label files and for the slabs that ``project`` reduces as it reads.
Each field read from a JSON input follows one rule too: ``_json_dict`` for an
object, ``_json_list`` for a list, ``_path_str`` for a path, and ``_real`` and
``_nonneg_int`` for numbers, ids up to ``_MAX_ID`` included. Each setting, a
config value and the flag that sets it, has one entry in ``_SETTINGS``: its
default and its rule, which ``_setting`` applies.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import re
import stat
import sys
from collections import Counter
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np


class ValidationError(ValueError):
    """Input data or configuration violates a documented contract."""


class FormatError(ValidationError):
    """A file does not conform to its declared on-disk format."""


class View(str, Enum):
    """Projection direction: PA collapses the anterior axis, LL the lateral one."""

    PA = "PA"
    LL = "LL"


def _freeze(obj, name: str, arr: np.ndarray) -> None:
    # Containers are immutable by contract; a read-only view enforces it
    # without copying and without locking the caller's own array.
    view = arr.view()
    view.setflags(write=False)
    object.__setattr__(obj, name, view)


def _json_value(value):
    # Records nest as their own JSON form, enums go by lowercase name, tuples
    # become lists and mapping keys strings.
    if isinstance(value, _Record):
        return value.to_json_dict()
    if isinstance(value, Enum):
        return value.name.lower()
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _json_value(v) for k, v in value.items()}
    return value


class _Record:
    """Base of the frozen result dataclasses: one JSON form for all of them,
    every field under its own name."""

    def to_json_dict(self) -> dict:
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}


def _binary_u8(data, what: str) -> np.ndarray:
    """{0, 1} uint8 of a 0/1 array, checked as passed: a cast first would turn
    256, -255, 0.5 and NaN into 0 or 1. A bool array is viewed, not scanned."""
    arr = np.asarray(data)
    if arr.dtype == bool:
        return np.ascontiguousarray(arr).view(np.uint8)
    # Integers are 0 or 1 when their range is, which two scans tell without a
    # full-size temporary; any other values are compared one by one.
    if arr.dtype.kind in "ui":
        binary = arr.min(initial=0) >= 0 and arr.max(initial=0) <= 1
    else:
        binary = np.array_equal(arr, arr != 0)
    if not binary:
        raise ValidationError(f"{what} must be 0 or 1")
    return np.ascontiguousarray(arr, dtype=np.uint8)


def _check_spacing(spacing, n: int) -> tuple[float, ...]:
    try:
        sp = () if isinstance(spacing, str) else tuple(spacing)
    except TypeError:       # not iterable
        sp = ()
    if len(sp) != n:
        raise ValidationError(f"spacing must be {n} numbers, got {_shown(spacing)}")
    return tuple(_real(s, "spacing entry", lo=0, open=True) for s in sp)


@dataclass(frozen=True, eq=False)
class Volume:
    """Attenuation volume in Hounsfield units.

    Axes are (i, j, k): i runs right to left, j anterior to posterior,
    k superior to inferior.  ``spacing`` is (s_x, s_y, s_z) in millimetres
    along those axes.
    """

    data: np.ndarray                       # (H, W, D) numeric
    spacing: tuple[float, float, float]    # mm per voxel along (i, j, k)

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.data)
        if arr.ndim != 3:
            raise ValidationError(f"volume must be 3D, got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ValidationError("volume axes must all be nonempty")
        # Complex values would lose their imaginary part in the attenuation.
        if arr.dtype.kind not in "iuf":
            raise ValidationError("volume dtype must be integer or real floating, "
                                  f"got {arr.dtype}")
        # Only float values can be non-finite; the scan allocates one bool per
        # voxel, so integer volumes skip it.
        if arr.dtype.kind == "f" and not np.all(np.isfinite(arr)):
            raise ValidationError("volume contains non-finite values")
        _freeze(self, "data", arr)
        object.__setattr__(self, "spacing", _check_spacing(self.spacing, 3))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(frozen=True, eq=False)
class LabelVolume:
    """Binary occupancy volume for one anatomical structure."""

    data: np.ndarray    # (H, W, D) uint8 of {0, 1}
    label_id: int

    def __post_init__(self) -> None:
        arr = _binary_u8(self.data, "label volume voxels")
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ValidationError(f"label volume must be nonempty 3D, got shape {arr.shape}")
        _freeze(self, "data", arr)
        object.__setattr__(self, "label_id", _nonneg_int(self.label_id, "label id", hi=_MAX_ID))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(frozen=True, eq=False)
class Projection:
    """A 2D projected radiograph.

    ``data`` is float64 while values are raw line integrals and uint8 once
    normalized; ``spacing`` is (row_mm, col_mm) for the current pixel grid.
    """

    data: np.ndarray
    view: View
    spacing: tuple[float, float]
    normalized: bool = False

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.data)
        if arr.ndim != 2 or min(arr.shape) < 1:
            raise ValidationError(f"projection must be nonempty 2D, got shape {arr.shape}")
        if self.normalized:
            if arr.dtype != np.uint8:
                raise ValidationError("normalized projection must be uint8")
        else:
            arr = arr.astype(np.float64, copy=False)
            if not np.all(np.isfinite(arr)):
                raise ValidationError("projection contains non-finite values")
        _freeze(self, "data", arr)
        object.__setattr__(self, "view", View(self.view))
        object.__setattr__(self, "spacing", _check_spacing(self.spacing, 2))


@dataclass(frozen=True, eq=False)
class Mask2D:
    """Binary footprint of one structure in a projected view."""

    data: np.ndarray    # (rows, cols) uint8 of {0, 1}
    view: View
    spacing: tuple[float, float]
    label_id: int = 0

    def __post_init__(self) -> None:
        arr = _binary_u8(self.data, "mask pixels")
        if arr.ndim != 2 or min(arr.shape) < 1:
            raise ValidationError(f"mask must be nonempty 2D, got shape {arr.shape}")
        _freeze(self, "data", arr)
        object.__setattr__(self, "view", View(self.view))
        object.__setattr__(self, "spacing", _check_spacing(self.spacing, 2))
        object.__setattr__(self, "label_id", _nonneg_int(self.label_id, "label id", hi=_MAX_ID))


def _as_binary(mask, name: str = "mask") -> np.ndarray:
    """Boolean foreground of a Mask2D or 2D array; any nonzero pixel counts.
    A Mask2D's 0/1 data is viewed and a bool array comes back as is, neither
    scanned nor copied, so callers must not write to it."""
    if isinstance(mask, Mask2D):
        return mask.data.view(bool)
    arr = np.asarray(mask)
    if arr.ndim != 2 or min(arr.shape) < 1:
        raise ValidationError(f"{name} must be nonempty 2D, got shape {arr.shape}")
    return arr if arr.dtype == bool else arr != 0


# ---------------------------------------------------------------------------
# input files: each is read once, by one reader, and hashed as it is read


def _file_chunks(path, chunk: int | None = None, digests: dict | None = None, name=None,
                 size: int | None = None) -> Iterator[np.ndarray]:
    """The one reader of input files: the bytes of ``path`` as uint8 arrays.
    With ``chunk``, read-only chunks of that many bytes share one buffer,
    each valid only until the next is asked for; without, the whole file is
    one writable buffer of its own. With ``digests``, each chunk goes into
    one SHA-256 on this thread before it is yielded, and ``digests`` holds
    the file's digest under ``name``, or else the path, once the last has.

    A payload must hold the ``size`` bytes its sidecar's dims imply, and any
    other regular file its fstat size. That is checked before a buffer is
    allocated, and a file that ends early or runs past it while read is
    refused, so no chunk holds a zero-filled or garbage tail. A pipe has no
    size and is read to its end. numpy advises its large allocations for
    huge pages, so reading into one faults in fewer pages than a ``bytes``.
    """
    what, source = ("file", "fstat reported") if size is None else ("payload", "sidecar dims imply")
    name = str(path if name is None else name)
    sha = None if digests is None else hashlib.sha256()
    with open(path, "rb", buffering=0) as f:
        st = os.fstat(f.fileno())
        to_end = size is None and not stat.S_ISREG(st.st_mode)
        if size is None:
            size = st.st_size
        elif st.st_size != size:
            raise FormatError(f"{path}: payload is {st.st_size} bytes, sidecar dims imply {size}")
        buf = np.empty(1 << 16 if to_end else min(chunk or size, size), dtype=np.uint8)
        start = 0
        while True:
            got = 0
            if to_end:      # into a buffer doubled whenever it fills
                while n := f.readinto(buf[got:]):
                    got += n
                    if got == buf.size:
                        buf = np.concatenate((buf, buf))
                size = got
            else:
                want = min(buf.size, size - start)
                buf.setflags(write=True)
                while got < want:
                    if not (n := f.readinto(buf[got:want])):
                        raise FormatError(
                            f"{path}: {what} ended after {start + got} bytes, {source} {size}")
                    got += n
                if start + got == size and f.read(1):
                    raise FormatError(f"{path}: {what} runs past the {size} bytes {source}")
            start += got
            # Before anything views it, so no view of it can be made writable
            # while it holds this chunk.
            buf.setflags(write=chunk is None)
            part = buf[:got]
            if sha is not None:
                try:
                    sha.update(part)
                    if start == size:
                        digests[name] = sha.hexdigest()
                except Exception as exc:
                    raise RuntimeError(f"hashing {name} failed") from exc
            yield part
            if start == size:
                return


def _read_input(path, digests: dict | None = None, name=None) -> np.ndarray:
    """One input file, read whole into a writable uint8 buffer of its own
    and hashed on this thread into ``digests``, if given."""
    (buf,) = _file_chunks(path, None, digests, name)
    return buf


def _repeated(items) -> list:
    """The items listed more than once, in order of first occurrence."""
    return [item for item, n in Counter(items).items() if n > 1]


def _json_object(pairs: list) -> dict:
    # json.loads alone would keep the last value of a repeated key.
    doc = dict(pairs)
    if len(doc) < len(pairs):
        raise ValueError(f"repeated keys {_repeated(key for key, _ in pairs)}")
    return doc


def _load_json_file(path, digests: dict | None = None, name=None):
    """One JSON input file, read once and hashed as read, then decoded by
    the one JSON rule of input files: strict UTF-8, bounded nesting, no key
    repeated within an object."""
    buf = _read_input(path, digests, name)      # a read's refusal is not invalid JSON
    try:
        doc = json.loads(str(buf, "utf-8"), object_pairs_hook=_json_object)
        # A lone surrogate escape such as "\ud800" loads, but no path or CSV
        # built from it can be encoded; reject it here with the rest.
        json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    return doc


def _shown(value) -> str:
    try:
        return repr(value)
    except ValueError:      # an integer, or a Fraction of one, beyond Python's digit limit
        return f"a number of more than {sys.get_int_max_str_digits()} digits"


def _interval(lo=None, hi=None, open: bool = False) -> str:
    if hi is None:
        return "" if lo is None else f" {'>' if open else '>='} {lo}"
    if lo is None:
        return f" {'<' if open else '<='} {hi}"
    return f" in {'(' if open else '['}{lo}, {hi}{')' if open else ']'}"


def _real(value, what: str, *, lo=None, hi=None, open: bool = False) -> float:
    """The one rule for a real-number argument: a finite real number, numpy's
    and ``Fraction`` included, that fits a float and lies in [lo, hi], or in
    (lo, hi) when ``open``, as a float. float() is never the check: it would
    take true, "0.5" and Decimal, and overflow on a huge integer."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:       # an integer too large for a float
        x = math.nan
    if (not math.isfinite(x) or (lo is not None and (x <= lo if open else x < lo))
            or (hi is not None and (x >= hi if open else x > hi))):
        raise ValidationError(f"{what} must be a finite real number{_interval(lo, hi, open)}, "
                              f"got {_shown(value)}")
    return x


def _nonneg_int(value, what: str, *, lo: int = 0, hi: int | None = None) -> int:
    """The one rule for a count, id or seed: an integer in [lo, hi], numpy's
    included, never a cast; true is not 1 and 1.9 is not 1."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < lo
            or (hi is not None and value > hi)):
        rule = (f"an integer{_interval(lo, hi)}" if lo
                else f"a nonnegative integer{_interval(None, hi)}")
        raise ValidationError(f"{what} must be {rule}, got {_shown(value)}")
    return int(value)


# The largest label or class id: an int64, so every writer can print it, where
# an integer past Python's digit limit cannot be.
_MAX_ID = 2 ** 63 - 1


def _json_dict(doc, what: str, keys, required=()) -> Mapping:
    """The one rule for a JSON object read from an input: a mapping whose
    keys are all among ``keys`` and include every one of ``required``."""
    if not isinstance(doc, Mapping):
        raise ValidationError(f"{what} must be a JSON object, got {type(doc).__name__}")
    # Sorted by their reprs, so keys of mixed types sort too.
    if unknown := sorted(_shown(key) for key in doc if key not in keys):
        raise ValidationError(f"{what} has unknown keys [{', '.join(unknown)}]")
    if missing := [key for key in required if key not in doc]:
        raise ValidationError(f"{what} needs {missing}")
    return doc


def _json_list(value, what: str, *, nonempty: bool = False) -> list:
    if not isinstance(value, list) or (nonempty and not value):
        kind = "a nonempty JSON list" if nonempty else "a JSON list"
        raise ValidationError(f"{what} must be {kind}, got {type(value).__name__}")
    return value


def _path_str(value, what: str) -> str:
    if not isinstance(value, str) or not value or "\0" in value:
        raise ValidationError(f"{what} must be a nonempty path, got {_shown(value)}")
    return value


# ---------------------------------------------------------------------------
# settings: every config value and flag, with its default and its one rule

# The most pixels any grid of a view may hold, 8192² (512 MB as float64): far
# above a radiograph, and well below what a tiny target spacing or a huge
# output_size would ask for.
_MAX_GRID_PX = 8192 ** 2


def _grid_size(value, what: str):
    """None, or a (width, height) of two integers in [1, _MAX_GRID_PX]: no grid side is longer."""
    if value is not None and not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ValidationError(f"{what} must be two positive integers, got {_shown(value)}")
    return None if value is None else tuple(
        _nonneg_int(v, f"{what} entry", lo=1, hi=_MAX_GRID_PX) for v in value)


# Each setting by its key, which is also its flag's dest: its config section,
# its default, and its rule, a kind (_real, _nonneg_int or _grid_size) and the
# range passed to it. Library signatures repeat the defaults, held to these by a test.
_SETTINGS = {
    "target_pixel_spacing": ("projection", 1.0, _real, {"lo": 0, "open": True}),
    "output_size": ("projection", None, _grid_size, {}),
    "min_component_px": ("measure", 8, _nonneg_int, {"lo": 0}),
    "nsd_tolerance_px": ("evaluate", 2.0, _real, {"lo": 0}),
    "match_iou": ("evaluate", 0.5, _real, {"lo": 0, "hi": 1}),
    # At most 10**7, which bounds a bootstrap's means array at 80 MB.
    "n_resamples": ("evaluate", 10000, _nonneg_int, {"lo": 1, "hi": 10 ** 7}),
    "alpha": ("stats", 0.05, _real, {"lo": 0, "hi": 1, "open": True}),
}


def _setting(key: str, value, what: str | None = None):
    """``value`` by the rule of setting ``key``, refused as ``what``, or else as ``key``."""
    _, _, kind, bounds = _SETTINGS[key]
    return kind(value, what or key, **bounds)


# ---------------------------------------------------------------------------
# volume files: <name>.json sidecar + <name>.raw payload


def _sidecar_paths(path) -> tuple[Path, Path]:
    # Suffixes are appended, not substituted, so a stem like case.01 keeps its dots.
    p = Path(path)
    if p.suffix in (".json", ".raw"):
        p = p.with_suffix("")
    return p.with_name(p.name + ".json"), p.with_name(p.name + ".raw")


# Sidecar dtype -> what the pair holds and the dtype of its payload.
_PAYLOADS = {"i16": ("volume", "<i2"), "u8": ("label", "u1")}


def _read_pair(path, dtype: str, rows: int | None, digests: dict | None = None,
               name=None) -> tuple[dict, Iterator[np.ndarray]]:
    """The checked sidecar of one volume file pair and the read-only
    (n, W, D) slabs of ``rows`` rows along i of its payload, in order, or,
    if ``rows`` is None or at least H, the whole payload as one slab in a
    buffer of its own, which the caller may keep. Every fault of the
    sidecar, a label's ``label_id`` included, is found here. Each slab views
    a chunk of ``_file_chunks``, so it is valid only until the next is asked
    for, and the payload, which must hold the bytes the dims imply, is opened
    only when the first is. With ``digests``, each file is hashed as it is
    read, by the thread that reads it, under the pair that ``name``
    declares, or else the path as given."""
    json_path, raw_path = _sidecar_paths(path)
    json_name, raw_name = _sidecar_paths(path if name is None else name)
    meta = _load_json_file(json_path, digests, json_name)
    if not isinstance(meta, dict):
        raise FormatError(f"{json_path}: sidecar must be a JSON object")
    dims = meta.get("dims")
    if (not isinstance(dims, list) or len(dims) != 3
            or not all(type(d) is int and d >= 1 for d in dims)):    # true is not 1
        raise FormatError(f"{json_path}: 'dims' must be three positive integers")
    kind, payload = _PAYLOADS[dtype]
    if meta.get("dtype") != dtype:
        raise FormatError(f"{json_path}: {kind} dtype must be {dtype!r}, "
                          f"got {meta.get('dtype')!r}")
    if kind == "label":
        _nonneg_int(meta.get("label_id"), f"{json_path}: 'label_id'", hi=_MAX_ID)
    h, w, d = dims
    row_bytes = w * d * np.dtype(payload).itemsize
    # C order with k fastest, matching the (H, W, D) reshape.
    return meta, (chunk.view(payload).reshape(-1, w, d) for chunk in
                  _file_chunks(raw_path, (rows or h) * row_bytes, digests, raw_name,
                               size=h * row_bytes))


def load_volume(path, *, _digests=None, _name=None) -> Volume:
    """Load an int16 attenuation volume from its sidecar (or stem) path.

    The spacing is the sidecar's ``spacing_mm``, which is required: it is
    hashed with the sidecar, so provenance names the geometry projected.
    """
    meta, (data,) = _read_pair(path, "i16", None, _digests, _name)
    spacing = meta.get("spacing_mm")
    if spacing is None:
        raise FormatError(f"{_sidecar_paths(path)[0]}: missing 'spacing_mm'")
    try:
        return Volume(data=data, spacing=spacing)
    except ValidationError as exc:
        raise ValidationError(f"{_sidecar_paths(path)[0]}: {exc}") from exc


def save_volume(vol: Volume, path) -> None:
    json_path, raw_path = _sidecar_paths(path)
    data = np.asarray(vol.data)
    if not np.issubdtype(data.dtype, np.integer):
        if not np.all(data == np.round(data)):
            raise ValidationError("volume values must be integral to store as i16")
    lo, hi = np.iinfo(np.int16).min, np.iinfo(np.int16).max
    if data.min() < lo or data.max() > hi:
        raise ValidationError("volume values out of int16 range")
    meta = {"dims": list(data.shape), "spacing_mm": list(vol.spacing), "dtype": "i16"}
    json_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    raw_path.write_bytes(np.ascontiguousarray(data, dtype="<i2").tobytes())


def _occupancy(slab: np.ndarray) -> np.ndarray | None:
    """The one u8 label rule: a uint8 label slab as bool, or None when it is
    all 0. A 0/1 slab is viewed and any other is binarized, nonzero voxels
    mapping to True."""
    top = slab.max(initial=0)
    if not top:
        return None
    return slab.view(bool) if top <= 1 else slab != 0


def load_label_volume(path) -> LabelVolume:
    """Load a uint8 binary label volume; nonzero voxels map to 1.

    A payload already of 0/1 is viewed, not copied: the volume holds the
    read-only bytes read from the file. Any other payload is binarized.
    """
    meta, (data,) = _read_pair(path, "u8", None)
    binary = _occupancy(data)
    return LabelVolume(data=data.view(bool) if binary is None else binary,
                       label_id=meta["label_id"])


def save_label_volume(lab: LabelVolume, path) -> None:
    json_path, raw_path = _sidecar_paths(path)
    meta = {"dims": list(lab.shape), "dtype": "u8", "label_id": lab.label_id}
    json_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    raw_path.write_bytes(np.ascontiguousarray(lab.data, dtype="u1").tobytes())


# ---------------------------------------------------------------------------
# binary PGM (P5), maxval 255


# The magic, then width, height and maxval as ASCII decimal digits, each after
# whitespace or comments (a comment runs from # to its line end), then the one
# whitespace byte before the payload. A comment stops at the first line end, so
# every header splits one way only and the match takes linear time. At most 18
# digits, so int() never meets Python's digit limit and no real image is refused.
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\r\n]*[\r\n])+([0-9]{1,18})" * 3 + rb"\s")


def _parse_pgm(blob, origin: str) -> np.ndarray:
    """The pixels of the PGM in ``blob``, any bytes-like object, as a view of it."""
    blob = memoryview(blob)
    if blob[:2] != b"P5":
        raise FormatError(f"{origin}: not a binary PGM (magic must be P5)")
    header = _PGM_HEADER.match(blob)
    if header is None:
        raise FormatError(f"{origin}: malformed PGM header")
    width, height, maxval = (int(g) for g in header.groups())
    if width < 1 or height < 1:
        raise FormatError(f"{origin}: PGM dimensions must be positive")
    if maxval != 255:
        raise FormatError(f"{origin}: PGM maxval must be 255, got {maxval}")
    payload = blob[header.end():]
    if len(payload) != width * height:
        raise FormatError(
            f"{origin}: PGM payload is {len(payload)} bytes, header implies {width * height}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width)


def _encode_pgm(arr: np.ndarray) -> bytes:
    height, width = arr.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    return header + np.ascontiguousarray(arr, dtype=np.uint8).tobytes()


def load_projection(path, view: View, spacing=(1.0, 1.0)) -> Projection:
    arr = _parse_pgm(_read_input(path), str(path))
    return Projection(data=arr, view=view, spacing=spacing, normalized=True)


def save_projection(proj: Projection, path) -> None:
    if not proj.normalized:
        raise ValidationError("only normalized (uint8) projections can be saved as PGM")
    Path(path).write_bytes(_encode_pgm(proj.data))


def load_mask(path, view: View, label_id: int = 0, spacing=(1.0, 1.0), *,
              _digests=None, _name=None) -> Mask2D:
    """Load a PGM mask; any nonzero pixel counts as foreground. The file is
    read whole by ``_read_input`` into one writable buffer of its own,
    hashed into ``_digests`` as read if given, then parsed and binarized in
    place, so the mask holds that buffer and no copy of it."""
    arr = _parse_pgm(_read_input(path, _digests, _name), str(path))
    return Mask2D(data=np.not_equal(arr, 0, out=arr.view(bool)), view=view,
                  spacing=spacing, label_id=label_id)


def save_mask(mask: Mask2D, path) -> None:
    # Foreground stored as 255 so the files render sensibly in image viewers.
    Path(path).write_bytes(_encode_pgm(mask.data * np.uint8(255)))
