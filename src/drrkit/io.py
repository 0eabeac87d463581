"""In-memory containers and on-disk formats for volumes, projections and 2D masks.

Volumes travel as a JSON sidecar plus a flat little-endian raw file; projected
images and mask footprints travel as binary (P5) PGM. PGM carries no metadata,
so loaders take the view and label id as parameters.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os
import queue
import re
import threading
from collections import Counter
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Mapping

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
    # float() also takes "1.5" and True, but text and booleans are not lengths.
    try:
        if any(isinstance(s, (str, bool)) for s in spacing):
            raise TypeError
        sp = tuple(float(s) for s in spacing)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"spacing must be {n} numbers, got {spacing!r}") from None
    if len(sp) != n:
        raise ValidationError(f"expected {n} spacing entries, got {len(sp)}")
    if not all(np.isfinite(s) and s > 0 for s in sp):
        raise ValidationError(f"spacing entries must be finite and positive: {sp}")
    return sp


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
        object.__setattr__(self, "label_id", _nonneg_int(self.label_id, "label id"))

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
        object.__setattr__(self, "label_id", _nonneg_int(self.label_id, "label id"))


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
# 8-connected components as row runs: the run-based two-scan scheme of He,
# Chao & Suzuki (IEEE TIP 2008), vectorized, with the run graph resolved by
# hooking and pointer jumping (Shiloach & Vishkin, J. Algorithms 1982).


_RUN_BLOCK = 1 << 16    # pixels per block of rows in _runs; changes speed only


def _runs(fg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row runs of a 2D mask (nonzero is foreground) in raster order.

    Returns ``(first, end)``: run k covers ``flat[first[k]:end[k]]`` of the
    mask laid out with one background column before each row, so it lies in
    row ``first[k] // (w + 1)`` and starts at column ``first[k] % (w + 1) - 1``.
    """
    h, w = fg.shape
    stride = w + 1
    # One background column before each row, and one after the last, so
    # every run starts and stops at a transition and the two alternate. The
    # rows pass through one small buffer a block at a time, which is faster
    # than two full-size temporaries, each paged in afresh.
    rows = max(1, _RUN_BLOCK // stride)
    buf = np.zeros(rows * stride + 1, dtype=bool)
    edges = []
    for r0 in range(0, h, rows):
        n = (min(h, r0 + rows) - r0) * stride
        buf[:n].reshape(-1, stride)[:, 1:] = fg[r0:r0 + rows]
        edges.append(np.flatnonzero(buf[1:n + 1] != buf[:n]) + (r0 * stride + 1))
    edges = np.concatenate(edges)
    return edges[0::2], edges[1::2]


def _expand(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Every ``first[i] + j`` with ``j < count[i]``, in order of i, then j."""
    return np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())


def _overlaps(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (i, k) of an interval ``a[i]`` and a run ``b[k]`` that share
    a position, in order of i, then k. ``a`` and ``b`` are ``(first, end)``
    arrays of half-open intervals; ``b`` is sorted and disjoint, as runs are,
    and ``a`` need not be."""
    (first_a, end_a), (first_b, end_b) = a, b
    # Both keys of b are sorted, so each a[i]'s partners are one contiguous
    # slice of b: those that end after it starts and start before it ends.
    lo = np.searchsorted(end_b, first_a, side="right")
    hi = np.searchsorted(first_b, end_a, side="left")
    count = np.maximum(hi - lo, 0)
    return np.repeat(np.arange(len(first_a)), count), _expand(lo, count)


def _intersect(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(first, end, i, k)``: the intersection of two sorted, disjoint run
    lists, each piece the overlap of ``a[i]`` and ``b[k]``. For the runs of
    two masks the pieces are ``_runs(p & r)``: a piece ends where a run of
    one mask ends, which is background in it, so pieces never touch."""
    i, k = _overlaps(a, b)
    return np.maximum(a[0][i], b[0][k]), np.minimum(a[1][i], b[1][k]), i, k


def _label_runs(first: np.ndarray, end: np.ndarray, stride: int) -> tuple[np.ndarray, int]:
    """8-connected components of the runs ``_runs`` found in a mask of row
    length ``stride - 1``: ``(component, n)``, run k in component
    ``component[k]`` in 1..n, numbered in raster order of their first pixel."""
    # Run a (row r) touches run b (row r + 1) when b overlaps a widened by one
    # pixel on each side and moved down a row.
    a, b = _overlaps((first + (stride - 1), end + (stride + 1)), (first, end))

    # Hook the larger root of every edge that spans two trees to the smaller
    # one, then jump pointers until every run points at its root. Pointers
    # only go to lower runs, so each root ends as its component's first run.
    parent = np.arange(len(first))
    while len(a):
        ra, rb = parent[a], parent[b]
        split = ra != rb
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    is_root = parent == np.arange(len(first))
    component = np.cumsum(is_root, dtype=np.int32)[parent]
    return component, int(is_root.sum())


def _label8(fg: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """8-connected components of a 2D mask (nonzero is foreground), as its row runs.

    Returns ``(first, end, component, n)``: ``first`` and ``end`` are the
    runs of ``_runs``, and run k belongs to component ``component[k]`` in
    1..n. Components are numbered in raster order of their first pixel.
    """
    first, end = _runs(fg)
    return (first, end, *_label_runs(first, end, fg.shape[1] + 1))


def _component_sizes(first: np.ndarray, end: np.ndarray, component: np.ndarray,
                     n: int) -> np.ndarray:
    """Pixel count of each component 0..n from its runs; component 0 is empty."""
    return np.bincount(component, weights=end - first, minlength=n + 1).astype(np.int64)


def _paint_runs(fg: np.ndarray, first: np.ndarray, end: np.ndarray,
                value: np.ndarray) -> np.ndarray:
    """Image of the runs of ``fg`` that ``_runs`` returned, run k painted
    ``value[k]`` and background 0. The foreground in raster order is the runs
    in order, so one boolean assignment paints them all."""
    out = np.zeros(fg.shape, dtype=value.dtype)
    out[fg] = np.repeat(value, end - first)
    return out


# ---------------------------------------------------------------------------
# input files: each is read once, and its digest is taken of the bytes parsed


class _Digests:
    """SHA-256 digests of a command's input files, by name.

    One background thread hashes the files in turn while the caller parses
    each and reads the next. A file goes in as the buffer it was read into,
    ``bytes`` or a payload's uint8 array, so its digest is of the bytes
    parsed. At most one hash is pending: ``add`` waits for the previous one
    first, so one extra file's bytes stay alive at most.
    Use it as a context manager, so the thread ends with the command, and
    read it with ``to_dict``, which waits for the pending hash.
    """

    def __init__(self) -> None:
        self._hex: dict[str, str] = {}
        self._pending = None        # name of the file being hashed
        self._jobs = queue.SimpleQueue()
        self._results = queue.SimpleQueue()
        self._thread = None

    def _hash_jobs(self) -> None:
        # None ends the thread; a failed hash reports None as its digest.
        while (blob := self._jobs.get()) is not None:
            digest = None
            try:
                # update() releases the GIL for large buffers;
                # hashlib.sha256(blob) does not in every build.
                h = hashlib.sha256()
                h.update(blob)
                digest = h.hexdigest()
            finally:
                del blob
                self._results.put(digest)

    def add(self, name: str, blob) -> None:
        self._join()
        if self._thread is None:
            self._thread = threading.Thread(target=self._hash_jobs, daemon=True)
            self._thread.start()
        self._pending = name
        self._jobs.put(blob)

    def _join(self) -> None:
        if self._pending is None:
            return
        name, self._pending = self._pending, None
        digest = self._results.get()
        if digest is None:
            raise RuntimeError(f"hashing {name} failed")
        self._hex[name] = digest

    def to_dict(self) -> dict[str, str]:
        self._join()
        return dict(self._hex)

    def __enter__(self) -> "_Digests":
        return self

    def __exit__(self, *exc) -> None:
        # After a failure the pending hash still ends before the thread
        # does, so no thread outlives the command; its digest goes unread.
        if self._thread is not None:
            self._jobs.put(None)
            self._thread.join()


def _read_input(path, digests: _Digests | None = None, name=None) -> bytes:
    """The bytes of one input file; their SHA-256 goes into ``digests``, if
    given, under the declared ``name`` or else the path as given."""
    blob = Path(path).read_bytes()
    if digests is not None:
        digests.add(str(path if name is None else name), blob)
    return blob


def _repeated(items) -> list:
    """The items listed more than once, in order of first occurrence."""
    return [item for item, n in Counter(items).items() if n > 1]


def _json_object(pairs: list) -> dict:
    # json.loads alone would keep the last value of a repeated key.
    doc = dict(pairs)
    if len(doc) < len(pairs):
        raise ValueError(f"repeated keys {_repeated(key for key, _ in pairs)}")
    return doc


def _decode_json(blob: bytes, path):
    """The one JSON decoder of input files: strict UTF-8, bounded nesting,
    no key repeated within an object."""
    try:
        doc = json.loads(blob.decode("utf-8"), object_pairs_hook=_json_object)
        # A lone surrogate escape such as "\ud800" loads, but no path or CSV
        # built from it can be encoded; reject it here with the rest.
        json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    return doc


def _load_json_file(path, digests: _Digests | None = None, name=None):
    """One JSON input file, read once and hashed as read."""
    return _decode_json(_read_input(path, digests, name), path)


def _nonneg_int(value, what: str) -> int:
    # The one rule for ids in containers, sidecars, manifests and mappings: an
    # integer, numpy's included, never a cast; true is not 1 and 1.9 is not 1.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValidationError(f"{what} must be a nonnegative integer, got {value!r}")
    return int(value)


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


def _read_payload(raw_path, expected: int) -> np.ndarray:
    """The ``expected`` bytes of a .raw payload as a read-only uint8 array.

    The file's size is checked before anything is allocated, and a file that
    ends early or runs past ``expected`` while being read is refused, so the
    array never holds a zero-filled or garbage tail. numpy advises its large
    allocations for huge pages, so reading into one faults in fewer pages
    than a ``bytes`` of the same size.
    """
    with open(raw_path, "rb", buffering=0) as f:
        size = os.fstat(f.fileno()).st_size
        if size != expected:
            raise FormatError(
                f"{raw_path}: payload is {size} bytes, sidecar dims imply {expected}")
        buf = np.empty(expected, dtype=np.uint8)
        with memoryview(buf) as view:
            got = 0
            while got < expected:
                n = f.readinto(view[got:])
                if not n:
                    raise FormatError(f"{raw_path}: payload ended after {got} bytes, "
                                      f"sidecar dims imply {expected}")
                got += n
        if f.read(1):
            raise FormatError(
                f"{raw_path}: payload runs past the {expected} bytes sidecar dims imply")
    # Before anything views it, so no view of it can be made writable.
    buf.setflags(write=False)
    return buf


def _read_volume_pair(path, dtype: str, digests, name) -> tuple[dict, np.ndarray]:
    """The checked sidecar and the read-only (H, W, D) payload of one volume
    file pair. Each file is read once and hashed under the pair that ``name``
    declares."""
    json_path, raw_path = _sidecar_paths(path)
    json_name, raw_name = _sidecar_paths(path if name is None else name)
    sidecar = _read_input(json_path)
    meta = _decode_json(sidecar, json_path)
    if not isinstance(meta, dict):
        raise FormatError(f"{json_path}: sidecar must be a JSON object")
    dims = meta.get("dims")
    if (not isinstance(dims, list) or len(dims) != 3
            or not all(type(d) is int and d >= 1 for d in dims)):    # true is not 1
        raise FormatError(f"{json_path}: 'dims' must be three positive integers")
    kind, payload_dtype = _PAYLOADS[dtype]
    if meta.get("dtype") != dtype:
        raise FormatError(f"{json_path}: {kind} dtype must be {dtype!r}, "
                          f"got {meta.get('dtype')!r}")
    expected = dims[0] * dims[1] * dims[2] * np.dtype(payload_dtype).itemsize
    payload = _read_payload(raw_path, expected)
    if digests is not None:
        # The pair is hashed once both files are read, so the previous
        # file's hash, which add() joins first, runs on through both reads.
        digests.add(str(json_name), sidecar)
        digests.add(str(raw_name), payload)
    # C order with k fastest, matching the (H, W, D) reshape.
    return meta, payload.view(payload_dtype).reshape(dims)


def load_volume(path, *, _digests=None, _name=None) -> Volume:
    """Load an int16 attenuation volume from its sidecar (or stem) path.

    The spacing is the sidecar's ``spacing_mm``, which is required: it is
    hashed with the sidecar, so provenance names the geometry projected.
    """
    meta, data = _read_volume_pair(path, "i16", _digests, _name)
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


def load_label_volume(path, *, _digests=None, _name=None) -> LabelVolume:
    """Load a uint8 binary label volume; nonzero voxels map to 1.

    A payload already of 0/1 is viewed, not copied: the volume holds the
    read-only bytes read from the file. Any other payload is binarized.
    """
    meta, data = _read_volume_pair(path, "u8", _digests, _name)
    label_id = _nonneg_int(meta.get("label_id"), f"{_sidecar_paths(path)[0]}: 'label_id'")
    binary = data.view(bool) if data.max(initial=0) <= 1 else data != 0
    return LabelVolume(data=binary, label_id=label_id)


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


def _parse_pgm(blob: bytes, origin: str) -> np.ndarray:
    if not blob.startswith(b"P5"):
        raise FormatError(f"{origin}: not a binary PGM (magic must be P5)")
    header = _PGM_HEADER.match(blob)
    if header is None:
        raise FormatError(f"{origin}: malformed PGM header")
    width, height, maxval = (int(g) for g in header.groups())
    if width < 1 or height < 1:
        raise FormatError(f"{origin}: PGM dimensions must be positive")
    if maxval != 255:
        raise FormatError(f"{origin}: PGM maxval must be 255, got {maxval}")
    payload = memoryview(blob)[header.end():]     # a view: the payload is not copied
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
    """Load a PGM mask; any nonzero pixel counts as foreground."""
    arr = _parse_pgm(_read_input(path, _digests, _name), str(path))
    return Mask2D(data=arr != 0, view=view, spacing=spacing, label_id=label_id)


def save_mask(mask: Mask2D, path) -> None:
    # Foreground stored as 255 so the files render sensibly in image viewers.
    Path(path).write_bytes(_encode_pgm(mask.data * np.uint8(255)))
