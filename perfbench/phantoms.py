"""Seeded synthetic inputs for every benchmark workload, with their ground truth.

The generator writes files in drrkit's on-disk formats with plain numpy, so
its run time (the benchmark's ``setup_s``) does not depend on the program
under test. Geometry is laid out in millimetres on a cube of physical side
``extent``; voxel and pixel centres sit at ``(index + 0.5) * spacing``, the
same convention drrkit's resampling uses, so built-in values map exactly onto
the projected pixel grid.

Ground truth is what the generator built, not what drrkit computed:

* each measured condition's expected grade (targets sit mid-bin, away from
  every threshold) or its exclusion reason;
* the exact Dice and IoU of every predicted/reference mask pair, from direct
  pixel counts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HEART, THORAX_R, THORAX_L, AORTA = 1, 2, 3, 4
FIRST_VERTEBRA = 10

# Targets sit well inside drrkit's grade bins: ratio 0.50/0.55/0.60 (closed
# right), scoliosis 10/25/45 and kyphosis 50/60/70 degrees (closed left).
CTR_TARGET = {"negative": 0.44, "mild": 0.525, "moderate": 0.575, "severe": 0.67}
SCOLIOSIS_TARGET = {"negative": 3.0, "mild": 17.5, "moderate": 35.0, "severe": 57.0}
# Kyphosis uses only the outer bins: the endpoint tangents of a polynomial fit
# move several degrees with sub-pixel centroid shifts, more than the 10-degree
# inner bins leave room for.
KYPHOSIS_TARGET = {"negative": 30.0, "severe": 85.0}
# How far a reported value may sit from the built-in one (pixel rounding of
# widths and centroids, and the kyphosis polynomial fit).
VALUE_TOLERANCE = {"cardiomegaly": 0.02, "scoliosis": 3.0, "kyphosis": 4.0}
FRAGMENTED = "fragmented"

HU_AIR, HU_TISSUE, HU_LUNG, HU_HEART, HU_BLOOD, HU_BONE = -1000, 30, -820, 45, 60, 650


@dataclass(frozen=True)
class Profile:
    """What one study is built to show: a grade (or FRAGMENTED) per condition."""

    cardiomegaly: str
    scoliosis: str
    kyphosis: str
    n_vertebrae: int


# ct_project: realistic chest phantoms, 20 labels each.
CT_PROFILES = (
    Profile("moderate", "mild", "negative", 16),
    Profile("negative", "moderate", "severe", 16),
)
# cohort_chain: every grade of every condition appears, plus both exclusion
# kinds. The smoke run takes the first three, which still cover a moderate
# cardiomegaly, a non-negative scoliosis and both exclusions.
COHORT_PROFILES = (
    Profile("moderate", "mild", "negative", 10),
    Profile(FRAGMENTED, "moderate", "severe", 10),
    Profile("mild", "negative", "negative", 3),
    Profile("negative", "negative", "severe", 10),
    Profile("severe", "severe", "severe", 10),
    Profile("negative", "mild", "negative", 10),
)


@dataclass
class Truth:
    """Ground truth of one generated input set."""

    # study id -> condition -> {"grade", "excluded", "reason", "value"}
    measures: dict = field(default_factory=dict)
    # study id (or "evaluation") -> class id -> (dice, iou) of the evaluated masks
    overlaps: dict = field(default_factory=dict)
    # study id -> number of label volumes
    n_labels: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# file writers (drrkit formats)


def _write_sidecar(stem: Path, meta: dict) -> None:
    stem.with_suffix(".json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def write_volume(stem: Path, hu: np.ndarray, spacing) -> None:
    _write_sidecar(stem, {"dims": list(hu.shape), "dtype": "i16",
                          "spacing_mm": [float(s) for s in spacing]})
    hu.astype("<i2", copy=False).tofile(stem.with_suffix(".raw"))


def write_label(stem: Path, data: np.ndarray, label_id: int) -> None:
    _write_sidecar(stem, {"dims": list(data.shape), "dtype": "u8", "label_id": label_id})
    data.tofile(stem.with_suffix(".raw"))


def write_pgm_mask(path: Path, mask: np.ndarray) -> None:
    h, w = mask.shape
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + (mask * np.uint8(255)).tobytes())


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# 3D geometry


def _axis_range(c: float, a: float, s: float, n: int) -> tuple[int, int]:
    lo = max(0, math.floor((c - a) / s - 0.5))
    hi = min(n - 1, math.ceil((c + a) / s - 0.5))
    return lo, hi + 1


def _ellipsoid(shape, spacing, center, semi):
    """(slices, bool mask) of the voxels whose centres lie in the ellipsoid."""
    slices, axes = [], []
    for n, s, c, a in zip(shape, spacing, center, semi):
        lo, hi = _axis_range(c, a, s, n)
        slices.append(slice(lo, hi))
        axes.append(((np.arange(lo, hi) + 0.5) * s - c) / a)
    x, y, z = axes
    inside = (x[:, None, None] ** 2 + y[None, :, None] ** 2 + z[None, None, :] ** 2) <= 1.0
    return tuple(slices), inside


def _snap(c: float, s: float) -> float:
    # Centre on a voxel centre so the voxelised shape is symmetric along that axis.
    return (math.floor(c / s) + 0.5) * s


def apex_deviation(points) -> float:
    """180 degrees minus the angle at the point farthest from the end chord
    (the scoliosis measure README.md documents)."""
    pts = np.asarray(points, dtype=np.float64)
    top, bottom = pts[0], pts[-1]
    chord = bottom - top
    rel = pts[1:-1] - top
    dist = np.abs(chord[0] * rel[:, 1] - chord[1] * rel[:, 0])
    apex = pts[1 + int(np.argmax(dist))]
    u, v = top - apex, bottom - apex
    return 180.0 - math.degrees(math.atan2(abs(u[0] * v[1] - u[1] * v[0]), u @ v))


def tangent_angle(points, degree: int = 4) -> float:
    """Angle between the endpoint tangents of per-coordinate polynomial fits in
    normalised arc length (the kyphosis measure README.md documents)."""
    pts = np.asarray(points, dtype=np.float64)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    t = np.concatenate([[0.0], np.cumsum(seg)]) / seg.sum()
    deg = min(degree, len(pts) - 1)
    dx = np.polyder(np.polyfit(t, pts[:, 0], deg))
    dy = np.polyder(np.polyfit(t, pts[:, 1], deg))
    u = np.array([np.polyval(dx, 0.0), np.polyval(dy, 0.0)])
    v = np.array([np.polyval(dx, 1.0), np.polyval(dy, 1.0)])
    return math.degrees(math.atan2(abs(u[0] * v[1] - u[1] * v[0]), u @ v))


def _spine(n: int, extent: float, sz: float, scoliosis: float, kyphosis: float):
    """Vertebra centres (i, j, k) in mm: a kyphotic circular arc in (j, k) and a
    sine bow in (i, k) whose apex deviation is ``scoliosis`` degrees."""
    k = np.array([_snap(c, sz) for c in np.linspace(0.18 * extent, 0.86 * extent, n)])
    half_chord = (k[-1] - k[0]) / 2.0
    theta = math.radians(kyphosis)
    radius = half_chord / math.sin(theta / 2.0)
    dk = k - (k[0] + k[-1]) / 2.0
    j = 0.64 * extent + np.sqrt(radius ** 2 - dk ** 2) - radius * math.cos(theta / 2.0)
    bow = np.sin(math.pi * (k - k[0]) / (k[-1] - k[0]))
    lo, hi = 0.0, 0.3 * extent
    for _ in range(50):
        amp = (lo + hi) / 2.0
        if apex_deviation(np.c_[amp * bow, k]) < scoliosis:
            lo = amp
        else:
            hi = amp
    return np.c_[0.5 * extent + lo * bow, j, k]


def _jitter(rng, target: float, width: float) -> float:
    return float(target + rng.uniform(-width, width))


def _row_width_mm(fp: np.ndarray, s: float) -> float:
    """Widest per-row span of a (column i, row k) footprint, in mm."""
    idx = np.arange(fp.shape[0])[:, None]
    first = np.where(fp, idx, fp.shape[0]).min(axis=0)
    last = np.where(fp, idx, -1).max(axis=0)
    return float((last - first + 1).max()) * s


def _centroid_mm(fp: np.ndarray, s_col: float, s_row: float) -> tuple[float, float]:
    cols, rows = np.nonzero(fp)
    return (cols.mean() + 0.5) * s_col, (rows.mean() + 0.5) * s_row


def _graded(condition: str, value: float, intended: str) -> dict:
    got = grade_of(condition, value)
    if got != intended:
        raise RuntimeError(f"phantom built a {got} {condition} ({value:.3f}), "
                           f"intended {intended}")
    return {"grade": got, "excluded": False, "reason": None, "value": value}


def _excluded(reason: str) -> dict:
    return {"grade": None, "excluded": True, "reason": reason, "value": None}


def build_study(rng, profile: Profile, dims, spacing, pixel_mm: float):
    """One chest phantom: (HU volume, {label_id: uint8 volume}, truth, pa_shapes).

    ``pixel_mm`` is the spacing of the projected masks that ``measure`` will
    read; widths there are index extents, one pixel short of the span.
    pa_shapes maps each evaluated class to its PA footprint as ellipses
    (centre_i_mm, centre_k_mm, semi_i_mm, semi_k_mm).
    """
    extent = dims[0] * spacing[0]
    sx, sy, sz = spacing
    half_w = 0.40 * extent                      # thorax outer half-width
    ci = 0.5 * extent

    hu = np.full(dims, HU_AIR, dtype=np.int16)
    # Body: elliptic cylinder along k.
    x = ((np.arange(dims[0]) + 0.5) * sx - ci) / (0.47 * extent)
    y = ((np.arange(dims[1]) + 0.5) * sy - 0.5 * extent) / (0.40 * extent)
    body = (x[:, None] ** 2 + y[None, :] ** 2) <= 1.0
    hu[body, int(0.04 * dims[2]):int(0.96 * dims[2])] = HU_TISSUE

    labels: dict[int, np.ndarray] = {}
    pa: dict[int, np.ndarray] = {}              # (i, k) footprints
    ll: dict[int, np.ndarray] = {}              # (j, k) footprints
    shapes: dict[int, list] = {}

    def paint(label_id, center, semi, value):
        sl, inside = _ellipsoid(dims, spacing, center, semi)
        hu[sl][inside] = value
        labels.setdefault(label_id, np.zeros(dims, dtype=np.uint8))[sl][inside] = 1
        pa.setdefault(label_id, np.zeros((dims[0], dims[2]), bool))[sl[0], sl[2]] |= \
            inside.any(axis=1)
        ll.setdefault(label_id, np.zeros((dims[1], dims[2]), bool))[sl[1], sl[2]] |= \
            inside.any(axis=0)
        shapes.setdefault(label_id, []).append((center[0], center[2], semi[0], semi[2]))

    lung_a = 0.15 * extent
    for label_id, side in ((THORAX_R, -1), (THORAX_L, 1)):
        paint(label_id, (ci + side * (half_w - lung_a), 0.45 * extent, _snap(0.50 * extent, sz)),
              (lung_a, 0.26 * extent, 0.30 * extent), HU_LUNG)

    truth: dict[str, dict] = {}
    heart_k = _snap(0.62 * extent, sz)
    if profile.cardiomegaly == FRAGMENTED:
        # Three separate blobs: more than two components excludes the study.
        for di in (-0.14, 0.0, 0.14):
            paint(HEART, (ci + di * extent, 0.38 * extent, heart_k),
                  (0.05 * extent, 0.06 * extent, 0.05 * extent), HU_HEART)
        truth["cardiomegaly"] = _excluded("heart silhouette fragmented")
    else:
        heart_a = _jitter(rng, CTR_TARGET[profile.cardiomegaly], 0.004) * half_w
        paint(HEART, (ci + 0.03 * extent, 0.38 * extent, heart_k),
              (heart_a, 0.13 * extent, 0.11 * extent), HU_HEART)
        heart_w = _row_width_mm(pa[HEART], sx)
        thorax_w = _row_width_mm(pa[THORAX_R] | pa[THORAX_L], sx)
        ratio = (heart_w - pixel_mm) / (thorax_w - pixel_mm)
        truth["cardiomegaly"] = _graded("cardiomegaly", ratio, profile.cardiomegaly)

    paint(AORTA, (ci - 0.06 * extent, 0.52 * extent, 0.40 * extent),
          (0.025 * extent, 0.025 * extent, 0.20 * extent), HU_BLOOD)

    n_vert = profile.n_vertebrae
    n_spine = max(n_vert, 5)
    centres = _spine(n_spine, extent, sz, _jitter(rng, SCOLIOSIS_TARGET[profile.scoliosis], 1.5),
                     _jitter(rng, KYPHOSIS_TARGET[profile.kyphosis], 1.5))
    pitch = 0.68 * extent / (n_spine - 1)
    vert_semi = (0.045 * extent, 0.035 * extent, max(0.3 * pitch, 0.6 * sz))
    vertebrae = [FIRST_VERTEBRA + n for n in range(n_vert)]
    for label_id, c in zip(vertebrae, centres):
        paint(label_id, tuple(c), vert_semi, HU_BONE)

    if n_vert < 4:
        truth["scoliosis"] = _excluded(f"only {n_vert} usable vertebral masks, need at least 4")
    else:
        pts = [_centroid_mm(pa[v], sx, sz) for v in vertebrae]
        truth["scoliosis"] = _graded("scoliosis", apex_deviation(pts), profile.scoliosis)
    if n_vert < 5:
        truth["kyphosis"] = _excluded(f"only {n_vert} usable vertebral masks, need at least 5")
    else:
        pts = [_centroid_mm(ll[v], sy, sz) for v in vertebrae]
        truth["kyphosis"] = _graded("kyphosis", tangent_angle(pts), profile.kyphosis)

    hu += rng.integers(-12, 13, size=dims, dtype=np.int16)
    pa_shapes = {1: shapes[HEART], 2: shapes[THORAX_R], 3: shapes[THORAX_L],
                 4: [shapes[v][0] for v in vertebrae]}
    return hu, labels, truth, pa_shapes


def grade_of(condition: str, value: float) -> str:
    names = ("negative", "mild", "moderate", "severe")
    if condition == "cardiomegaly":
        return names[sum(value > t for t in (0.50, 0.55, 0.60))]
    cuts = (10.0, 25.0, 45.0) if condition == "scoliosis" else (50.0, 60.0, 70.0)
    return names[sum(value >= t for t in cuts)]


def role_mapping(n_vertebrae: int) -> dict:
    return {"heart": [HEART], "thorax": [THORAX_R, THORAX_L],
            "vertebrae": list(range(FIRST_VERTEBRA, FIRST_VERTEBRA + n_vertebrae))}


def write_studies(root: Path, rng, profiles, dims, spacing, pixel_mm: float,
                  truth: Truth) -> dict:
    """Write each profile as a study; returns {study id: PA class shapes}."""
    entries, shapes = [], {}
    for n, profile in enumerate(profiles):
        sid = f"s{n:02d}"
        hu, labels, measures, pa_shapes = build_study(rng, profile, dims, spacing, pixel_mm)
        sdir = root / sid
        sdir.mkdir(parents=True)
        write_volume(sdir / "ct", hu, spacing)
        del hu
        label_entries = []
        for label_id in sorted(labels):
            write_label(sdir / f"label{label_id}", labels[label_id], label_id)
            label_entries.append({"label_id": label_id, "path": f"{sid}/label{label_id}.json"})
        entries.append({"id": sid, "volume": f"{sid}/ct.json", "labels": label_entries})
        truth.measures[sid] = measures
        truth.n_labels[sid] = len(labels)
        shapes[sid] = pa_shapes
    write_json(root / "studies.json", {"studies": entries})
    return shapes


# ---------------------------------------------------------------------------
# 2D masks and scores


def paint_ellipses(shape, ellipses) -> np.ndarray:
    """uint8 {0,1} mask of the union of (cx, cy, ax, ay) ellipses, pixel units."""
    out = np.zeros(shape, dtype=np.uint8)
    h, w = shape
    for cx, cy, ax, ay in ellipses:
        x0, x1 = max(0, math.floor(cx - ax)), min(w, math.ceil(cx + ax) + 1)
        y0, y1 = max(0, math.floor(cy - ay)), min(h, math.ceil(cy + ay) + 1)
        if x0 >= x1 or y0 >= y1:
            continue
        xs = (np.arange(x0, x1) - cx) / ax
        ys = (np.arange(y0, y1) - cy) / ay
        out[y0:y1, x0:x1] |= ((ys[:, None] ** 2 + xs[None, :] ** 2) <= 1.0).astype(np.uint8)
    return out


def perturb(rng, ellipses, shift: float, scale: float):
    """A predicted segmentation: every component shifted and rescaled."""
    out = []
    for cx, cy, ax, ay in ellipses:
        f = rng.uniform(1.0 - scale, 1.0 + scale)
        out.append((cx + rng.uniform(-shift, shift), cy + rng.uniform(-shift, shift),
                    ax * f, ay * rng.uniform(1.0 - scale, 1.0 + scale)))
    return out


def overlap(pred: np.ndarray, ref: np.ndarray) -> tuple[float, float]:
    """Dice and IoU from direct pixel counts."""
    p, r = int(np.count_nonzero(pred)), int(np.count_nonzero(ref))
    inter = int(np.count_nonzero(pred & ref))
    return 2.0 * inter / (p + r), inter / (p + r - inter)
