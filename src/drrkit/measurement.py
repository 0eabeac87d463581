"""Chest measurements and severity grades derived from projected 2D masks.

All geometry runs in pixel coordinates with x along columns and y along rows.
Rows run superior to inferior (y grows toward inferior): the one orientation
that projection writes, by transposing every view.

The cardiothoracic ratio compares two widths along the same rows, so it does
not depend on the pixel spacing. The scoliosis and kyphosis angles do: they
assume square pixels. Projection resamples both axes to the same target
spacing, up to rounding each pixel count, but an ``output_size`` whose aspect
ratio differs from the resampled grid's stretches one axis against the other,
and the angles change with it.

A study that cannot be measured reliably is excluded with a reason instead
of producing a junk number.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Sequence

import numpy as np

from ._rowruns import _component_sizes, _label_runs, _paint_runs, _runs
from .io import ValidationError, _Record, _as_binary, _nonneg_int


class Condition(str, Enum):
    CARDIOMEGALY = "cardiomegaly"
    SCOLIOSIS = "scoliosis"
    KYPHOSIS = "kyphosis"


class Grade(IntEnum):
    NEGATIVE = 0
    MILD = 1
    MODERATE = 2
    SEVERE = 3

    @property
    def label(self) -> str:
        return self.name.lower()


# ((t1, t2, t3), upper_inclusive): upper_inclusive means bins close on the
# right (value <= t1 is negative), otherwise they close on the left
# (value < t1 is negative).
_THRESHOLDS = {
    Condition.CARDIOMEGALY: ((0.50, 0.55, 0.60), True),
    Condition.SCOLIOSIS: ((10.0, 25.0, 45.0), False),
    Condition.KYPHOSIS: ((50.0, 60.0, 70.0), False),
}


def grade(condition: Condition, value: float) -> Grade:
    """Map a measurement value to its four-level severity grade."""
    condition = Condition(condition)
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"cannot grade non-finite value {value}")
    thresholds, upper_inclusive = _THRESHOLDS[condition]
    # The grade is the number of thresholds below the value (right-closed
    # bins) or at or below it (left-closed bins).
    count = bisect_left if upper_inclusive else bisect_right
    return Grade(count(thresholds, value))


@dataclass(frozen=True)
class MeasurementResult(_Record):
    """Outcome of one measurement: a graded value or a reasoned exclusion."""

    condition: Condition
    value: float | None
    grade: Grade | None
    excluded: bool
    exclusion_reason: str | None
    evidence: dict


def _excluded(condition: Condition, reason: str, evidence: dict | None = None) -> MeasurementResult:
    return MeasurementResult(condition=condition, value=None, grade=None,
                             excluded=True, exclusion_reason=reason,
                             evidence=evidence or {})


def _measured(condition: Condition, value: float, evidence: dict) -> MeasurementResult:
    return MeasurementResult(condition=condition, value=float(value),
                             grade=grade(condition, value), excluded=False,
                             exclusion_reason=None, evidence=evidence)


def _clean(mask, min_px: int) -> tuple[np.ndarray, np.ndarray]:
    """The mask without its 8-connected components smaller than min_px
    pixels, as {0, 1} uint8, and the sizes of the components it kept."""
    fg = _as_binary(mask)
    first, end = _runs(fg)
    component, n = _label_runs(first, end, fg.shape[1])
    sizes = _component_sizes(first, end, component, n)
    kept = sizes >= max(min_px, 1)      # component 0 is empty and never kept
    return _paint_runs(fg, first, end, kept[component].view(np.uint8)), sizes[kept]


def clean_mask(mask, min_component_px: int = 8) -> np.ndarray:
    """Drop 8-connected components smaller than min_component_px pixels."""
    return _clean(mask, min_component_px)[0]


def centroid(mask) -> tuple[float, float]:
    """Mean foreground position as (x, y). Empty masks have no centroid."""
    arr = _as_binary(mask)
    ys, xs = np.nonzero(arr)
    if len(xs) == 0:
        raise ValidationError("centroid of an empty mask is undefined")
    return float(xs.mean()), float(ys.mean())


def _row_extents(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows holding foreground, with the first and last foreground column of each."""
    rows = np.nonzero(arr.any(axis=1))[0]
    hit = arr[rows]
    first = hit.argmax(axis=1)
    last = arr.shape[1] - 1 - hit[:, ::-1].argmax(axis=1)
    return rows, first, last


def max_row_width(mask) -> tuple[float, int]:
    """Largest horizontal extent over rows: (max_x - min_x, row index).

    The extent is an index difference, so a single pixel has width 0.
    Ties keep the topmost row.
    """
    rows, first, last = _row_extents(_as_binary(mask))
    if not len(rows):
        raise ValidationError("row width of an empty mask is undefined")
    widths = last - first
    best = int(np.argmax(widths))   # first max is the topmost tie
    return float(widths[best]), int(rows[best])


def _of_one_shape(masks: Sequence) -> list[np.ndarray]:
    """The masks' bool foregrounds, refused unless they share one shape."""
    arrs = [_as_binary(m) for m in masks]
    if len({a.shape for a in arrs}) > 1:
        raise ValidationError(f"mask shapes differ: {[a.shape for a in arrs]}")
    return arrs


def compose_thorax(masks: Sequence) -> np.ndarray:
    """Union the given masks and fill each row between its extreme columns.

    This turns a set of boundary structures (lungs, rib cage) into a solid
    row-convex thoracic silhouette whose row widths are outer widths.
    """
    if not masks:
        raise ValidationError("thorax composition needs at least one mask")
    union = np.logical_or.reduce(_of_one_shape(masks))
    rows, first, last = _row_extents(union)
    cols = np.arange(union.shape[1])
    out = np.zeros(union.shape, dtype=np.uint8)
    out[rows] = (cols >= first[:, None]) & (cols <= last[:, None])
    return out


def cardiothoracic_ratio(heart, thorax, *, min_component_px: int = 8) -> MeasurementResult:
    """Widest heart extent over widest thorax extent, graded for cardiomegaly.

    The heart silhouette must be essentially one blob: more than two
    components, or a largest component below 80% of the cleaned foreground,
    excludes the study.
    """
    cond = Condition.CARDIOMEGALY
    heart, thorax = _of_one_shape((heart, thorax))
    h, h_sizes = _clean(heart, min_component_px)
    t = clean_mask(thorax, min_component_px)
    if not h.any():
        return _excluded(cond, "heart mask empty after cleaning")
    if not t.any():
        return _excluded(cond, "thorax mask empty after cleaning")
    # Cleaning drops whole components, so the kept ones are the cleaned heart's.
    n_comp, largest_frac = len(h_sizes), float(h_sizes.max() / h_sizes.sum())
    if n_comp > 2 or largest_frac < 0.8:
        return _excluded(
            cond, "heart silhouette fragmented",
            {"n_components": n_comp, "largest_fraction": largest_frac})
    hw, hr = max_row_width(h)
    tw, tr = max_row_width(t)
    if tw <= 0:
        return _excluded(cond, "thorax has zero horizontal extent")
    evidence = {"heart_width_px": hw, "heart_row": hr,
                "thorax_width_px": tw, "thorax_row": tr,
                "n_heart_components": n_comp}
    return _measured(cond, hw / tw, evidence)


def _spine_centroids(vertebrae: Sequence, min_vertebrae: int,
                     min_component_px: int) -> tuple[list[tuple[float, float]], str | None]:
    """Cleaned vertebral centroids sorted top to bottom, or an exclusion reason.

    Sorting is by (y, x) so equal heights still order deterministically.
    """
    pts = []
    for m in _of_one_shape(vertebrae):
        arr = clean_mask(m, min_component_px)
        if arr.any():
            pts.append(centroid(arr))
    if len(pts) < min_vertebrae:
        return [], (f"only {len(pts)} usable vertebral masks, "
                    f"need at least {min_vertebrae}")
    pts.sort(key=lambda p: (p[1], p[0]))
    return pts, None


def _angle_deg(u: np.ndarray, v: np.ndarray) -> float:
    # Unsigned angle between two vectors, in [0, 180].
    cross = u[0] * v[1] - u[1] * v[0]
    dot = u[0] * v[0] + u[1] * v[1]
    return math.degrees(math.atan2(abs(cross), dot))


def apex_angle(points: Sequence[tuple[float, float]]) -> tuple[float, int]:
    """Angle subtended at the spine apex by the endpoint centroids.

    The apex is the interior point farthest (perpendicular) from the
    endpoint-to-endpoint chord; distance ties keep the most superior
    candidate. Returns (angle_deg, apex_index).
    """
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) < 3:
        raise ValidationError("apex angle needs at least three points")
    top, bottom = pts[0], pts[-1]
    chord = bottom - top
    norm = float(np.hypot(*chord))
    if norm == 0:
        raise ValidationError("spine endpoints coincide")
    rel = pts[1:-1] - top
    dist = np.abs(chord[0] * rel[:, 1] - chord[1] * rel[:, 0]) / norm
    apex_idx = int(np.argmax(dist)) + 1   # first max is the most superior tie
    apex = pts[apex_idx]
    return _angle_deg(top - apex, bottom - apex), apex_idx


def scoliosis_angle(vertebrae: Sequence, *, min_vertebrae: int = 4,
                    min_component_px: int = 8) -> MeasurementResult:
    """Spinal curvature distortion: 180 degrees minus the apex angle.

    A perfectly straight spine subtends 180 degrees at any interior point
    and scores 0.
    """
    cond = Condition.SCOLIOSIS
    pts, reason = _spine_centroids(vertebrae, min_vertebrae, min_component_px)
    if reason:
        return _excluded(cond, reason)
    try:
        theta, apex_idx = apex_angle(pts)
    except ValidationError as exc:
        return _excluded(cond, str(exc))
    evidence = {"centroids": [[x, y] for x, y in pts],
                "apex_index": apex_idx,
                "apex_angle_deg": theta}
    return _measured(cond, 180.0 - theta, evidence)


def fit_spine_curve(points: Sequence[tuple[float, float]],
                    degree: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares polynomial x(t), y(t) in normalized chord length.

    Returns the two coefficient vectors (highest power first). The degree
    caps at n - 1 so small spines interpolate instead of overfitting the
    normal equations.
    """
    degree = _nonneg_int(degree, "degree")
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) < 2:
        raise ValidationError("curve fit needs at least two points")
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    total = float(seg.sum())
    if total == 0 or np.any(seg == 0):
        raise ValidationError("coincident centroids make arc length degenerate")
    t = np.concatenate([[0.0], np.cumsum(seg)]) / total
    deg = min(degree, len(pts) - 1)
    return np.polyfit(t, pts[:, 0], deg), np.polyfit(t, pts[:, 1], deg)


def endpoint_tangent_angle(points: Sequence[tuple[float, float]],
                           degree: int = 4) -> float:
    """Unsigned angle between fitted curve tangents at the two endpoints."""
    cx, cy = fit_spine_curve(points, degree)
    dx, dy = np.polyder(cx), np.polyder(cy)
    v0 = np.array([np.polyval(dx, 0.0), np.polyval(dy, 0.0)])
    v1 = np.array([np.polyval(dx, 1.0), np.polyval(dy, 1.0)])
    if np.hypot(*v0) < 1e-12 or np.hypot(*v1) < 1e-12:
        raise ValidationError("degenerate endpoint tangent")
    return _angle_deg(v0, v1)


def kyphosis_angle(vertebrae: Sequence, *, min_vertebrae: int = 5,
                   min_component_px: int = 8, fit_degree: int = 4) -> MeasurementResult:
    """Cobb-style angle between spine tangents at the cranial and caudal ends."""
    cond = Condition.KYPHOSIS
    fit_degree = _nonneg_int(fit_degree, "fit_degree")     # an error, not an exclusion
    pts, reason = _spine_centroids(vertebrae, min_vertebrae, min_component_px)
    if reason:
        return _excluded(cond, reason)
    ys = [p[1] for p in pts]
    if any(ys[i] >= ys[i + 1] for i in range(len(ys) - 1)):
        # Repeated centroid heights make the arc parameterization fold back.
        return _excluded(cond, "vertebral centroid heights are not strictly increasing")
    try:
        angle = endpoint_tangent_angle(pts, fit_degree)
    except ValidationError as exc:
        return _excluded(cond, str(exc))
    evidence = {"centroids": [[x, y] for x, y in pts],
                "fit_degree": min(fit_degree, len(pts) - 1)}
    return _measured(cond, angle, evidence)
