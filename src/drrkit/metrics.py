"""Overlap, boundary-distance and detection metrics for 2D binary masks.

Conventions for degenerate pairs are fixed so batch evaluation never throws
midway: two empty masks are a perfect trivial match, a single empty side is
a total miss whose boundary distances saturate at the image diagonal. Both
cases are flagged in the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from ._rowruns import _boundary_points, _component_sizes, _intersect, _label_runs, _runs
from .io import _MAX_ID, ValidationError, _Record, _as_binary, _nonneg_int, _setting
from .stats import BootstrapCI, _percentile, bootstrap_ci

AGGREGATE_METRICS = ("dice", "iou", "hd95", "asd", "nsd",
                     "precision", "recall", "f1")


@dataclass(frozen=True)
class MetricsReport(_Record):
    """All pairwise metrics for one (predicted, reference) mask pair."""

    dice: float
    iou: float
    hd95: float
    asd: float
    nsd: float
    precision: float
    recall: float
    f1: float
    n_pred_components: int
    n_ref_components: int
    n_matched: int
    flags: tuple[str, ...] = ()


# Every pair metric is computed from the two masks' row runs (_rowruns), each
# found once: overlaps by intersecting the run lists, components by linking
# them, and boundary points by subtracting each run's interior.


class _MaskRuns(NamedTuple):     # a mask reduced to its row runs, without its pixels
    shape: tuple[int, int]
    first: np.ndarray
    end: np.ndarray


def _mask_runs(mask, name: str = "mask") -> _MaskRuns:
    """The runs of a mask; one already reduced is taken as it is."""
    if isinstance(mask, _MaskRuns):
        return mask
    fg = _as_binary(mask, name)
    return _MaskRuns(fg.shape, *_runs(fg))


def _pair_runs(pred, ref):
    """The common shape of two masks and the runs of each."""
    p, r = _mask_runs(pred, "predicted mask"), _mask_runs(ref, "reference mask")
    if p.shape != r.shape:
        raise ValidationError(
            f"mask geometry mismatch: predicted {p.shape} vs reference {r.shape}")
    return p.shape, (p.first, p.end), (r.first, r.end)


def _area(runs) -> int:
    first, end = runs
    return int((end - first).sum())


def _dice_iou(runs_p, runs_r, pieces) -> tuple[float, float]:
    inter, np_, nr = _area(pieces[:2]), _area(runs_p), _area(runs_r)
    if np_ + nr == 0:
        return 1.0, 1.0
    return 2.0 * inter / (np_ + nr), inter / (np_ + nr - inter)


def dice_iou(pred, ref) -> tuple[float, float]:
    """Dice and IoU of two same-shape binary masks; both-empty scores 1."""
    _, runs_p, runs_r = _pair_runs(pred, ref)
    return _dice_iou(runs_p, runs_r, _intersect(runs_p, runs_r))


def boundary_pixels(mask) -> np.ndarray:
    """Boolean map of foreground pixels with a 4-neighbour background pixel
    or lying on the image edge."""
    fg = _as_binary(mask, "input mask")
    row, col = _boundary_points(_runs(fg), fg.shape).T
    out = np.zeros(fg.shape, dtype=bool)
    out[row, col] = True
    return out


# Nearest-boundary search. Boundary points lie on the pixel grid, so every
# squared distance is an exact int64, and each distance is the correctly
# rounded square root of one. These constants change the speed, never a result.
_RING_ROWS = 24         # row offsets searched around every point first
_CELL = 32              # side of the grid cells that prune the search for far points
_CHUNK = 1 << 18        # elements per int64 temporary in the cell search
_KEY_SENTINEL = 1 << 61  # beyond every key, on both sides


def _directed_distances(src_pts: np.ndarray, dst_pts: np.ndarray) -> np.ndarray:
    """Euclidean distance from every src point to the nearest dst point, in
    pixel units. Both are nonempty (n, 2) integer arrays of (row, col), and
    dst_pts is in raster order, as _boundary_points lists it."""
    return np.sqrt(_nearest_sq(src_pts, dst_pts).astype(np.float64))


def _nearest_sq(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    # Rows y, then y + dy and y - dy for dy = 1, 2, ..., are searched for
    # every src point at once: one np.searchsorted over the dst keys finds a
    # point's nearest dst column in both rows of a ring. Once rows within dy
    # are done, a point whose best squared distance is at most (dy + 1)^2 is
    # resolved; points still open after _RING_ROWS rows go to the cell search.
    h = int(max(src[:, 0].max(), dst[:, 0].max())) + 1
    w = int(max(src[:, 1].max(), dst[:, 1].max())) + 1
    cap = h + w         # longer than any distance in the frame
    stride = cap + w    # two keys in different rows differ by more than cap
    keys = np.concatenate(([-_KEY_SENTINEL], dst[:, 0] * stride + dst[:, 1],
                           [_KEY_SENTINEL]))
    best = np.empty(len(src), dtype=np.int64)
    todo = np.arange(len(src))
    q = src[:, 0] * stride + src[:, 1]
    cur = np.full(len(src), cap * cap, dtype=np.int64)     # best so far of each open point
    for dy in range(_RING_ROWS + 1):
        qq = np.concatenate((q + dy * stride, q - dy * stride)) if dy else q
        i = np.searchsorted(keys, qq)
        # A gap of cap or more means no dst point in that row; capped, it
        # costs more than any real distance, so it never wins.
        dx = np.minimum(np.minimum(keys[i] - qq, qq - keys[i - 1]), cap)
        if dy:
            dx = np.minimum(dx[:len(q)], dx[len(q):])
        np.minimum(cur, dx * dx + dy * dy, out=cur)
        done = cur <= (dy + 1) ** 2
        best[todo[done]] = cur[done]
        todo, q, cur = todo[~done], q[~done], cur[~done]
        if not todo.size:
            return best
    best[todo] = _cell_search(src[todo], cur, dst, w // _CELL + 1)
    return best


def _grid(pts: np.ndarray, ncol: int):
    # Points grouped by _CELL x _CELL cell: the sorting order, each nonempty
    # cell's start and size in it, the sorted rows and cols, and each cell's
    # exact bounding box (row min, row max, col min, col max).
    cell = (pts[:, 0] // _CELL) * ncol + pts[:, 1] // _CELL
    order = np.argsort(cell, kind="stable")
    start = np.flatnonzero(np.diff(cell[order], prepend=-1))
    y, x = pts[order, 0], pts[order, 1]
    box = [f.reduceat(v, start) for f, v in ((np.minimum, y), (np.maximum, y),
                                              (np.minimum, x), (np.maximum, x))]
    return order, start, np.diff(start, append=len(pts)), y, x, box


def _box_bounds(a, b):
    # Least and greatest squared distance between a point of box a and a
    # point of box b.
    (ay0, ay1, ax0, ax1), (by0, by1, bx0, bx1) = a, b
    gy = np.maximum(np.maximum(ay0 - by1, by0 - ay1), 0)
    gx = np.maximum(np.maximum(ax0 - bx1, bx0 - ax1), 0)
    fy = np.maximum(ay1 - by0, by1 - ay0)
    fx = np.maximum(ax1 - bx0, bx1 - ax0)
    return gy * gy + gx * gx, fy * fy + fx * fx


def _point_bounds(py, px, box):
    # Bounds on the squared distance from a point to the nearest point in a
    # cell. Below: the distance to the box. Above: each edge of an exact
    # bounding box holds a point, so the nearest is no farther than the far
    # end of the nearest edge.
    y0, y1, x0, x1 = box
    a, b, c, d = py - y0, py - y1, px - x0, px - x1
    gy = np.maximum(np.maximum(-a, b), 0)
    gx = np.maximum(np.maximum(-c, d), 0)
    a, b, c, d = a * a, b * b, c * c, d * d
    return gy * gy + gx * gx, np.minimum(np.minimum(a, b) + np.maximum(c, d),
                                         np.minimum(c, d) + np.maximum(a, b))


def _spans(counts: np.ndarray):
    # Lists every (i, k) with k < counts[i], as an array of i and one of k,
    # about _CHUNK pairs at a time. counts may be empty.
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    cuts = np.searchsorted(ends, np.arange(_CHUNK, total, _CHUNK))
    for lo, hi in zip([0, *cuts], [*cuts, len(counts)]):
        n = counts[lo:hi]
        i = np.repeat(np.arange(lo, hi), n)
        yield i, np.arange(len(i)) - np.repeat(np.cumsum(n) - n, n)


def _cell_search(pts: np.ndarray, ub: np.ndarray, dst: np.ndarray, ncol: int) -> np.ndarray:
    # Exact nearest squared distances for far points, given an upper bound
    # for each. Both point sets are gridded into cells. A dst cell is kept for
    # a src cell, then for each of its points, only while its lower bound is
    # at most the best upper bound so far; the points are brute-forced
    # against the points of the dst cells that remain.
    so, s_start, s_size, sy, sx, s_box = _grid(pts, ncol)
    _, d_start, d_size, qy, qx, d_box = _grid(dst, ncol)
    best = ub[so]
    cell_ub = np.maximum.reduceat(best, s_start)
    rows = max(1, _CHUNK // len(d_start))
    for a in range(0, len(s_start), rows):
        lb, far = _box_bounds([v[a:a + rows, None] for v in s_box], d_box)
        cells, cand = np.nonzero(lb <= np.minimum(cell_ub[a:a + rows], far.min(axis=1))[:, None])
        cells += a
        for i, k in _spans(s_size[cells]):
            p, c = s_start[cells[i]] + k, cand[i]
            py, px = sy[p], sx[p]
            lb, near = _point_bounds(py, px, [v[c] for v in d_box])
            np.minimum.at(best, p, near)
            keep = lb <= best[p]
            p, c, py, px = p[keep], c[keep], py[keep], px[keep]
            for j, k in _spans(d_size[c]):
                q = d_start[c[j]] + k
                ey, ex = py[j] - qy[q], px[j] - qx[q]
                np.minimum.at(best, p[j], ey * ey + ex * ex)
    out = np.empty_like(best)
    out[so] = best
    return out


def _boundary_distances(shape, runs_p, runs_r, nsd_tolerance_px: float,
                        ) -> tuple[float, float, float]:
    # A nonempty mask always has a boundary pixel: its topmost row does.
    bp, br = _boundary_points(runs_p, shape), _boundary_points(runs_r, shape)
    d_pr = _directed_distances(bp, br)
    d_rp = _directed_distances(br, bp)
    pooled = np.concatenate([d_pr, d_rp])
    hd95 = max(_percentile(d_pr, 95.0), _percentile(d_rp, 95.0))
    asd = float(pooled.mean())
    nsd = float(np.count_nonzero(pooled <= nsd_tolerance_px) / len(pooled))
    return hd95, asd, nsd


def boundary_distance_metrics(pred, ref, *, nsd_tolerance_px: float = 2.0,
                              ) -> tuple[float, float, float]:
    """(hd95, asd, nsd) between two nonempty same-shape masks.

    hd95 is the max of the two directed 95th percentiles, asd the mean over
    both directions pooled, nsd the pooled fraction within tolerance.
    """
    nsd_tolerance_px = _setting("nsd_tolerance_px", nsd_tolerance_px)
    shape, runs_p, runs_r = _pair_runs(pred, ref)
    if not len(runs_p[0]) or not len(runs_r[0]):
        raise ValidationError("boundary metrics are undefined for empty masks; "
                              "use evaluate_pair for the degenerate conventions")
    return _boundary_distances(shape, runs_p, runs_r, nsd_tolerance_px)


def _detection(shape, runs_p, runs_r, pieces, match_iou: float,
               ) -> tuple[float, float, float, int, int, int]:
    comp_p, n_p = _label_runs(*runs_p, shape[1])
    comp_r, n_r = _label_runs(*runs_r, shape[1])
    if n_p == 0 and n_r == 0:
        return 1.0, 1.0, 1.0, 0, 0, 0
    if n_p == 0 or n_r == 0:
        return 0.0, 0.0, 0.0, n_p, n_r, 0

    sizes_p = _component_sizes(*runs_p, comp_p, n_p)
    sizes_r = _component_sizes(*runs_r, comp_r, n_r)
    # Each piece of the run intersection lies in one run of p and one of r,
    # and its length is that (pred component, ref component) pair's share
    # of the overlap.
    first, end, run_p, run_r = pieces
    i = comp_p[run_p].astype(np.int64)
    j = comp_r[run_r]
    keys, which = np.unique(i * (n_r + 1) + j, return_inverse=True)
    inter = np.bincount(which, weights=end - first).astype(np.int64)
    i, j = keys // (n_r + 1), keys % (n_r + 1)
    iou = inter / (sizes_p[i] + sizes_r[j] - inter)

    order = sorted(zip(iou.tolist(), i.tolist(), j.tolist()), key=lambda t: (-t[0], t[1], t[2]))
    used_p: set[int] = set()
    used_r: set[int] = set()
    matched = 0
    for v, i, j in order:
        if v < match_iou:
            break
        if i in used_p or j in used_r:
            continue
        used_p.add(i)
        used_r.add(j)
        matched += 1
    precision = matched / n_p
    recall = matched / n_r
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1, n_p, n_r, matched


def component_detection(pred, ref, *, match_iou: float = 0.5,
                        ) -> tuple[float, float, float, int, int, int]:
    """Instance-style detection over 8-connected components.

    Components are matched one to one, greedily by descending IoU with ties
    broken on (pred index, ref index); a pair counts only at IoU at or above
    match_iou. Returns (precision, recall, f1, n_pred, n_ref, n_matched).
    """
    match_iou = _setting("match_iou", match_iou)
    shape, runs_p, runs_r = _pair_runs(pred, ref)
    return _detection(shape, runs_p, runs_r, _intersect(runs_p, runs_r), match_iou)


def evaluate_pair(pred, ref, *, nsd_tolerance_px: float = 2.0,
                  match_iou: float = 0.5) -> MetricsReport:
    """Full metric set for one mask pair, including degenerate conventions.

    Overlap and detection already score two empty masks 1 and a single empty
    side 0; only the boundary distances need the conventions. Each mask's
    runs are found once, and the two are intersected once.
    """
    nsd_tolerance_px = _setting("nsd_tolerance_px", nsd_tolerance_px)
    match_iou = _setting("match_iou", match_iou)
    shape, runs_p, runs_r = _pair_runs(pred, ref)
    pieces = _intersect(runs_p, runs_r)
    dice, iou = _dice_iou(runs_p, runs_r, pieces)
    precision, recall, f1, n_p, n_r, matched = _detection(
        shape, runs_p, runs_r, pieces, match_iou)
    # A mask is empty exactly when it has no component.
    if n_p == 0 and n_r == 0:
        (hd95, asd, nsd), flags = (0.0, 0.0, 1.0), ("both_empty",)
    elif n_p == 0 or n_r == 0:
        diag = float(np.hypot(*shape))
        (hd95, asd, nsd), flags = (diag, diag, 0.0), ("pred_empty" if n_p == 0 else "ref_empty",)
    else:
        hd95, asd, nsd = _boundary_distances(shape, runs_p, runs_r, nsd_tolerance_px)
        flags = ()
    return MetricsReport(dice=dice, iou=iou, hd95=hd95, asd=asd, nsd=nsd,
                         precision=precision, recall=recall, f1=f1,
                         n_pred_components=n_p, n_ref_components=n_r,
                         n_matched=matched, flags=flags)


@dataclass(frozen=True)
class ClassSetReport(_Record):
    """Per-class metric reports plus bootstrap CIs of the across-class means."""

    per_class: Mapping[int, MetricsReport]
    aggregate: Mapping[str, BootstrapCI]


def evaluate_class_set(pairs: Iterable[tuple[int, object, object]], *,
                       nsd_tolerance_px: float = 2.0, match_iou: float = 0.5,
                       n_resamples: int = 10000, seed: int = 0) -> ClassSetReport:
    """Evaluate (class_id, pred, ref) pairs and aggregate across classes.

    ``pairs`` may be any iterable, a generator included; it is consumed once,
    after the settings are checked. Each pair is scored as it arrives and
    released before the next is drawn, so only one pair is held at a time if
    the iterable builds them one by one.
    Aggregates are 95% percentile-bootstrap CIs of the mean over per-class
    values; a single class collapses the interval onto its value.
    """
    nsd_tolerance_px = _setting("nsd_tolerance_px", nsd_tolerance_px)
    match_iou = _setting("match_iou", match_iou)
    n_resamples, seed = _setting("n_resamples", n_resamples), _nonneg_int(seed, "seed")
    per_class: dict[int, MetricsReport] = {}
    for class_id, pred, ref in pairs:
        class_id = _nonneg_int(class_id, "class id", hi=_MAX_ID)
        if class_id in per_class:
            raise ValidationError(f"duplicate class id {class_id}")
        try:
            per_class[class_id] = evaluate_pair(
                pred, ref, nsd_tolerance_px=nsd_tolerance_px, match_iou=match_iou)
        except ValidationError as exc:
            raise ValidationError(f"class {class_id}: {exc}") from exc
        del pred, ref   # the iterable may build the next pair before the loop rebinds them
    if not per_class:
        raise ValidationError("no mask pairs to evaluate")
    per_class = {k: per_class[k] for k in sorted(per_class)}
    aggregate = {}
    for name in AGGREGATE_METRICS:
        values = [getattr(rep, name) for rep in per_class.values()]
        aggregate[name] = bootstrap_ci(values, n_resamples=n_resamples, seed=seed)
    return ClassSetReport(per_class=per_class, aggregate=aggregate)
