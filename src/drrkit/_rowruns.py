"""8-connected components, intersections and boundaries of 2D masks as row runs.

Components follow the run-based two-scan scheme of He, Chao & Suzuki (IEEE
TIP 2008), vectorized, with the run graph resolved by hooking and pointer
jumping (Shiloach & Vishkin, J. Algorithms 1982).

This module alone knows the run layout: one background column precedes each
row, so a run is a half-open range of offsets into rows of ``width + 1``.
"""

from __future__ import annotations

import numpy as np

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
    arrays of nonempty half-open intervals; ``b`` is sorted and disjoint, as
    runs are, and ``a`` need not be."""
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


def _label_runs(first: np.ndarray, end: np.ndarray, width: int) -> tuple[np.ndarray, int]:
    """8-connected components of the runs ``_runs`` found in a mask of
    ``width`` columns: ``(component, n)``, run k in component ``component[k]``
    in 1..n, numbered in raster order of their first pixel."""
    # Run a (row r) touches run b (row r + 1) when b overlaps a widened by one
    # pixel on each side and moved down a row.
    a, b = _overlaps((first + width, end + (width + 2)), (first, end))

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


def _boundary_points(runs, shape) -> np.ndarray:
    """(row, col) of every boundary pixel of a mask, from its runs, in raster
    order as np.argwhere lists them."""
    first, end = runs
    stride = shape[1] + 1
    # A pixel is interior when its run holds both its row neighbours and the
    # rows above and below hold it. Rows -1 and h hold no runs, so no pixel
    # on the image edge is interior.
    long = end - first > 2
    interior = (first[long] + 1, end[long] - 1)
    for shift in (stride, -stride):
        interior = _intersect(interior, (first + shift, end + shift))[:2]
    # The boundary is the runs less the interior pieces inside them: it
    # starts at every run start and piece end, and stops at every piece start
    # and run end. No two of these coincide, so sorting each pair of sorted
    # lists (a stable sort merges them) lines the intervals up in raster
    # order, and they are expanded in that order.
    first = np.sort(np.concatenate((first, interior[1])), kind="stable")
    end = np.sort(np.concatenate((interior[0], end)), kind="stable")
    pos = _expand(first, end - first)
    pts = np.empty((len(pos), 2), dtype=np.int64)
    np.divmod(pos, stride, out=(pts[:, 0], pts[:, 1]))
    pts[:, 1] -= 1
    return pts
