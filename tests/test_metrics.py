"""Overlap, boundary-distance and detection metrics against brute-force oracles."""

import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from drrkit import metrics
from drrkit import (Mask2D, ValidationError, View, boundary_distance_metrics,
                    boundary_pixels, component_detection, dice_iou,
                    evaluate_class_set, evaluate_pair)
from drrkit._rowruns import _boundary_points, _intersect, _runs


def _pair(rng, max_side=8, density=0.5):
    shape = (int(rng.integers(1, max_side + 1)), int(rng.integers(1, max_side + 1)))
    pred = (rng.random(size=shape) < density).astype(np.uint8)
    ref = (rng.random(size=shape) < density).astype(np.uint8)
    return pred, ref


# --- overlap -----------------------------------------------------------------

def test_overlap_identical():
    m = np.ones((4, 6), dtype=np.uint8)
    assert dice_iou(m, m) == (1.0, 1.0)


def test_overlap_disjoint():
    a = np.zeros((4, 4), dtype=np.uint8)
    b = np.zeros((4, 4), dtype=np.uint8)
    a[0, 0] = 1
    b[3, 3] = 1
    assert dice_iou(a, b) == (0.0, 0.0)


def test_overlap_half_shared():
    a = np.zeros((1, 4), dtype=np.uint8)
    b = np.zeros((1, 4), dtype=np.uint8)
    a[0, 0:2] = 1
    b[0, 1:3] = 1
    dice, iou = dice_iou(a, b)
    assert dice == pytest.approx(0.5)
    assert iou == pytest.approx(1.0 / 3.0)


def test_overlap_matches_oracle_and_identity():
    rng = np.random.default_rng(11)
    for _ in range(60):
        pred, ref = _pair(rng)
        if not pred.any() or not ref.any():
            continue
        dice, iou = dice_iou(pred, ref)
        rd, ri = oracles.overlap_reference(pred, ref)
        assert dice == pytest.approx(rd, abs=1e-12)
        assert iou == pytest.approx(ri, abs=1e-12)
        # dice = 2*iou / (1 + iou)
        assert dice == pytest.approx(2.0 * iou / (1.0 + iou), abs=1e-12)


def test_overlap_shape_mismatch_rejected():
    with pytest.raises(ValidationError):
        dice_iou(np.ones((2, 2), dtype=np.uint8), np.ones((2, 3), dtype=np.uint8))


@pytest.mark.parametrize("reduce", [np.asarray, metrics._mask_runs], ids=["masks", "reduced"])
def test_evaluate_pair_names_both_shapes_of_a_mismatch(reduce):
    pred, ref = (reduce(np.ones(shape, dtype=np.uint8)) for shape in ((2, 2), (2, 3)))
    with pytest.raises(ValidationError,
                       match=r"^mask geometry mismatch: predicted \(2, 2\) vs reference \(2, 3\)$"):
        evaluate_pair(pred, ref)


# --- boundaries ---------------------------------------------------------------

def test_boundary_pixels_interior_excluded():
    m = np.zeros((5, 5), dtype=np.uint8)
    m[1:4, 1:4] = 1
    b = boundary_pixels(m)
    assert b[2, 2] == 0                 # interior
    assert b[1, 1] == 1 and b[1, 2] == 1


def test_boundary_pixels_image_edge_counts():
    m = np.ones((3, 3), dtype=np.uint8)
    b = boundary_pixels(m)
    assert b[1, 1] == 0
    assert b.sum() == 8


def test_boundary_metrics_identical():
    m = np.zeros((6, 6), dtype=np.uint8)
    m[2:5, 1:4] = 1
    hd95, asd, nsd = boundary_distance_metrics(m, m, nsd_tolerance_px=1.0)
    assert hd95 == 0.0 and asd == 0.0 and nsd == 1.0


def test_boundary_metrics_two_pixels_apart():
    a = np.zeros((1, 8), dtype=np.uint8)
    b = np.zeros((1, 8), dtype=np.uint8)
    a[0, 1] = 1
    b[0, 4] = 1
    hd95, asd, nsd = boundary_distance_metrics(a, b, nsd_tolerance_px=1.0)
    assert hd95 == pytest.approx(3.0)
    assert asd == pytest.approx(3.0)
    assert nsd == 0.0


def test_boundary_metrics_match_oracle():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 60:
        pred, ref = _pair(rng)
        if not pred.any() or not ref.any():
            continue
        tol = float(rng.uniform(0.5, 3.0))
        got = boundary_distance_metrics(pred, ref, nsd_tolerance_px=tol)
        want = oracles.boundary_metrics_reference(pred, ref, tol)
        assert got[0] == pytest.approx(want[0], abs=1e-9)
        assert got[1] == pytest.approx(want[1], abs=1e-9)
        assert got[2] == pytest.approx(want[2], abs=1e-9)
        checked += 1


def test_boundary_metrics_symmetry():
    rng = np.random.default_rng(17)
    for _ in range(20):
        pred, ref = _pair(rng)
        if not pred.any() or not ref.any():
            continue
        fwd = boundary_distance_metrics(pred, ref, nsd_tolerance_px=1.5)
        rev = boundary_distance_metrics(ref, pred, nsd_tolerance_px=1.5)
        assert fwd == pytest.approx(rev, abs=1e-12)


def test_boundary_metrics_translation_invariance():
    base_p = np.zeros((12, 12), dtype=np.uint8)
    base_r = np.zeros((12, 12), dtype=np.uint8)
    base_p[2:5, 2:6] = 1
    base_r[3:6, 3:5] = 1
    shift_p = np.roll(base_p, (3, 2), axis=(0, 1))
    shift_r = np.roll(base_r, (3, 2), axis=(0, 1))
    a = boundary_distance_metrics(base_p, base_r, nsd_tolerance_px=1.0)
    b = boundary_distance_metrics(shift_p, shift_r, nsd_tolerance_px=1.0)
    assert a == pytest.approx(b, abs=1e-12)


# --- run geometry -----------------------------------------------------------------

# Shapes up to 32 x 32, single rows and single columns drawn as often as the rest.
_SHAPES = st.one_of(st.tuples(st.just(1), st.integers(1, 32)),
                    st.tuples(st.integers(1, 32), st.just(1)),
                    st.tuples(st.integers(1, 32), st.integers(1, 32)))


def _masks(shape):
    return st.one_of(arrays(np.bool_, shape), st.just(np.zeros(shape, dtype=bool)),
                     st.just(np.ones(shape, dtype=bool)))


def _padded_boundary(m):
    # The 4-neighbour rule on the padded frame, one pixel at a time.
    pad = np.pad(m, 1)
    h, w = m.shape
    return np.array([(y, x) for y in range(h) for x in range(w)
                     if m[y, x] and not (pad[y, x + 1] and pad[y + 2, x + 1]
                                         and pad[y + 1, x] and pad[y + 1, x + 2])],
                    dtype=np.int64).reshape(-1, 2)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_SHAPES.flatmap(_masks))
@example(np.zeros((1, 32), dtype=bool))
@example(np.ones((1, 32), dtype=bool))
@example(np.ones((32, 1), dtype=bool))
@example(np.ones((32, 32), dtype=bool))
def test_run_boundary_points_match_boundary_map(m):
    pts = _boundary_points(_runs(m), m.shape)
    assert pts.dtype == np.int64 and pts.shape[1] == 2
    np.testing.assert_array_equal(pts, _padded_boundary(m))
    np.testing.assert_array_equal(pts, np.argwhere(boundary_pixels(m)))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_SHAPES.flatmap(lambda shape: st.tuples(_masks(shape), _masks(shape))))
def test_run_intersection_is_runs_of_the_overlap(pair):
    p, r = pair
    runs_p, runs_r = _runs(p), _runs(r)
    first, end, i, k = _intersect(runs_p, runs_r)
    want = _runs(p & r)
    np.testing.assert_array_equal(first, want[0])
    np.testing.assert_array_equal(end, want[1])
    # Each piece lies in the run of p and the run of r it names.
    assert np.all(runs_p[0][i] <= first) and np.all(end <= runs_p[1][i])
    assert np.all(runs_r[0][k] <= first) and np.all(end <= runs_r[1][k])


def _blobs(shape):
    m = np.zeros(shape, dtype=np.uint8)
    m[2:9, 3:12] = 1
    m[12:15, 1:4] = 1
    return m


@pytest.mark.parametrize("pred,ref", [
    (_blobs((18, 20)), np.roll(_blobs((18, 20)), (1, 2), axis=(0, 1))),
    (_blobs((18, 20)), np.zeros((18, 20), dtype=np.uint8)),
    (np.zeros((18, 20), dtype=np.uint8), np.zeros((18, 20), dtype=np.uint8)),
    (Mask2D(_blobs((18, 20)), View.PA, (1, 1)), Mask2D(_blobs((18, 20))[::-1], View.PA, (1, 1))),
], ids=["nonempty", "ref-empty", "both-empty", "Mask2D"])
def test_evaluate_pair_finds_each_masks_runs_once(monkeypatch, pred, ref):
    # Every metric comes from the two run lists: no further scan of a mask,
    # and no boundary map turned into points. Masks already reduced to their
    # runs, as evaluate's reader hands them over, are not scanned at all.
    reduced = [metrics._mask_runs(m) for m in (pred, ref)]
    scanned = []
    real_runs = metrics._runs
    monkeypatch.setattr(metrics, "_runs", lambda fg: scanned.append(fg.shape) or real_runs(fg))

    def forbidden(*args, **kwargs):
        raise AssertionError("np.argwhere called")
    monkeypatch.setattr(np, "argwhere", forbidden)
    rep = evaluate_pair(pred, ref)
    assert scanned == [(18, 20), (18, 20)]
    scanned.clear()
    assert evaluate_pair(*reduced) == rep
    assert scanned == []
    monkeypatch.undo()
    p, r = (m.data if isinstance(m, Mask2D) else m for m in (pred, ref))
    assert rep.dice == dice_iou(p, r)[0]
    assert rep.n_matched == component_detection(p, r)[5]


# --- nearest boundary points -------------------------------------------------------

def _nearest_oracle(src, dst):
    """Brute force: every squared distance as an exact int64, one sqrt per point."""
    d2 = ((src[:, None, :] - dst[None, :, :]) ** 2).sum(axis=2).min(axis=1)
    return np.sqrt(d2.astype(np.float64))


def _raster(points, offset=(0, 0)):
    # np.unique sorts (row, col) pairs into raster order, as np.argwhere lists them.
    return np.unique(np.asarray(points, dtype=np.int64) + offset, axis=0)


def _assert_nearest_exact(a, b):
    for src, dst in ((a, b), (b, a)):
        assert np.array_equal(metrics._directed_distances(src, dst), _nearest_oracle(src, dst))


_POINTS = st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=1, max_size=40)


# Offsets up to several times the searched ring of rows, so points reach the
# cell search as well as being resolved in the ring.
@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_POINTS, _POINTS, st.tuples(st.integers(0, 150), st.integers(0, 150)))
def test_nearest_search_matches_integer_oracle(src, dst, offset):
    _assert_nearest_exact(_raster(src), _raster(dst, offset))


# The constants set only how the work is split; the default row runs the
# same sparse sets, which send most points to the cell search.
@pytest.mark.parametrize("ring_rows,cell,chunk", [(24, 32, 1 << 18), (0, 1, 1), (1, 3, 7),
                                                  (2, 5, 64), (24, 32, 1)])
def test_nearest_search_constants_change_no_result(monkeypatch, ring_rows, cell, chunk):
    monkeypatch.setattr(metrics, "_RING_ROWS", ring_rows)
    monkeypatch.setattr(metrics, "_CELL", cell)
    monkeypatch.setattr(metrics, "_CHUNK", chunk)
    rng = np.random.default_rng(3)
    for _ in range(150):
        (n, m), (h, w) = rng.integers(1, 60, size=2), rng.integers(1, 200, size=2)
        _assert_nearest_exact(_raster(rng.integers(0, (h, w), size=(n, 2))),
                              _raster(rng.integers(0, (h, w), size=(m, 2))))


def _ellipse(shape, cy, cx, ay, ax):
    yy, xx = np.ogrid[:shape[0], :shape[1]]
    return ((yy - cy) / ay) ** 2 + ((xx - cx) / ax) ** 2 <= 1.0


def _far_noise_block():
    block = np.zeros((256, 256), dtype=bool)
    block[200:240, 200:240] = np.random.default_rng(9).random((40, 40)) < 0.5
    return _ellipse((256, 256), 50, 50, 30, 30), block


# The search's hard cases, scaled down from 2048 x 2048: two components far
# apart, an ellipse shifted past the ring of rows, dense noise, a tiny blob
# against a far disc, and a disc against a far block of noise.
_ADVERSARIAL = {
    "disc_and_far_noise_block": _far_noise_block,
    "far_components": lambda: (_ellipse((256, 256), 20, 20, 12, 12),
                               _ellipse((256, 256), 230, 236, 12, 12)),
    "shifted_ellipse": lambda: (_ellipse((256, 256), 128, 110, 44, 56),
                                _ellipse((256, 256), 128, 150, 44, 56)),
    "noise": lambda: tuple(np.random.default_rng(8).random((2, 48, 48)) < 0.5),
    "blob_and_far_disc": lambda: (_ellipse((256, 256), 4, 4, 1, 1),
                                  _ellipse((256, 256), 190, 190, 60, 60)),
}


@pytest.mark.parametrize("name", sorted(_ADVERSARIAL))
def test_nearest_search_on_adversarial_pairs(name):
    pred, ref = _ADVERSARIAL[name]()
    _assert_nearest_exact(np.argwhere(boundary_pixels(pred)), np.argwhere(boundary_pixels(ref)))


# --- detection ------------------------------------------------------------------

def test_detection_two_pred_one_ref():
    pred = np.zeros((10, 20), dtype=np.uint8)
    ref = np.zeros((10, 20), dtype=np.uint8)
    ref[2:6, 2:6] = 1                    # 16 px
    pred[2:6, 2:6] = 1                   # matches the reference exactly
    pred[2:4, 14:16] = 1                 # spurious island
    precision, recall, f1, n_pred, n_ref, n_match = component_detection(pred, ref)
    assert (n_pred, n_ref, n_match) == (2, 1, 1)
    assert precision == pytest.approx(0.5)
    assert recall == pytest.approx(1.0)
    assert f1 == pytest.approx(2.0 / 3.0)


def test_detection_low_iou_not_matched():
    pred = np.zeros((8, 8), dtype=np.uint8)
    ref = np.zeros((8, 8), dtype=np.uint8)
    pred[0:2, 0:4] = 1                   # 8 px
    ref[1:2, 3:6] = 1                    # 3 px, overlap 1 px, IoU 1/10 < 0.5
    _, _, _, n_pred, n_ref, n_match = component_detection(pred, ref)
    assert (n_pred, n_ref, n_match) == (1, 1, 0)


def test_detection_matches_oracle():
    rng = np.random.default_rng(19)
    for _ in range(60):
        pred, ref = _pair(rng, density=0.4)
        got = component_detection(pred, ref)
        want = oracles.detection_reference(pred, ref, 0.5)
        assert got == pytest.approx(want, abs=1e-12)


# Larger pairs than the seeded ones, with overlap runs that end in the last
# column. Every pixel is drawn on its own (no fill value), so many pairs hold
# components that overlap several of the other side's. The threshold is drawn
# too: below 0.5 one component can pass it with several of the other side's.
# Derandomized, so the suite runs the same examples every time.
@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.tuples(st.integers(1, 24), st.integers(1, 24)).flatmap(
    lambda shape: st.tuples(*[arrays(np.bool_, shape, fill=st.nothing())] * 2)),
    st.floats(0.0, 1.0))
def test_detection_matches_oracle_on_random_pairs(pair, match_iou):
    pred, ref = pair
    got = component_detection(pred, ref, match_iou=match_iou)
    want = oracles.detection_reference(pred, ref, match_iou)
    assert got == pytest.approx(want, abs=1e-12)


def test_detection_matches_each_component_once():
    # Two prediction blobs, split by a gap column, each cover 50 of one 10x11
    # reference blob's 110 pixels: both pass match_iou 0.3 with the same
    # reference, which matches only the first.
    ref = np.zeros((12, 13), dtype=np.uint8)
    ref[1:11, 1:12] = 1
    pred = ref.copy()
    pred[:, 6] = 0
    got = component_detection(pred, ref, match_iou=0.3)
    assert got == pytest.approx(oracles.detection_reference(pred, ref, 0.3), abs=1e-12)
    assert got == pytest.approx((0.5, 1.0, 2 / 3, 2, 1, 1), abs=1e-12)


def _candidate_ious(pred, ref):
    out = []
    for cp in oracles.flood_components(pred):
        for cr in oracles.flood_components(ref):
            inter = len(cp & cr)
            if inter:
                out.append(inter / len(cp | cr))
    return out


def test_detection_greedy_equals_max_matching_distinct_ious():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 40:
        pred, ref = _pair(rng, density=0.45)
        ious = _candidate_ious(pred, ref)
        if len(set(ious)) != len(ious):
            continue
        _, _, _, _, _, n_match = component_detection(pred, ref)
        assert n_match == oracles.max_matching_reference(pred, ref, 0.5)
        checked += 1


# --- whole-pair evaluation ---------------------------------------------------------

def test_evaluate_pair_identical_perfect():
    m = np.zeros((8, 8), dtype=np.uint8)
    m[2:6, 3:7] = 1
    rep = evaluate_pair(m, m)
    assert rep.dice == 1.0 and rep.iou == 1.0
    assert rep.hd95 == 0.0 and rep.asd == 0.0 and rep.nsd == 1.0
    assert rep.precision == 1.0 and rep.recall == 1.0 and rep.f1 == 1.0
    assert rep.flags == ()


def test_evaluate_pair_both_empty_convention():
    z = np.zeros((5, 7), dtype=np.uint8)
    rep = evaluate_pair(z, z)
    assert rep.dice == 1.0 and rep.iou == 1.0 and rep.nsd == 1.0
    assert rep.hd95 == 0.0 and rep.asd == 0.0
    assert (rep.precision, rep.recall, rep.f1) == (1.0, 1.0, 1.0)
    assert "both_empty" in rep.flags


def test_evaluate_pair_one_empty_convention():
    z = np.zeros((3, 4), dtype=np.uint8)
    m = z.copy()
    m[1, 1] = 1
    rep = evaluate_pair(m, z)
    assert rep.dice == 0.0 and rep.iou == 0.0 and rep.nsd == 0.0
    diag = float(np.hypot(3, 4))
    assert rep.hd95 == pytest.approx(diag)
    assert rep.asd == pytest.approx(diag)
    assert (rep.precision, rep.recall, rep.f1) == (0.0, 0.0, 0.0)
    assert "pred_empty" in rep.flags or "ref_empty" in rep.flags


@pytest.mark.parametrize("settings", [
    {"match_iou": -0.1}, {"match_iou": 1.5}, {"match_iou": float("nan")},
    {"nsd_tolerance_px": -1.0}, {"nsd_tolerance_px": float("inf")},
    {"nsd_tolerance_px": float("nan")},
])
def test_evaluate_pair_rejects_out_of_range_settings(settings):
    # Both-empty masks use neither setting, and are still refused.
    z = np.zeros((3, 3), dtype=np.uint8)
    with pytest.raises(ValidationError, match=next(iter(settings))):
        evaluate_pair(z, z, **settings)
    with pytest.raises(ValidationError, match=next(iter(settings))):
        evaluate_class_set([(0, z, z)], **settings)


# Two nonempty masks of one random shape.
_NONEMPTY_PAIRS = st.tuples(st.integers(1, 16), st.integers(1, 16)).flatmap(
    lambda shape: st.tuples(arrays(np.bool_, shape), arrays(np.bool_, shape))
).filter(lambda pair: pair[0].any() and pair[1].any())


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_NONEMPTY_PAIRS, st.floats(0.5, 1.0, exclude_min=True))
def test_evaluate_pair_swap_is_symmetric(pair, match_iou):
    pred, ref = pair
    fwd = evaluate_pair(pred, ref, match_iou=match_iou)
    rev = evaluate_pair(ref, pred, match_iou=match_iou)
    assert (fwd.dice, fwd.iou, fwd.hd95, fwd.nsd) == (rev.dice, rev.iou, rev.hd95, rev.nsd)
    # The pooled mean sums the two directions in the other order.
    assert fwd.asd == pytest.approx(rev.asd, rel=1e-12)
    # Above IoU 0.5 a component overlaps at most one partner that well, so
    # the matching does not depend on which side is the prediction.
    assert (fwd.precision, fwd.recall) == (rev.recall, rev.precision)
    assert (fwd.n_pred_components, fwd.n_ref_components) == (
        rev.n_ref_components, rev.n_pred_components)
    assert (fwd.n_matched, fwd.f1) == (rev.n_matched, rev.f1)


def test_evaluate_pair_json_round_trip_keys():
    m = np.zeros((6, 6), dtype=np.uint8)
    m[1:4, 1:4] = 1
    d = evaluate_pair(m, m).to_json_dict()
    for key in ("dice", "iou", "hd95", "asd", "nsd",
                "precision", "recall", "f1", "flags"):
        assert key in d


# --- class-set evaluation -----------------------------------------------------------

def test_evaluate_class_set_single_class_zero_width_ci():
    m = np.zeros((8, 8), dtype=np.uint8)
    m[2:5, 2:5] = 1
    rep = evaluate_class_set([(1, m, m)], n_resamples=200, seed=4)
    agg = rep.aggregate["dice"]
    assert agg.mean == 1.0
    assert agg.lower == 1.0 and agg.upper == 1.0


def test_evaluate_class_set_mean_of_two():
    # class 1: dice 0.4 (|P|=1, |R|=4, overlap 1)
    p1 = np.zeros((6, 6), dtype=np.uint8)
    r1 = np.zeros((6, 6), dtype=np.uint8)
    p1[0, 0] = 1
    r1[0, 0:4] = 1
    assert dice_iou(p1, r1)[0] == pytest.approx(0.4)
    # class 2: dice 0.6 (|P|=4, |R|=6, overlap 3)
    p2 = np.zeros((6, 6), dtype=np.uint8)
    r2 = np.zeros((6, 6), dtype=np.uint8)
    p2[1, 0:4] = 1
    r2[1, 1:4] = 1
    r2[2, 0:3] = 1
    assert dice_iou(p2, r2)[0] == pytest.approx(0.6)
    rep = evaluate_class_set([(1, p1, r1), (2, p2, r2)], n_resamples=500, seed=7)
    assert rep.aggregate["dice"].mean == pytest.approx(0.5)
    assert set(rep.per_class) == {1, 2}


def test_evaluate_class_set_seeded_reproducible():
    rng = np.random.default_rng(29)
    pairs = []
    for cid in range(3):
        pred, ref = _pair(rng, max_side=8, density=0.5)
        pred[0, 0] = 1
        ref[0, 0] = 1
        pairs.append((cid, pred, ref))
    a = evaluate_class_set(pairs, n_resamples=300, seed=42)
    b = evaluate_class_set(pairs, n_resamples=300, seed=42)
    assert a.aggregate == b.aggregate
    c = evaluate_class_set(pairs, n_resamples=300, seed=43)
    assert c.aggregate["dice"].mean == a.aggregate["dice"].mean


def test_evaluate_class_set_reads_a_generator_once():
    # A second pass over the spent generator would see no pairs at all.
    rng = np.random.default_rng(31)
    pairs = [(cid, *_pair(rng, max_side=12, density=0.4)) for cid in (4, 1, 9)]
    from_list = evaluate_class_set(pairs, n_resamples=200, seed=3)
    stream = (pair for pair in pairs)
    assert evaluate_class_set(stream, n_resamples=200, seed=3) == from_list
    assert next(stream, None) is None


def test_evaluate_class_set_holds_one_pair_at_a_time():
    rng = np.random.default_rng(37)
    alive_at_next = []

    def stream():
        previous = ()
        for cid in range(4):
            alive_at_next.extend(ref() is not None for ref in previous)
            pred, ref = _pair(rng, max_side=12, density=0.4)
            previous = (weakref.ref(pred), weakref.ref(ref))
            yield cid, pred, ref
            del pred, ref

    rep = evaluate_class_set(stream(), n_resamples=10)
    assert list(rep.per_class) == [0, 1, 2, 3]
    assert alive_at_next == [False] * 6


def test_evaluate_class_set_without_pairs():
    with pytest.raises(ValidationError, match="no mask pairs to evaluate"):
        evaluate_class_set(iter(()))
    # The settings are checked before the pairs are read, even when there are none.
    with pytest.raises(ValidationError, match="match_iou must be in"):
        evaluate_class_set([], match_iou=7)


def test_evaluate_class_set_duplicate_id_rejected():
    m = np.ones((3, 3), dtype=np.uint8)
    with pytest.raises(ValidationError):
        evaluate_class_set([(1, m, m), (1, m, m)])


@pytest.mark.parametrize("class_id", [1.7, True, -1, "1", np.float64(1.0)],
                         ids=["1.7", "True", "-1", "text", "float64"])
def test_evaluate_class_set_takes_integer_class_ids_only(class_id):
    # int() would make both 1.7 and true class 1; ids follow the one id rule.
    m = np.ones((3, 3), dtype=np.uint8)
    with pytest.raises(ValidationError, match="class id must be a nonnegative integer"):
        evaluate_class_set([(class_id, m, m)])
    rep = evaluate_class_set([(np.int64(1), m, m)], n_resamples=10)
    assert list(rep.per_class) == [1] and type(next(iter(rep.per_class))) is int


@pytest.mark.parametrize("kwargs,what", [
    ({"seed": -1}, "seed"), ({"seed": True}, "seed"), ({"n_resamples": True}, "n_resamples"),
], ids=["seed=-1", "seed=True", "n=True"])
def test_evaluate_class_set_checks_resampling_before_any_pair(kwargs, what):
    # The mismatched pair would fail too; the bootstrap settings are checked first.
    m = np.ones((3, 3), dtype=np.uint8)
    bad = np.ones((3, 4), dtype=np.uint8)
    with pytest.raises(ValidationError, match=what):
        evaluate_class_set([(7, m, bad)], **kwargs)


def test_evaluate_class_set_error_names_class():
    m = np.ones((3, 3), dtype=np.uint8)
    bad = np.ones((3, 4), dtype=np.uint8)
    with pytest.raises(ValidationError, match="class 7"):
        evaluate_class_set([(7, m, bad)])
