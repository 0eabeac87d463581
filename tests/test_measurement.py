"""Mask cleaning, geometry primitives, graded measurements and exclusions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from drrkit import measurement
from drrkit import (Condition, Grade, Mask2D, ValidationError, View, apex_angle,
                    cardiothoracic_ratio, centroid, clean_mask, compose_thorax,
                    endpoint_tangent_angle, fit_spine_curve, grade,
                    kyphosis_angle, max_row_width, scoliosis_angle)


def _mask(arr):
    return Mask2D(data=np.asarray(arr, dtype=np.uint8), view=View.PA, spacing=(1, 1))


def _rect(shape, r0, r1, c0, c1):
    out = np.zeros(shape, dtype=np.uint8)
    out[r0:r1, c0:c1] = 1
    return out


def _pixel_masks(points, shape=(80, 80), view=View.PA):
    """One single-pixel mask per (x, y) point."""
    masks = []
    for x, y in points:
        arr = np.zeros(shape, dtype=np.uint8)
        arr[int(y), int(x)] = 1
        masks.append(Mask2D(data=arr, view=view, spacing=(1, 1)))
    return masks


# --- cleaning ---------------------------------------------------------------

def test_clean_mask_empty():
    assert not clean_mask(_mask(np.zeros((5, 5))), 8).any()


def test_clean_mask_removes_speck_keeps_block():
    arr = np.zeros((30, 30), dtype=np.uint8)
    arr[2:12, 2:12] = 1               # 100 px
    arr[20:21, 20:23] = 1             # 3 px speck
    out = clean_mask(_mask(arr), 10)
    assert out.sum() == 100
    assert out[5, 5] == 1 and out[20, 20] == 0


def test_clean_mask_matches_flood_fill_oracle():
    rng = np.random.default_rng(2)
    for _ in range(30):
        shape = (int(rng.integers(1, 12)), int(rng.integers(1, 12)))
        arr = (rng.random(size=shape) < 0.45).astype(np.uint8)
        min_px = int(rng.integers(1, 6))
        got = clean_mask(_mask(arr), min_px)
        ref = oracles.clean_reference(arr, min_px)
        assert np.array_equal(got, ref)


# --- primitives ---------------------------------------------------------------

def test_centroid_examples():
    arr = np.zeros((10, 10), dtype=np.uint8)
    arr[7, 3] = 1
    assert centroid(_mask(arr)) == (3.0, 7.0)
    assert centroid(_mask(_rect((4, 4), 0, 2, 0, 2))) == (0.5, 0.5)


def test_centroid_empty_is_error():
    with pytest.raises(ValidationError):
        centroid(_mask(np.zeros((3, 3))))


def test_centroid_matches_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        shape = (int(rng.integers(1, 10)), int(rng.integers(1, 10)))
        arr = (rng.random(size=shape) < 0.5).astype(np.uint8)
        if not arr.any():
            continue
        assert centroid(_mask(arr)) == pytest.approx(
            oracles.centroid_reference(arr), abs=1e-12)


def test_max_row_width_examples():
    single = np.zeros((5, 12), dtype=np.uint8)
    single[2, 4] = 1
    assert max_row_width(_mask(single)) == (0.0, 2)
    wide = single.copy()
    wide[3, 2] = wide[3, 9] = 1
    assert max_row_width(_mask(wide)) == (7.0, 3)


def test_max_row_width_matches_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        shape = (int(rng.integers(1, 10)), int(rng.integers(1, 10)))
        arr = (rng.random(size=shape) < 0.4).astype(np.uint8)
        if not arr.any():
            continue
        width, _ = max_row_width(_mask(arr))
        assert width == oracles.max_row_width_reference(arr)


def test_compose_thorax_fills_rows():
    left = _rect((10, 20), 2, 8, 1, 4)
    right = _rect((10, 20), 2, 8, 15, 19)
    out = compose_thorax([_mask(left), _mask(right)])
    assert out[5, 1:19].all()          # gap between the parts is filled
    assert not out[0].any()            # untouched rows stay empty
    width, _ = max_row_width(_mask(out))
    assert width == 17.0


# --- grading -------------------------------------------------------------------

def test_grade_spec_spot_values():
    assert grade(Condition.CARDIOMEGALY, 0.55) is Grade.MILD
    assert grade(Condition.SCOLIOSIS, 45.0) is Grade.SEVERE
    assert grade(Condition.KYPHOSIS, 0.0) is Grade.NEGATIVE
    assert grade(Condition.KYPHOSIS, 50.0) is Grade.MILD


# Any finite values, the thresholds themselves and their float neighbours.
_GRADE_VALUES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [f(t) for thresholds, _ in measurement._THRESHOLDS.values() for t in thresholds
     for f in (lambda t: t, lambda t: math.nextafter(t, -math.inf),
               lambda t: math.nextafter(t, math.inf))])


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(list(Condition)), _GRADE_VALUES, _GRADE_VALUES)
def test_grade_monotone_in_value(condition, a, b):
    lo, hi = sorted((a, b))
    assert grade(condition, lo) <= grade(condition, hi)


def test_grade_rejects_non_finite():
    with pytest.raises(ValidationError):
        grade(Condition.SCOLIOSIS, float("nan"))


# --- cardiothoracic ratio --------------------------------------------------------

def test_ctr_phantom_050_negative():
    shape = (40, 120)
    heart = _rect(shape, 10, 20, 10, 61)       # width 60-10 = 50
    thorax = _rect(shape, 5, 35, 5, 106)       # width 105-5 = 100
    rep = cardiothoracic_ratio(_mask(heart), _mask(thorax))
    assert not rep.excluded
    assert rep.value == 0.5
    assert rep.grade is Grade.NEGATIVE
    assert rep.evidence["heart_width_px"] == 50.0
    assert rep.evidence["thorax_width_px"] == 100.0


def test_ctr_phantom_061_severe():
    shape = (40, 120)
    heart = _rect(shape, 10, 20, 10, 72)       # width 61
    thorax = _rect(shape, 5, 35, 5, 106)       # width 100
    rep = cardiothoracic_ratio(_mask(heart), _mask(thorax))
    assert rep.value == pytest.approx(0.61)
    assert rep.grade is Grade.SEVERE


def test_ctr_heart_equals_thorax():
    shape = (30, 60)
    blob = _rect(shape, 5, 25, 10, 50)
    rep = cardiothoracic_ratio(_mask(blob), _mask(blob))
    assert rep.value == 1.0
    assert rep.grade is Grade.SEVERE


def test_ctr_empty_heart_excluded():
    shape = (30, 60)
    rep = cardiothoracic_ratio(_mask(np.zeros(shape)),
                               _mask(_rect(shape, 5, 25, 10, 50)))
    assert rep.excluded and "heart" in rep.exclusion_reason


def test_ctr_speck_only_heart_excluded():
    shape = (30, 60)
    heart = np.zeros(shape, dtype=np.uint8)
    heart[10, 10:13] = 1               # 3 px, below the default threshold
    rep = cardiothoracic_ratio(_mask(heart), _mask(_rect(shape, 5, 25, 10, 50)))
    assert rep.excluded


def test_ctr_fragmented_heart_three_components():
    shape = (60, 60)
    heart = np.zeros(shape, dtype=np.uint8)
    heart[5:10, 5:10] = 1
    heart[20:25, 20:25] = 1
    heart[40:45, 40:45] = 1
    rep = cardiothoracic_ratio(_mask(heart), _mask(_rect(shape, 0, 60, 0, 60)))
    assert rep.excluded and "fragment" in rep.exclusion_reason


def test_ctr_fragmented_heart_small_largest_share():
    shape = (60, 120)
    heart = np.zeros(shape, dtype=np.uint8)
    heart[5:10, 5:15] = 1              # 50 px
    heart[30:36, 30:37] = 1            # 42 px; largest 50/92 < 0.8
    rep = cardiothoracic_ratio(_mask(heart), _mask(_rect(shape, 0, 60, 0, 110)))
    assert rep.excluded


def test_ctr_two_components_dominant_allowed():
    shape = (60, 120)
    heart = np.zeros(shape, dtype=np.uint8)
    heart[5:15, 5:25] = 1              # 200 px
    heart[30:34, 30:38] = 1            # 32 px; largest 200/232 > 0.8
    rep = cardiothoracic_ratio(_mask(heart), _mask(_rect(shape, 0, 60, 0, 110)))
    assert not rep.excluded
    assert rep.evidence["n_heart_components"] == 2


@pytest.mark.parametrize("shape, heart_blocks, thorax_cols, excluded, evidence", [
    ((40, 120), [(10, 20, 10, 61)], 106, False, {"n_heart_components": 1}),
    ((60, 60), [(5, 10, 5, 10), (20, 25, 20, 25), (40, 45, 40, 45)], 60, True,
     {"n_components": 3, "largest_fraction": 25 / 75}),
    ((60, 120), [(5, 10, 5, 15), (30, 36, 30, 37)], 110, True,
     {"n_components": 2, "largest_fraction": 50 / 92}),
    ((60, 120), [(5, 15, 5, 25), (30, 34, 30, 38)], 110, False, {"n_heart_components": 2}),
    ((60, 120), [(5, 15, 5, 25), (30, 31, 30, 33)], 110, False, {"n_heart_components": 1}),
], ids=["one-blob", "three-blobs", "small-share", "dominant", "speck-dropped"])
def test_ctr_labels_each_mask_once(monkeypatch, shape, heart_blocks, thorax_cols,
                                   excluded, evidence):
    # The heart's component count and largest share come from the sizes that
    # cleaning found, so only the heart and the thorax are labelled.
    labelled = []
    real_runs = measurement._runs
    monkeypatch.setattr(measurement, "_runs",
                        lambda fg: labelled.append(fg.shape) or real_runs(fg))
    heart = np.zeros(shape, dtype=np.uint8)
    for r0, r1, c0, c1 in heart_blocks:
        heart[r0:r1, c0:c1] = 1
    rep = cardiothoracic_ratio(_mask(heart), _mask(_rect(shape, 0, shape[0], 0, thorax_cols)))
    assert labelled == [shape, shape]
    assert rep.excluded == excluded
    assert {k: rep.evidence[k] for k in evidence} == evidence
    if excluded:
        assert rep.exclusion_reason == "heart silhouette fragmented"
        assert rep.evidence == evidence


def test_ctr_zero_width_thorax_excluded():
    shape = (40, 40)
    thorax = np.zeros(shape, dtype=np.uint8)
    thorax[5:30, 7] = 1                # single column, width 0
    heart = _rect(shape, 10, 20, 5, 15)
    rep = cardiothoracic_ratio(_mask(heart), _mask(thorax))
    assert rep.excluded and "extent" in rep.exclusion_reason.lower()


def test_ctr_refuses_heart_and_thorax_of_different_shapes():
    # Widths taken on two grids would be compared as if on one: 9 / 57 px.
    heart = _rect((20, 20), 5, 15, 5, 15)
    thorax = _rect((40, 60), 2, 38, 1, 59)
    with pytest.raises(ValidationError, match=r"mask shapes differ: \[\(20, 20\), \(40, 60\)\]"):
        cardiothoracic_ratio(_mask(heart), _mask(thorax))


def test_ctr_scale_invariance():
    small_heart = _rect((40, 120), 10, 20, 10, 61)
    small_thorax = _rect((40, 120), 5, 35, 5, 106)
    big_heart = _rect((80, 240), 20, 40, 20, 121)      # widths doubled
    big_thorax = _rect((80, 240), 10, 70, 10, 211)
    a = cardiothoracic_ratio(_mask(small_heart), _mask(small_thorax))
    b = cardiothoracic_ratio(_mask(big_heart), _mask(big_thorax))
    assert a.value == pytest.approx(b.value, abs=1e-12)


# --- scoliosis --------------------------------------------------------------------

def test_apex_angle_hand_example():
    theta, idx = apex_angle([(0.0, 0.0), (10.0, 10.0), (0.0, 20.0)])
    assert theta == pytest.approx(90.0, abs=1e-9)
    assert idx == 1


def test_apex_angle_tie_prefers_superior():
    # two interior points equally far from the chord
    theta, idx = apex_angle([(0, 0), (5, 5), (5, 10), (0, 15)])
    assert idx == 1


def test_scd_straight_spine_zero():
    masks = _pixel_masks([(10, 5), (10, 15), (10, 25), (10, 35)])
    rep = scoliosis_angle(masks, min_component_px=1)
    assert not rep.excluded
    assert rep.value == pytest.approx(0.0, abs=1e-9)
    assert rep.grade is Grade.NEGATIVE


def test_scd_hand_example_severe():
    masks = _pixel_masks([(0, 0), (10, 10), (0, 20)])
    rep = scoliosis_angle(masks, min_vertebrae=3, min_component_px=1)
    assert rep.value == pytest.approx(90.0, abs=1e-9)
    assert rep.grade is Grade.SEVERE
    assert rep.evidence["apex_index"] == 1


def test_scd_mirror_symmetry():
    pts = [(12, 5), (18, 15), (14, 25), (11, 35), (13, 45)]
    mirrored = [(79 - x, y) for x, y in pts]
    a = scoliosis_angle(_pixel_masks(pts), min_component_px=1)
    b = scoliosis_angle(_pixel_masks(mirrored), min_component_px=1)
    assert a.value == pytest.approx(b.value, abs=1e-9)


def test_scd_translation_invariance():
    pts = [(12, 5), (18, 15), (14, 25), (11, 35)]
    shifted = [(x + 7, y + 9) for x, y in pts]
    a = scoliosis_angle(_pixel_masks(pts), min_component_px=1)
    b = scoliosis_angle(_pixel_masks(shifted), min_component_px=1)
    assert a.value == pytest.approx(b.value, abs=1e-9)


@pytest.mark.parametrize("measure", [scoliosis_angle, kyphosis_angle])
def test_spine_refuses_vertebrae_of_different_shapes(measure):
    # A straight column of centroids, two of them on a smaller grid.
    points = [(10, 5), (10, 15), (10, 25), (10, 35), (10, 38)]
    masks = _pixel_masks(points[:2], shape=(40, 40)) + _pixel_masks(points[2:])
    with pytest.raises(ValidationError, match=r"mask shapes differ: \[\(40, 40\), \(40, 40\), "
                                              r"\(80, 80\)"):
        measure(masks, min_component_px=1)


def test_scd_too_few_vertebrae_excluded():
    rep = scoliosis_angle(_pixel_masks([(5, 5), (6, 15), (5, 25)]), min_component_px=1)
    assert rep.excluded
    assert "need at least 4" in rep.exclusion_reason


def test_scd_specks_cleaned_before_counting():
    masks = _pixel_masks([(10, 5), (10, 15), (10, 25), (10, 35)])
    rep = scoliosis_angle(masks)    # default min_component_px=8 wipes 1-px masks
    assert rep.excluded


def test_scd_value_matches_hand_geometry():
    # apex offset d at the midpoint of a chord of half-length 10
    d = 10.0 * math.tan(math.radians(5.0))
    theta, _ = apex_angle([(0.0, 0.0), (d, 10.0), (0.0, 20.0)])
    assert 180.0 - theta == pytest.approx(10.0, abs=1e-9)


# --- kyphosis ------------------------------------------------------------------

def test_cobb_straight_spine_zero():
    masks = _pixel_masks([(30, 5 + 8 * i) for i in range(6)], view=View.LL)
    rep = kyphosis_angle(masks, min_component_px=1)
    assert not rep.excluded
    assert rep.value == pytest.approx(0.0, abs=1e-6)
    assert rep.grade is Grade.NEGATIVE


def test_cobb_lattice_arc_phantom():
    # integer points on an origin-centered circle of radius 65
    pts = [(63, 16), (60, 25), (56, 33), (52, 39), (39, 52),
           (33, 56), (25, 60), (16, 63)]
    expected = oracles.circle_tangent_angle(pts[0], pts[-1])
    rep = kyphosis_angle(_pixel_masks(pts, view=View.LL), min_component_px=1)
    assert not rep.excluded
    assert abs(rep.value - expected) < 1.0
    assert rep.grade is Grade.MODERATE


def test_cobb_insufficient_vertebrae_excluded():
    masks = _pixel_masks([(10, 5), (11, 15), (12, 25), (13, 35)], view=View.LL)
    rep = kyphosis_angle(masks, min_component_px=1)
    assert rep.excluded and "need at least 5" in rep.exclusion_reason


def test_cobb_repeated_heights_excluded():
    pts = [(10, 5), (12, 15), (14, 15), (16, 25), (18, 35)]
    rep = kyphosis_angle(_pixel_masks(pts, view=View.LL), min_component_px=1)
    assert rep.excluded
    assert "strictly increasing" in rep.exclusion_reason


def test_fit_spine_curve_interpolates_when_few_points():
    pts = [(0.0, 0.0), (1.0, 10.0), (0.0, 20.0), (1.0, 30.0), (0.0, 40.0)]
    cx, cy = fit_spine_curve(pts, degree=4)
    t = 0.0
    seg = [math.dist(a, b) for a, b in zip(pts, pts[1:])]
    total = sum(seg)
    ts = [0.0]
    for s in seg:
        ts.append(ts[-1] + s / total)
    for (x, y), ti in zip(pts, ts):
        assert np.polyval(cx, ti) == pytest.approx(x, abs=1e-8)
        assert np.polyval(cy, ti) == pytest.approx(y, abs=1e-8)


@pytest.mark.parametrize("degree", [-1, 2.5, True, "3"])
def test_fit_degree_is_a_nonnegative_integer_never_a_cast(degree):
    # int() would take 2.5 as 2 and true as 1; numpy would refuse -1 with
    # its own ValueError. Both fits refuse each with a validation error.
    pts = [(12, 5), (18, 15), (14, 25), (11, 35), (13, 45)]
    with pytest.raises(ValidationError, match="degree must be a nonnegative integer"):
        fit_spine_curve(pts, degree=degree)
    with pytest.raises(ValidationError, match="fit_degree must be a nonnegative integer"):
        kyphosis_angle(_pixel_masks(pts, view=View.LL), min_component_px=1,
                       fit_degree=degree)


def test_fit_degree_takes_a_numpy_integer():
    pts = [(12, 5), (18, 15), (14, 25), (11, 35), (13, 45)]
    masks = _pixel_masks(pts, view=View.LL)
    assert (kyphosis_angle(masks, min_component_px=1, fit_degree=np.int64(3))
            == kyphosis_angle(masks, min_component_px=1, fit_degree=3))


def test_tangent_angle_scale_invariance():
    pts = [(63, 16), (60, 25), (56, 33), (52, 39), (39, 52), (33, 56)]
    scaled = [(3 * x, 3 * y) for x, y in pts]
    assert endpoint_tangent_angle(pts) == pytest.approx(
        endpoint_tangent_angle(scaled), abs=1e-9)


def test_measurement_reports_deterministic():
    pts = [(12, 5), (18, 15), (14, 25), (11, 35), (13, 45)]
    masks = _pixel_masks(pts)
    a = scoliosis_angle(masks, min_component_px=1).to_json_dict()
    b = scoliosis_angle(masks, min_component_px=1).to_json_dict()
    assert a == b


def test_report_json_shape():
    rep = scoliosis_angle(_pixel_masks([(5, 5)]), min_component_px=1)
    d = rep.to_json_dict()
    assert d["condition"] == "scoliosis"
    assert d["excluded"] is True
    assert d["value"] is None and d["grade"] is None
    assert isinstance(d["exclusion_reason"], str)
