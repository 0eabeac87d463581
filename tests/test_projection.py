"""Projection pipeline: attenuation, axis collapse, resampling, normalization."""

import re
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from drrkit import projection
from drrkit import (LabelVolume, Mask2D, Projection, ProjectionConfig,
                    ValidationError, View, Volume, attenuation_transform,
                    normalize_to_8bit, project_image, project_mask,
                    project_study, resample_and_orient)
from drrkit.io import _payload_slabs
from drrkit.projection import _label_footprints, _occupancy, _reduce_slabs, _row_slabs


def _random_volume(rng, max_dim=6):
    dims = tuple(int(d) for d in rng.integers(1, max_dim + 1, size=3))
    data = rng.integers(-1500, 2000, size=dims).astype(np.int16)
    spacing = tuple(float(s) for s in rng.uniform(0.3, 3.0, size=3))
    return Volume(data=data, spacing=spacing)


def _random_label(rng, dims, label_id=1, p=0.4):
    data = (rng.random(size=dims) < p).astype(np.uint8)
    return LabelVolume(data=data, label_id=label_id)


def test_attenuation_pointwise_values():
    vol = Volume(data=np.array([[[-1000, 0, -2500, 500]]], dtype=np.int16),
                 spacing=(1, 1, 1))
    mu = attenuation_transform(vol)
    assert mu.data.tolist() == [[[0.0, 1.0, 0.0, 1.5]]]
    assert mu.spacing == vol.spacing


def test_attenuation_never_negative():
    rng = np.random.default_rng(0)
    for _ in range(20):
        mu = attenuation_transform(_random_volume(rng))
        assert mu.data.min() >= 0.0


def test_project_image_all_zero():
    mu = Volume(data=np.zeros((3, 4, 5)), spacing=(1, 2, 3))
    for view in (View.PA, View.LL):
        proj = project_image(mu, view)
        assert not proj.data.any()
        assert not proj.normalized


def test_project_image_hand_sum():
    # single PA ray through two voxels 3 and 4 with s_y = 2
    mu = Volume(data=np.array([[[3.0], [4.0]]]), spacing=(1.0, 2.0, 1.0))
    proj = project_image(mu, View.PA)
    assert proj.data.shape == (1, 1)
    assert proj.data[0, 0] == pytest.approx(14.0, abs=1e-12)


def test_project_image_retained_spacings():
    mu = Volume(data=np.zeros((2, 3, 4)), spacing=(0.5, 0.7, 1.9))
    assert project_image(mu, View.PA).spacing == (0.5, 1.9)
    assert project_image(mu, View.LL).spacing == (0.7, 1.9)


def test_project_image_matches_loop_oracle():
    rng = np.random.default_rng(42)
    for _ in range(30):
        vol = _random_volume(rng)
        mu = attenuation_transform(vol)
        for view in (View.PA, View.LL):
            got = project_image(mu, view).data
            ref = oracles.project_image_loops(mu.data, mu.spacing, view.value)
            assert np.allclose(got, ref, atol=1e-9, rtol=0)


def test_project_mask_single_voxel():
    data = np.zeros((3, 6, 4), dtype=np.uint8)
    data[1, 5, 2] = 1
    lab = LabelVolume(data=data, label_id=1)
    pa = project_mask(lab, View.PA)
    ll = project_mask(lab, View.LL)
    assert pa.data.sum() == 1 and pa.data[1, 2] == 1
    assert ll.data.sum() == 1 and ll.data[5, 2] == 1


def test_project_mask_matches_or_oracle():
    rng = np.random.default_rng(1)
    for _ in range(30):
        dims = tuple(int(d) for d in rng.integers(1, 6, size=3))
        lab = _random_label(rng, dims)
        for view in (View.PA, View.LL):
            got = project_mask(lab, view).data
            ref = oracles.project_mask_or(lab.data, view.value)
            assert np.array_equal(got, ref)


def test_project_mask_carries_volume_spacing():
    lab = LabelVolume(data=np.ones((2, 3, 4), dtype=np.uint8), label_id=9)
    pa = project_mask(lab, View.PA, spacing=(0.5, 0.7, 1.9))
    assert pa.spacing == (0.5, 1.9)
    assert pa.label_id == 9


def _sparse_label(case):
    """A uint8 label payload of one kind that skipping all-zero slabs must
    handle: slabs are 16 rows along i."""
    rng = np.random.default_rng(3)
    sparse = (rng.random((37, 6, 5)) < 0.05).astype(np.uint8)
    if case == "all_zero":
        return np.zeros((37, 6, 5), dtype=np.uint8)
    if case == "last_partial_slab":     # rows 32-36 of 37
        data = np.zeros((37, 6, 5), dtype=np.uint8)
        data[32:, 2:4, 1:3] = 1
        data[36, 5, 4] = 1
        return data
    if case == "0_255":
        return sparse * np.uint8(255)
    if case == "below_one_slab":
        return (rng.random((5, 6, 5)) < 0.3).astype(np.uint8)
    return sparse       # 37 rows: two full slabs and part of a third


@pytest.mark.parametrize("case", ["all_zero", "last_partial_slab", "0_255", "below_one_slab",
                                  "not_a_slab_multiple"])
def test_footprints_skipping_all_zero_slabs_are_the_or_of_nonzero(tmp_path, case):
    data = _sparse_label(case)
    raw = tmp_path / "l.raw"
    raw.write_bytes(data.tobytes())
    # The public footprint of a 0/1 label, and the footprints of the stored
    # payload as project reads it, slab by slab.
    lab = LabelVolume(data=data != 0, label_id=1)
    streamed = _reduce_slabs(_payload_slabs(raw, list(data.shape), "u1", projection._SLAB_ROWS),
                             np.logical_or, _occupancy)
    for view, axis in ((View.PA, 1), (View.LL, 0)):
        want = np.logical_or.reduce(data != 0, axis=axis)
        assert np.array_equal(project_mask(lab, view).data, want), view
        assert streamed[view].dtype == bool
        assert np.array_equal(streamed[view], want), view


def test_all_zero_slabs_are_skipped():
    # Only the last slab (rows 32-36) holds a voxel, so it is the only one reduced.
    data = np.zeros((37, 6, 5), dtype=np.uint8)
    data[33, 1, 1] = 1
    reduced = []

    class Spy:
        def reduce(self, x, axis):
            reduced.append((len(x), axis))
            return np.logical_or.reduce(x, axis=axis)

        def __call__(self, a, b, out):
            reduced.append(("plane",))
            return np.logical_or(a, b, out=out)

    footprints = _reduce_slabs(_row_slabs(data), Spy(), _occupancy)
    assert reduced == [(5, 1), (5, 0)]
    assert np.array_equal(footprints[View.PA], data.max(axis=1))
    assert np.array_equal(footprints[View.LL], data.max(axis=0))


def test_resample_identity_when_at_target():
    # No resampling at the target spacing: the one orientation, a transpose.
    data = np.arange(12, dtype=np.float64).reshape(3, 4)
    proj = Projection(data=data, view=View.PA, spacing=(0.5, 0.5))
    out = resample_and_orient(proj, ProjectionConfig(target_pixel_spacing=0.5))
    assert np.array_equal(out.data, data.T)
    assert out.spacing == (0.5, 0.5)


def test_default_orientation_transposes():
    # Both views, images and masks: rows become the collapsed grid's columns
    # (the volume's k axis, superior to inferior), in C order.
    data = np.arange(12, dtype=np.float64).reshape(3, 4)
    bits = (data % 3 == 0).astype(np.uint8)
    for view in (View.PA, View.LL):
        out = resample_and_orient(Projection(data=data, view=view, spacing=(1.0, 1.0)),
                                  ProjectionConfig())
        out_m = resample_and_orient(Mask2D(data=bits, view=view, spacing=(1.0, 1.0),
                                           label_id=4), ProjectionConfig())
        assert np.array_equal(out.data, data.T) and out.data.flags.c_contiguous
        assert np.array_equal(out_m.data, bits.T) and out_m.data.flags.c_contiguous
        assert out.spacing == out_m.spacing == (1.0, 1.0)
        assert out.view == out_m.view == view and out_m.label_id == 4


def test_bilinear_doc_example_edge_clamped():
    # one row, two columns, upsampled x2 along the columns only, then
    # transposed into one column
    proj = Projection(data=np.array([[0.0, 10.0]]), view=View.PA, spacing=(0.5, 1.0))
    out = resample_and_orient(proj, ProjectionConfig(target_pixel_spacing=0.5))
    assert out.data.shape == (4, 1)
    assert np.allclose(out.data[:, 0], [0.0, 2.5, 7.5, 10.0], atol=1e-12)
    assert out.spacing == (0.5, 0.5)


def test_mask_upsample_stays_binary_area_x4():
    rng = np.random.default_rng(8)
    for _ in range(10):
        shape = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        data = (rng.random(size=shape) < 0.5).astype(np.uint8)
        mask = Mask2D(data=data, view=View.PA, spacing=(1.0, 1.0))
        out = resample_and_orient(mask, ProjectionConfig(target_pixel_spacing=0.5))
        assert out.data.shape == (2 * shape[1], 2 * shape[0])
        assert set(np.unique(out.data)) <= {0, 1}
        assert out.data.sum() == 4 * data.sum()


def test_resample_matches_reference_samplers():
    rng = np.random.default_rng(21)
    for _ in range(25):
        shape = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        spacing = (float(rng.uniform(0.3, 2.5)), float(rng.uniform(0.3, 2.5)))
        target = float(rng.uniform(0.4, 2.0))
        cfg = ProjectionConfig(target_pixel_spacing=target)

        # The samplers work on the collapsed grid; the transpose comes after,
        # and swaps the spacing with the axes.
        gray = rng.uniform(0, 100, size=shape)
        proj = Projection(data=gray, view=View.PA, spacing=spacing)
        got = resample_and_orient(proj, cfg)
        cols, rows = got.data.shape
        ref = oracles.bilinear_reference(gray, (rows, cols)).T
        assert np.allclose(got.data, ref, atol=1e-12, rtol=0)
        assert got.spacing == pytest.approx(
            (spacing[1] * shape[1] / cols, spacing[0] * shape[0] / rows), rel=1e-12)

        bits = (rng.random(size=shape) < 0.5).astype(np.uint8)
        mask = Mask2D(data=bits, view=View.PA, spacing=spacing)
        got_m = resample_and_orient(mask, cfg)
        ref_m = oracles.nearest_reference(bits, got_m.data.T.shape).T
        assert np.array_equal(got_m.data, ref_m)
        assert got_m.spacing == got.spacing


def test_orientation_ops():
    # The transpose is the one orientation op; no config names another.
    data = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    proj = Projection(data=data, view=View.PA, spacing=(1.0, 1.0))
    out = resample_and_orient(proj, ProjectionConfig())
    assert np.array_equal(out.data, data.T)
    assert "orientation" not in ProjectionConfig().to_json_dict()
    with pytest.raises(TypeError):
        ProjectionConfig(orientation={View.PA: ("transpose",)})


def test_orientation_transpose_swaps_spacing():
    proj = Projection(data=np.zeros((2, 3)), view=View.PA, spacing=(0.5, 2.0))
    out = resample_and_orient(proj, ProjectionConfig(target_pixel_spacing=2.0))
    # resample first: rows 2*0.5/2 -> 1 (effective spacing 1.0 preserves the
    # 1 mm extent), cols 3*2/2 -> 3; then transpose swaps the two
    assert out.data.shape == (3, 1)
    assert out.spacing == (2.0, 1.0)


def test_output_size_applied_last():
    rng = np.random.default_rng(4)
    data = rng.uniform(0, 50, size=(5, 7))
    proj = Projection(data=data, view=View.PA, spacing=(1.0, 1.0))
    cfg = ProjectionConfig(target_pixel_spacing=1.0, output_size=(4, 6))
    out = resample_and_orient(proj, cfg)
    assert out.data.shape == (6, 4)    # (height, width)
    # after the transpose, so the (7, 5) transposed grid is what is resized
    ref = oracles.bilinear_reference(data.T, (6, 4))
    assert np.allclose(out.data, ref, atol=1e-12)
    assert out.spacing == (7 / 6, 5 / 4)


def test_resample_rejects_normalized_input():
    proj = Projection(data=np.zeros((2, 2), dtype=np.uint8), view=View.PA,
                      spacing=(1, 1), normalized=True)
    with pytest.raises(ValidationError):
        resample_and_orient(proj, ProjectionConfig())


def test_normalize_doc_example():
    proj = Projection(data=np.array([[0.0, 5.0, 10.0]]), view=View.PA, spacing=(1, 1))
    out = normalize_to_8bit(proj)
    assert out.data.tolist() == [[0, 128, 255]]
    assert out.normalized and out.data.dtype == np.uint8


def test_normalize_round_half_up():
    proj = Projection(data=np.array([[0.0, 1.0, 2.0]]), view=View.PA, spacing=(1, 1))
    assert normalize_to_8bit(proj).data.tolist() == [[0, 128, 255]]


def test_normalize_affine_identity():
    data = np.arange(256, dtype=np.float64).reshape(16, 16)
    proj = Projection(data=data, view=View.PA, spacing=(1, 1))
    assert np.array_equal(normalize_to_8bit(proj).data, data.astype(np.uint8))


def test_normalize_constant_warns_and_zeros():
    proj = Projection(data=np.full((3, 3), 7.5), view=View.PA, spacing=(1, 1))
    with pytest.warns(RuntimeWarning):
        out = normalize_to_8bit(proj)
    assert not out.data.any()


def test_normalize_range_and_affine_invariance():
    rng = np.random.default_rng(13)
    for _ in range(30):
        data = rng.uniform(-40, 90, size=(int(rng.integers(2, 9)),
                                          int(rng.integers(2, 9))))
        if data.max() == data.min():
            continue
        proj = Projection(data=data, view=View.PA, spacing=(1, 1))
        out = normalize_to_8bit(proj).data
        assert out.min() == 0 and out.max() == 255
        a, b = float(rng.uniform(0.1, 5)), float(rng.uniform(-100, 100))
        scaled = Projection(data=a * data + b, view=View.PA, spacing=(1, 1))
        assert np.array_equal(normalize_to_8bit(scaled).data, out)


def test_normalize_rejects_normalized():
    proj = Projection(data=np.zeros((1, 1), dtype=np.uint8), view=View.PA,
                      spacing=(1, 1), normalized=True)
    with pytest.raises(ValidationError):
        normalize_to_8bit(proj)


def test_project_study_no_labels():
    vol = Volume(data=np.zeros((4, 4, 4), dtype=np.int16), spacing=(1, 1, 1))
    with pytest.warns(RuntimeWarning):    # constant projections
        result = project_study(vol, [])
    assert set(result.images) == {View.PA, View.LL}
    assert result.masks[View.PA] == {} and result.masks[View.LL] == {}


def test_project_study_full_label_covers_everything():
    rng = np.random.default_rng(17)
    vol = _random_volume(rng, max_dim=5)
    lab = LabelVolume(data=np.ones(vol.shape, dtype=np.uint8), label_id=3)
    result = project_study(vol, [lab])
    for view in (View.PA, View.LL):
        mask = result.masks[view][3]
        assert mask.data.all()
        assert mask.data.shape == result.images[view].data.shape


def test_project_study_geometry_coherent():
    rng = np.random.default_rng(23)
    vol = _random_volume(rng, max_dim=6)
    labs = [_random_label(rng, vol.shape, label_id=i) for i in (1, 2)]
    cfg = ProjectionConfig(target_pixel_spacing=0.8)
    result = project_study(vol, labs, cfg)
    assert list(result.images) == list(result.masks) == [View.PA, View.LL]
    for view in View:
        img = result.images[view]
        for lab_id, mask in result.masks[view].items():
            assert mask.data.shape == img.data.shape
            assert mask.spacing == img.spacing


@pytest.mark.parametrize("cfg,grid", [
    (ProjectionConfig(target_pixel_spacing=1e-300), "PA view: a 4e+300 x 6e+300"),
    (ProjectionConfig(target_pixel_spacing=5e-324), "PA view: a inf x inf"),
    (ProjectionConfig(output_size=(9000, 8000)), "PA view: a 8000 x 9000"),
    # LL's grid is 5 x 6 mm to PA's 4 x 6, so only LL's is above the limit.
    (ProjectionConfig(target_pixel_spacing=6.4e-4), "LL view: a 7812 x 9375"),
], ids=["tiny_spacing", "denormal_spacing", "output_size", "ll_spacing"])
def test_project_study_refuses_a_huge_grid_before_allocating(monkeypatch, cfg, grid):
    def never(*args):
        raise AssertionError("allocated before the grid was checked")

    monkeypatch.setattr(projection, "_resample_bilinear", never)
    monkeypatch.setattr(projection, "_resample_nearest", never)
    monkeypatch.setattr(projection, "_attenuation", never)
    vol = Volume(data=np.zeros((4, 5, 6), dtype=np.int16), spacing=(1, 1, 1))

    def labels():
        raise AssertionError("a label was read before the grid was checked")
        yield

    refusal = re.escape(grid) + r" pixel grid .* limit of 67,108,864 pixels"
    with pytest.raises(ValidationError, match=refusal):
        project_study(vol, labels(), cfg)
    view = View(grid.split()[0])
    proj = Projection(data=np.zeros((4, 6) if view is View.PA else (5, 6)), view=view,
                      spacing=(1, 1))
    with pytest.raises(ValidationError, match=re.escape(grid)):
        resample_and_orient(proj, cfg)


def test_grid_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(projection, "_MAX_GRID_PX", 20)
    proj = Projection(data=np.ones((4, 5)), view=View.PA, spacing=(1, 1))
    assert resample_and_orient(proj, ProjectionConfig(output_size=(4, 5))).data.shape == (5, 4)
    with pytest.raises(ValidationError, match="a 3 x 7 pixel grid"):
        resample_and_orient(proj, ProjectionConfig(output_size=(7, 3)))
    with pytest.raises(ValidationError, match="a 5 x 6 pixel grid"):
        resample_and_orient(proj, ProjectionConfig(target_pixel_spacing=0.8))


def test_project_study_duplicate_label_ids_rejected():
    vol = Volume(data=np.zeros((2, 2, 2), dtype=np.int16), spacing=(1, 1, 1))
    labs = [LabelVolume(data=np.zeros((2, 2, 2), dtype=np.uint8), label_id=1)
            for _ in range(2)]
    with pytest.raises(ValidationError, match="duplicate"):
        project_study(vol, labs)

    def stream():
        yield from labs
        raise AssertionError("read past the duplicate")

    # The check runs as labels arrive, before the rest of the stream is read.
    with pytest.raises(ValidationError, match="duplicate"):
        project_study(vol, stream())


def test_project_study_rejects_label_dims_unlike_the_volume():
    # Without the check, 5 x 5 footprints would sit beside 4 x 8 and 4 x 6 images.
    vol = Volume(data=np.zeros((8, 6, 4), dtype=np.int16), spacing=(1, 1, 1))
    lab = LabelVolume(data=np.ones((5, 5, 5), dtype=np.uint8), label_id=2)
    with pytest.raises(ValidationError, match=r"label 2 dims \(5, 5, 5\) "
                                              r"do not match volume dims \(8, 6, 4\)"):
        project_study(vol, [lab])


_S = projection._SLAB_ROWS


# One row or one voxel per plane can make a view a single, constant pixel.
@pytest.mark.filterwarnings("ignore:constant projection:RuntimeWarning")
@pytest.mark.parametrize("rows", [1, 2, _S - 1, _S, _S + 1, 2 * _S + 1, 4 * _S])
def test_slab_line_integrals_match_whole_volume(rows):
    rng = np.random.default_rng(rows)
    # Every dtype kind Volume admits, each sliced into row slabs.
    voxels = {np.int16: lambda shape: rng.integers(-1500, 2000, size=shape),
              np.uint8: lambda shape: rng.integers(0, 256, size=shape),
              np.float64: lambda shape: rng.uniform(-1500.0, 2000.0, size=shape)}
    # A width of 1 at depth 1 makes one-voxel planes, which numpy sums pairwise.
    for dtype, depth, w in [(dtype, depth, w) for dtype in voxels for depth in (1, 2, 17)
                            for w in (1, int(rng.integers(2, 40)))]:
        spacing = tuple(float(s) for s in rng.uniform(0.3, 3.0, size=3))
        vol = Volume(data=voxels[dtype]((rows, w, depth)).astype(dtype), spacing=spacing)
        lab = _random_label(rng, vol.shape)
        sums = _reduce_slabs(_row_slabs(vol.data), np.add, projection._attenuation)
        footprints = _label_footprints(_row_slabs(lab.data))
        mu = attenuation_transform(vol)
        # PA collapses j, LL collapses i.
        for view, axis in ((View.PA, 1), (View.LL, 0)):
            whole = np.sum(mu.data, axis=axis) * spacing[axis]
            assert np.array_equal(sums[view] * spacing[axis], whole), (dtype, depth, w, view)
            assert np.array_equal(project_image(mu, view).data, whole)
            assert footprints[view].dtype == bool
            assert np.array_equal(footprints[view], lab.data.max(axis=axis)), (depth, w, view)
        cfg = ProjectionConfig(target_pixel_spacing=0.9)
        for view, img in project_study(vol, [], cfg).images.items():
            ref = normalize_to_8bit(resample_and_orient(project_image(mu, view), cfg))
            assert np.array_equal(img.data, ref.data)


def test_line_integrals_hold_one_slab_at_a_time():
    vol = Volume(data=np.ones((8 * _S, 64, 64), dtype=np.int16), spacing=(1, 1, 1))
    lab = LabelVolume(data=np.ones(vol.shape, dtype=np.uint8), label_id=1)
    slab = _S * 64 * 64 * 8     # bytes of one float64 slab
    tracemalloc.start()
    try:
        _reduce_slabs(_row_slabs(vol.data), np.add, projection._attenuation)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        _label_footprints(_row_slabs(lab.data))
        label_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One slab and the two 64 x 64 images, not two slabs.
    assert slab < peak < slab * 3 // 2
    # A label's bool slabs are views: only its two footprints are allocated,
    # below one bool slab's _S x 64 x 64 bytes.
    assert label_peak < slab // 8


def test_project_study_starts_no_thread(monkeypatch):
    rng = np.random.default_rng(3)
    vol = _random_volume(rng, max_dim=12)
    started, real_start = [], threading.Thread.start

    def start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    result = project_study(vol, [_random_label(rng, vol.shape, label_id) for label_id in (1, 2)])
    assert started == []
    assert sorted(result.masks[View.PA]) == [1, 2]


def test_line_integrals_are_summed_before_the_first_label_is_drawn(monkeypatch):
    # Only the line integrals call _attenuation: footprints reduce bool views.
    def attenuation(hu):
        raise RuntimeError("line integrals failed")

    monkeypatch.setattr(projection, "_attenuation", attenuation)
    vol = Volume(data=np.zeros((40, 5, 6), dtype=np.int16), spacing=(1, 1, 1))
    drawn = []

    def labels():
        drawn.append(1)
        yield LabelVolume(data=np.zeros((4, 5, 6), dtype=np.uint8), label_id=1)

    with pytest.raises(RuntimeError, match="line integrals failed"):
        project_study(vol, labels())
    assert drawn == []


def test_line_integral_error_is_raised_by_project_study(monkeypatch):
    def attenuation(hu):
        raise MemoryError("no room for a slab")

    monkeypatch.setattr(projection, "_attenuation", attenuation)
    rng = np.random.default_rng(2)
    vol = _random_volume(rng)
    before = set(threading.enumerate())
    with pytest.raises(MemoryError, match="no room for a slab"):
        project_study(vol, [_random_label(rng, vol.shape, label_id) for label_id in (1, 2)])
    assert set(threading.enumerate()) == before


def test_project_study_holds_one_label_at_a_time():
    rng = np.random.default_rng(5)
    vol = _random_volume(rng, max_dim=6)
    alive_at_next = []

    def stream():
        previous = None
        for label_id in range(1, 5):
            if previous is not None:
                alive_at_next.append(previous() is not None)
            lab = _random_label(rng, vol.shape, label_id)
            previous = weakref.ref(lab)
            yield lab
            del lab

    result = project_study(vol, stream())
    assert alive_at_next == [False, False, False]
    for view in (View.PA, View.LL):
        assert sorted(result.masks[view]) == [1, 2, 3, 4]


def test_union_distributivity_through_pipeline():
    rng = np.random.default_rng(31)
    cfg = ProjectionConfig(target_pixel_spacing=0.7)
    for _ in range(15):
        dims = tuple(int(d) for d in rng.integers(2, 6, size=3))
        spacing = tuple(float(s) for s in rng.uniform(0.4, 2.0, size=3))
        m1 = _random_label(rng, dims, 1)
        m2 = _random_label(rng, dims, 2)
        union = LabelVolume(data=m1.data | m2.data, label_id=3)
        for view in (View.PA, View.LL):
            raw1 = project_mask(m1, view, spacing)
            raw2 = project_mask(m2, view, spacing)
            raw_u = project_mask(union, view, spacing)
            assert np.array_equal(raw_u.data, raw1.data | raw2.data)
            got_u = resample_and_orient(raw_u, cfg)
            got_1 = resample_and_orient(raw1, cfg)
            got_2 = resample_and_orient(raw2, cfg)
            assert np.array_equal(got_u.data, got_1.data | got_2.data)


def test_monotonicity_of_footprints():
    rng = np.random.default_rng(37)
    for _ in range(20):
        dims = tuple(int(d) for d in rng.integers(1, 6, size=3))
        big = _random_label(rng, dims, 2, p=0.5)
        sub_data = big.data & (rng.random(size=dims) < 0.6).astype(np.uint8)
        small = LabelVolume(data=sub_data, label_id=1)
        for view in (View.PA, View.LL):
            fp_small = project_mask(small, view).data
            fp_big = project_mask(big, view).data
            assert not np.any(fp_small & ~fp_big)


def test_ray_consistency():
    rng = np.random.default_rng(41)
    for _ in range(20):
        dims = tuple(int(d) for d in rng.integers(1, 6, size=3))
        lab = _random_label(rng, dims)
        pa = project_mask(lab, View.PA).data
        assert np.array_equal(pa.astype(bool), lab.data.sum(axis=1) >= 1)
        ll = project_mask(lab, View.LL).data
        assert np.array_equal(ll.astype(bool), lab.data.sum(axis=0) >= 1)


# Small attenuation volumes (two of one shape) and voxel spacings in mm.
_DIMS = st.tuples(*[st.integers(1, 6)] * 3)
_MU = st.floats(0, 3)
_SPACING = st.tuples(*[st.floats(0.1, 5.0)] * 3)
_COEF = st.floats(-4, 4)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_DIMS.flatmap(lambda d: st.tuples(arrays(np.float64, d, elements=_MU),
                                         arrays(np.float64, d, elements=_MU))),
       _SPACING, _COEF, _COEF)
def test_projection_linearity(volumes, spacing, a, b):
    mu1, mu2 = (Volume(data=v, spacing=spacing) for v in volumes)
    combo = Volume(data=a * mu1.data + b * mu2.data, spacing=spacing)
    for view in (View.PA, View.LL):
        lhs = project_image(combo, view).data
        rhs = a * project_image(mu1, view).data + b * project_image(mu2, view).data
        assert np.allclose(lhs, rhs, atol=1e-9, rtol=1e-12)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_DIMS.flatmap(lambda d: arrays(np.float64, d, elements=_MU)), _SPACING)
def test_projection_conserves_mass(data, spacing):
    # Before resampling, image sum x pixel area = volume sum x voxel volume.
    mu = Volume(data=data, spacing=spacing)
    mass = data.sum() * spacing[0] * spacing[1] * spacing[2]
    for view in (View.PA, View.LL):
        img = project_image(mu, view)
        assert img.data.sum() * img.spacing[0] * img.spacing[1] == pytest.approx(
            mass, rel=1e-12, abs=1e-12)


def test_spacing_scaling_doubles_values():
    rng = np.random.default_rng(47)
    mu = Volume(data=rng.uniform(0, 2, size=(3, 4, 5)), spacing=(1.0, 1.5, 2.0))
    mu2 = Volume(data=mu.data, spacing=(1.0, 3.0, 2.0))
    pa1 = project_image(mu, View.PA).data
    pa2 = project_image(mu2, View.PA).data
    assert np.allclose(pa2, 2 * pa1, atol=1e-12)


def test_config_validation_and_round_trip():
    with pytest.raises(ValidationError):
        ProjectionConfig(target_pixel_spacing=0)
    with pytest.raises(ValidationError):
        ProjectionConfig(output_size=(0, 4))
    cfg = ProjectionConfig(target_pixel_spacing=0.5, output_size=(64, 48))
    back = ProjectionConfig.from_dict(cfg.to_json_dict())
    assert back == cfg
    assert cfg.to_json_dict() == {"target_pixel_spacing": 0.5, "output_size": [64, 48]}
    with pytest.raises(ValidationError):
        ProjectionConfig.from_dict({"bogus": 1})
    # The orientation and views settings are gone: every study is projected
    # into both views, each with the one transpose.
    with pytest.raises(ValidationError, match=r"unknown projection config keys: \['orientation'\]"):
        ProjectionConfig.from_dict({"orientation": {"PA": ["transpose"]}})
    with pytest.raises(ValidationError, match=r"unknown projection config keys: \['views'\]"):
        ProjectionConfig.from_dict({"views": ["PA"]})


@pytest.mark.parametrize("kwargs,key", [
    ({"output_size": (64.9, True)}, "output_size"),
    ({"output_size": ("64", "32")}, "output_size"),
    ({"output_size": (64, False)}, "output_size"),
    ({"output_size": (64, 32, 16)}, "output_size"),
    ({"output_size": 64}, "output_size"),
    ({"target_pixel_spacing": True}, "target_pixel_spacing"),
    ({"target_pixel_spacing": "0.5"}, "target_pixel_spacing"),
    ({"target_pixel_spacing": 10 ** 400}, "target_pixel_spacing"),
    ({"target_pixel_spacing": float("nan")}, "target_pixel_spacing"),
])
def test_config_takes_names_and_integers_not_casts(kwargs, key):
    with pytest.raises(ValidationError, match=rf"^projection\.{key}"):
        ProjectionConfig(**kwargs)
    with pytest.raises(ValidationError, match=rf"^projection\.{key}"):
        ProjectionConfig.from_dict(kwargs)


def test_config_keeps_integer_sizes():
    cfg = ProjectionConfig(output_size=[np.int64(64), 48], target_pixel_spacing=np.float32(0.5))
    assert cfg.output_size == (64, 48)
    assert type(cfg.output_size[0]) is int
    assert cfg.target_pixel_spacing == 0.5 and type(cfg.target_pixel_spacing) is float
    assert ProjectionConfig(target_pixel_spacing=2).target_pixel_spacing == 2.0
