"""Orthographic projection of attenuation volumes into 2D radiograph-like images.

The pipeline per view is: attenuation transform, axis-collapse projection,
resampling to isotropic pixels, a transpose to the one radiographic
orientation, then 8-bit normalization for grayscale images. Mask footprints
follow the same geometry with nearest-neighbour sampling so they stay binary.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, fields
from typing import Iterable, Mapping

import numpy as np

from .io import LabelVolume, Mask2D, Projection, ValidationError, View, Volume, _Record


def _round_half_up(x):
    return np.floor(np.asarray(x, dtype=np.float64) + 0.5)


@dataclass(frozen=True)
class ProjectionConfig(_Record):
    """Geometry settings shared by every projected image and mask of a study,
    which is projected into both views, PA then LL.

    output_size is (width, height) applied after resampling and the
    transpose; None keeps the spacing-derived size.
    """

    target_pixel_spacing: float = 1.0
    output_size: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        t = self.target_pixel_spacing
        # A finite positive real, not a bool: float() would take true and "0.5".
        try:
            ok = (isinstance(t, numbers.Real) and not isinstance(t, bool)
                  and 0 < float(t) < math.inf)
        except OverflowError:       # an integer too large for a float
            ok = False
        if not ok:
            raise ValidationError(
                f"projection.target_pixel_spacing must be a positive number, got {t!r}")
        object.__setattr__(self, "target_pixel_spacing", float(t))

        size = self.output_size
        if size is not None:
            # Two integers, neither a bool: int() would turn 64.9 into 64,
            # true into 1 and "64" into 64.
            if (not isinstance(size, (list, tuple)) or len(size) != 2
                    or not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                               and v >= 1 for v in size)):
                raise ValidationError(
                    f"projection.output_size must be two positive integers, got {size!r}")
            object.__setattr__(self, "output_size", (int(size[0]), int(size[1])))

    @classmethod
    def from_dict(cls, d: Mapping) -> "ProjectionConfig":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValidationError(f"unknown projection config keys: {sorted(unknown)}")
        return cls(**d)


def attenuation_transform(vol: Volume) -> Volume:
    """Map Hounsfield units to nonnegative relative attenuation.

    Water (0 HU) maps to 1, air (-1000 HU) to 0, and anything below air
    clamps to 0.
    """
    return Volume(data=_attenuation(vol.data), spacing=vol.spacing)


def _attenuation(hu: np.ndarray) -> np.ndarray:
    """max(1 + HU/1000, 0) of any real array, as a new float64 array.
    It is updated in place, so a study never holds more than one float64 copy
    of the volume, or of a slab of it."""
    mu = hu.astype(np.float64)
    mu /= 1000.0
    mu += 1.0
    np.maximum(mu, 0.0, out=mu)
    return mu


# The volume axis each view collapses: PA collapses the anterior-posterior
# axis j, LL the right-left axis i. The two remaining axes, in order, are the
# rows and columns of the projected grid.
_COLLAPSED_AXIS = {View.PA: 1, View.LL: 0}


def _view_geometry(view: View, spacing) -> tuple[int, float, tuple[float, float]]:
    """(collapsed axis, its spacing, in-plane (row, col) spacing) of a view."""
    axis = _COLLAPSED_AXIS[View(view)]
    return axis, spacing[axis], tuple(s for a, s in enumerate(spacing) if a != axis)


def project_image(mu: Volume, view: View) -> Projection:
    """Line-integral projection of an attenuation volume along one axis.

    PA collapses the anterior-posterior axis j and scales by s_y; LL
    collapses the right-left axis i and scales by s_x, so values are
    path integrals in millimetre units.
    """
    _, depth, in_plane = _view_geometry(view, mu.spacing)
    sums = _reduce_slabs(_row_slabs(mu.data), np.add,
                         lambda slab: slab.astype(np.float64, copy=False))
    return Projection(data=sums[View(view)] * depth, view=view, spacing=in_plane)


def project_mask(lab: LabelVolume, view: View,
                 spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)) -> Mask2D:
    """Footprint of a binary volume in a view: OR over the collapsed axis.

    Label volumes carry no spacing of their own, so the owning volume's
    spacing is passed in to keep the 2D grid consistent with the image.
    """
    _, _, in_plane = _view_geometry(view, spacing)
    # A bool footprint is viewed as 0/1, not scanned, by Mask2D.
    return Mask2D(data=_label_footprints(_row_slabs(lab.data))[View(view)],
                  view=view, spacing=in_plane, label_id=lab.label_id)


def _sample_coords(n_in: int, n_out: int) -> np.ndarray:
    # Pixel centers sit at integer coordinates; sampling is edge-clamped.
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    return np.clip(src, 0.0, n_in - 1)


def _resample_bilinear(arr: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    r_in, c_in = arr.shape
    r_out, c_out = shape
    sr = _sample_coords(r_in, r_out)
    sc = _sample_coords(c_in, c_out)
    r0 = np.floor(sr).astype(np.intp)
    c0 = np.floor(sc).astype(np.intp)
    r1 = np.minimum(r0 + 1, r_in - 1)
    c1 = np.minimum(c0 + 1, c_in - 1)
    fr = (sr - r0)[:, None]
    fc = (sc - c0)[None, :]
    return ((arr[np.ix_(r0, c0)] * (1 - fr) + arr[np.ix_(r1, c0)] * fr) * (1 - fc)
            + (arr[np.ix_(r0, c1)] * (1 - fr) + arr[np.ix_(r1, c1)] * fr) * fc)


def _resample_nearest(arr: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    r_in, c_in = arr.shape
    r_out, c_out = shape
    ri = np.clip(_round_half_up(_sample_coords(r_in, r_out)), 0, r_in - 1).astype(np.intp)
    ci = np.clip(_round_half_up(_sample_coords(c_in, c_out)), 0, c_in - 1).astype(np.intp)
    return arr[np.ix_(ri, ci)]


# The most pixels any grid of a view may hold, 8192² (512 MB as float64): far
# above a radiograph, and well below what a tiny target spacing or a huge
# output_size would ask for.
_MAX_GRID_PX = 8192 ** 2


def _grids(view: View, shape: tuple[int, int], spacing, config: ProjectionConfig
           ) -> tuple[tuple[int, int], tuple[int, int]]:
    """The (rows, cols) grid a view of ``shape`` at ``spacing`` is resampled
    to, and its final grid after the transpose and output_size. Either above
    _MAX_GRID_PX pixels is refused here, before it is allocated."""
    t = config.target_pixel_spacing
    # Counts stay floats until checked: a tiny spacing makes them too large
    # for an array size, or infinite.
    counts = tuple(max(1.0, float(_round_half_up(n * s / t))) for n, s in zip(shape, spacing))
    final = counts[::-1] if config.output_size is None else config.output_size[::-1]
    for rows, cols in (counts, final):
        if rows * cols > _MAX_GRID_PX:
            raise ValidationError(
                f"{View(view).value} view: a {rows:g} x {cols:g} pixel grid (rows x cols) "
                f"is above the limit of {_MAX_GRID_PX:,} pixels")
    return (int(counts[0]), int(counts[1])), (int(final[0]), int(final[1]))


def resample_and_orient(obj, config: ProjectionConfig):
    """Resample to isotropic target spacing, transpose, then apply output_size.

    Grayscale projections use bilinear sampling; masks use nearest neighbour,
    which only copies pixels, so they stay strictly {0, 1}. Returns the same
    container type that was passed in.
    """
    is_mask = isinstance(obj, Mask2D)
    if not is_mask and obj.normalized:
        raise ValidationError("resampling operates on raw projections, normalize afterwards")
    resample = _resample_nearest if is_mask else _resample_bilinear
    arr = obj.data
    rm, cm = obj.spacing
    shape, final = _grids(obj.view, arr.shape, obj.spacing, config)

    spacing = (rm, cm)
    if shape != arr.shape:
        spacing = (rm * arr.shape[0] / shape[0], cm * arr.shape[1] / shape[1])
        arr = resample(arr, shape)

    # The one orientation: rows run along k, superior to inferior, as measure reads.
    arr = np.ascontiguousarray(arr.T)
    spacing = (spacing[1], spacing[0])

    if final != arr.shape:
        h, w = final
        spacing = (spacing[0] * arr.shape[0] / h, spacing[1] * arr.shape[1] / w)
        arr = resample(arr, final)

    if is_mask:
        return Mask2D(data=arr, view=obj.view, spacing=spacing, label_id=obj.label_id)
    return Projection(data=arr, view=obj.view, spacing=spacing, normalized=False)


def normalize_to_8bit(proj: Projection) -> Projection:
    """Image-wise min-max normalization to uint8 with round-half-up.

    A constant image has no contrast to stretch; it maps to all zeros and
    emits a RuntimeWarning rather than failing.
    """
    if proj.normalized:
        raise ValidationError("projection is already normalized")
    data = proj.data
    lo = float(data.min())
    hi = float(data.max())
    if hi == lo:
        warnings.warn("constant projection normalized to all zeros", RuntimeWarning,
                      stacklevel=2)
        out = np.zeros(data.shape, dtype=np.uint8)
    else:
        out = _round_half_up(255.0 * (data - lo) / (hi - lo)).astype(np.uint8)
    return Projection(data=out, view=proj.view, spacing=proj.spacing, normalized=True)


@dataclass(frozen=True, eq=False)
class StudyProjection:
    """All projected outputs for one study: per-view images and per-label masks."""

    images: Mapping[View, Projection]
    masks: Mapping[View, Mapping[int, Mask2D]]


# Rows per slab: a contiguous run of rows along i, so each numpy call sweeps
# whole rows, not short strided runs.
_SLAB_ROWS = 16


def _row_slabs(data: np.ndarray):
    """The slabs of _SLAB_ROWS rows along i of an in-memory (H, W, D) array,
    as views. numpy reduces an array whose planes are one voxel pairwise, not
    plane by plane; such an array (H values) is one slab."""
    h, w, d = data.shape
    rows = _SLAB_ROWS if w * d > 1 else h
    return (data[lo:lo + rows] for lo in range(0, h, rows))


def _reduce_slabs(slabs: Iterable[np.ndarray], ufunc: np.ufunc, each) -> dict[View, np.ndarray]:
    """``ufunc.reduce(each(data), axis)`` for both views, PA then LL, of the
    (H, W, D) array that ``slabs`` cut along i, bit for bit, with one slab
    that ``each`` made alive at a time: PA reduces each row along j and LL
    combines the planes in order of i, as numpy reduces a whole array.
    With ``np.logical_or``, ``each`` may return None for an all-zero slab,
    which is skipped: its PA rows stay 0 and LL is unchanged."""
    pa, ll = [], None
    for slab in slabs:
        x = each(slab)
        if x is None:
            pa.append(np.zeros(slab.shape[::2], dtype=bool))
            continue
        pa.append(ufunc.reduce(x, axis=1))
        if ll is None:
            ll = ufunc.reduce(x, axis=0)
        else:
            for i in range(len(x)):     # a loop variable would keep a view of x alive
                ufunc(ll, x[i], out=ll)
        del x   # freed before the next slab is made
    if ll is None:      # every slab was skipped
        ll = np.zeros(slab.shape[1:], dtype=bool)
    return {View.PA: np.concatenate(pa), View.LL: ll}


def _occupancy(slab: np.ndarray) -> np.ndarray | None:
    """A uint8 label slab as bool, or None when it is all 0: a 0/1 slab is
    viewed and any other is binarized, nonzero voxels mapping to True."""
    top = slab.max(initial=0)
    if not top:
        return None
    return slab.view(bool) if top <= 1 else slab != 0


def _label_footprints(slabs: Iterable[np.ndarray]) -> dict[View, np.ndarray]:
    """The bool PA and LL footprints of the uint8 label array that ``slabs``
    cut along i, in memory or as read from its file."""
    return _reduce_slabs(slabs, np.logical_or, _occupancy)


@dataclass(frozen=True, eq=False)
class _Footprints:
    """A label's footprints, reduced by the caller as it read the label's
    file, for project_study to check and resample like a LabelVolume's."""

    label_id: int
    shape: tuple[int, int, int]
    views: Mapping[View, np.ndarray]


def project_study(vol: Volume, labels: Iterable[LabelVolume | _Footprints],
                  config: ProjectionConfig | None = None) -> StudyProjection:
    """Project a volume and its label set into both views, PA then LL.

    ``labels`` may be any iterable, a generator included, of label volumes or
    of footprints already reduced from a label file (``_Footprints``). It is
    consumed once, and each label volume is released as soon as its
    footprints are built, so a study holds one label volume at a time if the
    iterable does. Everything runs on the calling thread: the grids are
    checked and the line integrals summed before the first label is drawn,
    so an error of theirs is raised before any label's.
    """
    config = config or ProjectionConfig()
    # An oversized grid is refused before a label is read or an image allocated.
    for view in View:
        axis, _, in_plane = _view_geometry(view, vol.spacing)
        _grids(view, tuple(n for a, n in enumerate(vol.shape) if a != axis), in_plane, config)
    integrals = _reduce_slabs(_row_slabs(vol.data), np.add, _attenuation)
    masks: dict[View, dict[int, Mask2D]] = {view: {} for view in View}
    for lab in labels:
        if lab.label_id in masks[View.PA]:
            raise ValidationError(f"duplicate label id {lab.label_id}")
        if lab.shape != vol.shape:
            raise ValidationError(f"label {lab.label_id} dims {lab.shape} "
                                  f"do not match volume dims {vol.shape}")
        views = (lab.views if isinstance(lab, _Footprints)
                 else _label_footprints(_row_slabs(lab.data)))
        for view, data in views.items():
            footprint = Mask2D(data=data, view=view, label_id=lab.label_id,
                               spacing=_view_geometry(view, vol.spacing)[2])
            masks[view][lab.label_id] = resample_and_orient(footprint, config)
        del lab     # the iterable may build the next label before the loop rebinds it
    images = {}
    for view, sums in integrals.items():
        _, depth, in_plane = _view_geometry(view, vol.spacing)
        proj = Projection(data=sums * depth, view=view, spacing=in_plane)
        images[view] = normalize_to_8bit(resample_and_orient(proj, config))
    return StudyProjection(images=images, masks=masks)
