"""Refusals no other test reaches: each is one call and the message it gives."""

import re

import numpy as np
import pytest

from drrkit import (LabelVolume, Mask2D, Projection, ValidationError, View, Volume, apex_angle,
                    boundary_distance_metrics, cardiothoracic_ratio, cli, compose_thorax,
                    dice_iou, endpoint_tangent_angle, fit_spine_curve, max_row_width,
                    weighted_kappa)


def _box(shape, r0, r1, c0, c1):
    out = np.zeros(shape, dtype=np.uint8)
    out[r0:r1, c0:c1] = 1
    return out


_REFUSALS = {
    "volume_empty_axis": (
        lambda: Volume(data=np.zeros((2, 0, 2), dtype=np.int16), spacing=(1, 1, 1)),
        "volume axes must all be nonempty"),
    "label_volume_2d": (
        lambda: LabelVolume(data=np.zeros((2, 2), dtype=np.uint8), label_id=1),
        r"label volume must be nonempty 3D, got shape \(2, 2\)"),
    "projection_1d": (
        lambda: Projection(data=np.zeros(3), view=View.PA, spacing=(1, 1)),
        r"projection must be nonempty 2D, got shape \(3,\)"),
    "normalized_projection_float": (
        lambda: Projection(data=np.zeros((2, 2)), view=View.PA, spacing=(1, 1),
                           normalized=True),
        "normalized projection must be uint8"),
    "projection_infinite": (
        lambda: Projection(data=np.array([[np.inf, 0.0]]), view=View.PA, spacing=(1, 1)),
        "projection contains non-finite values"),
    "mask_empty": (
        lambda: Mask2D(data=np.zeros((0, 3), dtype=np.uint8), view=View.PA, spacing=(1, 1)),
        r"mask must be nonempty 2D, got shape \(0, 3\)"),
    "mask_array_1d": (
        lambda: dice_iou(np.zeros(3), np.zeros((2, 2))),
        r"predicted mask must be nonempty 2D, got shape \(3,\)"),
    "row_width_of_empty_mask": (
        lambda: max_row_width(np.zeros((3, 3))),
        "row width of an empty mask is undefined"),
    "thorax_of_no_masks": (
        lambda: compose_thorax([]),
        "thorax composition needs at least one mask"),
    "thorax_empty_after_cleaning": (
        lambda: cardiothoracic_ratio(_box((20, 20), 5, 10, 5, 10), np.zeros((20, 20))),
        "thorax mask empty after cleaning"),
    "apex_of_two_points": (
        lambda: apex_angle([(0, 0), (1, 1)]),
        "apex angle needs at least three points"),
    "apex_endpoints_coincide": (
        lambda: apex_angle([(0, 0), (1, 1), (0, 0)]),
        "spine endpoints coincide"),
    "curve_of_one_point": (
        lambda: fit_spine_curve([(0, 0)]),
        "curve fit needs at least two points"),
    "curve_coincident_centroids": (
        lambda: fit_spine_curve([(0, 0), (0, 0), (1, 1)]),
        "coincident centroids make arc length degenerate"),
    # A constant fit has a zero tangent at both ends.
    "tangent_of_constant_fit": (
        lambda: endpoint_tangent_angle([(0, 0), (1, 1), (2, 3)], degree=0),
        "degenerate endpoint tangent"),
    "boundary_of_empty_mask": (
        lambda: boundary_distance_metrics(np.zeros((3, 3)), np.ones((3, 3))),
        "boundary metrics are undefined for empty masks"),
    "kappa_of_all_zero_matrix": (
        lambda: weighted_kappa(np.zeros((2, 2))),
        "confusion matrix is empty"),
    "study_id_with_a_slash": (
        lambda: cli._check_study_id("a/b"),
        re.escape("study id 'a/b' has characters outside [A-Za-z0-9._-]")),
}


def _refusal(call) -> str:
    """The message of a call's refusal: its validation error, or the reason
    a measurement excluded its study."""
    try:
        result = call()
    except ValidationError as exc:
        return str(exc)
    assert result.excluded, result
    return result.exclusion_reason


@pytest.mark.parametrize("call,message", _REFUSALS.values(), ids=_REFUSALS)
def test_refusal_names_its_fault(call, message):
    assert re.search(message, _refusal(call))
