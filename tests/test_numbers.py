"""Every public argument that takes a number follows one of two rules: a real
number (``io._real``) or a count (``io._nonneg_int``). Fed any value, a call
does what it does for the plain number that value stands for, or refuses the
value with ValidationError, and never raises anything else."""

import dataclasses
import json
import math
import re
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from drrkit import (Condition, LabelVolume, Mask2D, Projection, ProjectionConfig,
                    ValidationError, View, Volume, bonferroni, bootstrap_ci,
                    boundary_distance_metrics, cardiothoracic_ratio, clean_mask,
                    component_detection, confusion_from_labels, endpoint_tangent_angle,
                    evaluate_class_set, evaluate_pair, fit_spine_curve, grade, kyphosis_angle,
                    load_label_volume, pairwise_model_comparison, save_label_volume,
                    scoliosis_angle)


def _box(r0, r1, c0, c1, shape=(24, 24)):
    out = np.zeros(shape, dtype=np.uint8)
    out[r0:r1, c0:c1] = 1
    return out


_PRED, _REF = _box(2, 9, 2, 9), _box(3, 10, 2, 8)
_HEART, _THORAX = _box(8, 16, 8, 14), _box(4, 22, 3, 21)
# Six vertebrae along a gentle curve, with their centroids.
_SPINE = [_box(4 * i, 4 * i + 3, 10 + i % 3, 13 + i % 3) for i in range(6)]
_POINTS = [(11.0 + i % 3, 4.0 * i + 1) for i in range(6)]
_SCORES = {"a": [0.9, 0.8, 0.7, 0.95], "b": [0.5, 0.8, 0.6, 0.7]}
# The largest label or class id: an int64, which every writer can print.
_MAX_ID = 2 ** 63 - 1

# Each argument: the call that passes it, its rule, and whether the rule's
# range holds the plain number. A number in range may still be refused for
# what it means, as degree 0 gives a constant fit no tangent.
_REAL, _COUNT = "real", "count"
_ARGUMENTS = {
    "grade.value": (lambda v: grade(Condition.CARDIOMEGALY, v), _REAL, lambda x: True),
    "evaluate_pair.nsd_tolerance_px": (
        lambda v: evaluate_pair(_PRED, _REF, nsd_tolerance_px=v), _REAL, lambda x: x >= 0),
    "evaluate_pair.match_iou": (
        lambda v: evaluate_pair(_PRED, _REF, match_iou=v), _REAL, lambda x: 0 <= x <= 1),
    "evaluate_class_set.nsd_tolerance_px": (
        lambda v: evaluate_class_set([(1, _PRED, _REF)], nsd_tolerance_px=v, n_resamples=5),
        _REAL, lambda x: x >= 0),
    "evaluate_class_set.match_iou": (
        lambda v: evaluate_class_set([(1, _PRED, _REF)], match_iou=v, n_resamples=5),
        _REAL, lambda x: 0 <= x <= 1),
    "evaluate_class_set.n_resamples": (
        lambda v: evaluate_class_set([(1, _PRED, _REF)], n_resamples=v),
        _COUNT, lambda x: 1 <= x <= 10 ** 7),
    "evaluate_class_set.class_id": (
        lambda v: evaluate_class_set([(v, _PRED, _REF)], n_resamples=5),
        _COUNT, lambda x: x <= _MAX_ID),
    "evaluate_class_set.seed": (
        lambda v: evaluate_class_set([(1, _PRED, _REF)], n_resamples=5, seed=v),
        _COUNT, lambda x: x >= 0),
    "boundary_distance_metrics.nsd_tolerance_px": (
        lambda v: boundary_distance_metrics(_PRED, _REF, nsd_tolerance_px=v),
        _REAL, lambda x: x >= 0),
    "component_detection.match_iou": (
        lambda v: component_detection(_PRED, _REF, match_iou=v), _REAL, lambda x: 0 <= x <= 1),
    "bootstrap_ci.level": (
        lambda v: bootstrap_ci([0.2, 0.4, 0.9], n_resamples=5, level=v),
        _REAL, lambda x: 0 < x < 1),
    "bootstrap_ci.n_resamples": (
        lambda v: bootstrap_ci([0.2, 0.4, 0.9], n_resamples=v),
        _COUNT, lambda x: 1 <= x <= 10 ** 7),
    "bootstrap_ci.seed": (
        lambda v: bootstrap_ci([0.2, 0.4, 0.9], n_resamples=5, seed=v),
        _COUNT, lambda x: x >= 0),
    "bonferroni.p_value": (lambda v: bonferroni(v, 3), _REAL, lambda x: 0 <= x <= 1),
    "bonferroni.n_comparisons": (lambda v: bonferroni(0.5, v), _COUNT, lambda x: x >= 1),
    "pairwise_model_comparison.alpha": (
        lambda v: pairwise_model_comparison(_SCORES, alpha=v), _REAL, lambda x: 0 < x < 1),
    "confusion_from_labels.n_classes": (
        lambda v: confusion_from_labels([0], [0], v), _COUNT, lambda x: x <= 8192),
    "ProjectionConfig.target_pixel_spacing": (
        lambda v: ProjectionConfig(target_pixel_spacing=v), _REAL, lambda x: x > 0),
    "ProjectionConfig.output_size": (
        lambda v: ProjectionConfig(output_size=(v, 4)), _COUNT, lambda x: 1 <= x <= 8192 ** 2),
    "Volume.spacing": (
        lambda v: Volume(data=np.zeros((1, 1, 1)), spacing=(1, v, 1)).spacing,
        _REAL, lambda x: x > 0),
    "Projection.spacing": (
        lambda v: Projection(data=np.zeros((1, 1)), view=View.PA, spacing=(v, 1)).spacing,
        _REAL, lambda x: x > 0),
    "Mask2D.spacing": (
        lambda v: Mask2D(data=_PRED, view=View.PA, spacing=(1, v)).spacing,
        _REAL, lambda x: x > 0),
    "Mask2D.label_id": (
        lambda v: Mask2D(data=_PRED, view=View.PA, spacing=(1, 1), label_id=v).label_id,
        _COUNT, lambda x: x <= _MAX_ID),
    "LabelVolume.label_id": (
        lambda v: LabelVolume(data=np.zeros((1, 1, 1)), label_id=v).label_id,
        _COUNT, lambda x: x <= _MAX_ID),
    "clean_mask.min_component_px": (lambda v: clean_mask(_PRED, v), _COUNT, lambda x: x >= 0),
    "cardiothoracic_ratio.min_component_px": (
        lambda v: cardiothoracic_ratio(_HEART, _THORAX, min_component_px=v),
        _COUNT, lambda x: x >= 0),
    "scoliosis_angle.min_vertebrae": (
        lambda v: scoliosis_angle(_SPINE, min_vertebrae=v), _COUNT, lambda x: x <= 1000),
    "scoliosis_angle.min_component_px": (
        lambda v: scoliosis_angle(_SPINE, min_component_px=v), _COUNT, lambda x: x >= 0),
    "kyphosis_angle.min_vertebrae": (
        lambda v: kyphosis_angle(_SPINE, min_vertebrae=v), _COUNT, lambda x: x <= 1000),
    "kyphosis_angle.min_component_px": (
        lambda v: kyphosis_angle(_SPINE, min_component_px=v), _COUNT, lambda x: x >= 0),
    "kyphosis_angle.fit_degree": (
        lambda v: kyphosis_angle(_SPINE, fit_degree=v), _COUNT, lambda x: x >= 0),
    "fit_spine_curve.degree": (lambda v: fit_spine_curve(_POINTS, v), _COUNT, lambda x: x >= 0),
    "endpoint_tangent_angle.degree": (
        lambda v: endpoint_tangent_angle(_POINTS, v), _COUNT, lambda x: x >= 0),
}

# Each value and the plain number it stands for under each rule; None where
# the rule refuses it whatever the range.
_VALUES = {
    "true": (True, None, None),
    "np-true": (np.True_, None, None),
    "text": ("0.5", None, None),
    "none": (None, None, None),
    "complex": (1j, None, None),
    "decimal": (Decimal("0.5"), None, None),
    "fraction": (Fraction(1, 2), 0.5, None),
    "float32": (np.float32(0.5), 0.5, None),
    "float": (0.5, 0.5, None),
    "int64": (np.int64(1), 1.0, 1),
    "int": (3, 3.0, 3),
    "zero": (0, 0.0, 0),
    "10**400": (10 ** 400, None, 10 ** 400),
    "fraction-10**400": (Fraction(10 ** 400, 3), None, None),
    "-10**5000": (-10 ** 5000, None, None),
    "nan": (math.nan, None, None),
    "inf": (math.inf, None, None),
    "-inf": (-math.inf, None, None),
}


def _form(x):
    """x as plain data that compares by type as well as value."""
    if isinstance(x, np.ndarray):
        return "ndarray", x.dtype.str, x.tolist()
    if dataclasses.is_dataclass(x):
        return type(x).__name__, [_form(getattr(x, f.name)) for f in dataclasses.fields(x)]
    if isinstance(x, (list, tuple)):
        return type(x).__name__, [_form(v) for v in x]
    if isinstance(x, dict):
        return "dict", sorted((str(k), _form(v)) for k, v in x.items())
    return type(x).__name__, x


def _outcome(call, value):
    try:
        return _form(call(value))
    except ValidationError as exc:
        return "refused", str(exc)


@pytest.mark.parametrize("value_id", _VALUES)
@pytest.mark.parametrize("argument", _ARGUMENTS)
def test_numeric_argument_is_taken_as_its_number_or_refused(argument, value_id):
    call, rule, in_range = _ARGUMENTS[argument]
    value, as_real, as_count = _VALUES[value_id]
    plain = as_real if rule == _REAL else as_count
    got = _outcome(call, value)
    if plain is None or not in_range(plain):
        name = argument.split(".")[1].replace("_", "[_ ]")
        assert got[0] == "refused" and re.search(f"{name}.* must be ", got[1]), got
    else:
        assert got == _outcome(call, plain)


_HUGE = {
    "real": lambda: bonferroni(10 ** 5000, 2),
    "real-fraction": lambda: grade(Condition.KYPHOSIS, Fraction(-10 ** 5000, 3)),
    "spacing": lambda: Mask2D(data=_PRED, view=View.PA, spacing=(1, -10 ** 5000)),
    "count": lambda: clean_mask(_PRED, -10 ** 5000),
    "capped-count": lambda: confusion_from_labels([0], [0], 10 ** 5000),
    # An id past Python's digit limit could be held but never written.
    "label-id": lambda: LabelVolume(data=np.ones((1, 1, 1)), label_id=10 ** 5000),
    "class-id": lambda: evaluate_class_set([(10 ** 5000, _PRED, _PRED)], n_resamples=5),
}


@pytest.mark.parametrize("call", _HUGE.values(), ids=_HUGE)
def test_a_refusal_names_a_huge_number_without_its_digits(call):
    # repr() refuses an integer past Python's digit limit with a plain ValueError.
    with pytest.raises(ValidationError) as refusal:
        call()
    limit = sys.get_int_max_str_digits()
    assert str(refusal.value).endswith(f"got a number of more than {limit} digits")


def test_an_id_up_to_its_bound_is_written_and_one_past_it_refused(tmp_path):
    label = LabelVolume(data=np.ones((1, 1, 1)), label_id=_MAX_ID)
    save_label_volume(label, tmp_path / "lab.json")
    assert load_label_volume(tmp_path / "lab.json").label_id == _MAX_ID
    report = evaluate_class_set([(_MAX_ID, _PRED, _REF)], n_resamples=5)
    assert str(_MAX_ID) in json.dumps(report.to_json_dict())
    bound = re.escape(f"<= {_MAX_ID}, got {_MAX_ID + 1}")
    with pytest.raises(ValidationError, match=f"label id .*{bound}"):
        LabelVolume(data=np.ones((1, 1, 1)), label_id=_MAX_ID + 1)
    with pytest.raises(ValidationError, match=f"class id .*{bound}"):
        evaluate_class_set([(_MAX_ID + 1, _PRED, _REF)], n_resamples=5)
