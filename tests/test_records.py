"""The JSON form of every result record: each field under its own name."""

import dataclasses
import json

import numpy as np
import pytest

from drrkit import (ProjectionConfig, cardiothoracic_ratio, bootstrap_ci, effect_sizes,
                    evaluate_class_set, evaluate_pair, ordinal_metrics,
                    pairwise_model_comparison, scoliosis_angle, weighted_kappa,
                    wilcoxon_signed_rank)


def _box(shape, r0, r1, c0, c1):
    out = np.zeros(shape, dtype=np.uint8)
    out[r0:r1, c0:c1] = 1
    return out


def _records():
    vertebrae = [_box((80, 80), 5 + 10 * i, 12 + 10 * i, 30 + 3 * (i % 3), 40 + 3 * (i % 3))
                 for i in range(6)]
    pred, ref = _box((20, 20), 2, 9, 2, 9), _box((20, 20), 3, 10, 2, 8)
    return {
        "MeasurementResult": cardiothoracic_ratio(_box((60, 60), 20, 40, 20, 35),
                                                  _box((60, 60), 10, 55, 5, 55)),
        "MeasurementResult-excluded": scoliosis_angle(vertebrae[:2]),
        "MetricsReport": evaluate_pair(pred, ref),
        "MetricsReport-empty": evaluate_pair(np.zeros((20, 20)), ref),
        "ClassSetReport": evaluate_class_set([(10, pred, ref), (2, ref, ref)], n_resamples=20),
        "BootstrapCI": bootstrap_ci([0.2, 0.4, 0.9], n_resamples=20),
        "WilcoxonResult": wilcoxon_signed_rank([1.0, 2.0, 3.5], [0.0, 0.5, 0.5]),
        "EffectSizes": effect_sizes([1.0, 1.0], [1.0, 1.0]),
        "KappaResult": weighted_kappa([[5, 0], [0, 0]]),
        "OrdinalMetrics": ordinal_metrics([[3, 1, 0, 0], [0, 2, 0, 1],
                                           [0, 0, 0, 0], [0, 0, 0, 5]]),
        "PairwiseComparison": pairwise_model_comparison(
            {"a": [0.9, 0.8, 0.7], "b": [0.5, 0.8, 0.6]})[0],
        # Not a result, but the config that project echoes in its provenance.
        "ProjectionConfig": ProjectionConfig(output_size=(64, 48)),
    }


@pytest.mark.parametrize("name", list(_records()))
def test_json_form_has_every_field_and_round_trips(name):
    record = _records()[name]
    assert type(record).__name__ == name.split("-")[0]
    doc = record.to_json_dict()
    assert list(doc) == [f.name for f in dataclasses.fields(record)]
    # Strict JSON, and what it reads back is the form itself: tuples are
    # lists, keys strings, enums names.
    assert json.loads(json.dumps(doc, allow_nan=False)) == doc


def test_json_form_names_enums_and_nests_records():
    records = _records()
    assert records["MeasurementResult"].to_json_dict()["condition"] == "cardiomegaly"
    assert records["MeasurementResult"].to_json_dict()["grade"] == "negative"
    assert records["MeasurementResult-excluded"].to_json_dict()["grade"] is None
    doc = records["ClassSetReport"].to_json_dict()
    assert list(doc["per_class"]) == ["2", "10"]
    assert doc["per_class"]["10"] == records["MetricsReport"].to_json_dict()
    assert doc["aggregate"]["dice"]["n_resamples"] == 20
    assert records["OrdinalMetrics"].to_json_dict()["flags"] == ["empty_class_2"]
