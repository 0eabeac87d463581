"""Resampling, rank tests, effect sizes, agreement and grading statistics."""

import numpy as np
import pytest

import oracles
from drrkit import (KappaResult, PairedSample, ValidationError, bonferroni,
                    bootstrap_ci, confusion_from_labels, effect_sizes,
                    ordinal_metrics, pairwise_model_comparison,
                    weighted_kappa, wilcoxon_signed_rank)


# --- bootstrap -----------------------------------------------------------------

def test_bootstrap_constant_sample():
    ci = bootstrap_ci([5.0, 5.0, 5.0], n_resamples=100, seed=0)
    assert (ci.mean, ci.lower, ci.upper) == (5.0, 5.0, 5.0)


def test_bootstrap_single_value():
    ci = bootstrap_ci([7.0], n_resamples=50, seed=3)
    assert (ci.mean, ci.lower, ci.upper) == (7.0, 7.0, 7.0)


def test_bootstrap_matches_rowwise_reference():
    rng = np.random.default_rng(31)
    for seed in range(5):
        values = rng.normal(size=int(rng.integers(2, 12)))
        got = bootstrap_ci(values, n_resamples=200, level=0.9, seed=seed)
        mean, lo, hi = oracles.bootstrap_reference(values, 200, 0.9, seed)
        assert got.mean == pytest.approx(mean, abs=1e-9)
        assert got.lower == pytest.approx(lo, abs=1e-9)
        assert got.upper == pytest.approx(hi, abs=1e-9)


def test_bootstrap_seed_determinism():
    values = [0.3, 0.9, 0.1, 0.7, 0.5]
    a = bootstrap_ci(values, n_resamples=500, seed=11)
    b = bootstrap_ci(values, n_resamples=500, seed=11)
    assert (a.lower, a.upper) == (b.lower, b.upper)


def test_bootstrap_ci_brackets_mean():
    rng = np.random.default_rng(37)
    values = rng.normal(size=30)
    ci = bootstrap_ci(values, n_resamples=2000, seed=1)
    assert ci.lower <= ci.mean <= ci.upper


def test_bootstrap_rejects_empty_and_bad_level():
    with pytest.raises(ValidationError):
        bootstrap_ci([], n_resamples=10, seed=0)
    with pytest.raises(ValidationError):
        bootstrap_ci([1.0, 2.0], n_resamples=10, level=1.5, seed=0)


@pytest.mark.parametrize("kwargs,what", [
    ({"seed": -1}, "seed"), ({"seed": True}, "seed"), ({"seed": 1.5}, "seed"),
    ({"n_resamples": True}, "n_resamples"), ({"n_resamples": 10.0}, "n_resamples"),
    ({"n_resamples": 0}, "n_resamples"),
], ids=["seed=-1", "seed=True", "seed=1.5", "n=True", "n=10.0", "n=0"])
def test_bootstrap_takes_integer_seed_and_count_not_bools(kwargs, what):
    with pytest.raises(ValidationError, match=what):
        bootstrap_ci([1.0, 2.0, 3.0], **{"n_resamples": 10, **kwargs})


def test_bootstrap_chunks_match_one_draw():
    # 300001 values give 3 resample rows per chunk, so 8 rows span 3 chunks
    # whose index counts are odd; the CI must equal the single (B, n) draw.
    values = np.random.default_rng(41).normal(size=300_001)
    idx = np.random.default_rng(5).integers(0, values.size, size=(8, values.size))
    lower, upper = np.percentile(values[idx].mean(axis=1), [5.0, 95.0])
    ci = bootstrap_ci(values, n_resamples=8, level=0.9, seed=5)
    assert (ci.lower, ci.upper) == (lower, upper)


@pytest.mark.parametrize("values", [[[1.0, 2.0], [3.0]], ["a", "b"], [{}, 1.0],
                                    [10 ** 400, 1.0], "abc", 5.0],
                         ids=["ragged", "strings", "object", "overflow", "string", "scalar"])
def test_score_coercion_errors_are_validation_errors(values):
    with pytest.raises(ValidationError):
        bootstrap_ci(values, n_resamples=10)
    with pytest.raises(ValidationError):
        pairwise_model_comparison({"a": values, "b": [1.0, 2.0]})
    with pytest.raises(ValidationError):
        wilcoxon_signed_rank(values, [1.0, 2.0])


# --- Wilcoxon ------------------------------------------------------------------

def test_wilcoxon_identical_samples_degenerate():
    res = wilcoxon_signed_rank([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert res.method == "degenerate"
    assert res.p_value == 1.0
    assert res.n_effective == 0


def test_wilcoxon_three_positive_differences():
    res = wilcoxon_signed_rank([1.0, 2.0, 3.0])
    assert res.w_plus == 6.0 and res.w_minus == 0.0
    assert res.statistic == 0.0
    assert res.method == "exact"
    assert res.p_value == pytest.approx(0.25)


def test_wilcoxon_exact_matches_enumeration():
    rng = np.random.default_rng(41)
    cases = 0
    while cases < 40:
        n = int(rng.integers(1, 11))
        d = rng.normal(size=n)
        if np.any(d == 0) or np.unique(np.abs(d)).size != n:
            continue
        res = wilcoxon_signed_rank(d)
        assert res.method == "exact"
        w_obs, p_ref = oracles.wilcoxon_enum_reference(d)
        assert res.statistic == pytest.approx(w_obs, abs=1e-12)
        assert res.p_value == pytest.approx(p_ref, abs=1e-12)
        cases += 1


def test_wilcoxon_scale_invariance():
    d = [0.3, -1.2, 2.5, 0.7, -0.4]
    a = wilcoxon_signed_rank(d)
    b = wilcoxon_signed_rank([x * 17.0 for x in d])
    assert a.p_value == b.p_value and a.statistic == b.statistic


def test_wilcoxon_sign_swap_symmetry():
    d = [0.3, -1.2, 2.5, 0.7, -0.4, 1.1]
    a = wilcoxon_signed_rank(d)
    b = wilcoxon_signed_rank([-x for x in d])
    assert a.p_value == pytest.approx(b.p_value, abs=1e-12)
    assert a.w_plus == b.w_minus and a.w_minus == b.w_plus


def test_wilcoxon_ties_use_normal_approx():
    d = [1.0, 1.0, -1.0, 2.0, 3.0]
    res = wilcoxon_signed_rank(d)
    assert res.method == "normal"
    assert 0.0 < res.p_value <= 1.0


@pytest.mark.parametrize("n", [2, 26, 30])
def test_wilcoxon_all_tied_nonzero_differences_use_normal_approx(n):
    # One tie group of n is the most the tie correction can take off the
    # variance, which still leaves n(n + 1)^2 / 16.
    res = wilcoxon_signed_rank([0.5] * n)
    assert res.method == "normal" and res.n_effective == n
    assert np.isfinite(res.p_value) and 0.0 < res.p_value <= 1.0


def test_wilcoxon_large_n_normal():
    rng = np.random.default_rng(43)
    d = rng.normal(loc=0.3, size=60)
    res = wilcoxon_signed_rank(d)
    assert res.method == "normal"
    assert 0.0 < res.p_value <= 1.0


def test_wilcoxon_accepts_paired_sample():
    sample = PairedSample(a=np.array([2.0, 4.0, 9.0]), b=np.array([1.0, 2.0, 3.0]))
    res = wilcoxon_signed_rank(sample)
    assert res.p_value == pytest.approx(0.25)


# --- Bonferroni and effect sizes ---------------------------------------------------

def test_bonferroni_examples():
    assert bonferroni(0.01, 5) == pytest.approx(0.05)
    assert bonferroni(0.4, 3) == 1.0
    assert bonferroni(0.2, 1) == pytest.approx(0.2)
    with pytest.raises(ValidationError):
        bonferroni(0.5, 0)


def test_effect_sizes_constant_shift():
    a = [3.0, 4.0, 5.0]
    b = [2.0, 3.0, 4.0]
    res = effect_sizes(a, b)
    assert res.cohens_d is None
    assert "zero_variance" in res.flags
    assert res.rank_biserial == 1.0


def test_effect_sizes_balanced():
    res = effect_sizes([1.0, -1.0])
    assert res.cohens_d == pytest.approx(0.0)
    assert res.rank_biserial == pytest.approx(0.0)


def test_effect_sizes_match_hand_formula():
    rng = np.random.default_rng(47)
    for i in range(30):
        d = rng.normal(size=8)
        if i % 3 == 1:
            d = np.round(d, 1)                  # ties, possibly zeros
        elif i % 3 == 2:
            d = rng.choice([-2.0, -0.5, 0.5, 1.0, 2.0], size=12)  # repeated magnitudes
        res = effect_sizes(d)
        sd = np.std(d, ddof=1)
        assert res.cohens_d == pytest.approx(float(np.mean(d) / sd), abs=1e-12)
        nz = [x for x in d if x != 0]
        ranks = oracles.average_ranks([abs(x) for x in nz])
        w_plus = sum(r for r, x in zip(ranks, nz) if x > 0)
        w_minus = sum(r for r, x in zip(ranks, nz) if x < 0)
        assert res.rank_biserial == pytest.approx(
            (w_plus - w_minus) / (w_plus + w_minus), abs=1e-12)
        test = wilcoxon_signed_rank(d)
        assert (test.w_plus, test.w_minus) == (w_plus, w_minus)


def test_effect_sizes_all_zero_differences():
    res = effect_sizes([0.0, 0.0, 0.0])
    assert res.cohens_d is None and res.rank_biserial is None
    assert "all_zero_differences" in res.flags


_OVERFLOWING_PAIRS = {
    "differences": ([1e308, -1e308, 1e308], [-1e308, 1e308, -1e308]),
    "mean": ([1e308] * 3, [-5e307, -5e307, -4e307]),
    "sd": ([1.7e308, 0.0, 1.7e308], [0.0, 1.7e308, 0.0]),
}


@pytest.mark.parametrize("a,b", _OVERFLOWING_PAIRS.values(), ids=_OVERFLOWING_PAIRS)
def test_effect_sizes_reject_overflowing_differences(a, b):
    # Finite scores whose differences, mean or SD leave float64 have no
    # effect size: not NaN, and not a silent 0.
    with pytest.raises(ValidationError, match="overflow"):
        effect_sizes(a, b)
    with pytest.raises(ValidationError, match="overflow"):
        pairwise_model_comparison({"a": a, "b": b})


# --- kappa ---------------------------------------------------------------------

def test_kappa_perfect_agreement():
    m = np.diag([5, 3, 7, 2])
    for w in ("linear", "quadratic"):
        assert weighted_kappa(m, weights=w).kappa == pytest.approx(1.0)


def test_kappa_uniform_matrix_zero():
    m = np.full((4, 4), 3)
    for w in ("linear", "quadratic"):
        assert weighted_kappa(m, weights=w).kappa == pytest.approx(0.0, abs=1e-12)


def test_kappa_matches_oracle():
    rng = np.random.default_rng(53)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        m = rng.integers(0, 9, size=(k, k))
        if m.sum() == 0:
            continue
        for w in ("linear", "quadratic"):
            got = weighted_kappa(m, weights=w)
            want = oracles.kappa_reference(m, w)
            if want is None:
                assert got.kappa is None
            else:
                assert got.kappa == pytest.approx(want, abs=1e-12)


def test_kappa_single_cell_degenerate():
    m = np.zeros((4, 4), dtype=int)
    m[2, 2] = 10
    res = weighted_kappa(m)
    assert res.kappa is None
    assert "degenerate" in " ".join(res.flags)


def test_kappa_range_bounds():
    rng = np.random.default_rng(59)
    for _ in range(30):
        m = rng.integers(0, 6, size=(4, 4))
        if m.sum() == 0:
            continue
        res = weighted_kappa(m)
        if res.kappa is not None:
            assert -1.0 - 1e-12 <= res.kappa <= 1.0 + 1e-12


def test_kappa_validation():
    with pytest.raises(ValidationError):
        weighted_kappa(np.ones((2, 3)))
    with pytest.raises(ValidationError):
        weighted_kappa(np.array([[1, -1], [0, 2]]))
    with pytest.raises(ValidationError):
        weighted_kappa(np.ones((3, 3)), weights="cubic")


# --- ordinal metrics ----------------------------------------------------------------

def test_ordinal_perfect_diagonal():
    res = ordinal_metrics(np.diag([4, 4, 4, 4]))
    assert res.accuracy == 1.0 and res.off_by_one == 1.0
    assert res.macro_f1 == 1.0 and res.weighted_f1 == 1.0


def test_ordinal_one_step_off():
    m = np.zeros((4, 4), dtype=int)
    m[0, 1] = m[1, 2] = m[2, 3] = m[3, 2] = 2
    res = ordinal_metrics(m)
    assert res.accuracy == 0.0
    assert res.off_by_one == 1.0


def test_ordinal_matches_oracle():
    rng = np.random.default_rng(61)
    for _ in range(20):
        m = rng.integers(0, 7, size=(4, 4))
        if m.sum() == 0:
            continue
        res = ordinal_metrics(m)
        acc, obo, macro, weighted = oracles.ordinal_reference(m)
        assert res.accuracy == pytest.approx(acc, abs=1e-12)
        assert res.off_by_one == pytest.approx(obo, abs=1e-12)
        assert res.macro_f1 == pytest.approx(macro, abs=1e-12)
        assert res.weighted_f1 == pytest.approx(weighted, abs=1e-12)


def test_ordinal_empty_class_flagged():
    m = np.zeros((4, 4), dtype=int)
    m[0, 0] = 5
    m[1, 1] = 5
    res = ordinal_metrics(m)
    assert "empty_class_2" in res.flags and "empty_class_3" in res.flags
    assert res.per_class_f1[2] == 0.0
    assert res.macro_f1 == pytest.approx(0.5)


def test_confusion_from_labels():
    truth = [0, 0, 1, 2, 3, 3]
    pred = [0, 1, 1, 2, 3, 2]
    m = confusion_from_labels(truth, pred, 4)
    want = np.zeros((4, 4), dtype=np.int64)
    want[0, 0] = 1
    want[0, 1] = 1
    want[1, 1] = 1
    want[2, 2] = 1
    want[3, 3] = 1
    want[3, 2] = 1
    assert np.array_equal(m, want)
    with pytest.raises(ValidationError):
        confusion_from_labels([0, 4], [0, 0], 4)
    with pytest.raises(ValidationError):
        confusion_from_labels([0, 1], [0], 4)


@pytest.mark.parametrize("truth,pred", [
    ([0.5, 1.7, True], [0, 1, 1]),
    ([0, 1, 1], [0, 1, True]),
    ([0, 1], np.array([0.0, 1.0])),
    (np.array([True, False]), [1, 0]),
], ids=["floats_and_true", "true_in_pred", "float_array", "bool_array"])
def test_confusion_from_labels_refuses_what_is_not_an_integer(truth, pred):
    # Never a cast: 0.5 is not 0, 1.7 is not 1, and true is not 1.
    with pytest.raises(ValidationError, match="label must be a nonnegative integer"):
        confusion_from_labels(truth, pred, 4)


def test_confusion_from_labels_takes_numpy_integers():
    m = confusion_from_labels(np.array([0, 3], dtype=np.uint8), [np.int64(0), 3], 4)
    assert m.dtype == np.int64 and m[0, 0] == m[3, 3] == 1 and m.sum() == 2


# --- pairwise model comparison ---------------------------------------------------------

def test_pairwise_three_models():
    scores = {
        "alpha": [0.80, 0.82, 0.78, 0.85, 0.90, 0.76],
        "bravo": [0.70, 0.72, 0.68, 0.75, 0.80, 0.66],
        "carol": [0.60, 0.62, 0.58, 0.65, 0.70, 0.56],
    }
    res = pairwise_model_comparison(scores)
    assert [(r.first, r.second) for r in res] == [
        ("alpha", "bravo"), ("alpha", "carol"), ("bravo", "carol")]
    for r in res:
        assert r.p_bonferroni == pytest.approx(min(1.0, r.p_value * 3))
        assert r.rank_biserial == 1.0          # first beats second everywhere
        assert r.significant == (r.p_bonferroni < 0.05)


def test_pairwise_sign_convention():
    scores = {"low": [0.1, 0.2, 0.3, 0.25], "top": [0.5, 0.6, 0.7, 0.65]}
    (r,) = pairwise_model_comparison(scores)
    assert (r.first, r.second) == ("low", "top")
    assert r.rank_biserial == -1.0
    assert r.cohens_d is not None and r.cohens_d < 0


def test_pairwise_validation():
    with pytest.raises(ValidationError):
        pairwise_model_comparison({"only": [1.0, 2.0]})
    with pytest.raises(ValidationError):
        pairwise_model_comparison({"a": [1.0, 2.0], "b": [1.0]})
    for alpha in (0.0, 1.0, 2.0, -0.5, float("nan")):
        with pytest.raises(ValidationError, match="alpha"):
            pairwise_model_comparison({"a": [1.0, 2.0], "b": [2.0, 1.0]}, alpha=alpha)


# --- containers -----------------------------------------------------------------------

def test_paired_sample_validation():
    with pytest.raises(ValidationError):
        PairedSample(a=np.array([1.0]), b=np.array([1.0, 2.0]))
    with pytest.raises(ValidationError):
        PairedSample(a=np.array([]), b=np.array([]))
    with pytest.raises(ValidationError):
        PairedSample(a=np.array([np.nan, 1.0]), b=np.array([0.0, 1.0]))


def test_paired_sample_leaves_the_callers_arrays_writable():
    a, b = np.array([1.0, 2.0, 3.0]), np.array([0.5, 2.5, 1.0])
    sample = PairedSample(a=a, b=b)
    wilcoxon_signed_rank(a, b)
    a[0] = b[0] = 9.0
    with pytest.raises(ValueError):
        sample.a[0] = 0.0


def test_result_json_dicts_serializable():
    import json
    res = wilcoxon_signed_rank([0.5, -0.2, 1.4])
    json.dumps(res.to_json_dict())
    k = weighted_kappa(np.diag([2, 3, 4]))
    json.dumps(k.to_json_dict())
    assert isinstance(k, KappaResult)
