"""Statistical machinery: bootstrap CIs, paired tests, effect sizes, agreement.

Everything here is deterministic given its seed. The bootstrap draws all
resample indices from ``numpy.random.default_rng(seed)`` (PCG64) as B
successive rows of n indices, so results are reproducible across runs and
worker counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .io import ValidationError, _Record, _freeze, _nonneg_int


def _as_1d(values, name: str) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        # Ragged or non-numeric sequences, and integers beyond float range.
        raise ValidationError(f"{name} must be a sequence of numbers") from None
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True, eq=False)
class PairedSample:
    """Two score vectors aligned on the same cases."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        a = _as_1d(self.a, "a")
        b = _as_1d(self.b, "b")
        if a.shape != b.shape:
            raise ValidationError(f"paired samples differ in length: {a.size} vs {b.size}")
        _freeze(self, "a", a)
        _freeze(self, "b", b)

    @property
    def differences(self) -> np.ndarray:
        return self.a - self.b


def _differences(a, b) -> np.ndarray:
    # A PairedSample, two aligned score arrays, or a bare difference array.
    if isinstance(a, PairedSample):
        return a.differences
    if b is not None:
        return PairedSample(a=a, b=b).differences
    return _as_1d(a, "differences")


def _average_ranks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based ranks of x with ties sharing their mean rank, plus the size of
    each tie group in ascending value order."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    counts = np.diff(np.append(starts, x.size))
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat(starts + (counts + 1) / 2.0, counts)
    return ranks, counts


def _signed_rank_sums(d: np.ndarray) -> tuple[float, float, np.ndarray, np.ndarray]:
    """(W+, W-, ranks of |d|, tie-group sizes) for nonzero differences d."""
    ranks, tie_counts = _average_ranks(np.abs(d))
    return float(ranks[d > 0].sum()), float(ranks[d < 0].sum()), ranks, tie_counts


_BOOTSTRAP_CHUNK = 1 << 20     # resample indices held at once
_MAX_RESAMPLES = 10 ** 7


@dataclass(frozen=True)
class BootstrapCI(_Record):
    mean: float
    lower: float
    upper: float
    n_resamples: int
    level: float


def _check_resampling(n_resamples, seed) -> tuple[int, int]:
    """The resample count and seed of a bootstrap, each an integer, not a bool."""
    n_resamples = _nonneg_int(n_resamples, "n_resamples")
    if not 1 <= n_resamples <= _MAX_RESAMPLES:
        raise ValidationError(
            f"n_resamples must be in [1, {_MAX_RESAMPLES}], got {n_resamples}")
    return n_resamples, _nonneg_int(seed, "seed")


def bootstrap_ci(values, *, n_resamples: int = 10000, level: float = 0.95,
                 seed: int = 0) -> BootstrapCI:
    """Percentile bootstrap CI of the mean.

    Resample means are ranked and cut at the (1-level)/2 tails with linear
    percentile interpolation. n = 1 collapses the interval onto the value.
    n_resamples is at most 10**7, which bounds the means array at 80 MB.
    """
    arr = _as_1d(values, "values")
    if not 0 < level < 1:
        raise ValidationError(f"level must be in (0, 1), got {level}")
    n_resamples, seed = _check_resampling(n_resamples, seed)
    # Rows are drawn a chunk at a time; successive integers() calls continue
    # one PCG64 stream, so the means equal those of a single (B, n) draw.
    rng = np.random.default_rng(seed)
    rows = max(1, _BOOTSTRAP_CHUNK // arr.size)
    means = np.empty(n_resamples, dtype=np.float64)
    for start in range(0, n_resamples, rows):
        stop = min(start + rows, n_resamples)
        idx = rng.integers(0, arr.size, size=(stop - start, arr.size))
        means[start:stop] = arr[idx].mean(axis=1)
    alpha = (1.0 - level) / 2.0
    lower, upper = np.percentile(means, [100.0 * alpha, 100.0 * (1.0 - alpha)])
    return BootstrapCI(mean=float(arr.mean()), lower=float(lower),
                       upper=float(upper), n_resamples=n_resamples,
                       level=float(level))


@dataclass(frozen=True)
class WilcoxonResult(_Record):
    statistic: float        # min(W+, W-)
    w_plus: float
    w_minus: float
    n_effective: int        # pairs left after dropping zero differences
    p_value: float
    method: str             # "exact", "normal" or "degenerate"


def _exact_signed_rank_p(ranks: np.ndarray, w_plus: float) -> float:
    # Subset-sum distribution of W+ over all 2^n sign assignments. Ranks are
    # untied here, hence integers 1..n.
    r = np.rint(ranks).astype(np.int64)
    total = int(r.sum())
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for rank in r:
        counts[rank:] = counts[rank:] + counts[:-rank]
    w_min = min(w_plus, total - w_plus)
    lo = counts[: int(round(w_min)) + 1].sum()
    hi = counts[int(round(total - w_min)):].sum()
    return float(min(1.0, (lo + hi) / counts.sum()))


# The most untied pairs whose signed-rank p-value is enumerated exactly.
_EXACT_MAX_N = 25


def wilcoxon_signed_rank(a, b=None) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired scores.

    Zero differences are dropped; absolute differences get average ranks.
    Without ties and with at most 25 pairs the p-value enumerates
    the exact sign distribution, otherwise it uses the normal approximation
    with tie correction and a 0.5 continuity shift. All pairs tying to zero
    is reported as degenerate with p = 1.
    """
    d = _differences(a, b)
    d = d[d != 0]
    n = d.size
    if n == 0:
        return WilcoxonResult(statistic=0.0, w_plus=0.0, w_minus=0.0,
                              n_effective=0, p_value=1.0, method="degenerate")
    w_plus, w_minus, ranks, tie_counts = _signed_rank_sums(d)
    stat = min(w_plus, w_minus)

    has_ties = bool(np.any(tie_counts > 1))
    if not has_ties and n <= _EXACT_MAX_N:
        p = _exact_signed_rank_p(ranks, w_plus)
        method = "exact"
    else:
        mean = n * (n + 1) / 4.0
        # The tie terms sum to at most n^3 - n, so var >= n(n + 1)^2 / 16 > 0.
        var = n * (n + 1) * (2 * n + 1) / 24.0
        var -= float(((tie_counts.astype(np.float64) ** 3) - tie_counts).sum()) / 48.0
        z = (stat - mean + 0.5) / math.sqrt(var)
        p = min(1.0, 2.0 * 0.5 * math.erfc(-z / math.sqrt(2.0)))
        method = "normal"
    return WilcoxonResult(statistic=stat, w_plus=w_plus, w_minus=w_minus,
                          n_effective=n, p_value=p, method=method)


def bonferroni(p_value: float, n_comparisons: int) -> float:
    if n_comparisons < 1:
        raise ValidationError(f"n_comparisons must be positive, got {n_comparisons}")
    return min(1.0, float(p_value) * n_comparisons)


@dataclass(frozen=True)
class EffectSizes(_Record):
    cohens_d: float | None
    rank_biserial: float | None
    flags: tuple[str, ...] = ()


def effect_sizes(a, b=None) -> EffectSizes:
    """Paired Cohen's d and rank-biserial correlation, signed as a minus b.

    Accepts a PairedSample, two score arrays, or a bare difference array.
    """
    # Finite scores can still differ, sum or spread beyond float64.
    with np.errstate(over="ignore", invalid="ignore"):
        d = _differences(a, b)
        mean = float(d.mean())
        sd = float(d.std(ddof=1)) if d.size > 1 else 0.0
    if not (math.isfinite(mean) and math.isfinite(sd)):
        raise ValidationError("score differences, their mean or their SD overflow float64")
    flags = []

    cohens: float | None
    if sd == 0.0:
        cohens = None
        flags.append("zero_variance")
    else:
        cohens = mean / sd

    nz = d[d != 0]
    biserial: float | None
    if nz.size == 0:
        biserial = None
        flags.append("all_zero_differences")
    else:
        w_plus, w_minus, _, _ = _signed_rank_sums(nz)
        biserial = (w_plus - w_minus) / (w_plus + w_minus)
    return EffectSizes(cohens_d=cohens, rank_biserial=biserial, flags=tuple(flags))


def _as_confusion(matrix) -> np.ndarray:
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
        raise ValidationError(f"confusion matrix must be square k>=2, got {arr.shape}")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValidationError("confusion matrix entries must be finite and nonnegative")
    if arr.sum() <= 0:
        raise ValidationError("confusion matrix is empty")
    return arr


def confusion_from_labels(truth, pred, n_classes: int) -> np.ndarray:
    """Counts matrix with truth on rows and prediction on columns."""
    t = np.asarray(truth, dtype=object)
    p = np.asarray(pred, dtype=object)
    if t.shape != p.shape or t.ndim != 1 or t.size == 0:
        raise ValidationError("truth and pred must be equal-length nonempty 1D")
    for v in (*t, *p):      # never a cast: 0.5 is not 0 and true is not 1
        _nonneg_int(v, "label")
    if t.min() < 0 or p.min() < 0 or t.max() >= n_classes or p.max() >= n_classes:
        raise ValidationError(f"labels must lie in [0, {n_classes})")
    out = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(out, (t.astype(np.int64), p.astype(np.int64)), 1)
    return out


@dataclass(frozen=True)
class KappaResult(_Record):
    kappa: float | None
    weights: str
    flags: tuple[str, ...] = ()


def weighted_kappa(matrix, weights: str = "quadratic") -> KappaResult:
    """Weighted Cohen's kappa on a truth-by-prediction counts matrix.

    Linear weights are |i-j|/(k-1), quadratic are the square. When chance
    disagreement is zero (all mass in one cell) kappa is undefined and
    flagged rather than divided through.
    """
    obs = _as_confusion(matrix)
    k = obs.shape[0]
    if weights == "linear":
        w = np.abs(np.subtract.outer(np.arange(k), np.arange(k))) / (k - 1)
    elif weights == "quadratic":
        w = (np.subtract.outer(np.arange(k), np.arange(k)) / (k - 1)) ** 2
    else:
        raise ValidationError(f"weights must be 'linear' or 'quadratic', got {weights!r}")
    total = obs.sum()
    expected = np.outer(obs.sum(axis=1), obs.sum(axis=0)) / total
    denom = float((w * expected).sum())
    if denom == 0.0:
        return KappaResult(kappa=None, weights=weights, flags=("degenerate_marginals",))
    value = 1.0 - float((w * obs).sum()) / denom
    return KappaResult(kappa=value, weights=weights, flags=())


@dataclass(frozen=True)
class OrdinalMetrics(_Record):
    accuracy: float
    off_by_one: float
    macro_f1: float
    weighted_f1: float
    per_class_f1: tuple[float, ...]
    flags: tuple[str, ...] = ()


def ordinal_metrics(matrix) -> OrdinalMetrics:
    """Accuracy, within-one-grade accuracy, and F1 summaries of a grading
    confusion matrix (truth on rows, prediction on columns).

    A class absent from both truth and prediction contributes F1 = 0 to the
    macro average and is flagged.
    """
    obs = _as_confusion(matrix)
    k = obs.shape[0]
    total = obs.sum()
    accuracy = float(np.trace(obs) / total)
    near = np.abs(np.subtract.outer(np.arange(k), np.arange(k))) <= 1
    off_by_one = float(obs[near].sum() / total)

    flags = []
    f1s = []
    row = obs.sum(axis=1)
    col = obs.sum(axis=0)
    for c in range(k):
        tp = obs[c, c]
        if row[c] + col[c] == 0:
            f1s.append(0.0)
            flags.append(f"empty_class_{c}")
            continue
        precision = tp / col[c] if col[c] else 0.0
        recall = tp / row[c] if row[c] else 0.0
        f1s.append(2 * precision * recall / (precision + recall)
                   if precision + recall else 0.0)
    macro = float(np.mean(f1s))
    weighted = float(np.dot(row, f1s) / total)
    return OrdinalMetrics(accuracy=accuracy, off_by_one=off_by_one,
                          macro_f1=macro, weighted_f1=weighted,
                          per_class_f1=tuple(float(v) for v in f1s),
                          flags=tuple(flags))


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha < 1:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")


@dataclass(frozen=True)
class PairwiseComparison(_Record):
    first: str
    second: str
    n_effective: int
    statistic: float
    p_value: float
    p_bonferroni: float
    cohens_d: float | None
    rank_biserial: float | None
    significant: bool
    method: str


def pairwise_model_comparison(scores: Mapping[str, Sequence[float]], *,
                              alpha: float = 0.05) -> list[PairwiseComparison]:
    """All-pairs signed-rank comparison with Bonferroni over the pair count.

    Models are ordered by name; effect sizes are signed first minus second.
    """
    _check_alpha(alpha)
    names = sorted(scores)
    if len(names) < 2:
        raise ValidationError("need at least two models to compare")
    arrays = {name: _as_1d(scores[name], name) for name in names}
    length = arrays[names[0]].size
    for name in names[1:]:
        if arrays[name].size != length:
            raise ValidationError(
                f"score vectors differ in length: {name} has {arrays[name].size}, "
                f"{names[0]} has {length}")
    pairs = list(combinations(names, 2))
    results = []
    for first, second in pairs:
        sample = PairedSample(a=arrays[first], b=arrays[second])
        eff = effect_sizes(sample)      # first: it rejects overflowing differences
        test = wilcoxon_signed_rank(sample)
        p_adj = bonferroni(test.p_value, len(pairs))
        results.append(PairwiseComparison(
            first=first, second=second, n_effective=test.n_effective,
            statistic=test.statistic, p_value=test.p_value, p_bonferroni=p_adj,
            cohens_d=eff.cohens_d, rank_biserial=eff.rank_biserial,
            significant=p_adj < alpha, method=test.method))
    return results
