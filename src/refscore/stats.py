"""Rank statistics for model-score evaluation.

Spearman correlation is computed from first principles (Pearson correlation
of mid-ranks) so tied scores are handled exactly. Confidence intervals come
from a seeded percentile bootstrap over resampled (model, gold) pairs, and
sign tests use exact binomial tail probabilities.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .corpus import SCORE_MAX, SCORE_MIN
# substream stays importable here: the benchmark's tracer wraps it by module
from .util import substream, substreams  # noqa: F401

_BOOTSTRAP_MAX_REDRAW = 100
# resampled values ranked at once by bootstrap_ci, bounding its working memory
_RANK_BLOCK_ELEMENTS = 1 << 16
# values midranks_2d ranks per block (see there)
_KERNEL_BLOCK_ELEMENTS = 1 << 14


def midranks(values) -> np.ndarray:
    """Average ranks (1-based) with ties sharing their mid-rank.

    Parameters
    ----------
    values : array_like
        One-dimensional data.

    Returns
    -------
    ndarray of float
        ``out[i]`` is the mean of the positions (1..n) that ``values[i]``'s
        tie group occupies in the sorted order.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ValueError("midranks expects a one-dimensional array")
    return midranks_2d(x[:, None])[:, 0]


def midranks_2d(values) -> np.ndarray:
    """Column-wise :func:`midranks` of a 2-D array.

    Each column is ranked on its own; ``out[:, j] == midranks(values[:, j])``
    bit for bit. Columns are ranked in blocks of at most
    ``_KERNEL_BLOCK_ELEMENTS`` values, which keeps every temporary array of
    the kernel small: on a 2-vCPU Intel Xeon host, a 72 x 400 block of DE
    candidates took 1.7-2.0 ms ranked whole and 1.0 ms ranked in blocks.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 2:
        raise ValueError("midranks_2d expects a two-dimensional array")
    n, m = x.shape
    if n == 0:
        return np.empty(x.shape)
    ranks = np.empty((m, n))
    step = max(1, _KERNEL_BLOCK_ELEMENTS // n)
    for lo in range(0, m, step):
        _midrank_rows(np.ascontiguousarray(x[:, lo : lo + step].T), ranks[lo : lo + step])
    return ranks.T


def _midrank_rows(rows: np.ndarray, out: np.ndarray) -> None:
    """Mid-rank each row of the C-contiguous ``rows`` into ``out``.

    The rows are argsorted with the default, unstable sort: equal values
    still end up adjacent, and every member of a tie group gets the same
    mid-rank, so the order inside a group cannot change a rank. NaN is the
    exception: NaN != NaN makes each NaN a group of its own, ranked by its
    place in the sort, so rows holding one are sorted stably.
    """
    m, n = rows.shape
    order = np.argsort(rows, axis=1, kind="stable" if np.isnan(rows).any() else None)
    # flat positions in ``rows``, so all rows are handled as one sequence
    order += np.arange(0, m * n, n)[:, None]
    order = order.ravel()
    sorted_flat = rows.ravel()[order]
    # a group starts where the sorted value changes and at every row start;
    # the extra last flag closes the last group
    new_group = np.empty(m * n + 1, dtype=bool)
    new_group[1:-1] = sorted_flat[1:] != sorted_flat[:-1]
    new_group[::n] = True
    bounds = np.flatnonzero(new_group)
    sizes = np.diff(bounds)
    start = bounds[:-1] % n
    end = start + sizes - 1
    out.ravel()[order] = np.repeat(0.5 * (start + end) + 1.0, sizes)


def spearman(x, y) -> float:
    """Spearman rank correlation: Pearson correlation of mid-ranks.

    Raises
    ------
    ValueError
        If the vectors differ in length, have fewer than 3 pairs, or either
        is constant (the correlation is undefined).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("spearman expects two equal-length vectors")
    if len(x) < 3:
        raise ValueError("spearman needs at least 3 pairs")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ValueError("correlation undefined for a constant vector")
    return float(_column_rhos(midranks(x)[:, None], midranks(y)[:, None])[0])


def _column_rhos(rx: np.ndarray, ry: np.ndarray) -> np.ndarray:
    """Pearson correlation of each pair of mid-rank columns.

    Mid-ranks are half-integers whose mean, (n + 1) / 2, is one too, so the
    centered sums and products are exact: a column's rho does not depend on
    the other columns it is computed with.
    """
    rx = rx - rx.mean(axis=0)
    ry = ry - ry.mean(axis=0)
    return (rx * ry).sum(axis=0) / np.sqrt((rx * rx).sum(axis=0) * (ry * ry).sum(axis=0))


def _constant_rows(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Whether each resample row of ``xs`` or of ``ys`` is constant."""
    return (xs == xs[:, :1]).all(axis=1) | (ys == ys[:, :1]).all(axis=1)


def bootstrap_ci(x, y, b_reps: int = 1000, alpha: float = 0.05, seed: int = 0) -> tuple[float, float]:
    """Percentile bootstrap interval for the Spearman correlation.

    Pairs are resampled with replacement ``b_reps`` times; the interval is
    the [alpha/2, 1 - alpha/2] percentile span of the replicate
    correlations. Replicate ``i`` draws from the substream keyed (seed, i),
    so results do not depend on evaluation order; each block of replicates
    is seeded at once by :func:`~refscore.util.substreams`. Resamples in
    which either vector is constant are redrawn (bounded) and counted; if
    more than half of all draws are degenerate the input is rejected. The
    accepted resamples are ranked in blocks, one column per replicate.

    Returns
    -------
    (float, float)
        Lower and upper interval endpoints.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("bootstrap_ci expects two equal-length vectors")
    if b_reps < 1:
        raise ValueError("b_reps must be positive")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    spearman(x, y)  # validates length and non-degeneracy
    n = len(x)
    # accepted resamples are ranked a block of replicates at a time, so
    # memory stays bounded by _RANK_BLOCK_ELEMENTS whatever b_reps is
    block = max(1, min(b_reps, _RANK_BLOCK_ELEMENTS // n))
    draws = np.empty((block, n), dtype=np.intp)
    replicates = np.empty(b_reps)
    degenerate = 0
    total_draws = 0
    for start in range(0, b_reps, block):
        rngs = list(substreams((seed, i) for i in range(start, min(start + block, b_reps))))
        idx = draws[: len(rngs)]
        for row, rng in enumerate(rngs):
            idx[row] = rng.integers(0, n, size=n)
        # row j holds replicate start + j, the row-per-column layout
        # midranks_2d sorts, so ranking xs.T makes no copy
        xs = x[idx]
        ys = y[idx]
        # the block's first draws are checked at once; only the rows that
        # fail draw again, each from its own replicate's stream
        failed = np.flatnonzero(_constant_rows(xs, ys))
        total_draws += len(rngs)
        attempts = 1
        while failed.size:
            degenerate += failed.size
            if attempts == _BOOTSTRAP_MAX_REDRAW:
                raise ValueError("input too degenerate: resamples keep collapsing to constants")
            for row in failed:
                idx[row] = rngs[row].integers(0, n, size=n)
            xs[failed] = x[idx[failed]]
            ys[failed] = y[idx[failed]]
            total_draws += failed.size
            attempts += 1
            failed = failed[_constant_rows(xs[failed], ys[failed])]
        replicates[start : start + len(rngs)] = _column_rhos(midranks_2d(xs.T), midranks_2d(ys.T))
    if degenerate > 0.5 * total_draws:
        raise ValueError("input too degenerate: more than half of bootstrap resamples were constant")
    lo, hi = np.quantile(replicates, [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(lo), float(hi)


@dataclass(frozen=True)
class CorrelationResult:
    """A correlation with its bootstrap interval and sample size."""

    rho: float
    ci_low: float
    ci_high: float
    n: int
    b_reps: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("correlation requires n >= 3")


def correlate(x, y, b_reps: int = 1000, alpha: float = 0.05, seed: int = 0) -> CorrelationResult:
    """Spearman correlation with a percentile bootstrap interval."""
    rho = spearman(x, y)
    lo, hi = bootstrap_ci(x, y, b_reps=b_reps, alpha=alpha, seed=seed)
    return CorrelationResult(rho=rho, ci_low=lo, ci_high=hi, n=len(np.asarray(x)), b_reps=b_reps)


def aggregate_across_units(rhos, alpha: float = 0.05) -> tuple[float, float, float]:
    """Cross-unit mean correlation with a ``1 - alpha`` t-interval.

    The interval is mean +/- t(1 - alpha/2, m-1) * sd / sqrt(m) over the
    per-unit correlations, clipped to [-1, 1]. The t quantile is
    ``scipy.special.stdtrit``, imported where it runs so that importing
    refscore stays cheap.
    """
    from scipy.special import stdtrit

    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    r = np.asarray(rhos, dtype=float)
    if r.ndim != 1 or len(r) < 2:
        raise ValueError("aggregate_across_units needs at least 2 unit correlations")
    m = len(r)
    mean = float(r.mean())
    sd = float(r.std(ddof=1))
    half = float(stdtrit(m - 1, 1.0 - alpha / 2.0)) * sd / np.sqrt(m)
    lo = max(-1.0, mean - half)
    hi = min(1.0, mean + half)
    return mean, lo, hi


def binomial_tail(k: int, n: int) -> float:
    """Exact one-sided sign-test tail P(X >= k) for X ~ Binomial(n, 1/2).

    Computed by integer enumeration of binomial coefficients, so the result
    is the correctly rounded float of an exact rational.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not (0 <= k <= n):
        raise ValueError("k must lie in [0, n]")
    numerator = sum(comb(n, i) for i in range(k, n + 1))
    return float(Fraction(numerator, 2**n))


@dataclass(frozen=True)
class SignTestResult:
    """Wins out of comparable trials with the exact tail probability."""

    wins: int
    trials: int
    p_value: float

    def __post_init__(self):
        if not (0 <= self.wins <= self.trials):
            raise ValueError("wins must lie in [0, trials]")


def sign_test(wins: int, trials: int) -> SignTestResult:
    """Exact one-sided sign test; exclude tied comparisons from ``trials`` first."""
    return SignTestResult(wins=wins, trials=trials, p_value=binomial_tail(wins, trials))


ColumnKey = tuple[str, str]


@dataclass(frozen=True)
class ScoreCell:
    """A per-article average with the iteration count that survived parsing."""

    score: float
    effective_k: int

    def __post_init__(self):
        if not (SCORE_MIN <= self.score <= SCORE_MAX):
            raise ValueError(f"cell score {self.score} outside [{SCORE_MIN}, {SCORE_MAX}]")
        if self.effective_k < 1:
            raise ValueError("effective_k must be at least 1")


class ScoreMatrix:
    """Articles x (model, strategy) grid of averaged scores.

    Cells are either a :class:`ScoreCell` or absent.
    """

    def __init__(self):
        self.cells: dict[ColumnKey, dict[str, ScoreCell]] = {}

    def add_column(self, key: ColumnKey, column: dict[str, ScoreCell]) -> None:
        if key in self.cells:
            raise ValueError(f"column {key} already present")
        self.cells[key] = dict(column)

    @property
    def columns(self) -> list[ColumnKey]:
        return sorted(self.cells)

    def column_scores(self, key: ColumnKey) -> dict[str, float]:
        return {art_id: cell.score for art_id, cell in self.cells[key].items()}

    def cell_count(self) -> int:
        return sum(len(column) for column in self.cells.values())

    def by_uoa(self, uoa_of: dict[str, int]) -> dict[int, "ScoreMatrix"]:
        """One sub-matrix per unit that ``uoa_of`` names, in unit order. Each
        keeps every column, empty where the column scored none of the unit's
        articles; articles that ``uoa_of`` does not name are left out."""
        units = {uoa: ScoreMatrix() for uoa in sorted(set(uoa_of.values()))}
        for key, column in self.cells.items():
            for unit in units.values():
                unit.cells[key] = {}
            for art_id, cell in column.items():
                if art_id in uoa_of:
                    units[uoa_of[art_id]].cells[key][art_id] = cell
        return units

    def complete_ids(self) -> list[str]:
        """Articles scored in every column."""
        if not self.cells:
            return []
        common: set[str] | None = None
        for column in self.cells.values():
            keys = set(column)
            common = keys if common is None else common & keys
        return sorted(common or ())

    def paired_with_gold(self, key: ColumnKey, gold_scores: dict[str, float]):
        """Aligned (model, gold) vectors over articles present in both."""
        column = self.cells[key]
        ids = sorted(set(column) & set(gold_scores))
        x = np.array([column[i].score for i in ids], dtype=float)
        y = np.array([gold_scores[i] for i in ids], dtype=float)
        return ids, x, y
