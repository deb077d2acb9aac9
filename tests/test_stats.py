"""Rank statistics against brute-force oracles."""
from fractions import Fraction
from itertools import product
from math import comb

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats as sps
from scipy.special import stdtrit

from refscore import stats
from refscore.stats import (
    CorrelationResult,
    ScoreCell,
    ScoreMatrix,
    aggregate_across_units,
    binomial_tail,
    bootstrap_ci,
    correlate,
    midranks,
    midranks_2d,
    sign_test,
    spearman,
)
from refscore.util import substream


def rank_oracle(values):
    # independent O(n^2) definition: rank = (#smaller) + (#ties + 1)/2
    v = np.asarray(values, dtype=float)
    out = np.empty(len(v))
    for i, val in enumerate(v):
        out[i] = np.sum(v < val) + (np.sum(v == val) + 1) / 2.0
    return out


def spearman_oracle(x, y):
    rx = rank_oracle(x)
    ry = rank_oracle(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    return float(rx @ ry / np.sqrt((rx @ rx) * (ry @ ry)))


class TestMidranks:
    def test_distinct_values_is_permutation(self):
        r = midranks([3.0, 1.0, 2.0])
        assert_allclose(r, [3.0, 1.0, 2.0])

    def test_tie_group_shares_mid_rank(self):
        r = midranks([1, 2, 2, 4])
        assert_allclose(r, [1.0, 2.5, 2.5, 4.0])

    def test_all_tied(self):
        r = midranks([7, 7, 7])
        assert_allclose(r, [2.0, 2.0, 2.0])

    def test_matches_oracle_on_random_tied_data(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            x = rng.integers(0, 6, size=n).astype(float)
            assert_allclose(midranks(x), rank_oracle(x), atol=1e-12)

    def test_rejects_matrix_input(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            midranks(np.zeros((2, 2)))


class TestMidranks2d:
    @staticmethod
    def assert_columnwise(values):
        out = midranks_2d(values)
        assert out.shape == np.shape(values)
        for j in range(out.shape[1]):
            assert np.array_equal(out[:, j], midranks(np.asarray(values)[:, j]))

    def test_matches_midranks_on_tied_half_star_data(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            m = int(rng.integers(1, 12))
            self.assert_columnwise(rng.integers(2, 9, size=(n, m)) / 2.0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_columns(self, n):
        self.assert_columnwise(np.array([[1.5, 2.0, 2.0], [1.5, 1.0, 2.0]])[:n])

    def test_all_tied_and_untied_columns_side_by_side(self):
        values = np.column_stack([np.full(7, 3.5), np.arange(7.0)[::-1], [1, 1, 2, 2, 2, 3, 1]])
        self.assert_columnwise(values)
        assert np.array_equal(midranks_2d(values)[:, 0], np.full(7, 4.0))

    def test_single_column(self):
        self.assert_columnwise(np.array([[2.5], [1.0], [2.5], [4.0]]))

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(44)
        rows = rng.integers(2, 9, size=(30, 25)) / 2.0
        transposed = rows.T
        assert not transposed.flags.c_contiguous
        self.assert_columnwise(transposed)
        self.assert_columnwise(rows[::2, 1::3])

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4)])
    def test_rejects_other_dimensions(self, shape):
        with pytest.raises(ValueError, match="two-dimensional"):
            midranks_2d(np.zeros(shape))


def stable_midranks_2d(values):
    # reference: one stable argsort along axis 0, tie-group bounds carried
    # to every member by running maxima and minima of the sorted positions
    x = np.asarray(values, dtype=float)
    n = x.shape[0]
    order = np.argsort(x, axis=0, kind="stable")
    sorted_x = np.take_along_axis(x, order, axis=0)
    new_group = np.ones(x.shape, dtype=bool)
    new_group[1:] = sorted_x[1:] != sorted_x[:-1]
    pos = np.arange(n)[:, None]
    starts = np.maximum.accumulate(np.where(new_group, pos, 0), axis=0)
    last = np.ones(x.shape, dtype=bool)
    last[:-1] = new_group[1:]
    ends = np.minimum.accumulate(np.where(last, pos, n - 1)[::-1], axis=0)[::-1]
    ranks = np.empty(x.shape, dtype=float)
    np.put_along_axis(ranks, order, 0.5 * (starts + ends) + 1.0, axis=0)
    return ranks


class TestMidranks2dUnstableSort:
    """The unstable-sort kernel gives the stable-sort kernel's ranks bit for bit."""

    @staticmethod
    def assert_same_bits(values):
        expected = stable_midranks_2d(values)
        out = midranks_2d(values)
        assert out.shape == expected.shape
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [(0, 0), (0, 4), (5, 0), (1, 1), (1, 6)])
    def test_empty_and_single_row_shapes(self, shape):
        self.assert_same_bits(np.ones(shape))

    def test_tie_heavy_half_star_data(self):
        rng = np.random.default_rng(45)
        for _ in range(300):
            n = int(rng.integers(1, 80))
            m = int(rng.integers(1, 60))
            # column means of 1-3 half-star scores, as in the score matrix
            k = int(rng.integers(1, 4))
            self.assert_same_bits(rng.integers(2, 9, size=(k, n, m)).mean(axis=0) / 2.0)

    def test_nan_signed_zero_and_infinities(self):
        rng = np.random.default_rng(46)
        pool = np.array([np.nan, -0.0, 0.0, np.inf, -np.inf, 1.0, -1.0])
        for _ in range(300):
            n = int(rng.integers(1, 30))
            m = int(rng.integers(1, 10))
            self.assert_same_bits(rng.choice(pool, size=(n, m)))
        # NaNs rank by position, each in a group of its own
        assert np.array_equal(
            midranks_2d(np.array([[np.nan], [1.0], [np.nan], [-0.0], [0.0]]))[:, 0],
            [4.0, 3.0, 5.0, 1.5, 1.5],
        )

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(47)
        values = rng.integers(0, 4, size=(50, 40)).astype(float)
        self.assert_same_bits(values.T)
        self.assert_same_bits(values[::3, 1::2])
        self.assert_same_bits(np.asfortranarray(values))

    def test_untied_random_data(self):
        rng = np.random.default_rng(48)
        self.assert_same_bits(rng.normal(size=(72, 400)))


class TestSpearman:
    def test_identity_is_one(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_reversal_is_minus_one(self):
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_tied_example_matches_oracle(self):
        x = [1, 2, 2, 4]
        y = [1, 3, 2, 4]
        assert spearman(x, y) == pytest.approx(spearman_oracle(x, y), abs=1e-12)

    def test_matches_oracle_on_random_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(3, 51))
            x = rng.integers(0, 8, size=n).astype(float)
            y = x + rng.normal(0, 2.0, size=n)
            if np.all(x == x[0]):
                continue
            assert spearman(x, y) == pytest.approx(spearman_oracle(x, y), abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(1, 4, 30)
        y = rng.uniform(1, 4, 30)
        assert spearman(x**3, y) == pytest.approx(spearman(x, y), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        x = rng.integers(1, 5, 25).astype(float)
        y = rng.integers(1, 5, 25).astype(float)
        assert spearman(x, y) == pytest.approx(spearman(y, x), abs=1e-15)

    def test_rejects_short_input(self):
        with pytest.raises(ValueError, match="at least 3"):
            spearman([1, 2], [1, 2])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal-length"):
            spearman([1, 2, 3], [1, 2])

    def test_rejects_constant_vector(self):
        with pytest.raises(ValueError, match="constant"):
            spearman([2, 2, 2, 2], [1, 2, 3, 4])


class TestBootstrapCI:
    def test_perfect_monotone_pins_interval_at_one(self):
        x = np.arange(1.0, 21.0)
        lo, hi = bootstrap_ci(x, 2 * x, b_reps=200, seed=0)
        assert (lo, hi) == (1.0, 1.0)

    def test_same_seed_reproduces_interval(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(1, 4, 40)
        y = x + rng.normal(0, 1, 40)
        assert bootstrap_ci(x, y, b_reps=300, seed=5) == bootstrap_ci(x, y, b_reps=300, seed=5)

    def test_interval_ordered_and_bounded(self):
        rng = np.random.default_rng(12)
        for seed in range(5):
            x = rng.uniform(1, 4, 30)
            y = x + rng.normal(0, 1.5, 30)
            lo, hi = bootstrap_ci(x, y, b_reps=200, seed=seed)
            assert -1.0 <= lo <= hi <= 1.0

    def test_degenerate_input_rejected(self, monkeypatch):
        # with redraws disabled, resamples of near-constant data collapse
        monkeypatch.setattr(stats, "_BOOTSTRAP_MAX_REDRAW", 1)
        x = np.array([1.0, 1.0, 1.0, 2.0])
        y = np.array([1.0, 2.0, 2.0, 2.0])
        with pytest.raises(ValueError, match="degenerate"):
            bootstrap_ci(x, y, b_reps=400, seed=0)

    def test_validates_parameters(self):
        x = np.arange(1.0, 11.0)
        with pytest.raises(ValueError, match="b_reps"):
            bootstrap_ci(x, x, b_reps=0)
        with pytest.raises(ValueError, match="alpha"):
            bootstrap_ci(x, x, alpha=1.5)


def bootstrap_ci_per_replicate(x, y, b_reps, alpha, seed):
    """bootstrap_ci as one spearman call per accepted replicate; also
    returns how many resamples were redrawn."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    replicates = np.empty(b_reps)
    degenerate = total = 0
    for i in range(b_reps):
        rng = substream(seed, i)
        for _ in range(stats._BOOTSTRAP_MAX_REDRAW):
            idx = rng.integers(0, n, size=n)
            total += 1
            xs, ys = x[idx], y[idx]
            if np.all(xs == xs[0]) or np.all(ys == ys[0]):
                degenerate += 1
                continue
            replicates[i] = spearman(xs, ys)
            break
        else:
            raise ValueError("input too degenerate: resamples keep collapsing to constants")
    if degenerate > 0.5 * total:
        raise ValueError("input too degenerate: more than half of bootstrap resamples were constant")
    lo, hi = np.quantile(replicates, [alpha / 2.0, 1.0 - alpha / 2.0])
    return (float(lo), float(hi)), degenerate


class TestBootstrapBatchEquivalence:
    def test_equals_per_replicate_loop_on_half_star_data(self):
        def outcome(call):
            try:
                return call()
            except ValueError as exc:
                return str(exc)

        rng = np.random.default_rng(45)
        intervals = 0
        for seed in range(60):
            n = int(rng.integers(3, 60))
            x = rng.integers(2, 9, size=n) / 2.0
            y = np.clip(np.round(x + rng.normal(0, 1, n)), 1, 4)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            expected = outcome(lambda: bootstrap_ci_per_replicate(x, y, 150, 0.05, seed)[0])
            assert outcome(lambda: bootstrap_ci(x, y, b_reps=150, alpha=0.05, seed=seed)) == expected
            intervals += isinstance(expected, tuple)
        assert intervals >= 50

    # blocks of 3 replicates leave a short last block of 100
    @pytest.mark.parametrize("block", [None, 3], ids=["one-block", "blocks-of-3"])
    def test_equals_per_replicate_loop_when_resamples_are_redrawn(self, block, monkeypatch):
        x = np.array([2.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.5])
        y = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0])
        if block is not None:
            monkeypatch.setattr(stats, "_RANK_BLOCK_ELEMENTS", block * len(x))
        redrawn = 0
        for seed in range(50):
            expected, degenerate = bootstrap_ci_per_replicate(x, y, 100, 0.1, seed)
            assert bootstrap_ci(x, y, b_reps=100, alpha=0.1, seed=seed) == expected
            redrawn += degenerate
        assert redrawn > 1000


class TestCorrelate:
    def test_result_brackets_point_estimate(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(1, 4, 60)
        y = x + rng.normal(0, 0.8, 60)
        res = correlate(x, y, b_reps=400, seed=9)
        assert res.ci_low <= res.rho <= res.ci_high
        assert res.n == 60
        assert res.b_reps == 400

    def test_type_invariants_enforced(self):
        with pytest.raises(ValueError, match="n >= 3"):
            CorrelationResult(rho=0.5, ci_low=0.4, ci_high=0.6, n=2, b_reps=100)

    def test_interval_may_exclude_point_estimate(self):
        # a percentile interval need not contain rho; this one lies wholly
        # above it, and analyze must report the unit, not skip it
        res = correlate([6, 3, 3, 3, 3, 3], [6, 1, 5, 4, 3, 2], b_reps=1000, seed=142)
        assert res.rho == pytest.approx(0.65465, abs=1e-5)
        assert res.rho < res.ci_low <= res.ci_high


class TestAggregateAcrossUnits:
    def test_zero_variance_collapses_interval(self):
        assert aggregate_across_units([0.4] * 6) == pytest.approx((0.4, 0.4, 0.4))

    def test_two_units_hand_computed(self):
        # t(0.975, 1) = 12.706..., sd = 0.14142..., half-width = 1.27062...;
        # only the upper endpoint exceeds the [-1, 1] clip
        mean, lo, hi = aggregate_across_units([0.3, 0.5])
        assert mean == pytest.approx(0.4)
        assert lo == pytest.approx(0.4 - 12.706204736174698 * np.sqrt(0.02) / np.sqrt(2))
        assert hi == 1.0

    def test_interval_contains_mean(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            m = int(rng.integers(2, 9))
            rhos = rng.uniform(-1, 1, m)
            mean, lo, hi = aggregate_across_units(rhos)
            assert lo <= mean <= hi

    def test_needs_two_values(self):
        with pytest.raises(ValueError, match="at least 2"):
            aggregate_across_units([0.4])

    def test_interval_follows_alpha(self):
        rhos = np.array([0.2, 0.35, 0.3, 0.5, 0.25])
        m, mean, sd = len(rhos), float(rhos.mean()), float(rhos.std(ddof=1))
        half = float(stdtrit(m - 1, 0.95)) * sd / np.sqrt(m)
        assert aggregate_across_units(rhos, alpha=0.1) == (mean, mean - half, mean + half)
        with pytest.raises(ValueError, match="alpha"):
            aggregate_across_units(rhos, alpha=1.5)

    def test_t_quantile_is_scipy_stats_bit_for_bit(self):
        rng = np.random.default_rng(9)
        for m in range(2, 501):
            # a narrow spread keeps both endpoints inside the [-1, 1] clip
            rhos = rng.uniform(0.29, 0.31, m)
            mean = float(rhos.mean())
            half = float(sps.t.ppf(0.975, m - 1)) * float(rhos.std(ddof=1)) / np.sqrt(m)
            assert aggregate_across_units(rhos) == (mean, mean - half, mean + half)


class TestBinomialTail:
    def test_six_of_six(self):
        assert binomial_tail(6, 6) == 0.015625

    def test_nine_of_ten(self):
        assert binomial_tail(9, 10) == float(Fraction(11, 1024))

    def test_zero_successes_is_certain(self):
        for n in (1, 4, 9):
            assert binomial_tail(0, n) == 1.0

    def test_matches_exact_enumeration(self):
        for n in range(1, 21):
            for k in range(n + 1):
                exact = Fraction(sum(comb(n, i) for i in range(k, n + 1)), 2**n)
                assert binomial_tail(k, n) == float(exact)

    def test_tail_complement_identity(self):
        # P(X >= k) + P(X >= n-k) = 1 + P(X = k) for the symmetric binomial
        for n in range(1, 21):
            for k in range(n + 1):
                lhs = Fraction(binomial_tail(k, n)) + Fraction(binomial_tail(n - k, n))
                rhs = 1 + Fraction(comb(n, k), 2**n)
                assert lhs == rhs

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            binomial_tail(3, 0)
        with pytest.raises(ValueError):
            binomial_tail(7, 6)


class TestSignTest:
    def test_carries_exact_tail(self):
        res = sign_test(6, 6)
        assert (res.wins, res.trials) == (6, 6)
        assert res.p_value == 0.015625

    def test_rejects_impossible_counts(self):
        with pytest.raises(ValueError):
            sign_test(5, 4)


class TestScoreMatrix:
    def test_cell_bounds_enforced(self):
        with pytest.raises(ValueError, match="outside"):
            ScoreCell(score=4.5, effective_k=1)
        with pytest.raises(ValueError, match="effective_k"):
            ScoreCell(score=3.0, effective_k=0)

    def test_duplicate_column_rejected(self):
        m = ScoreMatrix()
        m.add_column(("m", "zero"), {"a": ScoreCell(3.0, 1)})
        with pytest.raises(ValueError, match="already present"):
            m.add_column(("m", "zero"), {"a": ScoreCell(3.0, 1)})

    def test_complete_ids_intersects_columns(self):
        m = ScoreMatrix()
        m.add_column(("m1", "zero"), {"a": ScoreCell(2.0, 1), "b": ScoreCell(3.0, 1)})
        m.add_column(("m2", "zero"), {"b": ScoreCell(3.5, 1), "c": ScoreCell(1.0, 1)})
        assert m.complete_ids() == ["b"]
        assert m.cell_count() == 4

    def test_by_uoa_splits_every_column_by_unit(self):
        m = ScoreMatrix()
        m.add_column(("m1", "zero"), {"a": ScoreCell(2.0, 1), "b": ScoreCell(3.0, 2)})
        m.add_column(("m2", "zero"), {"b": ScoreCell(3.5, 1), "z": ScoreCell(1.0, 1)})
        units = m.by_uoa({"b": 2, "a": 1, "c": 3})
        assert list(units) == [1, 2, 3]
        assert all(u.columns == m.columns for u in units.values())
        # a column that scored none of a unit's articles is kept, empty
        assert units[1].cells == {("m1", "zero"): {"a": ScoreCell(2.0, 1)}, ("m2", "zero"): {}}
        assert units[2].cells == {
            ("m1", "zero"): {"b": ScoreCell(3.0, 2)}, ("m2", "zero"): {"b": ScoreCell(3.5, 1)},
        }
        # a unit that nothing scored still appears; "z" has no unit and is left out
        assert units[3].cells == {("m1", "zero"): {}, ("m2", "zero"): {}}

    def test_paired_with_gold_aligns_ids(self):
        m = ScoreMatrix()
        m.add_column(("m1", "zero"), {"a": ScoreCell(2.0, 1), "b": ScoreCell(3.0, 1)})
        ids, x, y = m.paired_with_gold(("m1", "zero"), {"b": 4.0, "z": 1.0})
        assert ids == ["b"]
        assert_allclose(x, [3.0])
        assert_allclose(y, [4.0])


class TestAveragingBeatsSingle:
    def test_mean_of_five_usually_wins(self):
        # averaging K noisy reads of a latent quality should usually beat one
        rng = np.random.default_rng(99)
        wins = 0
        trials = 30
        for _ in range(trials):
            latent = rng.uniform(1, 4, 120)
            noisy = np.clip(latent[None, :] + rng.normal(0, 0.8, (5, 120)), 1, 4)
            single = spearman(noisy[0], latent)
            averaged = spearman(noisy.mean(axis=0), latent)
            wins += averaged > single
        assert wins >= 0.8 * trials
