"""Tests for score fusion and the cross-validated weight fit."""
import numpy as np
import pytest

from refscore.fusion import (
    CvResult,
    DEParams,
    FusionWeights,
    _make_objective,
    assign_folds,
    best_single,
    cv_fusion,
    de_optimize,
    fused_scores,
    fusion_row,
    mean_fusion,
    median_fusion,
    rank_average_fusion,
    rank_normalized_pool,
)
from refscore.stats import ScoreCell, ScoreMatrix, midranks, spearman
from refscore.util import substream

FAST_DE = DEParams(population=16, generations=40)


def build_matrix(columns: dict, k: int = 5) -> ScoreMatrix:
    """columns: {(model, strategy): {article_id: score}}"""
    matrix = ScoreMatrix(k)
    for key, scores in columns.items():
        matrix.add_column(
            key, {i: ScoreCell(score=s, effective_k=1) for i, s in scores.items()}
        )
    return matrix


def random_matrix(rng, n_articles=40, n_cols=3, signal=None):
    ids = [f"a{i:03d}" for i in range(n_articles)]
    cols = {}
    for c in range(n_cols):
        base = signal if signal is not None else rng.uniform(1, 4, n_articles)
        noise = rng.normal(0, 0.5, n_articles)
        scores = np.clip(base + noise, 1.0, 4.0)
        cols[(f"m{c}", "zero")] = dict(zip(ids, scores.tolist()))
    return build_matrix(cols), ids


class TestMeanMedianFusion:
    def test_values_within_per_article_envelope(self):
        rng = np.random.default_rng(0)
        matrix, ids = random_matrix(rng)
        fused_mean = mean_fusion(matrix)
        fused_median = median_fusion(matrix)
        for art_id in ids:
            scores = [
                matrix.cells[key][art_id].score for key in matrix.columns
            ]
            assert min(scores) <= fused_mean[art_id] <= max(scores)
            assert min(scores) <= fused_median[art_id] <= max(scores)

    def test_mean_of_known_values(self):
        matrix = build_matrix(
            {
                ("m0", "zero"): {"a": 1.0, "b": 4.0},
                ("m1", "zero"): {"a": 3.0, "b": 2.0},
            }
        )
        assert mean_fusion(matrix) == {"a": 2.0, "b": 3.0}

    def test_partial_availability_uses_present_columns(self):
        matrix = build_matrix(
            {
                ("m0", "zero"): {"a": 1.0, "b": 4.0},
                ("m1", "zero"): {"a": 3.0},
            }
        )
        fused = mean_fusion(matrix)
        assert fused["a"] == 2.0
        assert fused["b"] == 4.0


class TestRankAverageFusion:
    def test_single_column_is_its_own_ranking(self):
        scores = {"a": 1.5, "b": 3.0, "c": 2.0}
        matrix = build_matrix({("m0", "zero"): scores})
        fused = rank_average_fusion(matrix)
        expected = midranks([scores[i] for i in sorted(scores)])
        for art_id, rank in zip(sorted(scores), expected):
            assert fused[art_id] == rank

    def test_invariant_under_monotone_column_transforms(self):
        rng = np.random.default_rng(1)
        matrix, ids = random_matrix(rng, n_articles=25, n_cols=3)
        # strictly increasing warps that keep scores inside [1, 4]
        warps = [
            lambda v: 1.0 + 3.0 * ((v - 1.0) / 3.0) ** 2,
            lambda v: 1.0 + 3.0 * np.sqrt((v - 1.0) / 3.0),
            lambda v: 1.0 + 3.0 * (np.expm1(v - 1.0) / np.expm1(3.0)),
        ]
        warped_matrix = ScoreMatrix(5)
        for k, key in enumerate(matrix.columns):
            col = matrix.column_scores(key)
            warped_matrix.add_column(
                key,
                {i: ScoreCell(float(warps[k](v)), 1) for i, v in col.items()},
            )
        a = rank_average_fusion(matrix)
        b = rank_average_fusion(warped_matrix)
        for art_id in ids:
            assert a[art_id] == pytest.approx(b[art_id], abs=1e-12)

    def test_matches_rank_then_mean_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            matrix, ids = random_matrix(rng, n_articles=15, n_cols=4)
            fused = rank_average_fusion(matrix)
            per_column = []
            for key in matrix.columns:
                col = matrix.column_scores(key)
                ordered = sorted(col)
                ranks = dict(zip(ordered, midranks([col[i] for i in ordered])))
                per_column.append(ranks)
            for art_id in ids:
                oracle = np.mean([r[art_id] for r in per_column])
                assert fused[art_id] == pytest.approx(oracle, abs=1e-12)


class TestBestSingle:
    def test_single_column(self):
        gold = {"a": 1.0, "b": 2.0, "c": 3.0}
        matrix = build_matrix({("m0", "zero"): {"a": 1.1, "b": 2.2, "c": 2.9}})
        key, rho = best_single(matrix, gold)
        assert key == ("m0", "zero")
        assert rho == pytest.approx(1.0)

    def test_picks_the_better_column(self):
        rng = np.random.default_rng(3)
        n = 60
        gold_vec = rng.uniform(1, 4, n)
        ids = [f"a{i}" for i in range(n)]
        gold = dict(zip(ids, gold_vec.tolist()))
        good = np.clip(gold_vec + rng.normal(0, 0.3, n), 1, 4)
        bad = np.clip(gold_vec + rng.normal(0, 2.0, n), 1, 4)
        matrix = build_matrix(
            {
                ("good", "zero"): dict(zip(ids, good.tolist())),
                ("bad", "zero"): dict(zip(ids, bad.tolist())),
            }
        )
        key, rho = best_single(matrix, gold)
        assert key == ("good", "zero")

    def test_tie_broken_lexicographically(self):
        gold = {"a": 1.0, "b": 2.0, "c": 3.0}
        col = {"a": 1.0, "b": 2.0, "c": 3.0}
        matrix = build_matrix({("zeta", "zero"): col, ("alpha", "zero"): dict(col)})
        key, rho = best_single(matrix, gold)
        assert key == ("alpha", "zero")
        assert rho == pytest.approx(1.0)

    def test_no_usable_column(self):
        matrix = build_matrix({("m0", "zero"): {"a": 2.0, "b": 2.0, "c": 2.0}})
        gold = {"a": 1.0, "b": 2.0, "c": 3.0}
        with pytest.raises(ValueError, match="no column"):
            best_single(matrix, gold)


class TestDeOptimize:
    def test_identical_columns_match_single_column_rho(self):
        rng = np.random.default_rng(4)
        n = 30
        ids = [f"a{i}" for i in range(n)]
        scores = rng.uniform(1, 4, n)
        gold = dict(zip(ids, np.clip(scores + rng.normal(0, 0.7, n), 1, 4).tolist()))
        col = dict(zip(ids, scores.tolist()))
        matrix = build_matrix({("m0", "zero"): col, ("m1", "zero"): dict(col)})
        fit = de_optimize(matrix, gold, params=FAST_DE, seed=0)
        single = spearman(
            [col[i] for i in ids], [gold[i] for i in ids]
        )
        assert fit.objective == pytest.approx(single, abs=1e-12)

    def test_weight_scaling_does_not_change_ranks(self):
        rng = np.random.default_rng(5)
        matrix, ids = random_matrix(rng, n_articles=20, n_cols=3)
        fit = de_optimize(
            matrix,
            {i: float(v) for i, v in zip(ids, rng.uniform(1, 4, len(ids)))},
            params=FAST_DE,
            seed=1,
        )
        fused = fused_scores(matrix, fit)
        doubled = FusionWeights(
            columns=fit.columns,
            weights=tuple(2.0 * w for w in fit.weights),
            objective=fit.objective,
            history=fit.history,
        )
        fused2 = fused_scores(matrix, doubled)
        order1 = sorted(ids, key=fused.get)
        order2 = sorted(ids, key=fused2.get)
        assert order1 == order2

    def test_history_is_monotone_and_full_length(self):
        rng = np.random.default_rng(6)
        matrix, ids = random_matrix(rng, n_articles=25, n_cols=3)
        gold = {i: float(v) for i, v in zip(ids, rng.uniform(1, 4, len(ids)))}
        fit = de_optimize(matrix, gold, params=FAST_DE, seed=2)
        assert len(fit.history) == FAST_DE.generations
        assert all(a <= b for a, b in zip(fit.history, fit.history[1:]))
        assert fit.objective == fit.history[-1]

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(7)
        matrix, ids = random_matrix(rng, n_articles=20, n_cols=2)
        gold = {i: float(v) for i, v in zip(ids, rng.uniform(1, 4, len(ids)))}
        a = de_optimize(matrix, gold, params=FAST_DE, seed=9)
        b = de_optimize(matrix, gold, params=FAST_DE, seed=9)
        assert a.weights == b.weights
        assert a.history == b.history

    def test_recovers_informative_column(self):
        # one column tracks gold, two are noise: its weight should dominate
        rng = np.random.default_rng(8)
        n = 80
        ids = [f"a{i}" for i in range(n)]
        gold_vec = rng.uniform(1, 4, n)
        gold = dict(zip(ids, gold_vec.tolist()))
        cols = {
            ("signal", "zero"): dict(zip(ids, np.clip(gold_vec + rng.normal(0, 0.1, n), 1, 4).tolist())),
            ("noise1", "zero"): dict(zip(ids, rng.uniform(1, 4, n).tolist())),
            ("noise2", "zero"): dict(zip(ids, rng.uniform(1, 4, n).tolist())),
        }
        matrix = build_matrix(cols)
        fit = de_optimize(matrix, gold, seed=3)
        weights = dict(zip(fit.columns, fit.weights))
        assert weights[("signal", "zero")] > weights[("noise1", "zero")]
        assert weights[("signal", "zero")] > weights[("noise2", "zero")]

    def test_too_few_columns(self):
        matrix = build_matrix({("m0", "zero"): {f"a{i}": 2.0 + i * 0.1 for i in range(12)}})
        gold = {f"a{i}": 1.0 + i * 0.2 for i in range(12)}
        with pytest.raises(ValueError, match="2 columns"):
            de_optimize(matrix, gold, params=FAST_DE)

    def test_too_few_articles(self):
        matrix = build_matrix(
            {
                ("m0", "zero"): {f"a{i}": 2.0 + i * 0.1 for i in range(5)},
                ("m1", "zero"): {f"a{i}": 2.5 for i in range(5)},
            }
        )
        gold = {f"a{i}": 1.0 + i * 0.2 for i in range(5)}
        with pytest.raises(ValueError, match="10 complete-case"):
            de_optimize(matrix, gold, params=FAST_DE)

    def test_constant_gold_rejected(self):
        rng = np.random.default_rng(9)
        matrix, ids = random_matrix(rng, n_articles=15, n_cols=2)
        gold = {i: 2.5 for i in ids}
        with pytest.raises(ValueError, match="constant"):
            de_optimize(matrix, gold, params=FAST_DE)

    def test_params_validation(self):
        with pytest.raises(ValueError, match="population"):
            DEParams(population=2)
        with pytest.raises(ValueError, match="mutation"):
            DEParams(mutation=0.0)
        with pytest.raises(ValueError, match="crossover"):
            DEParams(crossover=1.5)

    def test_weights_respect_bounds(self):
        rng = np.random.default_rng(10)
        matrix, ids = random_matrix(rng, n_articles=20, n_cols=3)
        gold = {i: float(v) for i, v in zip(ids, rng.uniform(1, 4, len(ids)))}
        fit = de_optimize(matrix, gold, params=FAST_DE, seed=4)
        assert all(0.0 <= w <= 1.0 for w in fit.weights)


class TestObjective:
    def test_rhos_equal_spearman_of_each_tied_candidate(self):
        rng = np.random.default_rng(6)
        design = rng.integers(2, 9, size=(36, 3)) / 2.0
        gold = rng.integers(1, 5, size=36).astype(float)
        candidates = np.vstack([
            np.eye(3),
            [[0.5, 0.5, 0.0], [1.0, 1.0, 1.0], [0.0, 2.0, 2.0]],
            rng.uniform(0, 1, size=(30, 3)),
            rng.integers(0, 3, size=(20, 3)),
            [[0.0, 0.0, 0.0]],
        ])
        rhos = _make_objective([design], [gold])(candidates[None])[0]
        tied = 0
        for w, rho in zip(candidates, rhos):
            fused = design @ w
            if np.all(fused == fused[0]):
                assert rho == -np.inf
                continue
            tied += len(np.unique(fused)) < len(fused)
            assert rho == pytest.approx(spearman(fused, gold), abs=1e-12)
        assert tied >= 20


class TestAssignFolds:
    def test_sizes_differ_by_at_most_one(self):
        ids = [f"a{i}" for i in range(47)]
        assignment = assign_folds(ids, folds=10, seed=0)
        sizes = np.bincount(list(assignment.values()), minlength=10)
        assert sizes.max() - sizes.min() <= 1
        assert sizes.sum() == 47

    def test_deterministic(self):
        ids = [f"a{i}" for i in range(30)]
        assert assign_folds(ids, 5, seed=3) == assign_folds(ids, 5, seed=3)

    def test_stratification_spreads_each_uoa(self):
        ids = [f"u{u}-a{i}" for u in (1, 2) for i in range(20)]
        uoa_map = {i: (1 if i.startswith("u1") else 2) for i in ids}
        assignment = assign_folds(ids, folds=4, seed=1, uoa_by_article=uoa_map)
        for uoa in (1, 2):
            members = [assignment[i] for i in ids if uoa_map[i] == uoa]
            sizes = np.bincount(members, minlength=4)
            assert sizes.max() - sizes.min() <= 1

    def test_errors(self):
        with pytest.raises(ValueError, match="at least 2"):
            assign_folds(["a", "b", "c"], folds=1, seed=0)
        with pytest.raises(ValueError, match="cannot spread"):
            assign_folds(["a", "b"], folds=3, seed=0)


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(11)
    n = 45
    ids = [f"a{i:03d}" for i in range(n)]
    gold_vec = rng.uniform(1, 4, n)
    cols = {
        ("m0", "zero"): dict(zip(ids, np.clip(gold_vec + rng.normal(0, 0.4, n), 1, 4).tolist())),
        ("m1", "zero"): dict(zip(ids, np.clip(gold_vec + rng.normal(0, 0.8, n), 1, 4).tolist())),
    }
    matrix = build_matrix(cols)
    gold = dict(zip(ids, gold_vec.tolist()))
    return cv_fusion(matrix, gold, folds=3, seed=0, params=FAST_DE)


class TestCvFusion:

    def test_mean_is_arithmetic_mean_of_folds(self, fitted):
        assert fitted.mean_rho == pytest.approx(
            np.mean(fitted.fold_rhos), abs=1e-12
        )

    def test_fold_rhos_bounded(self, fitted):
        assert all(-1.0 <= r <= 1.0 for r in fitted.fold_rhos)
        assert len(fitted.fold_rhos) == 3
        assert len(fitted.fold_weights) == 3

    def test_too_few_articles_for_folds(self):
        rng = np.random.default_rng(12)
        matrix, ids = random_matrix(rng, n_articles=20, n_cols=2)
        gold = {i: float(v) for i, v in zip(ids, rng.uniform(1, 4, len(ids)))}
        with pytest.raises(ValueError, match="at least 30"):
            cv_fusion(matrix, gold, folds=10, params=FAST_DE)

    def test_constant_gold_fails_in_the_fit(self):
        rng = np.random.default_rng(16)
        matrix, ids = random_matrix(rng, n_articles=24, n_cols=2)
        gold = {i: 2.0 for i in ids}
        with pytest.raises(ValueError, match="constant"):
            cv_fusion(matrix, gold, folds=2, params=FAST_DE)

    def test_fold_failure_names_the_fold(self):
        # a test fold whose fused scores are all tied cannot be correlated;
        # the error must say which fold
        rng = np.random.default_rng(17)
        n = 24
        ids = [f"a{i:02d}" for i in range(n)]
        assignment = assign_folds(ids, folds=2, seed=0)
        held_out = {i for i in ids if assignment[i] == 0}
        cols = {}
        for model in ("m0", "m1"):
            col = {}
            for i in ids:
                col[i] = 2.0 if i in held_out else float(rng.uniform(1, 4))
            cols[(model, "zero")] = col
        matrix = build_matrix(cols)
        gold = {i: float(rng.uniform(1, 4)) for i in ids}
        with pytest.raises(ValueError, match="fold 0"):
            cv_fusion(matrix, gold, folds=2, seed=0, params=FAST_DE)


def sequential_de(design, gold, params, seed):
    # reference: one fit on its own, each candidate ranked column by column
    gold_ranks = midranks(gold)
    gold_ranks -= gold_ranks.mean()
    gold_norm = np.sqrt(gold_ranks.dot(gold_ranks))

    def objective(weight_rows):
        fused = design @ weight_rows.T
        ranks = np.column_stack([midranks(col) for col in fused.T])
        ranks -= ranks.mean(axis=0, keepdims=True)
        norms = np.sqrt((ranks * ranks).sum(axis=0)) * gold_norm
        zero = norms == 0.0
        norms[zero] = 1.0
        rhos = (ranks.T @ gold_ranks) / norms
        rhos[zero] = -np.inf
        return rhos

    np_, dim = params.population, design.shape[1]
    population = substream(seed, "de-init").uniform(0.0, 1.0, size=(np_, dim))
    fitness = objective(population)
    history = []
    rows = np.arange(np_)[:, None]
    for gen in range(params.generations):
        rng = substream(seed, "de", gen)
        picks = rng.integers(0, np_ - 1, size=(np_, 3))
        while True:
            bad = (picks[:, 0] == picks[:, 1]) | (picks[:, 0] == picks[:, 2]) | (picks[:, 1] == picks[:, 2])
            if not bad.any():
                break
            picks[bad] = rng.integers(0, np_ - 1, size=(int(bad.sum()), 3))
        r1, r2, r3 = (picks + (picks >= rows)).T
        mutants = population[r1] + params.mutation * (population[r2] - population[r3])
        mutants.clip(0.0, 1.0, out=mutants)
        cross = rng.random((np_, dim)) < params.crossover
        cross[rows[:, 0], rng.integers(0, dim, size=np_)] = True
        trials = np.where(cross, mutants, population)
        trial_fits = objective(trials)
        improved = trial_fits >= fitness
        population[improved] = trials[improved]
        fitness[improved] = trial_fits[improved]
        history.append(float(fitness.max()))
    best = int(np.argmax(fitness))
    return tuple(float(w) for w in population[best]), float(fitness[best]), tuple(history)


class TestLockstepFolds:
    """Folds fitted together equal folds fitted one by one, bit for bit."""

    def test_equals_fold_by_fold_fits(self):
        params = DEParams(population=10, generations=12)
        compared = 0
        for seed in range(30):
            rng = np.random.default_rng(100 + seed)
            folds = 3 + seed % 5
            # fold sizes differ by one, so the folds' training sets differ
            # in length and the batched ranks are padded
            n = folds * (5 + seed % 4) + 1 + seed % (folds - 1)
            assert n % folds != 0
            ids = [f"a{i:03d}" for i in range(n)]
            gold_vec = rng.integers(2, 9, n) / 2.0
            cols = {}
            for c in range(2 + seed % 3):
                # means of two half-star scores: heavy ties, as in real runs
                noisy = np.clip(np.round(2 * (gold_vec + rng.normal(0, 0.7, (2, n)))) / 2, 1, 4)
                cols[(f"m{c}", "zero")] = dict(zip(ids, noisy.mean(axis=0).tolist()))
            matrix = build_matrix(cols)
            gold = dict(zip(ids, gold_vec.tolist()))
            cv = cv_fusion(matrix, gold, folds=folds, seed=seed, params=params)
            assignment = assign_folds(ids, folds, seed)
            for fold, fit in enumerate(cv.fold_weights):
                train = [i for i in ids if assignment[i] != fold]
                design = np.array([[cols[key][i] for key in matrix.columns] for i in train])
                expected = sequential_de(
                    design, np.array([gold[i] for i in train]), params, seed + fold
                )
                assert (fit.weights, fit.objective, fit.history) == expected
                compared += 1
        assert compared == sum(3 + seed % 5 for seed in range(30))

    def test_de_optimize_is_one_fold_of_the_batch(self):
        rng = np.random.default_rng(21)
        matrix, ids = random_matrix(rng, n_articles=23, n_cols=4)
        gold = {i: float(v) for i, v in zip(ids, rng.integers(2, 9, len(ids)) / 2.0)}
        fit = de_optimize(matrix, gold, params=FAST_DE, seed=5)
        design = np.array([[matrix.cells[key][i].score for key in matrix.columns] for i in ids])
        expected = sequential_de(design, np.array([gold[i] for i in ids]), FAST_DE, 5)
        assert (fit.weights, fit.objective, fit.history) == expected

    def test_later_fold_failure_waits_for_earlier_folds(self):
        # gold is constant outside fold 1, so fold 1 cannot be fitted and
        # fold 0 cannot be tested; fold by fold, fold 0's test fails first
        ids = [f"a{i:02d}" for i in range(30)]
        assignment = assign_folds(ids, folds=3, seed=0)
        rng = np.random.default_rng(22)
        matrix = build_matrix(
            {(m, "zero"): {i: float(rng.uniform(1, 4)) for i in ids} for m in ("m0", "m1")}
        )
        gold = {i: float(rng.uniform(1, 4)) if assignment[i] == 1 else 2.0 for i in ids}
        with pytest.raises(ValueError, match="fold 0 cannot support a correlation"):
            cv_fusion(matrix, gold, folds=3, seed=0, params=FAST_DE)


class TestFusionRow:
    def test_row_mapping_keys(self):
        rng = np.random.default_rng(13)
        n = 36
        ids = [f"a{i:03d}" for i in range(n)]
        gold_vec = rng.uniform(1, 4, n)
        cols = {
            ("m0", "zero"): dict(zip(ids, np.clip(gold_vec + rng.normal(0, 0.5, n), 1, 4).tolist())),
            ("m1", "few"): dict(zip(ids, np.clip(gold_vec + rng.normal(0, 0.5, n), 1, 4).tolist())),
        }
        matrix = build_matrix(cols)
        gold = dict(zip(ids, gold_vec.tolist()))
        row, cv = fusion_row("1", matrix, gold, folds=3, params=FAST_DE)
        mapping = row.as_mapping()
        assert list(mapping) == [
            "uoa", "mean", "median", "best-single", "rank-average", "cv-mean"
        ]
        assert mapping["uoa"] == "1"
        assert mapping["cv-mean"] == pytest.approx(cv.mean_rho)
        for field in ("mean", "median", "best-single", "rank-average"):
            assert -1.0 <= mapping[field] <= 1.0


class TestRankNormalizedPool:
    def test_per_uoa_correlations_unchanged(self):
        rng = np.random.default_rng(14)
        ids1 = [f"u1-a{i}" for i in range(20)]
        ids2 = [f"u2-a{i}" for i in range(25)]
        uoa_map = {**{i: 1 for i in ids1}, **{i: 2 for i in ids2}}
        all_ids = ids1 + ids2
        gold = {i: float(rng.uniform(1, 4)) for i in all_ids}
        col = {i: float(np.clip(gold[i] + rng.normal(0, 0.5), 1, 4)) for i in all_ids}
        matrix = build_matrix({("m0", "zero"): col})
        pooled, pooled_gold = rank_normalized_pool(matrix, gold, uoa_map)
        for ids in (ids1, ids2):
            before = spearman([col[i] for i in ids], [gold[i] for i in ids])
            after = spearman(
                [pooled.cells[("m0", "zero")][i].score for i in ids],
                [pooled_gold[i] for i in ids],
            )
            assert after == pytest.approx(before, abs=1e-12)

    def test_values_scaled_into_star_range(self):
        rng = np.random.default_rng(15)
        ids = [f"u1-a{i}" for i in range(10)]
        uoa_map = {i: 1 for i in ids}
        gold = {i: float(rng.uniform(1, 4)) for i in ids}
        col = {i: float(rng.uniform(1, 4)) for i in ids}
        matrix = build_matrix({("m0", "zero"): col})
        pooled, pooled_gold = rank_normalized_pool(matrix, gold, uoa_map)
        values = [c.score for c in pooled.cells[("m0", "zero")].values()]
        assert min(values) == pytest.approx(1.0)
        assert max(values) == pytest.approx(4.0)
        assert all(1.0 <= v <= 4.0 for v in list(pooled_gold.values()) + values)
