"""Score fusion across model/strategy columns.

Four unsupervised fusions (mean, median, rank-average, best single) plus a
supervised one: non-negative column weights fitted by differential
evolution to maximize Spearman correlation with gold, evaluated honestly
via stratified cross-validation.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .corpus import SCORE_MAX, SCORE_MIN
from .stats import ColumnKey, ScoreCell, ScoreMatrix, midranks, midranks_2d, spearman
from .util import substream, substreams

#: every fusion weight lies in [WEIGHT_MIN, WEIGHT_MAX]
WEIGHT_MIN = 0.0
WEIGHT_MAX = 1.0
#: the columns of the fusion table, one per FusionRow field
FUSION_COLUMNS = ("uoa", "mean", "median", "best-single", "rank-average", "cv-mean")


@dataclass(frozen=True)
class DEParams:
    """DE/rand/1/bin hyperparameters."""

    population: int = 40
    mutation: float = 0.8
    crossover: float = 0.9
    generations: int = 200

    def __post_init__(self):
        if self.population < 4:
            raise ValueError("population must be at least 4")
        if not (0.0 < self.mutation <= 2.0):
            raise ValueError("mutation factor out of range")
        if not (0.0 <= self.crossover <= 1.0):
            raise ValueError("crossover rate out of range")
        if self.generations < 1:
            raise ValueError("generations must be positive")


@dataclass(frozen=True)
class FusionWeights:
    """Fitted weights, the achieved objective, and the per-generation best trace."""

    columns: tuple[ColumnKey, ...]
    weights: tuple[float, ...]
    objective: float
    history: tuple[float, ...]

    def __post_init__(self):
        if len(self.columns) != len(self.weights):
            raise ValueError("one weight per column required")
        if any(w < 0.0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        if all(w == 0.0 for w in self.weights):
            raise ValueError("weights must not all be zero")


def mean_fusion(matrix: ScoreMatrix) -> dict[str, float]:
    """Per-article mean over the columns that scored it."""
    return _availability_fusion(matrix, np.mean)


def median_fusion(matrix: ScoreMatrix) -> dict[str, float]:
    """Per-article median over the columns that scored it."""
    return _availability_fusion(matrix, np.median)


def _availability_fusion(matrix: ScoreMatrix, reducer) -> dict[str, float]:
    values: dict[str, list[float]] = {}
    for key in matrix.columns:
        for art_id, cell in matrix.cells[key].items():
            values.setdefault(art_id, []).append(cell.score)
    return {art_id: float(reducer(v)) for art_id, v in values.items()}


def rank_average_fusion(matrix: ScoreMatrix) -> dict[str, float]:
    """Average of per-column mid-ranks.

    Each column is ranked over the articles it scored; an article's fused
    value is the mean of its ranks across the columns that scored it.
    Invariant under strictly increasing per-column transforms.
    """
    rank_lists: dict[str, list[float]] = {}
    for key in matrix.columns:
        column = matrix.cells[key]
        ids = sorted(column)
        if not ids:
            continue
        ranks = midranks([column[i].score for i in ids])
        for art_id, rank in zip(ids, ranks):
            rank_lists.setdefault(art_id, []).append(float(rank))
    return {art_id: float(np.mean(r)) for art_id, r in rank_lists.items()}


def best_single(matrix: ScoreMatrix, gold_scores: dict[str, float]) -> tuple[ColumnKey, float]:
    """The single column best correlated with gold; ties go to the
    lexicographically first column key."""
    best_key: ColumnKey | None = None
    best_rho = -np.inf
    for key in matrix.columns:
        _, x, y = matrix.paired_with_gold(key, gold_scores)
        try:
            rho = spearman(x, y)
        except ValueError:
            continue
        if rho > best_rho:
            best_key, best_rho = key, rho
    if best_key is None:
        raise ValueError("no column supports a correlation with this gold standard")
    return best_key, float(best_rho)


def _complete_design(matrix: ScoreMatrix, gold_scores: dict[str, float]):
    """Complete-case design matrix: articles scored by every column and gold."""
    ids = [i for i in matrix.complete_ids() if i in gold_scores]
    columns = matrix.columns
    design = np.array(
        [[matrix.cells[key][i].score for key in columns] for i in ids], dtype=float
    )
    gold = np.array([gold_scores[i] for i in ids], dtype=float)
    return ids, columns, design, gold


def _check_fit(n_columns: int, gold: np.ndarray) -> None:
    """The preconditions of one weight fit, tested in this order."""
    if n_columns < 2:
        raise ValueError("fusion needs at least 2 columns")
    if len(gold) < 10:
        raise ValueError(f"fusion needs at least 10 complete-case articles, got {len(gold)}")
    if np.all(gold == gold[0]):
        raise ValueError("correlation undefined: gold scores are constant")


def _make_objective(designs, golds):
    """Batch objective of K fits: (K, P, dim) candidate weights -> (K, P) rhos.

    Fit k's candidates are fused as ``designs[k] @ W.T``, the product a lone
    fit computes, into one block padded to the longest design with +inf,
    which ranks after every real value; all K*P fused vectors are then
    mid-ranked by one :func:`midranks_2d` call. Mid-ranks of n values
    average (n + 1) / 2 exactly, so real rows are centered there and padding
    rows are zeroed: every sum of centered ranks is exact, and each rho is
    the one fit k would get alone. Gold ranks never change over a fit, so
    they are centered once. A candidate whose fused vector is constant
    scores -inf.
    """
    sizes = [len(gold) for gold in golds]
    width = max(sizes)
    gold_ranks = np.zeros((len(golds), width, 1))
    gold_norms = np.empty((len(golds), 1))
    for k, gold in enumerate(golds):
        ranks = midranks(gold)
        ranks -= ranks.mean()
        gold_ranks[k, : len(gold), 0] = ranks
        gold_norms[k] = np.sqrt(ranks.dot(ranks))
    centers = np.array([(n + 1) / 2 for n in sizes])[:, None, None]
    real = (np.arange(width) < np.array(sizes)[:, None])[:, None, :]

    def objective(weights: np.ndarray) -> np.ndarray:
        k, p, _ = weights.shape
        fused = np.full((k, p, width), np.inf)
        for f, design in enumerate(designs):
            fused[f, :, : len(design)] = (design @ weights[f].T).T
        ranks = midranks_2d(fused.reshape(k * p, width).T).T.reshape(k, p, width)
        ranks -= centers
        ranks *= real
        norms = np.sqrt((ranks * ranks).sum(axis=2)) * gold_norms
        zero = norms == 0.0
        norms[zero] = 1.0
        rhos = (ranks @ gold_ranks)[..., 0] / norms
        rhos[zero] = -np.inf
        return rhos

    return objective


def _generation_draws(rng, population: int, dim: int, crossover: float):
    """One fit's random draws for one generation, in their fixed layout.

    Returns the three partner picks per candidate, each in [0, population -
    1) and redrawn as a batch until a row's three are distinct, and the
    crossover mask, which takes at least one mutant component per row.
    """
    picks = rng.integers(0, population - 1, size=(population, 3))
    while True:
        bad = (
            (picks[:, 0] == picks[:, 1])
            | (picks[:, 0] == picks[:, 2])
            | (picks[:, 1] == picks[:, 2])
        )
        if not bad.any():
            break
        picks[bad] = rng.integers(0, population - 1, size=(int(bad.sum()), 3))
    cross = rng.random((population, dim)) < crossover
    cross[np.arange(population), rng.integers(0, dim, size=population)] = True
    return picks, cross


def _fit_lockstep(columns, designs, golds, seeds, params: DEParams) -> list[FusionWeights]:
    """Fit one weight vector per (design, gold, seed) by DE/rand/1/bin.

    The fits advance together: one (K, P, dim) population and one
    objective call per generation. Fit k still draws only from substreams
    of ``seeds[k]``, in the layout of a lone fit, and its rhos are exact
    (see :func:`_make_objective`), so each result equals fitting that
    problem on its own. A fit that cannot be made raises before the first
    generation.
    """
    dim = len(columns)
    for gold in golds:
        _check_fit(dim, gold)
    np_ = params.population
    objective = _make_objective(designs, golds)
    population = np.stack([
        substream(seed, "de-init").uniform(WEIGHT_MIN, WEIGHT_MAX, size=(np_, dim))
        for seed in seeds
    ])
    fitness = objective(population)
    if not np.isfinite(fitness).any(axis=1).all():
        raise ValueError("objective undefined for every initial candidate")
    history = np.empty((params.generations, len(designs)))
    fit_of = np.arange(len(designs))[:, None]
    rows = np.arange(np_)[:, None]
    # every (seed, "de", gen) stream, seeded in one batch, generation-major
    streams = substreams((seed, "de", gen) for gen in range(params.generations) for seed in seeds)
    for gen in range(params.generations):
        # trials depend only on the generation-start population and on
        # draws made before any evaluation, so the fits cannot interact
        draws = [
            _generation_draws(rng, np_, dim, params.crossover)
            for rng in islice(streams, len(seeds))
        ]
        picks = np.stack([p for p, _ in draws])
        cross = np.stack([c for _, c in draws])
        # indices cover the other np_-1 slots; shift past the candidate's
        # own row so it never mates with itself
        r1, r2, r3 = np.moveaxis(picks + (picks >= rows), 2, 0)
        mutants = population[fit_of, r1] + params.mutation * (
            population[fit_of, r2] - population[fit_of, r3]
        )
        mutants.clip(WEIGHT_MIN, WEIGHT_MAX, out=mutants)
        trials = np.where(cross, mutants, population)
        trial_fits = objective(trials)
        improved = trial_fits >= fitness
        population[improved] = trials[improved]
        fitness[improved] = trial_fits[improved]
        history[gen] = fitness.max(axis=1)
    best = fitness.argmax(axis=1)
    return [
        FusionWeights(
            columns=tuple(columns),
            weights=tuple(float(w) for w in population[k, best[k]]),
            objective=float(fitness[k, best[k]]),
            history=tuple(float(h) for h in history[:, k]),
        )
        for k in range(len(designs))
    ]


def de_optimize(
    matrix: ScoreMatrix,
    gold_scores: dict[str, float],
    params: DEParams | None = None,
    seed: int = 0,
) -> FusionWeights:
    """Fit non-negative fusion weights by DE/rand/1/bin.

    Maximizes the Spearman correlation of the weighted score sum with gold
    over complete-case articles. Selection is elitist, so the best
    objective is non-decreasing generation over generation; every random
    draw comes from substreams of ``seed``, so the fit is reproducible.

    Weights start uniform on [0, 1], and mutant components outside it are
    clipped onto it.
    """
    _, columns, design, gold = _complete_design(matrix, gold_scores)
    return _fit_lockstep(columns, [design], [gold], [seed], params or DEParams())[0]


def fused_scores(matrix: ScoreMatrix, weights: FusionWeights) -> dict[str, float]:
    """Apply fitted weights to the complete-case articles of ``matrix``."""
    out: dict[str, float] = {}
    w = np.array(weights.weights)
    for art_id in matrix.complete_ids():
        row = np.array([matrix.cells[key][art_id].score for key in weights.columns])
        out[art_id] = float(row @ w)
    return out


def assign_folds(
    article_ids,
    folds: int,
    seed: int,
    uoa_by_article: dict[str, int] | None = None,
) -> dict[str, int]:
    """Deterministic fold assignment, stratified by uoa when one is given.

    Articles are shuffled within each stratum and dealt round-robin with a
    fold counter that runs on across strata, so overall fold sizes differ
    by at most one.
    """
    ids = list(article_ids)
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if folds > len(ids):
        raise ValueError(f"cannot spread {len(ids)} articles over {folds} folds")
    if uoa_by_article is None:
        strata = {0: sorted(ids)}
    else:
        strata = {}
        for art_id in sorted(ids):
            strata.setdefault(uoa_by_article[art_id], []).append(art_id)
    assignment: dict[str, int] = {}
    counter = 0
    for stratum in sorted(strata):
        members = list(strata[stratum])
        rng = substream(seed, "folds", stratum)
        rng.shuffle(members)
        for art_id in members:
            assignment[art_id] = counter % folds
            counter += 1
    return assignment


@dataclass(frozen=True)
class CvResult:
    """Cross-validated fusion: held-out correlations and per-fold fits."""

    mean_rho: float
    fold_rhos: tuple[float, ...]
    fold_weights: tuple[FusionWeights, ...]


def cv_fusion(
    matrix: ScoreMatrix,
    gold_scores: dict[str, float],
    folds: int = 10,
    seed: int = 0,
    params: DEParams | None = None,
    uoa_by_article: dict[str, int] | None = None,
) -> CvResult:
    """K-fold cross-validated DE fusion.

    Weights are fitted on the training folds only and evaluated by Spearman
    correlation on the held-out fold; the headline number is the mean of
    the fold correlations.
    """
    ids, columns, design, gold = _complete_design(matrix, gold_scores)
    if len(ids) < folds * 3:
        raise ValueError(
            f"cross-validation needs at least {folds * 3} complete-case articles, got {len(ids)}"
        )
    assignment = assign_folds(ids, folds, seed, uoa_by_article)
    fold_of = np.array([assignment[i] for i in ids])
    train = [fold_of != fold for fold in range(folds)]
    fits = _fit_lockstep(
        columns,
        [design[rows] for rows in train],
        [gold[rows] for rows in train],
        [seed + fold for fold in range(folds)],
        params or DEParams(),
    )
    fold_rhos: list[float] = []
    for fold, weights in enumerate(fits):
        # a dot per row, as one article is fused: design[test] @ w may differ in the last bit
        w = np.array(weights.weights)
        test = ~train[fold]
        try:
            fold_rhos.append(spearman([row @ w for row in design[test]], gold[test]))
        except ValueError as exc:
            raise ValueError(f"fold {fold} cannot support a correlation: {exc}") from None
    return CvResult(
        mean_rho=float(np.mean(fold_rhos)),
        fold_rhos=tuple(fold_rhos),
        fold_weights=tuple(fits),
    )


@dataclass(frozen=True)
class FusionRow:
    """One row of the fusion comparison table, its fields in FUSION_COLUMNS order."""

    label: str
    mean_rho: float
    median_rho: float
    best_single_rho: float
    rank_average_rho: float
    cv_rho: float


def fusion_row(
    label: str,
    matrix: ScoreMatrix,
    gold_scores: dict[str, float],
    folds: int = 10,
    seed: int = 0,
    params: DEParams | None = None,
    uoa_by_article: dict[str, int] | None = None,
) -> tuple[FusionRow, CvResult]:
    """Evaluate every fusion strategy against one gold standard."""

    def rho_of(fused: dict[str, float]) -> float:
        ids = sorted(set(fused) & set(gold_scores))
        return spearman([fused[i] for i in ids], [gold_scores[i] for i in ids])

    _, best_rho = best_single(matrix, gold_scores)
    cv = cv_fusion(
        matrix, gold_scores, folds=folds, seed=seed, params=params,
        uoa_by_article=uoa_by_article,
    )
    row = FusionRow(
        label=label,
        mean_rho=rho_of(mean_fusion(matrix)),
        median_rho=rho_of(median_fusion(matrix)),
        best_single_rho=best_rho,
        rank_average_rho=rho_of(rank_average_fusion(matrix)),
        cv_rho=cv.mean_rho,
    )
    return row, cv


def _ranks_within_uoa(
    values: dict[str, float], uoa_by_article: dict[str, int]
) -> dict[str, float]:
    """Mid-ranks of ``values`` within each uoa, scaled linearly into [1, 4]."""
    by_uoa: dict[int, list[str]] = {}
    for art_id in values:
        by_uoa.setdefault(uoa_by_article[art_id], []).append(art_id)
    scaled: dict[str, float] = {}
    for uoa, ids in sorted(by_uoa.items()):
        ids = sorted(ids)
        ranks = midranks([values[i] for i in ids])
        spread = (SCORE_MAX - SCORE_MIN) * (ranks - 1.0) / max(len(ids) - 1.0, 1.0)
        for art_id, value in zip(ids, SCORE_MIN + spread):
            scaled[art_id] = float(value)
    return scaled


def rank_normalized_pool(
    matrix: ScoreMatrix,
    gold_scores: dict[str, float],
    uoa_by_article: dict[str, int],
) -> tuple[ScoreMatrix, dict[str, float]]:
    """Pool articles across uoas after within-uoa rank normalization.

    Scores and gold are replaced by mid-ranks scaled into [1, 4] within
    each uoa, so units with different score levels can share one table row
    without one unit dominating. Ranking is monotone within uoa, so
    per-uoa correlations are unchanged.
    """
    pooled = ScoreMatrix()
    for key in matrix.columns:
        column = matrix.cells[key]
        scaled = _ranks_within_uoa(
            {art_id: cell.score for art_id, cell in column.items()}, uoa_by_article
        )
        pooled.cells[key] = {
            art_id: ScoreCell(score=value, effective_k=column[art_id].effective_k)
            for art_id, value in scaled.items()
        }
    known_gold = {i: s for i, s in gold_scores.items() if i in uoa_by_article}
    return pooled, _ranks_within_uoa(known_gold, uoa_by_article)
