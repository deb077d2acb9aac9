"""Experiment orchestration: staged pipeline from articles to tables and plots.

Stages communicate through files in the output directory, so each can be
run on its own against a directory produced by earlier stages. With the
mock backend and a fixed seed, every artifact is byte-identical across
reruns; the manifest therefore carries no wall-clock timestamps and its
config snapshot omits output/cache placement.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .corpus import (
    GOLD_KINDS,
    INDIVIDUAL,
    PROXY,
    ArticleSet,
    FewShotPool,
    GoldStandard,
    filter_eligible,
    load_articles,
    load_fewshot_pool,
    load_gold_csv,
    sample_per_uoa,
)
from .extract import analyze_report
from .fusion import DEParams, fusion_row, rank_normalized_pool
from .gateway import (
    STATUS_OK,
    CompletionTask,
    HttpBackend,
    MockBackend,
    ModelConfig,
    RawRecord,
    ResponseCache,
    require_api_keys,
    run_batch,
)
from .prompts import (
    FEW,
    STRATEGIES,
    ZERO,
    SystemPromptTemplate,
    build_few_shot_user,
    build_zero_shot_user,
    compose_messages,
    select_fewshot,
)
from .stats import ScoreCell, ScoreMatrix, aggregate_across_units, correlate, mean_over_iterations
from .synth import default_system_prompt
from .util import atomic_write_text, safe_name, seed_int
from .violin import emit_violin_svg, violin_summary
from .wata import compare, kwic, tokenize

SCHEMA_VERSION = 1
STAGES = ("ingest", "prompt", "score", "extract", "analyze", "fuse", "wata", "violin")

@dataclass
class ExperimentConfig:
    """Everything a run needs, loadable from JSON with CLI overrides."""

    articles: Path
    out_dir: Path
    golds: list[tuple[str, Path]] = field(default_factory=list)
    fewshot_pool: Path | None = None
    system_prompt: Path | None = None
    models: list[ModelConfig] = field(default_factory=list)
    strategies: tuple[str, ...] = (ZERO, FEW)
    iterations: int = 5
    concurrency: int = 4
    seed: int = 0
    sample_per_uoa: int | None = None
    bootstrap_reps: int = 1000
    alpha: float = 0.05
    cv_folds: int = 10
    de: DEParams = field(default_factory=DEParams)
    mock: bool = False
    mock_noise_sd: float = 0.5
    mock_styles: dict[str, str] = field(default_factory=dict)
    cache_dir: Path | None = None
    wata_q_threshold: float = 0.05
    wata_kwic_terms: int = 5
    wata_kwic_samples: int = 5
    wata_kwic_window: int = 60

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.concurrency < 1:
            raise ValueError("concurrency must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not self.models:
            raise ValueError("at least one model must be configured")
        for strategy in self.strategies:
            if strategy not in STRATEGIES:
                raise ValueError(f"unknown strategy {strategy!r}")
        if FEW in self.strategies and self.fewshot_pool is None:
            raise ValueError("few-shot strategy requires a fewshot_pool path")
        kinds = [kind for kind, _ in self.golds]
        if len(set(kinds)) != len(kinds):
            raise ValueError("duplicate gold kinds configured")
        for kind, _ in self.golds:
            if kind not in GOLD_KINDS:
                raise ValueError(f"unknown gold kind {kind!r}")

    def snapshot(self) -> dict:
        """Config as recorded in the manifest. Output and cache placement are
        runtime concerns, not experiment identity, so they are omitted."""
        return {
            "articles": self.articles.name,
            "golds": [[kind, path.name] for kind, path in self.golds],
            "fewshot_pool": self.fewshot_pool.name if self.fewshot_pool else None,
            "system_prompt": self.system_prompt.name if self.system_prompt else None,
            "models": [
                {
                    "name": m.name,
                    "base_url": m.base_url,
                    "supports_system_role": m.supports_system_role,
                    "temperature": m.temperature,
                    "max_output_tokens": m.max_output_tokens,
                }
                for m in self.models
            ],
            "strategies": list(self.strategies),
            "iterations": self.iterations,
            "seed": self.seed,
            "sample_per_uoa": self.sample_per_uoa,
            "bootstrap_reps": self.bootstrap_reps,
            "alpha": self.alpha,
            "cv_folds": self.cv_folds,
            "de": {
                "population": self.de.population,
                "mutation": self.de.mutation,
                "crossover": self.de.crossover,
                "generations": self.de.generations,
            },
            "mock": self.mock,
            "mock_noise_sd": self.mock_noise_sd,
            "wata_q_threshold": self.wata_q_threshold,
        }


def _field_names(cls, prefix: str = "") -> frozenset[str]:
    """Names of the fields of ``cls`` that start with ``prefix``, prefix dropped."""
    return frozenset(f.name[len(prefix):] for f in fields(cls) if f.name.startswith(prefix))


# the keys a config file may hold at each level; nested "mock" and "wata"
# objects fill the prefixed ExperimentConfig fields
_CONFIG_KEYS = {
    "top-level": frozenset(
        f.name for f in fields(ExperimentConfig) if not f.name.startswith(("mock_", "wata_"))
    ) | {"schema_version", "wata"},
    # the weight bounds stay library-only until the manifest snapshot
    # records them
    "de": _field_names(DEParams) - {"lower", "upper"},
    "mock": _field_names(ExperimentConfig, "mock_") | {"enabled"},
    "wata": _field_names(ExperimentConfig, "wata_"),
    "gold": frozenset({"kind", "path"}),
    "model": _field_names(ModelConfig),
}


def _known(raw, level: str, where: str | None = None) -> dict:
    """``raw`` itself, once it is an object holding only keys ``level``
    allows; a misspelt key would otherwise run with its default."""
    where = where or level
    if not isinstance(raw, dict):
        raise ValueError(f"config {where} must be a JSON object")
    unknown = sorted(set(raw) - _CONFIG_KEYS[level])
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r} in {where}")
    return raw


def _given(raw: dict, prefix: str = "", **casts) -> dict:
    """The keys of ``raw`` named in ``casts``, cast, as keyword arguments
    ``prefix + key``. Absent keys are left out, so the dataclasses declare
    every default."""
    return {prefix + key: cast(raw[key]) for key, cast in casts.items() if key in raw}


def load_config(path: str | Path, overrides: dict | None = None) -> ExperimentConfig:
    """Read a JSON config file; relative paths, including overridden output
    and cache directories, resolve against its directory."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        raw = _known(json.load(fh), "top-level")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"config schema_version must be {SCHEMA_VERSION}, got {raw.get('schema_version')!r}"
        )
    base = path.parent

    def resolve(p) -> Path:
        p = Path(p)
        return p if p.is_absolute() else base / p

    def optional_path(key: str) -> Path | None:
        return resolve(raw[key]) if raw.get(key) else None

    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    for key in ("seed", "iterations", "concurrency", "cache_dir"):
        if key in overrides:
            raw[key] = overrides[key]
    if "out" in overrides:
        raw["out_dir"] = overrides["out"]
    if "strategy" in overrides:
        strategy = overrides["strategy"]
        raw["strategies"] = STRATEGIES if strategy == "both" else (strategy,)
    mock = raw.get("mock", {})
    if isinstance(mock, bool):
        mock = {"enabled": mock}
    mock = _known(mock, "mock")
    golds = [_known(g, "gold", f"golds[{i}]") for i, g in enumerate(raw.get("golds", []))]
    models = [_known(m, "model", f"models[{i}]") for i, m in enumerate(raw.get("models", []))]
    return ExperimentConfig(
        articles=resolve(raw["articles"]),
        out_dir=resolve(raw.get("out_dir", "out")),
        golds=[(g["kind"], resolve(g["path"])) for g in golds],
        fewshot_pool=optional_path("fewshot_pool"),
        system_prompt=optional_path("system_prompt"),
        cache_dir=optional_path("cache_dir"),
        models=[
            ModelConfig(name=m["name"], **{k: v for k, v in m.items() if k != "name"})
            for m in models
        ],
        sample_per_uoa=raw.get("sample_per_uoa"),
        de=DEParams(
            **_given(
                _known(raw.get("de", {}), "de"),
                population=int, mutation=float, crossover=float, generations=int,
            )
        ),
        mock=bool(overrides.get("mock") or mock.get("enabled")),
        **_given(
            raw,
            strategies=tuple, iterations=int, concurrency=int, seed=int,
            bootstrap_reps=int, alpha=float, cv_folds=int,
        ),
        **_given(mock, "mock_", noise_sd=float, styles=dict),
        **_given(
            _known(raw.get("wata", {}), "wata"), "wata_",
            q_threshold=float, kwic_terms=int, kwic_samples=int, kwic_window=int,
        ),
    )


# --- manifest --------------------------------------------------------------


def _manifest_path(cfg: ExperimentConfig) -> Path:
    return cfg.out_dir / "manifest.json"


def _load_manifest(cfg: ExperimentConfig) -> dict:
    try:
        with open(_manifest_path(cfg), encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {
            "schema_version": SCHEMA_VERSION,
            "versions": {
                "refscore": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
            "seed": cfg.seed,
            "config": cfg.snapshot(),
            "stages": [],
            "failure": None,
        }


def _write_manifest(cfg: ExperimentConfig, manifest: dict) -> None:
    atomic_write_text(
        _manifest_path(cfg),
        json.dumps(manifest, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
    )


def _record_stage(manifest: dict, name: str, counts: dict) -> None:
    # pipeline order, not execution history, so reruns leave stable bytes
    entries = {s["name"]: s for s in manifest["stages"]}
    entries[name] = {"name": name, "status": "ok", "counts": counts}
    manifest["stages"] = [entries[s] for s in STAGES if s in entries]


# --- shared artifact IO -----------------------------------------------------


def _eval_articles_path(cfg: ExperimentConfig) -> Path:
    return cfg.out_dir / "articles.jsonl"


def _gold_path(cfg: ExperimentConfig, kind: str) -> Path:
    return cfg.out_dir / f"gold_{kind}.csv"


def _records_path(cfg: ExperimentConfig) -> Path:
    return cfg.out_dir / "records.jsonl"


def _parsed_path(cfg: ExperimentConfig) -> Path:
    return cfg.out_dir / "parsed.jsonl"


def _matrix_path(cfg: ExperimentConfig) -> Path:
    return cfg.out_dir / "matrix.csv"


def _write_jsonl(path: Path, rows) -> None:
    """One dataclass per line, keys sorted: the format of every JSONL artifact."""
    # rows are flat, so vars() equals dataclasses.asdict() without its deep copies
    atomic_write_text(
        path,
        "".join(json.dumps(vars(r), ensure_ascii=False, sort_keys=True) + "\n" for r in rows),
    )


def _read_jsonl(path: Path, cls) -> list:
    with open(path, encoding="utf-8") as fh:
        return [cls(**json.loads(line)) for line in fh if line.strip()]


def _write_csv(path: Path, header, rows) -> None:
    """A header line, then one line per row, each ending in a bare newline:
    the format of every CSV artifact."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def _require(path: Path, producing_stage: str) -> Path:
    if not path.exists():
        raise FileNotFoundError(
            f"{path} is missing; run the {producing_stage!r} stage first"
        )
    return path


def _load_eval_set(cfg: ExperimentConfig) -> ArticleSet:
    return load_articles(_require(_eval_articles_path(cfg), "ingest"))


def _load_golds(cfg: ExperimentConfig) -> dict[str, GoldStandard]:
    golds: dict[str, GoldStandard] = {}
    for kind, _ in cfg.golds:
        path = _require(_gold_path(cfg, kind), "ingest")
        golds[kind] = load_gold_csv(path, kind)
    return golds


def _load_pool(cfg: ExperimentConfig, eval_set: ArticleSet) -> FewShotPool | None:
    if FEW not in cfg.strategies:
        return None
    return load_fewshot_pool(cfg.fewshot_pool, eval_set)


def _system_template(cfg: ExperimentConfig) -> SystemPromptTemplate:
    if cfg.system_prompt is not None:
        return SystemPromptTemplate.from_file(cfg.system_prompt)
    return SystemPromptTemplate(default_system_prompt())


def _call_index(article_id: str, iteration: int) -> int:
    return seed_int("call", article_id, iteration)


def _user_text(cfg, article, strategy, iteration, pool) -> str:
    if strategy == ZERO:
        return build_zero_shot_user(article)
    selection = select_fewshot(article, pool, cfg.seed, _call_index(article.id, iteration))
    return build_few_shot_user(article, selection)


def _uoa_map(eval_set: ArticleSet) -> dict[str, int]:
    return {a.id: a.uoa for a in eval_set}


# --- stages -----------------------------------------------------------------


def stage_ingest(cfg: ExperimentConfig) -> dict:
    loaded = load_articles(cfg.articles)
    eligible = filter_eligible(loaded)
    eval_set = eligible
    if cfg.sample_per_uoa is not None:
        eval_set = sample_per_uoa(eligible, cfg.sample_per_uoa, cfg.seed)
    if len(eval_set) == 0:
        raise ValueError(f"no eligible articles in {cfg.articles}")
    _write_jsonl(_eval_articles_path(cfg), eval_set)
    counts = {
        "articles_loaded": len(loaded),
        "articles_eligible": len(eligible),
        "articles_selected": len(eval_set),
    }
    for kind, path in cfg.golds:
        gold = load_gold_csv(path, kind)
        known = [(i, repr(s)) for i, s in sorted(gold.scores.items()) if i in eval_set]
        _write_csv(_gold_path(cfg, kind), ["article_id", "score"], known)
        counts[f"gold_{kind}"] = len(known)
    pool = _load_pool(cfg, eval_set)
    if pool is not None:
        counts["fewshot_exemplars"] = len(pool)
    return counts


def stage_prompt(cfg: ExperimentConfig) -> dict:
    eval_set = _load_eval_set(cfg)
    pool = _load_pool(cfg, eval_set)
    written = 0
    for article in eval_set:
        art_dir = cfg.out_dir / "prompts" / safe_name(article.id)
        for strategy in cfg.strategies:
            for iteration in range(1, cfg.iterations + 1):
                text = _user_text(cfg, article, strategy, iteration, pool)
                atomic_write_text(art_dir / f"{strategy}-i{iteration}.txt", text)
                written += 1
    return {"prompts_written": written}


def _build_tasks(cfg: ExperimentConfig, eval_set: ArticleSet, pool) -> list[CompletionTask]:
    system = _system_template(cfg)
    by_model = {m.name: m for m in cfg.models}
    tasks: list[CompletionTask] = []
    for article in eval_set:
        for model in sorted(by_model):
            for strategy in cfg.strategies:
                for iteration in range(1, cfg.iterations + 1):
                    user = _user_text(cfg, article, strategy, iteration, pool)
                    messages = compose_messages(
                        system, user, by_model[model].supports_system_role
                    )
                    tasks.append(
                        CompletionTask(
                            article_id=article.id,
                            model=model,
                            strategy=strategy,
                            iteration=iteration,
                            messages=messages,
                        )
                    )
    return tasks


def _mock_latent(cfg: ExperimentConfig) -> dict[str, float]:
    golds = _load_golds(cfg)
    for kind in (INDIVIDUAL, PROXY):
        if kind in golds:
            return dict(golds[kind].scores)
    return {}


def stage_score(cfg: ExperimentConfig) -> dict:
    if not cfg.mock:
        require_api_keys(cfg.models)
    eval_set = _load_eval_set(cfg)
    pool = _load_pool(cfg, eval_set)
    tasks = _build_tasks(cfg, eval_set, pool)
    cache = ResponseCache(cfg.cache_dir) if cfg.cache_dir else None
    if cfg.mock:
        backend = MockBackend(
            latent_by_article=_mock_latent(cfg),
            noise_sd=cfg.mock_noise_sd,
            seed=cfg.seed,
            style_by_model=cfg.mock_styles,
        )
    else:
        backend = HttpBackend()
    configs = {m.name: m for m in cfg.models}
    records = run_batch(
        tasks, configs, concurrency_limit=cfg.concurrency, cache=cache, backend=backend
    )
    records = sorted(records, key=lambda r: r.key)
    _write_jsonl(_records_path(cfg), records)
    ok = sum(1 for r in records if r.status == STATUS_OK)
    return {"tasks": len(tasks), "ok": ok, "failed": len(records) - ok}


@dataclass(frozen=True)
class ParsedRow:
    """One record's extraction result, as stored in parsed.jsonl. Failed
    records keep only their key and status."""

    article_id: str
    model: str
    strategy: str
    iteration: int
    status: str
    effective: float | None = None
    overall: float | None = None
    originality: float | None = None
    significance: float | None = None
    rigour: float | None = None
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        # JSON hands the flags back as a list
        object.__setattr__(self, "flags", tuple(self.flags))


def _read_records(cfg: ExperimentConfig) -> list[RawRecord]:
    return _read_jsonl(_require(_records_path(cfg), "score"), RawRecord)


def stage_extract(cfg: ExperimentConfig) -> dict:
    records = _read_records(cfg)
    rows = []
    n_with_score = n_multi = n_no_score = 0
    for rec in records:
        common = (rec.article_id, rec.model, rec.strategy, rec.iteration, rec.status)
        if rec.status != STATUS_OK:
            rows.append(ParsedRow(*common))
            continue
        analysis = analyze_report(rec.text)
        parsed = analysis.parsed
        rows.append(
            ParsedRow(
                *common,
                effective=analysis.effective,
                overall=parsed.overall,
                originality=parsed.originality,
                significance=parsed.significance,
                rigour=parsed.rigour,
                flags=tuple(sorted(parsed.flags)),
            )
        )
        if analysis.effective is not None:
            n_with_score += 1
        if analysis.multi_article:
            n_multi += 1
        if "no_score_found" in parsed.flags:
            n_no_score += 1
    _write_jsonl(_parsed_path(cfg), rows)
    return {
        "records": len(records),
        "parsed_ok": sum(1 for r in records if r.status == STATUS_OK),
        "with_score": n_with_score,
        "multi_article": n_multi,
        "no_score": n_no_score,
    }


def _read_parsed(cfg: ExperimentConfig) -> list[ParsedRow]:
    return _read_jsonl(_require(_parsed_path(cfg), "extract"), ParsedRow)


def build_matrix(cfg: ExperimentConfig, parsed: list[ParsedRow]) -> ScoreMatrix:
    matrix = ScoreMatrix(configured_k=cfg.iterations)
    by_column: dict[tuple[str, str], list[ParsedRow]] = {}
    for row in parsed:
        by_column.setdefault((row.model, row.strategy), []).append(row)
    for key in sorted(by_column):
        matrix.add_column(key, mean_over_iterations(by_column[key]))
    return matrix


def _write_matrix(cfg: ExperimentConfig, matrix: ScoreMatrix) -> None:
    _write_csv(
        _matrix_path(cfg),
        ["article_id", "model", "strategy", "score", "effective_k"],
        (
            [art_id, model, strategy, repr(cell.score), cell.effective_k]
            for model, strategy in matrix.columns
            for art_id, cell in sorted(matrix.cells[(model, strategy)].items())
        ),
    )


def read_matrix(cfg: ExperimentConfig) -> ScoreMatrix:
    matrix = ScoreMatrix(configured_k=cfg.iterations)
    columns: dict[tuple[str, str], dict[str, ScoreCell]] = {}
    with open(_require(_matrix_path(cfg), "analyze"), newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            key = (row["model"], row["strategy"])
            columns.setdefault(key, {})[row["article_id"]] = ScoreCell(
                score=float(row["score"]), effective_k=int(row["effective_k"])
            )
    for key in sorted(columns):
        matrix.add_column(key, columns[key])
    return matrix


def stage_analyze(cfg: ExperimentConfig) -> dict:
    eval_set = _load_eval_set(cfg)
    golds = _load_golds(cfg)
    parsed = _read_parsed(cfg)
    matrix = build_matrix(cfg, parsed)
    _write_matrix(cfg, matrix)
    uoa_of = _uoa_map(eval_set)
    corr_rows = []
    skipped = 0
    per_unit: dict[tuple[str, str, str], list[float]] = {}
    for kind in sorted(golds):
        gold = golds[kind]
        for model, strategy in matrix.columns:
            column = matrix.cells[(model, strategy)]
            by_uoa: dict[int, list[str]] = {}
            for art_id in column:
                if art_id in gold.scores and art_id in uoa_of:
                    by_uoa.setdefault(uoa_of[art_id], []).append(art_id)
            for uoa in sorted(by_uoa):
                ids = sorted(by_uoa[uoa])
                x = [column[i].score for i in ids]
                y = [gold.scores[i] for i in ids]
                try:
                    result = correlate(
                        x, y,
                        b_reps=cfg.bootstrap_reps,
                        alpha=cfg.alpha,
                        seed=seed_int(cfg.seed, "bootstrap", kind, uoa, model, strategy),
                    )
                except ValueError:
                    skipped += 1
                    continue
                corr_rows.append(
                    [
                        uoa, model, strategy, kind, result.n,
                        f"{result.rho:.6f}", f"{result.ci_low:.6f}", f"{result.ci_high:.6f}",
                    ]
                )
                per_unit.setdefault((model, strategy, kind), []).append(result.rho)
    _write_csv(
        cfg.out_dir / "correlations.csv",
        ["uoa", "model", "strategy", "gold_kind", "n", "rho", "ci_low", "ci_high"],
        corr_rows,
    )
    agg_rows = []
    for (model, strategy, kind), rhos in sorted(per_unit.items()):
        if len(rhos) < 2:
            continue
        mean, lo, hi = aggregate_across_units(rhos)
        agg_rows.append(
            [model, strategy, kind, len(rhos), f"{mean:.6f}", f"{lo:.6f}", f"{hi:.6f}"]
        )
    _write_csv(
        cfg.out_dir / "aggregates.csv",
        ["model", "strategy", "gold_kind", "units", "mean_rho", "ci_low", "ci_high"],
        agg_rows,
    )
    return {
        "matrix_cells": matrix.cell_count(),
        "correlation_rows": len(corr_rows),
        "correlation_skipped": skipped,
    }


_FUSION_COLUMNS = ("uoa", "mean", "median", "best-single", "rank-average", "cv-mean")


def stage_fuse(cfg: ExperimentConfig) -> dict:
    eval_set = _load_eval_set(cfg)
    golds = _load_golds(cfg)
    matrix = read_matrix(cfg)
    uoa_of = _uoa_map(eval_set)
    counts: dict[str, int] = {}
    skipped = 0
    for kind in sorted(golds):
        gold = golds[kind]
        rows = []
        weights_dump: dict[str, list[dict]] = {}
        for uoa in sorted({a.uoa for a in eval_set}):
            ids = {i for i in matrix.article_ids() if uoa_of.get(i) == uoa}
            sub = matrix.subset(ids)
            gold_scores = {i: s for i, s in gold.scores.items() if i in ids}
            try:
                row, cv = fusion_row(
                    label=str(uoa),
                    matrix=sub,
                    gold_scores=gold_scores,
                    folds=cfg.cv_folds,
                    seed=seed_int(cfg.seed, "fusion", kind, uoa),
                    params=cfg.de,
                )
            except ValueError:
                # unit too small (or too degenerate) to cross-validate;
                # the pooled All row can still cover its articles
                skipped += 1
                continue
            rows.append(row)
            weights_dump[str(uoa)] = _weights_json(cv)
        pooled, pooled_gold = rank_normalized_pool(matrix, gold.scores, uoa_of)
        all_row, all_cv = fusion_row(
            label="All",
            matrix=pooled,
            gold_scores=pooled_gold,
            folds=cfg.cv_folds,
            seed=seed_int(cfg.seed, "fusion", kind, "all"),
            params=cfg.de,
            uoa_by_article=uoa_of,
        )
        rows.append(all_row)
        weights_dump["All"] = _weights_json(all_cv)
        _write_fusion_outputs(cfg, kind, rows, weights_dump)
        counts[f"rows_{kind}"] = len(rows)
    counts["units_skipped"] = skipped
    return counts


def _weights_json(cv) -> list[dict]:
    return [
        {
            "fold": i,
            "columns": ["/".join(key) for key in w.columns],
            "weights": list(w.weights),
            "objective": w.objective,
        }
        for i, w in enumerate(cv.fold_weights)
    ]


def _write_fusion_outputs(cfg, kind, rows, weights_dump) -> None:
    mappings = [row.as_mapping() for row in rows]
    _write_csv(
        cfg.out_dir / f"fusion_{kind}.csv",
        _FUSION_COLUMNS,
        ([m["uoa"]] + [f"{m[c]:.6f}" for c in _FUSION_COLUMNS[1:]] for m in mappings),
    )
    atomic_write_text(
        cfg.out_dir / f"fusion_{kind}_weights.json",
        json.dumps(weights_dump, indent=1, sort_keys=True) + "\n",
    )
    lines = [
        f"Fusion of model/strategy columns against {kind} gold "
        f"(Spearman rank correlation).",
        "The All row pools articles across units after within-unit rank "
        "normalization.",
        "The best value in each row is marked **like this**.",
        "",
    ]
    header = f"{'uoa':>4}  " + "  ".join(f"{c:>14}" for c in _FUSION_COLUMNS[1:])
    lines.append(header)
    for mapping in mappings:
        values = {c: mapping[c] for c in _FUSION_COLUMNS[1:]}
        best = max(values.values())
        cells = []
        for c in _FUSION_COLUMNS[1:]:
            text = f"{values[c]:.3f}"
            if values[c] == best:
                text = f"**{text}**"
            cells.append(f"{text:>14}")
        lines.append(f"{mapping['uoa']:>4}  " + "  ".join(cells))
    atomic_write_text(
        cfg.out_dir / f"fusion_{kind}_summary.txt", "\n".join(lines) + "\n"
    )


def stage_wata(cfg: ExperimentConfig) -> dict:
    records = [r for r in _read_records(cfg) if r.status == STATUS_OK]
    grouped: dict[tuple[str, str], list[RawRecord]] = {}
    for rec in records:
        grouped.setdefault((rec.model, rec.strategy), []).append(rec)

    def doc_id(rec: RawRecord) -> str:
        return f"{rec.article_id}/{rec.model}/{rec.strategy}/i{rec.iteration}"

    comparisons: list[tuple[str, tuple[str, str], tuple[str, str]]] = []
    models = sorted({m for m, _ in grouped})
    for model in models:
        if (model, ZERO) in grouped and (model, FEW) in grouped:
            comparisons.append((f"{safe_name(model)}__zero_vs_few", (model, ZERO), (model, FEW)))
    for strategy in cfg.strategies:
        present = [m for m in models if (m, strategy) in grouped]
        for i, model_a in enumerate(present):
            for model_b in present[i + 1:]:
                comparisons.append(
                    (
                        f"{safe_name(model_a)}_vs_{safe_name(model_b)}__{strategy}",
                        (model_a, strategy),
                        (model_b, strategy),
                    )
                )
    # each record is tokenized once, however many comparisons it joins
    compared = sorted({group for _, a, b in comparisons for group in (a, b)})
    tokenized = {
        group: [tokenize(doc_id(r), r.text) for r in grouped[group]] for group in compared
    }
    wata_dir = cfg.out_dir / "wata"
    n_significant = 0
    for name, group_a, group_b in comparisons:
        stats = compare(tokenized[group_a], tokenized[group_b], q_threshold=cfg.wata_q_threshold)
        n_significant += len(stats)
        _write_csv(
            wata_dir / f"{name}.csv",
            ["term", "direction", "df_a", "df_b", "n_a", "n_b", "pct_a", "pct_b", "chi2", "p", "q"],
            (
                [
                    s.term, s.direction, s.df_a, s.df_b, s.n_a, s.n_b,
                    f"{100 * s.rate_a:.1f}", f"{100 * s.rate_b:.1f}",
                    f"{s.chi2:.4f}", f"{s.p:.6g}", f"{s.q:.6g}",
                ]
                for s in stats
            ),
        )
        documents = [
            (doc, rec.text)
            for group in (group_a, group_b)
            for doc, rec in zip(tokenized[group], grouped[group])
        ]
        kwic_lines = [f"Keyword in context for comparison {name}", ""]
        for s in stats[: cfg.wata_kwic_terms]:
            kwic_lines.append(
                f"== {s.term} (toward {s.direction}: {100 * s.rate_a:.1f}% vs "
                f"{100 * s.rate_b:.1f}%) =="
            )
            # kwic matches a term exactly where the tokenizer would find
            # it, so documents without it among their terms cannot match
            samples = kwic(
                s.term,
                [(doc.doc_id, text) for doc, text in documents if s.term in doc.terms],
                k=cfg.wata_kwic_samples,
                window=cfg.wata_kwic_window,
                seed=seed_int(cfg.seed, "kwic", name),
            )
            for line in samples:
                kwic_lines.append(f"[{line.doc_id}] ...{line.left}[{line.term}]{line.right}...")
            kwic_lines.append("")
        atomic_write_text(wata_dir / f"kwic_{name}.txt", "\n".join(kwic_lines) + "\n")
    return {"comparisons": len(comparisons), "significant_terms": n_significant}


def stage_violin(cfg: ExperimentConfig) -> dict:
    golds = _load_golds(cfg)
    matrix = read_matrix(cfg)
    violin_dir = cfg.out_dir / "violins"
    written = skipped = 0
    for kind in sorted(golds):
        gold = golds[kind]
        for model, strategy in matrix.columns:
            scores = matrix.column_scores((model, strategy))
            try:
                summary = violin_summary(scores, gold.scores)
            except ValueError:
                skipped += 1
                continue
            svg = emit_violin_svg(
                summary,
                title=f"{model} / {strategy} vs {kind} gold",
            )
            atomic_write_text(
                violin_dir / f"{kind}__{safe_name(model)}__{strategy}.svg", svg
            )
            written += 1
    return {"violins_written": written, "violins_skipped": skipped}


_STAGE_FUNCTIONS = {
    "ingest": stage_ingest,
    "prompt": stage_prompt,
    "score": stage_score,
    "extract": stage_extract,
    "analyze": stage_analyze,
    "fuse": stage_fuse,
    "wata": stage_wata,
    "violin": stage_violin,
}


def run_stages(cfg: ExperimentConfig, stages) -> dict:
    """Run the named stages in pipeline order, updating the manifest.

    On failure the manifest records the failing stage and the error, the
    partial outputs stay on disk, and the exception propagates.
    """
    order = [s for s in STAGES if s in set(stages)]
    unknown = set(stages) - set(STAGES)
    if unknown:
        raise ValueError(f"unknown stages: {sorted(unknown)}")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    manifest = _load_manifest(cfg)
    for name in order:
        try:
            counts = _STAGE_FUNCTIONS[name](cfg)
        except Exception as exc:
            manifest["failure"] = {"stage": name, "error": str(exc)}
            _write_manifest(cfg, manifest)
            raise
        _record_stage(manifest, name, counts)
        manifest["failure"] = None
        _write_manifest(cfg, manifest)
    return manifest


def run(cfg: ExperimentConfig) -> dict:
    """Run the full pipeline. Returns the final manifest."""
    return run_stages(cfg, STAGES)
