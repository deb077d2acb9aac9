"""Experiment orchestration: staged pipeline from articles to tables and plots.

Stages communicate through files in the output directory, so each can be
run on its own against a directory produced by earlier stages. With the
mock backend and a fixed seed, every artifact is byte-identical across
reruns; the manifest therefore carries no wall-clock timestamps and its
config snapshot omits runtime settings such as output and cache placement.
"""
from __future__ import annotations

import csv
import inspect
import json
import logging
import shutil
import sys
from collections import Counter
from collections.abc import Callable
from dataclasses import astuple, dataclass, field, fields, is_dataclass
from itertools import combinations
from pathlib import Path
from types import NoneType, UnionType
from typing import NamedTuple, Union, get_args, get_origin, get_type_hints

import numpy as np
import scipy

from . import __version__
from .corpus import (
    GOLD_HEADER,
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
from .extract import FLAG_MULTI, FLAG_NO_SCORE, analyze_report
from .fusion import FUSION_COLUMNS, DEParams, fusion_row, rank_normalized_pool
from .gateway import (
    MOCK_STYLES,
    STATUS_OK,
    CompletionTask,
    HttpBackend,
    MockBackend,
    ModelConfig,
    RawRecord,
    ResponseCache,
    preflight,
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
    default_system_prompt,
    select_fewshot,
)
from .stats import ScoreCell, ScoreMatrix, aggregate_across_units, correlate
from .util import atomic_write_text, check_safe_names, json_objects, safe_name, seed_int, write_csv
from .violin import emit_violin_svg, violin_summary
from .wata import KWIC_SAMPLES, KWIC_TERMS, TokenizedDoc, compare, kwic, tokenize

SCHEMA_VERSION = 1

logger = logging.getLogger(__name__)


class Gold(NamedTuple):
    """One configured gold standard: its kind and its CSV file."""

    kind: str
    path: Path


@dataclass
class ExperimentConfig:
    """Everything a run needs, loadable from JSON with CLI overrides."""

    articles: Path
    out_dir: Path
    golds: list[Gold] = field(default_factory=list)
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

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.concurrency < 1:
            raise ValueError("concurrency must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.seed >= 2**64:
            # seed streams take 64 bits, so a larger seed would alias seed mod 2**64
            raise ValueError("seed must be below 2**64")
        if self.bootstrap_reps < 1:
            raise ValueError("bootstrap_reps must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be at least 2")
        if self.sample_per_uoa is not None and self.sample_per_uoa < 1:
            raise ValueError("sample_per_uoa must be at least 1")
        if not 0.0 < self.wata_q_threshold <= 1.0:
            raise ValueError("wata.q_threshold must lie in (0, 1]")
        if self.mock_noise_sd < 0:
            raise ValueError("mock.noise_sd must be non-negative")
        for model, style in self.mock_styles.items():
            if style not in MOCK_STYLES:
                raise ValueError(f"mock.styles.{model}: unknown mock style {style!r}")
        if not self.models:
            raise ValueError("at least one model must be configured")
        names = [model.name for model in self.models]
        if len(set(names)) != len(names):
            raise ValueError("duplicate model names configured")
        check_safe_names(names, "model")
        # stage_wata names each comparison of two models by _pair_name
        pairs: dict[str, tuple[str, str]] = {}
        for pair in combinations(sorted(names), 2):
            name = _pair_name(*pair)
            if name in pairs:
                raise ValueError(
                    f"model pairs {pairs[name]} and {pair} share the WATA comparison name {name!r}"
                )
            pairs[name] = pair
        for model in self.mock_styles:
            if model not in names:
                raise ValueError(f"mock.styles.{model}: no model of that name is configured")
        if not self.strategies:
            raise ValueError("at least one strategy must be configured")
        if len(set(self.strategies)) != len(self.strategies):
            raise ValueError("duplicate strategies configured")
        for strategy in self.strategies:
            if strategy not in STRATEGIES:
                raise ValueError(f"unknown strategy {strategy!r}")
        if FEW in self.strategies and self.fewshot_pool is None:
            raise ValueError("few-shot strategy requires a fewshot_pool path")
        kinds = [gold.kind for gold in self.golds]
        if len(set(kinds)) != len(kinds):
            raise ValueError("duplicate gold kinds configured")
        for kind in kinds:
            if kind not in GOLD_KINDS:
                raise ValueError(f"unknown gold kind {kind!r}")

    def snapshot(self) -> dict:
        """Config as recorded in the manifest: every field but ``_RUNTIME``."""
        return _dump(self)


# placement, transport and concurrency settings, which are not experiment
# identity, so the manifest leaves them out. mock_styles does change the
# artifacts; it moves into the snapshot with the next re-pin of the golden
# digests (ROADMAP item 5).
_RUNTIME = {"out_dir", "cache_dir", "concurrency", "mock_styles", "api_key_env", "request_timeout"}


def _dump(value):
    """``value`` as JSON data: dataclasses as objects without the runtime
    set, tuples (a NamedTuple too) and lists as arrays, paths as file names."""
    if is_dataclass(value):
        return {k: _dump(v) for k, v in vars(value).items() if k not in _RUNTIME}
    if isinstance(value, (list, tuple)):
        return [_dump(v) for v in value]
    if isinstance(value, Path):
        return value.name
    return value


# what a value must be, by the type its field declares
_EXPECTED = {
    bool: "true or false", int: "an integer", float: "a number", str: "a string",
    Path: "a non-empty path", list: "a list", tuple: "a list", dict: "an object",
}


def _checked(tp, value, key: str, base: Path):
    """``value`` as the annotation ``tp`` declares it, or a ValueError naming
    ``key``. An int field takes no bool or fraction, a float field takes a
    finite number, an int as a float, and a relative path resolves against
    ``base``."""
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):  # X | None
        (tp,) = (a for a in args if a is not NoneType)
        return None if value is None else _checked(tp, value, key, base)
    if origin in (list, tuple) and isinstance(value, (list, tuple)):
        return origin(_checked(args[0], v, f"{key}[{i}]", base) for i, v in enumerate(value))
    if origin is dict and isinstance(value, dict):
        return {k: _checked(args[1], v, f"{key}.{k}", base) for k, v in value.items()}
    if tp is Path and isinstance(value, (str, Path)) and str(value):
        return base / value
    if tp is float and type(value) in (int, float):
        # false for NaN, an infinity and an int past the float range
        if abs(value) <= sys.float_info.max:
            return float(value)
    elif type(value) is tp:
        return value
    elif origin is None and tp not in _EXPECTED:
        return _make(tp, _values(tp, value, key, base), key)
    got = json.dumps(value, default=str)
    raise ValueError(f"config key {key!r} must be {_EXPECTED[origin or tp]}, got {got}")


def _values(cls, raw, where: str, base: Path, keys: dict[str, str] | None = None) -> dict:
    """The fields of ``cls`` that the JSON object ``raw`` sets, each checked
    against its annotation. ``keys`` maps each key ``raw`` may hold to the
    field it sets; by default each field is a key of its own name."""
    if not isinstance(raw, dict):
        raise ValueError(f"config key {where!r} must be an object, got {json.dumps(raw)}")
    hints = get_type_hints(cls)
    keys = keys or {name: name for name in hints}
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r} in {where or 'top level'}")
    return {
        keys[key]: _checked(hints[keys[key]], value, f"{where}.{key}".lstrip("."), base)
        for key, value in raw.items()
    }


def _make(cls, values: dict, where: str):
    """``cls(**values)``, once ``values`` sets every field without a default."""
    for name, param in inspect.signature(cls).parameters.items():
        if param.default is param.empty and name not in values:
            raise ValueError(f"missing config key {name!r} in {where or 'top level'}")
    return cls(**values)


def _prefixed(prefix: str) -> dict[str, str]:
    return {
        f.name.removeprefix(prefix): f.name
        for f in fields(ExperimentConfig) if f.name.startswith(prefix)
    }


# the nested "mock" and "wata" objects fill the prefixed fields, and
# "mock": {"enabled": ...} (or just "mock": true) the field "mock" itself;
# every other field is a top-level key of its own name
_NESTED = {"mock": {"enabled": "mock", **_prefixed("mock_")}, "wata": _prefixed("wata_")}
_TOP_LEVEL = {
    f.name: f.name for f in fields(ExperimentConfig)
    if all(f.name not in keys.values() for keys in _NESTED.values())
}


def load_config(path: str | Path, overrides: dict | None = None) -> ExperimentConfig:
    """Read a JSON config file; relative paths, including overridden output
    and cache directories, resolve against its directory. ``overrides`` holds
    the CLI options by their argparse names; None and other names are ignored.
    A key that is unknown, missing or of the wrong type raises a ValueError
    naming it."""
    path = Path(path)
    with open(path, encoding="utf-8-sig") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config file must be a JSON object")
    if (version := raw.pop("schema_version", None)) != SCHEMA_VERSION:
        raise ValueError(f"config schema_version must be {SCHEMA_VERSION}, got {version!r}")
    given = {k: v for k, v in (overrides or {}).items() if v is not None}
    for key in ("seed", "iterations", "concurrency", "cache_dir"):
        if key in given:
            raw[key] = given[key]
    raw["out_dir"] = given.get("out", raw.get("out_dir", "out"))
    if "strategy" in given:
        raw["strategies"] = STRATEGIES if given["strategy"] == "both" else (given["strategy"],)
    nested = {group: raw.pop(group, {}) for group in _NESTED}
    if isinstance(nested["mock"], bool):
        nested["mock"] = {"enabled": nested["mock"]}
    values = _values(ExperimentConfig, raw, "", path.parent, _TOP_LEVEL)
    for group, keys in _NESTED.items():
        values.update(_values(ExperimentConfig, nested[group], group, path.parent, keys))
    if given.get("mock"):
        values["mock"] = True
    return _make(ExperimentConfig, values, "")


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


ARTICLES = "articles.jsonl"
GOLDS = "gold_{kind}.csv"
RECORDS = "records.jsonl"
PARSED = "parsed.jsonl"
MATRIX = "matrix.csv"
MATRIX_HEADER = ("article_id", "model", "strategy", "score", "effective_k")


def _write_jsonl(path: Path, rows) -> None:
    """One dataclass per line, keys sorted: the format of every JSONL artifact."""
    # rows are flat, so vars() equals dataclasses.asdict() without its deep copies
    atomic_write_text(
        path,
        "".join(json.dumps(vars(r), ensure_ascii=False, sort_keys=True) + "\n" for r in rows),
    )


def _read_jsonl(path: Path, cls) -> list:
    """One ``cls`` per line; a line that is not a valid ``cls`` fails naming
    the file and the line."""
    rows = []
    for line_no, obj in json_objects(path):
        try:
            rows.append(cls(**obj))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: line {line_no}: {exc}") from None
    return rows


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


def _user_prompts(cfg: ExperimentConfig, eval_set: ArticleSet, pool):
    """Yield (article, strategy, iteration, user text) for every prompt of
    the run, articles outermost, building each user text once."""
    for article in eval_set:
        for strategy in cfg.strategies:
            for iteration in range(1, cfg.iterations + 1):
                if strategy == ZERO:
                    text = build_zero_shot_user(article)
                else:
                    selection = select_fewshot(
                        article, pool, cfg.seed, _call_index(article.id, iteration)
                    )
                    text = build_few_shot_user(article, selection)
                yield article, strategy, iteration, text


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
    # each article's prompts go to a directory named after its id
    check_safe_names((article.id for article in eval_set), "article id")
    _write_jsonl(cfg.out_dir / ARTICLES, eval_set)
    counts = {
        "articles_loaded": len(loaded),
        "articles_eligible": len(eligible),
        "articles_selected": len(eval_set),
    }
    for kind, path in cfg.golds:
        gold = load_gold_csv(path, kind)
        known = [(i, repr(s)) for i, s in sorted(gold.scores.items()) if i in eval_set]
        write_csv(cfg.out_dir / GOLDS.format(kind=kind), GOLD_HEADER, known)
        counts[f"gold_{kind}"] = len(known)
    pool = _load_pool(cfg, eval_set)
    if pool is not None:
        counts["fewshot_exemplars"] = len(pool)
    return counts


def stage_prompt(cfg: ExperimentConfig, eval_set: ArticleSet) -> dict:
    pool = _load_pool(cfg, eval_set)
    written = 0
    for article, strategy, iteration, text in _user_prompts(cfg, eval_set, pool):
        art_dir = cfg.out_dir / "prompts" / safe_name(article.id)
        atomic_write_text(art_dir / f"{strategy}-i{iteration}.txt", text)
        written += 1
    return {"prompts_written": written}


def _build_tasks(cfg: ExperimentConfig, eval_set: ArticleSet, pool) -> list[CompletionTask]:
    system = _system_template(cfg)
    models = sorted(cfg.models, key=lambda model: model.name)
    return [
        CompletionTask(
            article_id=article.id,
            model=model.name,
            strategy=strategy,
            iteration=iteration,
            messages=compose_messages(system, user, model.supports_system_role),
        )
        for article, strategy, iteration, user in _user_prompts(cfg, eval_set, pool)
        for model in models
    ]


def _mock_latent(golds: dict[str, GoldStandard]) -> dict[str, float]:
    for kind in (INDIVIDUAL, PROXY):
        if kind in golds:
            return dict(golds[kind].scores)
    return {}


def stage_score(
    cfg: ExperimentConfig, eval_set: ArticleSet, golds: dict[str, GoldStandard]
) -> dict:
    if not cfg.mock:
        preflight(cfg.models)
    pool = _load_pool(cfg, eval_set)
    tasks = _build_tasks(cfg, eval_set, pool)
    cache = ResponseCache(cfg.cache_dir) if cfg.cache_dir else None
    if cfg.mock:
        backend = MockBackend(
            latent_by_article=_mock_latent(golds),
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
    _write_jsonl(cfg.out_dir / RECORDS, records)
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


def stage_extract(cfg: ExperimentConfig, records: list[RawRecord]) -> dict:
    rows = []
    for rec in records:
        if rec.status != STATUS_OK:
            rows.append(ParsedRow(*rec.key, rec.status))
            continue
        analysis = analyze_report(rec.text)
        parsed = analysis.parsed
        rows.append(
            ParsedRow(
                *rec.key,
                rec.status,
                effective=analysis.effective,
                overall=parsed.overall,
                originality=parsed.originality,
                significance=parsed.significance,
                rigour=parsed.rigour,
                flags=tuple(sorted(parsed.flags)),
            )
        )
    _write_jsonl(cfg.out_dir / PARSED, rows)
    flagged = Counter(flag for row in rows for flag in row.flags)
    return {
        "records": len(rows),
        "parsed_ok": sum(row.status == STATUS_OK for row in rows),
        "with_score": sum(row.effective is not None for row in rows),
        "multi_article": flagged[FLAG_MULTI],
        "no_score": flagged[FLAG_NO_SCORE],
    }


def build_matrix(cfg: ExperimentConfig, parsed: list[ParsedRow]) -> ScoreMatrix:
    """The matrix of ``parsed``, in one pass: a cell is the mean of an
    article's usable iterations, those with status ok and an effective
    score. A (model, strategy) whose rows all failed keeps an empty column."""
    sums: dict[tuple[str, str], dict[str, tuple[float, int]]] = {}
    for row in parsed:
        column = sums.setdefault((row.model, row.strategy), {})
        if row.status == STATUS_OK and row.effective is not None:
            total, k = column.get(row.article_id, (0.0, 0))
            column[row.article_id] = (total + row.effective, k + 1)
    return _checked_matrix(cfg, {
        key: {art_id: ScoreCell(total / k, k) for art_id, (total, k) in column.items()}
        for key, column in sums.items()
    })


def _checked_matrix(cfg: ExperimentConfig, columns) -> ScoreMatrix:
    """``columns`` as a ScoreMatrix, in column order; a cell that claims more
    iterations than ``cfg.iterations`` fails."""
    matrix = ScoreMatrix()
    for key in sorted(columns):
        for art_id, cell in columns[key].items():
            if cell.effective_k > cfg.iterations:
                raise ValueError(
                    f"cell ({key}, {art_id!r}) claims {cell.effective_k} iterations, "
                    f"only {cfg.iterations} configured"
                )
        matrix.add_column(key, columns[key])
    return matrix


def _write_matrix(cfg: ExperimentConfig, matrix: ScoreMatrix) -> None:
    write_csv(
        cfg.out_dir / MATRIX,
        MATRIX_HEADER,
        (
            [art_id, model, strategy, repr(cell.score), cell.effective_k]
            for model, strategy in matrix.columns
            for art_id, cell in sorted(matrix.cells[(model, strategy)].items())
        ),
    )


def read_matrix(cfg: ExperimentConfig) -> ScoreMatrix:
    """Read ``matrix.csv`` back. A missing column fails naming the file, a
    short, malformed or out-of-range row naming the file and the row."""
    path = cfg.out_dir / MATRIX
    columns: dict[tuple[str, str], dict[str, ScoreCell]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(MATRIX_HEADER) <= set(reader.fieldnames):
            raise ValueError(f"{path}: expected header {','.join(MATRIX_HEADER)}")
        for row in reader:
            try:
                cell = ScoreCell(score=float(row["score"]), effective_k=int(row["effective_k"]))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: row {reader.line_num}: {exc}") from None
            columns.setdefault((row["model"], row["strategy"]), {})[row["article_id"]] = cell
    return _checked_matrix(cfg, columns)


def _run_jobs(jobs) -> tuple[list, list]:
    """Run each ``(label, fn, *args)`` job of ``jobs`` in order.

    Returns ``(done, skipped)``: ``(label, fn(*args))`` for each job that ran
    and ``(label, reason)`` for each whose ``fn`` raised a ValueError, which
    marks a cell too small or too degenerate to evaluate. Each skip is logged
    at INFO; any other exception propagates and fails the stage.
    """
    done, skipped = [], []
    for label, fn, *args in jobs:
        try:
            done.append((label, fn(*args)))
        except ValueError as exc:
            logger.info("job %r skipped: %s", label, exc)
            skipped.append((label, str(exc)))
    return done, skipped


def stage_analyze(
    cfg: ExperimentConfig, eval_set: ArticleSet, golds: dict[str, GoldStandard],
    parsed: list[ParsedRow],
) -> dict:
    matrix = build_matrix(cfg, parsed)
    _write_matrix(cfg, matrix)
    units = matrix.by_uoa(_uoa_map(eval_set))
    done, skipped = _run_jobs(
        (
            (uoa, model, strategy, kind), correlate, x, y, cfg.bootstrap_reps, cfg.alpha,
            seed_int(cfg.seed, "bootstrap", kind, uoa, model, strategy),
        )
        for kind in sorted(golds)
        for model, strategy in matrix.columns
        for uoa, unit in units.items()
        for ids, x, y in [unit.paired_with_gold((model, strategy), golds[kind].scores)]
        if ids
    )
    corr_rows = [
        [*label, r.n, f"{r.rho:.6f}", f"{r.ci_low:.6f}", f"{r.ci_high:.6f}"] for label, r in done
    ]
    per_unit: dict[tuple[str, str, str], list[float]] = {}
    for (_, model, strategy, kind), r in done:
        per_unit.setdefault((model, strategy, kind), []).append(r.rho)
    write_csv(
        cfg.out_dir / "correlations.csv",
        ["uoa", "model", "strategy", "gold_kind", "n", "rho", "ci_low", "ci_high"],
        corr_rows,
    )
    aggregated, _ = _run_jobs(
        (label, aggregate_across_units, rhos, cfg.alpha)
        for label, rhos in sorted(per_unit.items())
    )
    agg_rows = [
        [*label, len(per_unit[label]), f"{mean:.6f}", f"{lo:.6f}", f"{hi:.6f}"]
        for label, (mean, lo, hi) in aggregated
    ]
    write_csv(
        cfg.out_dir / "aggregates.csv",
        ["model", "strategy", "gold_kind", "units", "mean_rho", "ci_low", "ci_high"],
        agg_rows,
    )
    return {
        "matrix_cells": matrix.cell_count(),
        "correlation_rows": len(corr_rows),
        "correlation_skipped": len(skipped),
    }


def stage_fuse(
    cfg: ExperimentConfig, eval_set: ArticleSet, golds: dict[str, GoldStandard],
    matrix: ScoreMatrix,
) -> dict:
    uoa_of = _uoa_map(eval_set)
    units = matrix.by_uoa(uoa_of)
    counts: dict[str, int] = {}
    skipped = 0
    for kind in sorted(golds):
        gold = golds[kind]
        # a unit too small (or too degenerate) to cross-validate is skipped;
        # the pooled All row can still cover its articles
        done, unit_skips = _run_jobs(
            (
                (kind, str(uoa)), fusion_row, str(uoa), unit, gold.scores, cfg.cv_folds,
                seed_int(cfg.seed, "fusion", kind, uoa), cfg.de,
            )
            for uoa, unit in units.items()
        )
        skipped += len(unit_skips)
        rows = [row for _, (row, _) in done]
        weights_dump = {uoa: _weights_json(cv) for (_, uoa), (_, cv) in done}
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
    # each row as its label, then its values in FUSION_COLUMNS order
    table = [astuple(row) for row in rows]
    write_csv(
        cfg.out_dir / f"fusion_{kind}.csv",
        FUSION_COLUMNS,
        ([label] + [f"{v:.6f}" for v in values] for label, *values in table),
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
    lines.append(f"{FUSION_COLUMNS[0]:>4}  " + "  ".join(f"{c:>14}" for c in FUSION_COLUMNS[1:]))
    for label, *values in table:
        best = max(values)
        cells = [f"**{v:.3f}**" if v == best else f"{v:.3f}" for v in values]
        lines.append(f"{label:>4}  " + "  ".join(f"{c:>14}" for c in cells))
    atomic_write_text(
        cfg.out_dir / f"fusion_{kind}_summary.txt", "\n".join(lines) + "\n"
    )


def _pair_name(a: str, b: str) -> str:
    """The file name that stage_wata gives the comparison of models ``a`` and
    ``b``, before its ``__<strategy>`` suffix."""
    return f"{safe_name(a)}_vs_{safe_name(b)}"


def stage_wata(cfg: ExperimentConfig, records: list[RawRecord]) -> dict:
    # one pass: each ok record is tokenized once, however many comparisons
    # its (model, strategy) group joins, and kept with its text for KWIC
    grouped: dict[tuple[str, str], list[tuple[TokenizedDoc, str]]] = {}
    for rec in records:
        if rec.status == STATUS_OK:
            doc = tokenize(
                f"{rec.article_id}/{rec.model}/{rec.strategy}/i{rec.iteration}", rec.text
            )
            grouped.setdefault((rec.model, rec.strategy), []).append((doc, rec.text))
    models = sorted({m for m, _ in grouped})
    comparisons = [
        (f"{safe_name(m)}__zero_vs_few", (m, ZERO), (m, FEW))
        for m in models if (m, ZERO) in grouped and (m, FEW) in grouped
    ]
    for strategy in cfg.strategies:
        present = [m for m in models if (m, strategy) in grouped]
        comparisons += [
            (f"{_pair_name(a, b)}__{strategy}", (a, strategy), (b, strategy))
            for a, b in combinations(present, 2)
        ]
    wata_dir = cfg.out_dir / "wata"
    n_significant = 0
    for name, group_a, group_b in comparisons:
        docs_a, docs_b = ([doc for doc, _ in grouped[group]] for group in (group_a, group_b))
        stats = compare(docs_a, docs_b, q_threshold=cfg.wata_q_threshold)
        n_significant += len(stats)
        write_csv(
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
        both = grouped[group_a] + grouped[group_b]
        kwic_lines = [f"Keyword in context for comparison {name}", ""]
        for s in stats[:KWIC_TERMS]:
            kwic_lines.append(
                f"== {s.term} (toward {s.direction}: {100 * s.rate_a:.1f}% vs "
                f"{100 * s.rate_b:.1f}%) =="
            )
            # kwic matches a term exactly where the tokenizer would find
            # it, so documents without it among their terms cannot match
            samples = kwic(
                s.term,
                [(doc.doc_id, text) for doc, text in both if s.term in doc.terms],
                k=KWIC_SAMPLES,
                seed=seed_int(cfg.seed, "kwic", name),
            )
            for line in samples:
                kwic_lines.append(f"[{line.doc_id}] ...{line.left}[{line.term}]{line.right}...")
            kwic_lines.append("")
        atomic_write_text(wata_dir / f"kwic_{name}.txt", "\n".join(kwic_lines) + "\n")
    return {"comparisons": len(comparisons), "significant_terms": n_significant}


def stage_violin(
    cfg: ExperimentConfig, golds: dict[str, GoldStandard], matrix: ScoreMatrix
) -> dict:
    done, skipped = _run_jobs(
        ((kind, model, strategy), violin_summary, matrix.column_scores((model, strategy)),
         golds[kind].scores)
        for kind in sorted(golds)
        for model, strategy in matrix.columns
    )
    for (kind, model, strategy), summary in done:
        svg = emit_violin_svg(summary, title=f"{model} / {strategy} vs {kind} gold")
        atomic_write_text(
            cfg.out_dir / "violins" / f"{kind}__{safe_name(model)}__{strategy}.svg", svg
        )
    return {"violins_written": len(done), "violins_skipped": len(skipped)}


class Stage(NamedTuple):
    """One pipeline stage: its function, its command-line help, the ``out_dir``
    files it reads, which ``run_stages`` passes to ``run`` after the config in
    this order, and the files and directories (with a trailing "/") it writes.
    "{kind}" stands for each gold kind."""

    run: Callable[..., dict]
    help: str
    reads: tuple[str, ...]
    writes: tuple[str, ...]


# the pipeline, in order; STAGES and the CLI subcommands come from here
PIPELINE = {
    "ingest": Stage(
        stage_ingest, "load, filter and sample articles; validate gold files", (),
        (ARTICLES, GOLDS),
    ),
    "prompt": Stage(
        stage_prompt, "write per-article prompt dumps for audit", (ARTICLES,), ("prompts/",)
    ),
    "score": Stage(
        stage_score, "run the completion batch (live endpoints or --mock)", (ARTICLES, GOLDS),
        (RECORDS,),
    ),
    "extract": Stage(
        stage_extract, "parse raw reports into scores and flags", (RECORDS,), (PARSED,)
    ),
    "analyze": Stage(
        stage_analyze, "build the score matrix and correlation tables",
        (ARTICLES, GOLDS, PARSED), (MATRIX, "correlations.csv", "aggregates.csv"),
    ),
    "fuse": Stage(
        stage_fuse, "fit and cross-validate fusion weights", (ARTICLES, GOLDS, MATRIX),
        ("fusion_{kind}.csv", "fusion_{kind}_weights.json", "fusion_{kind}_summary.txt"),
    ),
    "wata": Stage(
        stage_wata, "contrast report term usage between corpora", (RECORDS,), ("wata/",)
    ),
    "violin": Stage(
        stage_violin, "render score distributions by gold level", (GOLDS, MATRIX), ("violins/",)
    ),
}
STAGES = tuple(PIPELINE)


def _read_input(cfg: ExperimentConfig, name: str):
    """Stage input ``name`` as loaded from ``out_dir``, GOLDS as {kind: GoldStandard};
    a missing file fails, naming the stage that writes it, before any is read."""
    kinds = [kind for kind, _ in cfg.golds] if name == GOLDS else [""]
    for path in (cfg.out_dir / name.format(kind=kind) for kind in kinds):
        if not path.exists():
            writer = next(s for s, stage in PIPELINE.items() if name in stage.writes)
            raise FileNotFoundError(f"{path} is missing; run the {writer!r} stage first")
    if name == GOLDS:
        return {kind: load_gold_csv(cfg.out_dir / name.format(kind=kind), kind) for kind in kinds}
    if name == ARTICLES:
        return load_articles(cfg.out_dir / name)
    if name == MATRIX:
        return read_matrix(cfg)
    return _read_jsonl(cfg.out_dir / name, {RECORDS: RawRecord, PARSED: ParsedRow}[name])


def _clear_outputs(cfg: ExperimentConfig, writes: tuple[str, ...]) -> None:
    """Remove a stage's earlier directories and its files of dropped gold kinds."""
    dropped = set(GOLD_KINDS) - {kind for kind, _ in cfg.golds}
    for name in writes:
        if name.endswith("/"):
            shutil.rmtree(cfg.out_dir / name, ignore_errors=True)
        for kind in dropped if "{kind}" in name else ():
            (cfg.out_dir / name.format(kind=kind)).unlink(missing_ok=True)


def run_stages(cfg: ExperimentConfig, stages) -> dict:
    """Run the named stages in pipeline order, updating the manifest.

    A stage's inputs are read before its earlier outputs are cleared, so a
    missing or malformed input fails and keeps them. A rerun keeps a stage's
    earlier files until it replaces them on success. On failure the manifest
    records the failing stage and the error, and the exception propagates.
    """
    order = [s for s in STAGES if s in set(stages)]
    unknown = set(stages) - set(STAGES)
    if unknown:
        raise ValueError(f"unknown stages: {sorted(unknown)}")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    manifest = _load_manifest(cfg)
    for name in order:
        stage = PIPELINE[name]
        try:
            inputs = [_read_input(cfg, read) for read in stage.reads]
            _clear_outputs(cfg, stage.writes)
            counts = stage.run(cfg, *inputs)
        except Exception as exc:
            manifest["failure"] = {"stage": name, "error": str(exc)}
            _write_manifest(cfg, manifest)
            raise
        _record_stage(manifest, name, counts)
        manifest["failure"] = None
        _write_manifest(cfg, manifest)
    return manifest
