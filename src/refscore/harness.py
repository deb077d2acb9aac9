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
import io
import json
from collections.abc import Callable
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from types import NoneType, UnionType
from typing import NamedTuple, Union, get_args, get_origin, get_type_hints

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
from .fusion import FUSION_COLUMNS, DEParams, fusion_row, rank_normalized_pool
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
from .util import atomic_write_text, json_objects, safe_name, seed_int
from .violin import emit_violin_svg, violin_summary
from .wata import KWIC_SAMPLES, KWIC_TERMS, compare, kwic, tokenize

SCHEMA_VERSION = 1


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
        if self.bootstrap_reps < 1:
            raise ValueError("bootstrap_reps must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be at least 2")
        if not self.models:
            raise ValueError("at least one model must be configured")
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
    ``key``. An int field takes no bool or fraction, a float field takes an
    int as a float, and a relative path resolves against ``base``."""
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
        return float(value)
    if type(value) is tp:
        return value
    if origin is None and tp not in _EXPECTED:
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
    with open(path, encoding="utf-8") as fh:
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
# the stage that writes each out_dir file a later stage reads; "{kind}" in
# a name stands for each configured gold kind
WRITER = {
    ARTICLES: "ingest", GOLDS: "ingest", RECORDS: "score", PARSED: "extract", MATRIX: "analyze"
}


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


def _write_csv(path: Path, header, rows) -> None:
    """A header line, then one line per row, each ending in a bare newline:
    the format of every CSV artifact."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def _load_golds(cfg: ExperimentConfig) -> dict[str, GoldStandard]:
    return {
        kind: load_gold_csv(cfg.out_dir / GOLDS.format(kind=kind), kind) for kind, _ in cfg.golds
    }


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
    _write_jsonl(cfg.out_dir / ARTICLES, eval_set)
    counts = {
        "articles_loaded": len(loaded),
        "articles_eligible": len(eligible),
        "articles_selected": len(eval_set),
    }
    for kind, path in cfg.golds:
        gold = load_gold_csv(path, kind)
        known = [(i, repr(s)) for i, s in sorted(gold.scores.items()) if i in eval_set]
        _write_csv(cfg.out_dir / GOLDS.format(kind=kind), ["article_id", "score"], known)
        counts[f"gold_{kind}"] = len(known)
    pool = _load_pool(cfg, eval_set)
    if pool is not None:
        counts["fewshot_exemplars"] = len(pool)
    return counts


def stage_prompt(cfg: ExperimentConfig) -> dict:
    eval_set = load_articles(cfg.out_dir / ARTICLES)
    pool = _load_pool(cfg, eval_set)
    written = 0
    for article, strategy, iteration, text in _user_prompts(cfg, eval_set, pool):
        art_dir = cfg.out_dir / "prompts" / safe_name(article.id)
        atomic_write_text(art_dir / f"{strategy}-i{iteration}.txt", text)
        written += 1
    return {"prompts_written": written}


def _build_tasks(cfg: ExperimentConfig, eval_set: ArticleSet, pool) -> list[CompletionTask]:
    system = _system_template(cfg)
    models = sorted({m.name: m for m in cfg.models}.items())
    return [
        CompletionTask(
            article_id=article.id,
            model=name,
            strategy=strategy,
            iteration=iteration,
            messages=compose_messages(system, user, model.supports_system_role),
        )
        for article, strategy, iteration, user in _user_prompts(cfg, eval_set, pool)
        for name, model in models
    ]


def _mock_latent(cfg: ExperimentConfig) -> dict[str, float]:
    golds = _load_golds(cfg)
    for kind in (INDIVIDUAL, PROXY):
        if kind in golds:
            return dict(golds[kind].scores)
    return {}


def stage_score(cfg: ExperimentConfig) -> dict:
    if not cfg.mock:
        require_api_keys(cfg.models)
    eval_set = load_articles(cfg.out_dir / ARTICLES)
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


def stage_extract(cfg: ExperimentConfig) -> dict:
    records = _read_jsonl(cfg.out_dir / RECORDS, RawRecord)
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
    _write_jsonl(cfg.out_dir / PARSED, rows)
    return {
        "records": len(records),
        "parsed_ok": sum(1 for r in records if r.status == STATUS_OK),
        "with_score": n_with_score,
        "multi_article": n_multi,
        "no_score": n_no_score,
    }


def _read_parsed(cfg: ExperimentConfig) -> list[ParsedRow]:
    return _read_jsonl(cfg.out_dir / PARSED, ParsedRow)


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
        cfg.out_dir / MATRIX,
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
    with open(cfg.out_dir / MATRIX, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            key = (row["model"], row["strategy"])
            columns.setdefault(key, {})[row["article_id"]] = ScoreCell(
                score=float(row["score"]), effective_k=int(row["effective_k"])
            )
    for key in sorted(columns):
        matrix.add_column(key, columns[key])
    return matrix


def stage_analyze(cfg: ExperimentConfig) -> dict:
    eval_set = load_articles(cfg.out_dir / ARTICLES)
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
        mean, lo, hi = aggregate_across_units(rhos, alpha=cfg.alpha)
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


def stage_fuse(cfg: ExperimentConfig) -> dict:
    eval_set = load_articles(cfg.out_dir / ARTICLES)
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
    # each row as its label, then its values in FUSION_COLUMNS order
    table = [list(row.as_mapping().values()) for row in rows]
    _write_csv(
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


def stage_wata(cfg: ExperimentConfig) -> dict:
    records = _read_jsonl(cfg.out_dir / RECORDS, RawRecord)
    records = [r for r in records if r.status == STATUS_OK]
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
        for s in stats[:KWIC_TERMS]:
            kwic_lines.append(
                f"== {s.term} (toward {s.direction}: {100 * s.rate_a:.1f}% vs "
                f"{100 * s.rate_b:.1f}%) =="
            )
            # kwic matches a term exactly where the tokenizer would find
            # it, so documents without it among their terms cannot match
            samples = kwic(
                s.term,
                [(doc.doc_id, text) for doc, text in documents if s.term in doc.terms],
                k=KWIC_SAMPLES,
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


class Stage(NamedTuple):
    """One pipeline stage: its function, its command-line help and the
    ``out_dir`` files it reads, in the order it reads them."""

    run: Callable[[ExperimentConfig], dict]
    help: str
    reads: tuple[str, ...] = ()


# the pipeline, in order; STAGES and the CLI subcommands come from here
PIPELINE = {
    "ingest": Stage(stage_ingest, "load, filter and sample articles; validate gold files"),
    "prompt": Stage(stage_prompt, "write per-article prompt dumps for audit", (ARTICLES,)),
    "score": Stage(
        stage_score, "run the completion batch (live endpoints or --mock)", (ARTICLES, GOLDS)
    ),
    "extract": Stage(stage_extract, "parse raw reports into scores and flags", (RECORDS,)),
    "analyze": Stage(
        stage_analyze,
        "build the score matrix and correlation tables",
        (ARTICLES, GOLDS, PARSED),
    ),
    "fuse": Stage(stage_fuse, "fit and cross-validate fusion weights", (ARTICLES, GOLDS, MATRIX)),
    "wata": Stage(stage_wata, "contrast report term usage between corpora", (RECORDS,)),
    "violin": Stage(stage_violin, "render score distributions by gold level", (GOLDS, MATRIX)),
}
STAGES = tuple(PIPELINE)


def _check_inputs(cfg: ExperimentConfig, reads: tuple[str, ...]) -> None:
    for name in reads:
        for kind in [kind for kind, _ in cfg.golds] if name == GOLDS else [""]:
            path = cfg.out_dir / name.format(kind=kind)
            if not path.exists():
                raise FileNotFoundError(f"{path} is missing; run the {WRITER[name]!r} stage first")


def run_stages(cfg: ExperimentConfig, stages) -> dict:
    """Run the named stages in pipeline order, updating the manifest.

    A stage whose input file is missing fails before it runs, naming the
    stage that writes the file. On failure the manifest records the failing
    stage and the error, the partial outputs stay on disk, and the exception
    propagates.
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
            _check_inputs(cfg, stage.reads)
            counts = stage.run(cfg)
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
