"""Config loading: path resolution, values that must reach validation, and
input files that start with a UTF-8 byte-order mark."""
import codecs
import re
from dataclasses import fields

import pytest

from refscore.cli import build_parser, main
from refscore.corpus import (
    INDIVIDUAL, PROXY, ArticleSet, load_articles, load_fewshot_pool, load_gold_csv,
)
from refscore.fusion import DEParams
from refscore.gateway import ModelConfig
from refscore.harness import ExperimentConfig, load_config
from refscore.prompts import SystemPromptTemplate
from refscore.synth import make_synthetic_corpus
from test_harness import write_config


@pytest.fixture
def config_path(tmp_path):
    cfg_dir = tmp_path / "cfg"
    corpus = make_synthetic_corpus(cfg_dir, uoas=(1,), per_uoa=6, seed=0)
    return write_config(cfg_dir, corpus, cache_dir="cache")


def test_relative_cache_dir_resolves_against_config_dir(config_path, tmp_path, monkeypatch):
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    cfg = load_config(config_path)
    assert cfg.cache_dir == config_path.parent / "cache"
    assert cfg.out_dir == config_path.parent / "out"


def test_every_cli_override_reaches_the_config(tmp_path):
    corpus = make_synthetic_corpus(tmp_path, uoas=(1,), per_uoa=6, seed=0)
    path = write_config(tmp_path, corpus, mock=False, strategies=["zero"])
    args = build_parser().parse_args([
        "ingest", "--config", str(path), "--seed", "3", "--iterations", "4",
        "--concurrency", "1", "--strategy", "both", "--mock", "--cache-dir", "c", "--out", "o",
    ])
    cfg = load_config(args.config, vars(args))
    assert (cfg.seed, cfg.iterations, cfg.concurrency) == (3, 4, 1)
    assert cfg.strategies == ("zero", "few")
    assert cfg.mock is True
    assert (cfg.cache_dir, cfg.out_dir) == (tmp_path / "c", tmp_path / "o")


@pytest.mark.parametrize("flag", ["--iterations", "--concurrency"])
def test_zero_override_is_rejected_not_replaced(config_path, flag, capsys):
    code = main(["ingest", "--config", str(config_path), flag, "0"])
    assert code == 2
    assert "at least 1" in capsys.readouterr().err


def test_seed_override_of_64_bits_is_rejected(config_path, capsys):
    assert main(["ingest", "--config", str(config_path), "--seed", str(2**64)]) == 2
    assert "seed must be below 2**64" in capsys.readouterr().err
    assert load_config(config_path, {"seed": 2**64 - 1}).seed == 2**64 - 1


@pytest.mark.parametrize(
    "extra, key",
    [
        ({"iteraions": 2}, "iteraions"),
        ({"models": [{"name": "mock-a", "temprature": 0.2}]}, "temprature"),
        ({"de": {"population": 12, "generatons": 25}}, "generatons"),
        ({"de": {"upper": 2.0}}, "upper"),
        ({"mock": {"enabled": True, "noise": 0.3}}, "noise"),
        ({"wata": {"kwic_term": 3}}, "kwic_term"),
        ({"wata": {"kwic_window": 40}}, "kwic_window"),
        ({"golds": [{"kind": "individual", "path": "g.csv", "weight": 1}]}, "weight"),
    ],
    ids=["top-level", "model", "de", "de-bounds", "mock", "wata", "wata-kwic", "gold"],
)
def test_misspelt_key_is_rejected_by_name(tmp_path, extra, key, capsys):
    corpus = make_synthetic_corpus(tmp_path, uoas=(1,), per_uoa=6, seed=0)
    path = write_config(tmp_path, corpus, **extra)
    with pytest.raises(ValueError, match=repr(key)):
        load_config(path)
    assert main(["ingest", "--config", str(path)]) == 2
    assert repr(key) in capsys.readouterr().err


#: a config that sets every option the dataclasses declare
EVERY_OPTION = dict(
    de={"population": 12, "mutation": 0.5, "crossover": 0.7, "generations": 25},
    models=[{
        "name": "mock-a", "base_url": "", "api_key_env": None,
        "supports_system_role": False, "temperature": 0.2,
        "max_output_tokens": 64, "request_timeout": 5.0,
    }],
    wata={"q_threshold": 0.1},
    mock={"enabled": True, "noise_sd": 0.3, "styles": {"mock-a": "plain"}},
    sample_per_uoa=3,
    alpha=0.1,
    cache_dir="cache",
)

#: the fields the manifest leaves out
RUNTIME = {"out_dir", "cache_dir", "concurrency", "mock_styles", "api_key_env", "request_timeout"}


def test_every_dataclass_option_is_accepted(tmp_path):
    corpus = make_synthetic_corpus(tmp_path, uoas=(1,), per_uoa=6, seed=0)
    cfg = load_config(write_config(tmp_path, corpus, **EVERY_OPTION))
    assert cfg.de.crossover == 0.7
    assert cfg.models[0].temperature == 0.2
    assert cfg.wata_q_threshold == 0.1


def test_snapshot_holds_every_field_but_the_runtime_set(tmp_path):
    corpus = make_synthetic_corpus(tmp_path, uoas=(1,), per_uoa=6, seed=0)
    cfg = load_config(write_config(tmp_path, corpus, **EVERY_OPTION))
    snap = cfg.snapshot()

    def recorded(cls):
        return {f.name for f in fields(cls)} - RUNTIME

    assert set(snap) == recorded(ExperimentConfig)
    assert snap["de"] == {"population": 12, "mutation": 0.5, "crossover": 0.7, "generations": 25}
    assert [set(m) for m in snap["models"]] == [recorded(ModelConfig)]
    assert set(snap["de"]) == recorded(DEParams)
    assert snap["articles"] == "articles.jsonl"
    assert snap["fewshot_pool"] == "fewshot_pool.jsonl"
    assert snap["system_prompt"] == "system_prompt.txt"
    assert snap["golds"] == [
        ["departmental_proxy", "gold_proxy.csv"], ["individual", "gold_individual.csv"]
    ]
    assert snap["sample_per_uoa"] == 3
    assert snap["strategies"] == ["zero", "few"]


def test_integer_for_a_float_field_is_stored_as_a_float(tmp_path):
    corpus = make_synthetic_corpus(tmp_path, uoas=(1,), per_uoa=6, seed=0)
    path = write_config(tmp_path, corpus, wata={"q_threshold": 1}, mock={"noise_sd": 0})
    cfg = load_config(path)
    assert type(cfg.wata_q_threshold) is float and cfg.wata_q_threshold == 1.0
    assert type(cfg.mock_noise_sd) is float
    assert cfg.snapshot()["wata_q_threshold"] == 1.0


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"strategies": 5}, "config key 'strategies' must be a list, got 5"),
        ({"de": {"population": None}}, "config key 'de.population' must be an integer, got null"),
        (
            {"models": [{"name": "mock-a", "request_timeout": "5"}]},
            "config key 'models[0].request_timeout' must be a number, got \"5\"",
        ),
        ({"iterations": 2.7}, "config key 'iterations' must be an integer, got 2.7"),
        ({"iterations": True}, "config key 'iterations' must be an integer, got true"),
        ({"golds": [{"kind": "individual"}]}, "missing config key 'path' in golds[0]"),
        ({"models": [{"base_url": ""}]}, "missing config key 'name' in models[0]"),
        ({"strategies": ["zero", 3]}, "config key 'strategies[1]' must be a string, got 3"),
        ({"mock": None}, "config key 'mock' must be an object, got null"),
        ({"fewshot_pool": ""}, "config key 'fewshot_pool' must be a non-empty path"),
        ({"alpha": 1.5}, "alpha must lie in (0, 1)"),
        ({"alpha": 0}, "alpha must lie in (0, 1)"),
        ({"bootstrap_reps": 0}, "bootstrap_reps must be at least 1"),
        ({"cv_folds": 1}, "cv_folds must be at least 2"),
        ({"wata": {"q_threshold": 0}}, "wata.q_threshold must lie in (0, 1]"),
        ({"mock": {"enabled": True, "noise_sd": -0.5}}, "mock.noise_sd must be non-negative"),
        (
            {"mock": {"enabled": True, "noise_sd": float("nan")}},
            "config key 'mock.noise_sd' must be a number, got NaN",
        ),
        (
            {"models": [{"name": "mock-a", "temperature": float("inf")}]},
            "config key 'models[0].temperature' must be a number, got Infinity",
        ),
        (
            {"de": {"mutation": 10**400}},
            "config key 'de.mutation' must be a number, got 1" + "0" * 400,
        ),
        (
            {"mock": {"enabled": True, "styles": {"mock-c": "subscores"}}},
            "mock.styles.mock-c: unknown mock style 'subscores'",
        ),
        (
            {"models": [{"name": "m", "temperature": 0.0}, {"name": "m", "temperature": 1.0}]},
            "duplicate model names configured",
        ),
        (
            {"mock": {"enabled": True, "styles": {"mock-a": "plain", "mock-c": "plain"}}},
            "mock.styles.mock-c: no model of that name is configured",
        ),
        (
            {"models": [{"name": "org/m"}, {"name": "org:m"}]},
            "models 'org/m' and 'org:m' share the file name 'org_m'",
        ),
        ({"models": [{"name": ".."}]}, "model '..' cannot name a file"),
        (
            {"models": [{"name": n} for n in ("p", "p_vs_q", "q_vs_r", "r")]},
            "model pairs ('p', 'q_vs_r') and ('p_vs_q', 'r') share the WATA comparison name "
            "'p_vs_q_vs_r'",
        ),
        (
            {"models": [{"name": n} for n in ("p_", "p__vs", "q", "vs_q")]},
            "model pairs ('p_', 'vs_q') and ('p__vs', 'q') share the WATA comparison name "
            "'p__vs_vs_q'",
        ),
        ({"sample_per_uoa": -1}, "sample_per_uoa must be at least 1"),
        ({"sample_per_uoa": 0}, "sample_per_uoa must be at least 1"),
        ({"strategies": []}, "at least one strategy must be configured"),
        ({"strategies": ["zero", "zero"]}, "duplicate strategies configured"),
        ({"seed": 2**64}, "seed must be below 2**64"),
    ],
    ids=[
        "list", "nested-null", "model-string", "fraction", "bool", "gold-path", "model-name",
        "list-item", "nested-object", "empty-path", "alpha-above-1", "alpha-zero",
        "bootstrap-reps", "cv-folds", "wata-q-threshold", "mock-noise-sd", "mock-noise-sd-nan",
        "model-temperature-infinity", "float-overflow", "mock-style",
        "duplicate-model", "mock-style-model", "safe-name-collision", "dot-model",
        "wata-pair-collision", "wata-pair-collision-without-vs",
        "sample-per-uoa-negative", "sample-per-uoa-zero", "no-strategy", "duplicate-strategy",
        "seed-64-bits",
    ],
)
def test_wrong_or_missing_key_is_rejected_by_name(tmp_path, extra, message, capsys):
    corpus = make_synthetic_corpus(tmp_path, uoas=(1,), per_uoa=6, seed=0)
    path = write_config(tmp_path, corpus, **extra)
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config(path)
    assert main(["ingest", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


# each input loader, by the synthetic corpus key (or "config") of its file,
# with its result reduced to something comparable
INPUT_LOADERS = {
    "config": load_config,
    "articles": lambda path: load_articles(path).articles,
    "gold_individual": lambda path: load_gold_csv(path, INDIVIDUAL),
    "gold_proxy": lambda path: load_gold_csv(path, PROXY),
    "fewshot_pool": lambda path: load_fewshot_pool(path, ArticleSet([])).cells,
    "system_prompt": SystemPromptTemplate.from_file,
}


@pytest.mark.parametrize("name", sorted(INPUT_LOADERS))
def test_input_with_a_byte_order_mark_loads_as_without(tmp_path, name):
    corpus = make_synthetic_corpus(tmp_path, uoas=(1,), per_uoa=6, seed=0)
    corpus["config"] = write_config(tmp_path, corpus)
    path = corpus[name]
    marked = path.with_name("bom-" + path.name)
    marked.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    load = INPUT_LOADERS[name]
    assert load(marked) == load(path)
