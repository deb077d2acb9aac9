"""Config loading: path resolution and values that must reach validation."""
import pytest

from refscore.cli import main
from refscore.harness import load_config
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


@pytest.mark.parametrize("flag", ["--iterations", "--concurrency"])
def test_zero_override_is_rejected_not_replaced(config_path, flag, capsys):
    code = main(["ingest", "--config", str(config_path), flag, "0"])
    assert code == 2
    assert "at least 1" in capsys.readouterr().err


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


def test_every_dataclass_option_is_accepted(tmp_path):
    corpus = make_synthetic_corpus(tmp_path, uoas=(1,), per_uoa=6, seed=0)
    cfg = load_config(write_config(
        tmp_path, corpus,
        de={"population": 12, "mutation": 0.5, "crossover": 0.7, "generations": 25},
        models=[{
            "name": "mock-a", "base_url": "", "api_key_env": None,
            "supports_system_role": False, "temperature": 0.2,
            "max_output_tokens": 64, "request_timeout": 5.0,
        }],
        wata={"q_threshold": 0.1},
    ))
    assert cfg.de.crossover == 0.7
    assert cfg.models[0].temperature == 0.2
    assert cfg.wata_q_threshold == 0.1
