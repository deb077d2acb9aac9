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
