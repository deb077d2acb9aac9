"""Tests for the staged pipeline, config loading and the command line."""
import csv
import json
import re
import shutil
from pathlib import Path

import pytest

from refscore.cli import build_parser, main
from refscore.harness import (
    PIPELINE,
    SCHEMA_VERSION,
    STAGES,
    WRITER,
    ExperimentConfig,
    build_matrix,
    load_config,
    read_matrix,
    run_stages,
)
from refscore import gateway
from refscore.gateway import ModelConfig
from refscore.synth import make_synthetic_corpus

MINI_DE = {"population": 12, "generations": 25}


def write_config(dir_path: Path, corpus: dict, **extra) -> Path:
    raw = {
        "schema_version": SCHEMA_VERSION,
        "articles": corpus["articles"].name,
        "golds": [
            {"kind": "departmental_proxy", "path": corpus["gold_proxy"].name},
            {"kind": "individual", "path": corpus["gold_individual"].name},
        ],
        "fewshot_pool": corpus["fewshot_pool"].name,
        "system_prompt": corpus["system_prompt"].name,
        "models": [{"name": "mock-a"}, {"name": "mock-b"}],
        "strategies": ["zero", "few"],
        "iterations": 2,
        "concurrency": 2,
        "seed": 11,
        "bootstrap_reps": 200,
        "cv_folds": 2,
        "de": dict(MINI_DE),
        "mock": {
            "enabled": True,
            "noise_sd": 0.3,
            "styles": {"mock-a": "plain", "mock-b": "reasoning"},
        },
        "out_dir": "out",
    }
    raw.update(extra)
    path = dir_path / "config.json"
    path.write_text(json.dumps(raw, indent=1))
    return path


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    """One full mock pipeline over a small synthetic corpus."""
    root = tmp_path_factory.mktemp("mini")
    corpus = make_synthetic_corpus(root, uoas=(1, 2), per_uoa=18, seed=4)
    cfg_path = write_config(root, corpus)
    cfg = load_config(cfg_path)
    manifest = run_stages(cfg, STAGES)
    return {"root": root, "cfg_path": cfg_path, "cfg": cfg, "manifest": manifest}


class TestLoadConfig:
    def make_corpus(self, tmp_path):
        return make_synthetic_corpus(tmp_path, uoas=(1,), per_uoa=6, seed=0)

    def test_schema_version_required(self, tmp_path):
        corpus = self.make_corpus(tmp_path)
        path = write_config(tmp_path, corpus, schema_version=99)
        with pytest.raises(ValueError, match="schema_version"):
            load_config(path)

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        corpus = self.make_corpus(tmp_path)
        nested = tmp_path / "cfgs"
        nested.mkdir()
        path = write_config(nested, corpus, articles="../articles.jsonl",
                            golds=[{"kind": "individual",
                                    "path": "../gold_individual.csv"}],
                            fewshot_pool="../fewshot_pool.jsonl",
                            system_prompt="../system_prompt.txt")
        cfg = load_config(path)
        assert cfg.articles.resolve() == corpus["articles"].resolve()
        assert cfg.out_dir == nested / "out"

    def test_defaults(self, tmp_path):
        corpus = self.make_corpus(tmp_path)
        path = write_config(tmp_path, corpus)
        cfg = load_config(path)
        assert cfg.iterations == 2
        assert cfg.seed == 11
        assert cfg.strategies == ("zero", "few")
        assert cfg.de.population == 12
        assert cfg.mock is True
        assert cfg.mock_styles == {"mock-a": "plain", "mock-b": "reasoning"}
        assert cfg.cache_dir is None

    def test_overrides(self, tmp_path):
        corpus = self.make_corpus(tmp_path)
        path = write_config(tmp_path, corpus)
        cfg = load_config(
            path,
            {
                "seed": 77,
                "iterations": 3,
                "concurrency": 8,
                "strategy": "zero",
                "cache_dir": str(tmp_path / "cache"),
                "out": str(tmp_path / "elsewhere"),
            },
        )
        assert cfg.seed == 77
        assert cfg.iterations == 3
        assert cfg.concurrency == 8
        assert cfg.strategies == ("zero",)
        assert cfg.cache_dir == tmp_path / "cache"
        assert cfg.out_dir == tmp_path / "elsewhere"

    def test_strategy_both_override(self, tmp_path):
        corpus = self.make_corpus(tmp_path)
        path = write_config(tmp_path, corpus, strategies=["zero"])
        cfg = load_config(path, {"strategy": "both"})
        assert cfg.strategies == ("zero", "few")

    def test_mock_as_plain_bool(self, tmp_path):
        corpus = self.make_corpus(tmp_path)
        path = write_config(tmp_path, corpus, mock=True)
        cfg = load_config(path)
        assert cfg.mock is True
        assert cfg.mock_noise_sd == 0.5

    def test_validation_errors(self, tmp_path):
        corpus = self.make_corpus(tmp_path)
        with pytest.raises(ValueError, match="at least one model"):
            load_config(write_config(tmp_path, corpus, models=[]))
        with pytest.raises(ValueError, match="fewshot_pool"):
            load_config(write_config(tmp_path, corpus, fewshot_pool=None))
        with pytest.raises(ValueError, match="unknown strategy"):
            load_config(write_config(tmp_path, corpus, strategies=["zero", "jazz"]))
        with pytest.raises(ValueError, match="duplicate gold"):
            load_config(
                write_config(
                    tmp_path, corpus,
                    golds=[
                        {"kind": "individual", "path": corpus["gold_individual"].name},
                        {"kind": "individual", "path": corpus["gold_proxy"].name},
                    ],
                )
            )
        with pytest.raises(ValueError, match="unknown gold kind"):
            load_config(
                write_config(
                    tmp_path, corpus,
                    golds=[{"kind": "oracle", "path": corpus["gold_proxy"].name}],
                )
            )


class TestPipelineArtifacts:
    def test_manifest_shape(self, mini_run):
        manifest = mini_run["manifest"]
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["failure"] is None
        assert [s["name"] for s in manifest["stages"]] == list(STAGES)
        assert set(manifest["versions"]) == {"refscore", "numpy", "scipy"}
        assert manifest["seed"] == 11
        assert manifest["config"]["iterations"] == 2

    def test_stage_count_reconciliation(self, mini_run):
        manifest = mini_run["manifest"]
        counts = {s["name"]: s["counts"] for s in manifest["stages"]}
        n_articles = counts["ingest"]["articles_selected"]
        tasks = counts["score"]["tasks"]
        assert tasks == n_articles * 2 * 2 * 2
        assert counts["score"]["ok"] + counts["score"]["failed"] == tasks
        assert counts["extract"]["records"] == tasks
        assert counts["extract"]["parsed_ok"] == counts["score"]["ok"]
        # every mock style here is parseable, so each (column, article)
        # pair with any usable iteration lands one matrix cell
        assert counts["analyze"]["matrix_cells"] == n_articles * 4

    def test_expected_artifacts_exist(self, mini_run):
        out = mini_run["cfg"].out_dir
        for name in (
            "manifest.json",
            "articles.jsonl",
            "gold_departmental_proxy.csv",
            "gold_individual.csv",
            "records.jsonl",
            "parsed.jsonl",
            "matrix.csv",
            "correlations.csv",
            "aggregates.csv",
            "fusion_departmental_proxy.csv",
            "fusion_departmental_proxy_weights.json",
            "fusion_departmental_proxy_summary.txt",
            "fusion_individual.csv",
        ):
            assert (out / name).is_file(), name
        assert list((out / "prompts").iterdir())
        assert list((out / "wata").glob("*.csv"))
        assert list((out / "violins").glob("*.svg"))

    def test_fusion_csv_column_order(self, mini_run):
        out = mini_run["cfg"].out_dir
        with open(out / "fusion_individual.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["uoa", "mean", "median", "best-single", "rank-average", "cv-mean"]

    def test_correlations_schema(self, mini_run):
        out = mini_run["cfg"].out_dir
        with open(out / "correlations.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            assert row["gold_kind"] in ("departmental_proxy", "individual")
            assert float(row["ci_low"]) <= float(row["rho"]) <= float(row["ci_high"])
            assert int(row["n"]) >= 3

    def test_records_sorted_and_complete(self, mini_run):
        out = mini_run["cfg"].out_dir
        with open(out / "records.jsonl") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        keys = [
            (r["article_id"], r["model"], r["strategy"], r["iteration"])
            for r in records
        ]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_matrix_round_trip(self, mini_run):
        from refscore.harness import _read_parsed
        cfg = mini_run["cfg"]
        parsed = _read_parsed(cfg)
        rebuilt = build_matrix(cfg, parsed)
        loaded = read_matrix(cfg)
        assert loaded.columns == rebuilt.columns
        for key in rebuilt.columns:
            a = rebuilt.cells[key]
            b = loaded.cells[key]
            assert set(a) == set(b)
            for art_id in a:
                assert b[art_id].score == pytest.approx(a[art_id].score, abs=1e-12)
                assert b[art_id].effective_k == a[art_id].effective_k


class TestStageIsolation:
    def test_missing_upstream_artifact_names_the_stage(self, tmp_path):
        corpus = make_synthetic_corpus(tmp_path, uoas=(1,), per_uoa=6, seed=0)
        cfg = load_config(write_config(tmp_path, corpus))
        with pytest.raises(FileNotFoundError, match="ingest"):
            run_stages(cfg, ("prompt",))

    def test_failure_recorded_in_manifest(self, tmp_path):
        corpus = make_synthetic_corpus(tmp_path, uoas=(1,), per_uoa=6, seed=0)
        cfg = load_config(write_config(tmp_path, corpus))
        with pytest.raises(FileNotFoundError):
            run_stages(cfg, ("extract",))
        manifest = json.loads((cfg.out_dir / "manifest.json").read_text())
        assert manifest["failure"]["stage"] == "extract"
        assert "score" in manifest["failure"]["error"]
        assert manifest["stages"] == []

    def test_empty_article_file_fails_ingest(self, tmp_path):
        corpus = make_synthetic_corpus(tmp_path, uoas=(1,), per_uoa=6, seed=0)
        corpus["articles"].write_text("")
        cfg = load_config(write_config(tmp_path, corpus))
        with pytest.raises(ValueError, match="no eligible"):
            run_stages(cfg, ("ingest",))

    @pytest.mark.parametrize(
        "corrupt",
        [lambda line: line[:40] + "\n", lambda line: line[:-2] + ', "error": "HTTP 500"}\n'],
        ids=["truncated", "unexpected-field"],
    )
    def test_bad_record_line_names_file_and_line(self, tmp_path, corrupt):
        corpus = make_synthetic_corpus(tmp_path, uoas=(1,), per_uoa=6, seed=0)
        cfg = load_config(write_config(tmp_path, corpus))
        run_stages(cfg, ("ingest", "score"))
        path = cfg.out_dir / "records.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = corrupt(lines[2])
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match=r"records\.jsonl: line 3: "):
            run_stages(cfg, ("extract",))

    def test_unknown_stage_rejected(self, tmp_path):
        corpus = make_synthetic_corpus(tmp_path, uoas=(1,), per_uoa=6, seed=0)
        cfg = load_config(write_config(tmp_path, corpus))
        with pytest.raises(ValueError, match="unknown stages"):
            run_stages(cfg, ("ingest", "launder"))

    def test_rerunning_a_stage_keeps_one_manifest_entry(self, mini_run):
        cfg = mini_run["cfg"]
        manifest = run_stages(cfg, ("analyze",))
        names = [s["name"] for s in manifest["stages"]]
        assert names.count("analyze") == 1


STAGE_INPUTS = [(stage, name) for stage, entry in PIPELINE.items() for name in entry.reads]


class TestStageInputs:
    def test_each_input_is_written_by_an_earlier_stage(self):
        assert STAGES == (
            "ingest", "prompt", "score", "extract", "analyze", "fuse", "wata", "violin"
        )
        for position, (stage, entry) in enumerate(PIPELINE.items()):
            for name in entry.reads:
                assert STAGES.index(WRITER[name]) < position, (stage, name)

    @pytest.mark.parametrize(
        "stage, name", STAGE_INPUTS, ids=[f"{s}-{n}" for s, n in STAGE_INPUTS]
    )
    def test_missing_input_fails_the_stage_before_it_writes(
        self, mini_run, tmp_path, stage, name
    ):
        src = mini_run["cfg"]
        cfg = load_config(mini_run["cfg_path"], {"out": str(tmp_path / "out")})
        cfg.out_dir.mkdir()
        kinds = [kind for kind, _ in cfg.golds]
        for read in PIPELINE[stage].reads:
            for file_name in {read.format(kind=kind) for kind in kinds}:
                shutil.copyfile(src.out_dir / file_name, cfg.out_dir / file_name)
        # the last gold kind, so that every configured kind is checked
        missing = cfg.out_dir / name.format(kind=kinds[-1])
        missing.unlink()
        before = sorted(p.name for p in cfg.out_dir.iterdir())
        message = f"{missing} is missing; run the '{WRITER[name]}' stage first"
        with pytest.raises(FileNotFoundError, match=re.escape(message)):
            run_stages(cfg, (stage,))
        manifest = json.loads((cfg.out_dir / "manifest.json").read_text())
        assert manifest["failure"]["stage"] == stage
        after = sorted(p.relative_to(cfg.out_dir) for p in cfg.out_dir.rglob("*"))
        assert after == sorted(Path(n) for n in before + ["manifest.json"])


class TestByteDeterminism:
    def test_two_runs_identical_bytes(self, mini_run, tmp_path):
        first_out = mini_run["cfg"].out_dir
        cfg2 = load_config(mini_run["cfg_path"], {"out": str(tmp_path / "out2")})
        run_stages(cfg2, STAGES)
        second_out = cfg2.out_dir
        first_files = sorted(
            p.relative_to(first_out) for p in first_out.rglob("*") if p.is_file()
        )
        second_files = sorted(
            p.relative_to(second_out) for p in second_out.rglob("*") if p.is_file()
        )
        assert first_files == second_files
        differing = [
            str(rel)
            for rel in first_files
            if (first_out / rel).read_bytes() != (second_out / rel).read_bytes()
        ]
        assert differing == []


class TestScoreCaching:
    def test_warm_cache_reproduces_records(self, tmp_path):
        corpus = make_synthetic_corpus(tmp_path, uoas=(1,), per_uoa=10, seed=2)
        cfg_path = write_config(tmp_path, corpus, cv_folds=2)
        cache_dir = tmp_path / "cache"
        cfg = load_config(cfg_path, {"cache_dir": str(cache_dir)})
        run_stages(cfg, ("ingest", "prompt", "score"))
        first = (cfg.out_dir / "records.jsonl").read_bytes()
        assert any(cache_dir.rglob("*.json"))
        run_stages(cfg, ("score",))
        assert (cfg.out_dir / "records.jsonl").read_bytes() == first


class TestScorePreflight:
    LIVE_MODELS = [
        {"name": "live-a", "base_url": "http://127.0.0.1:9", "api_key_env": "REFSCORE_TEST_KEY_A"},
        {"name": "live-b", "base_url": "http://127.0.0.1:9", "api_key_env": "REFSCORE_TEST_KEY_B"},
        {"name": "keyless", "base_url": "http://127.0.0.1:9"},
    ]

    def test_missing_api_keys_fail_before_any_request(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("REFSCORE_TEST_KEY_A", raising=False)
        monkeypatch.delenv("REFSCORE_TEST_KEY_B", raising=False)
        calls = []
        monkeypatch.setattr(gateway, "default_transport", lambda *args: calls.append(args))
        corpus = make_synthetic_corpus(tmp_path, uoas=(1,), per_uoa=6, seed=0)
        cfg_path = write_config(tmp_path, corpus, models=self.LIVE_MODELS, mock=False)
        assert main(["ingest", "--config", str(cfg_path)]) == 0
        assert main(["score", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "REFSCORE_TEST_KEY_A (model live-a)" in err
        assert "REFSCORE_TEST_KEY_B (model live-b)" in err
        assert calls == []
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["failure"]["stage"] == "score"
        assert "REFSCORE_TEST_KEY_A" in manifest["failure"]["error"]
        assert not (tmp_path / "out" / "records.jsonl").exists()

    def test_all_names_the_stage_that_failed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("REFSCORE_TEST_KEY_A", raising=False)
        monkeypatch.delenv("REFSCORE_TEST_KEY_B", raising=False)
        monkeypatch.setattr(gateway, "default_transport", lambda *args: pytest.fail("sent"))
        corpus = make_synthetic_corpus(tmp_path, uoas=(1,), per_uoa=6, seed=0)
        cfg_path = write_config(tmp_path, corpus, models=self.LIVE_MODELS, mock=False)
        assert main(["all", "--config", str(cfg_path)]) == 1
        assert "run failed during score: " in capsys.readouterr().err

    def test_mock_runs_need_no_keys(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REFSCORE_TEST_KEY_A", raising=False)
        corpus = make_synthetic_corpus(tmp_path, uoas=(1,), per_uoa=6, seed=0)
        models = [{"name": "mock-a", "api_key_env": "REFSCORE_TEST_KEY_A"}, {"name": "mock-b"}]
        cfg = load_config(write_config(tmp_path, corpus, models=models))
        manifest = run_stages(cfg, ("ingest", "score"))
        assert manifest["failure"] is None


class TestCli:
    def test_parser_has_all_subcommands(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if isinstance(a, (type(parser._subparsers._group_actions[0]),))
        )
        assert set(sub.choices) == set(STAGES) | {"all"}

    def test_config_flag_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ingest"])

    def test_missing_config_file_is_exit_2(self, capsys):
        code = main(["ingest", "--config", "/nonexistent/config.json"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_stage_failure_is_exit_1(self, tmp_path, capsys):
        corpus = make_synthetic_corpus(tmp_path, uoas=(1,), per_uoa=6, seed=0)
        cfg_path = write_config(tmp_path, corpus)
        code = main(["extract", "--config", str(cfg_path)])
        assert code == 1
        assert "run failed" in capsys.readouterr().err

    def test_full_mock_run_is_exit_0(self, tmp_path, capsys):
        corpus = make_synthetic_corpus(tmp_path, uoas=(1, 2), per_uoa=14, seed=5)
        cfg_path = write_config(tmp_path, corpus)
        code = main(["all", "--config", str(cfg_path), "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ok: stages complete" in out
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["seed"] == 3

    def test_single_stage_via_cli(self, tmp_path, capsys):
        corpus = make_synthetic_corpus(tmp_path, uoas=(1,), per_uoa=8, seed=1)
        cfg_path = write_config(tmp_path, corpus)
        assert main(["ingest", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "articles.jsonl").is_file()


class TestExperimentConfigValidation:
    def test_direct_construction_checks(self, tmp_path):
        base = dict(
            articles=tmp_path / "a.jsonl",
            out_dir=tmp_path / "out",
            models=[ModelConfig(name="m")],
        )
        with pytest.raises(ValueError, match="iterations"):
            ExperimentConfig(**base, iterations=0)
        with pytest.raises(ValueError, match="concurrency"):
            ExperimentConfig(**base, concurrency=0)
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(**base, seed=-1)
        for alpha in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match="alpha"):
                ExperimentConfig(**base, alpha=alpha)
        with pytest.raises(ValueError, match="bootstrap_reps"):
            ExperimentConfig(**base, bootstrap_reps=0)
        with pytest.raises(ValueError, match="cv_folds"):
            ExperimentConfig(**base, cv_folds=1)
        with pytest.raises(ValueError, match="at least one model"):
            ExperimentConfig(
                articles=tmp_path / "a.jsonl", out_dir=tmp_path / "out", models=[]
            )
        cfg = ExperimentConfig(**base, strategies=("zero",))
        assert cfg.strategies == ("zero",)
