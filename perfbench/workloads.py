"""The benchmark's workloads: set-up, one timed pass, and its correctness checks.

Every workload drives refscore only through its public API
(``make_synthetic_corpus``, ``load_config``, ``run_stages``) and times each
stage from outside. Each is a closed loop: ``run_batch`` has
``CONCURRENCY`` workers, and each waits for its reply before sending again.
Every run writes its configs, outputs and caches under a fresh directory
with absolute paths; ``load_config`` does not resolve a relative
``cache_dir`` against the config file, so a relative one could reuse a
warm cache.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from refscore import gateway
from refscore.harness import STAGES, load_config, run_stages
from refscore.synth import make_synthetic_corpus

from stub import report_for

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PINNED = json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))

CONCURRENCY = 2

# mock_full and cache_rerun: 2 units x 40 sampled articles, three mock
# report styles, both strategies, 3 iterations -> 1,440 tasks per pass.
# 10-fold cross-validation needs 30 complete-case articles per unit, and
# with 40 no unit of the reference input is skipped for a degenerate fold.
# Bootstrap reps and DE generations are cut so that a pass takes about 5 s
# and the stage shares stay near those of the 6 x 72 config with default
# stats (fuse about two thirds, then analyze, wata and score).
MOCK_UOAS = (1, 2)
MOCK_PER_UOA = 80
MOCK_SAMPLE = 40
MOCK_ITERATIONS = 3
MOCK_MODELS = {"mock-plain": "plain", "mock-reasoning": "reasoning", "mock-subscores": "subscores-only"}
MOCK_STATS = {"bootstrap_reps": 200, "cv_folds": 10, "de": {"population": 40, "generations": 50}}
# mock_full times its passes on the input of this seed and runs the input of
# --seed once, untimed, as a held-out check: over ten seeds the DE
# tie-fallback calls range 1.7x and the fuse time 1.5x, which would swamp
# any change a run is meant to show
REFERENCE_SEED = 0

# live_stub: 6 units x 18 sampled articles, 2 models, both strategies,
# 3 iterations -> 1,296 requests per pass
LIVE_UOAS = (1, 2, 3, 4, 5, 6)
LIVE_PER_UOA = 30
LIVE_SAMPLE = 18
LIVE_ITERATIONS = 3
LIVE_MODELS = ("stub-plain", "stub-reasoning")


@dataclass
class PassResult:
    wall_s: float
    tasks: int
    failed_records: int
    errors: list[str] = field(default_factory=list)
    stub: dict | None = None


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and content, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def out_layout(root: Path) -> tuple[frozenset[str], int]:
    """The files under ``root`` outside ``prompts/``, and the number inside;
    prompt dumps are named by article ids, which change with the seed."""
    files = [p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()]
    prompts = [f for f in files if f.startswith("prompts/")]
    return frozenset(files) - frozenset(prompts), len(prompts)


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def time_imports() -> None:
    """Start a fresh interpreter that imports the pipeline, as a user's run does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-c", "import refscore.harness, refscore.synth"],
        env=env, check=True, timeout=120,
    )


def make_corpus(root: Path, uoas, per_uoa: int, seed: int) -> dict:
    return make_synthetic_corpus(root / "corpus", uoas=uoas, per_uoa=per_uoa, seed=seed)


def write_config(root: Path, corpus: dict, seed: int, extra: dict) -> Path:
    """Write a config with absolute paths under ``root``; return its path."""
    config = {
        "schema_version": 1,
        "articles": str(corpus["articles"]),
        "fewshot_pool": str(corpus["fewshot_pool"]),
        "system_prompt": str(corpus["system_prompt"]),
        "strategies": ["zero", "few"],
        "concurrency": CONCURRENCY,
        "seed": seed,
        "out_dir": str(root / "out"),
        **extra,
    }
    path = root / "config.json"
    path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    return path


class Workload:
    """One workload. :meth:`setup` may run several times; the last one is used.

    The timed passes run the input of ``timed_seed``, which is ``seed``
    unless a workload pins it.
    """

    name = ""
    stages: tuple[str, ...] = ()
    tasks_per_pass = 0
    uoas: tuple[int, ...] = ()
    per_uoa = 0

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.timed_seed = seed
        self.setups = 0
        self.first_digest: str | None = None

    def setup(self) -> None:
        self.close()
        self.setups += 1
        self.dir = self.work / f"setup-{self.setups}"
        time_imports()
        self.corpus = make_corpus(self.dir, self.uoas, self.per_uoa, self.timed_seed)

    def write_config(self, extra: dict) -> None:
        self.config_path = write_config(self.dir, self.corpus, self.timed_seed, extra)

    def timed_stages(self, cfg, tracer) -> float:
        start = time.perf_counter()
        for stage in self.stages:
            if tracer is None:
                run_stages(cfg, [stage])
            else:
                tracer.call(f"harness.stage.{stage}", run_stages, cfg, [stage])
        return time.perf_counter() - start

    def check_digest(self, what: str, digest: str, errors: list[str]) -> None:
        """Compare with the digest pinned for the timed input, else with the first pass."""
        pinned = PINNED.get(self.name, {}).get(str(self.timed_seed))
        expected = pinned or self.first_digest
        if expected is None:
            self.first_digest = digest
        elif digest != expected:
            source = "pinned" if pinned else "first pass"
            errors.append(f"{what} digest {digest} != {source} digest {expected}")

    def check_records(self, records: list[dict], errors: list[str]) -> int:
        failed = sum(1 for r in records if r["status"] != gateway.STATUS_OK)
        if len(records) != self.tasks_per_pass:
            errors.append(f"{len(records)} records, expected {self.tasks_per_pass}")
        if failed:
            errors.append(f"{failed} failed records")
        return failed

    def run_pass(self, index: int, tracer=None) -> PassResult:
        raise NotImplementedError

    def held_out_pass(self) -> PassResult | None:
        """Run and check the input of ``seed`` untimed, if the passes ran another."""
        return None

    def close(self) -> None:
        pass


def mock_config(corpus: dict) -> dict:
    return {
        "golds": [
            {"kind": "departmental_proxy", "path": str(corpus["gold_proxy"])},
            {"kind": "individual", "path": str(corpus["gold_individual"])},
        ],
        "models": [{"name": name} for name in MOCK_MODELS],
        "iterations": MOCK_ITERATIONS,
        "sample_per_uoa": MOCK_SAMPLE,
        "mock": {"enabled": True, "styles": MOCK_MODELS},
        **MOCK_STATS,
    }


class MockFull(Workload):
    """All 8 stages on the mock backend, no cache; fusion and stats dominate."""

    name = "mock_full"
    stages = STAGES
    uoas = MOCK_UOAS
    per_uoa = MOCK_PER_UOA
    tasks_per_pass = len(MOCK_UOAS) * MOCK_SAMPLE * len(MOCK_MODELS) * 2 * MOCK_ITERATIONS

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.timed_seed = REFERENCE_SEED
        self.layout: tuple[frozenset[str], int] | None = None

    def setup(self) -> None:
        super().setup()
        self.write_config(mock_config(self.corpus))

    def run_pass(self, index: int, tracer=None) -> PassResult:
        out = self.dir / f"pass-{index}"
        cfg = load_config(self.config_path, {"out": str(out)})
        wall = self.timed_stages(cfg, tracer)
        errors: list[str] = []
        failed = self.check_records(read_jsonl(out / "records.jsonl"), errors)
        self.check_digest("out_dir tree", tree_digest(out), errors)
        self.layout = out_layout(out)
        shutil.rmtree(out)
        return PassResult(wall, self.tasks_per_pass, failed, errors)

    def held_out_pass(self) -> PassResult | None:
        """All stages on the input of ``seed``: its records are all ok, its
        out_dir has a timed pass's layout, and its digest is the pinned one
        where a digest is pinned for ``seed``."""
        if self.seed == self.timed_seed:
            return None
        root = self.work / "held-out"
        corpus = make_corpus(root, self.uoas, self.per_uoa, self.seed)
        cfg = load_config(write_config(root, corpus, self.seed, mock_config(corpus)))
        run_stages(cfg, STAGES)
        errors: list[str] = []
        failed = self.check_records(read_jsonl(cfg.out_dir / "records.jsonl"), errors)
        if out_layout(cfg.out_dir) != self.layout:
            errors.append("held-out out_dir holds other files than a timed pass's")
        pinned = PINNED[self.name].get(str(self.seed))
        if pinned and (digest := tree_digest(cfg.out_dir)) != pinned:
            errors.append(f"held-out out_dir tree digest {digest} != pinned digest {pinned}")
        shutil.rmtree(root)
        return PassResult(0.0, self.tasks_per_pass, failed, errors)


class StubProcess:
    """The stub endpoint in its own process; :meth:`close` stops and reaps it."""

    def __init__(self, log_path: Path):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py")],
            stdout=subprocess.PIPE, stderr=self.log, env=env, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"stub did not start; see {log_path}")
        self.port = int(line.split()[1])
        # requests and urllib would route through a proxy named in the environment
        self.opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        try:
            self.stats()
        except OSError:
            self.close()
            raise

    def stats(self) -> dict:
        with self.opener.open(f"http://127.0.0.1:{self.port}/stats", timeout=30) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class LiveStub(Workload):
    """ingest, score and extract through HttpBackend against the stub; cold cache."""

    name = "live_stub"
    stages = ("ingest", "score", "extract")
    uoas = LIVE_UOAS
    per_uoa = LIVE_PER_UOA
    tasks_per_pass = len(LIVE_UOAS) * LIVE_SAMPLE * len(LIVE_MODELS) * 2 * LIVE_ITERATIONS

    stub: StubProcess | None = None
    expected: dict | None = None

    def setup(self) -> None:
        super().setup()
        for var in ("NO_PROXY", "no_proxy"):
            os.environ[var] = "127.0.0.1,localhost"
        self.stub = StubProcess(self.dir / "stub.log")
        base_url = f"http://127.0.0.1:{self.stub.port}/v1"
        self.write_config({
            "models": [{"name": name, "base_url": base_url} for name in LIVE_MODELS],
            "iterations": LIVE_ITERATIONS,
            "sample_per_uoa": LIVE_SAMPLE,
        })

    def expected_texts(self, cfg) -> dict:
        """Recompute every report the stub serves, from the prompts as dumped.

        The prompt stage writes the exact user message of each task; the
        system message is the configured system prompt file.
        """
        run_stages(cfg, ["prompt"])
        system = Path(self.corpus["system_prompt"]).read_text(encoding="utf-8")
        expected = {}
        for rec in read_jsonl(cfg.out_dir / "records.jsonl"):
            prompt = cfg.out_dir / "prompts" / rec["article_id"] / f"{rec['strategy']}-i{rec['iteration']}.txt"
            body = {
                "model": rec["model"],
                "messages": [
                    {"role": "system", "content": system},
                    {"role": "user", "content": prompt.read_text(encoding="utf-8")},
                ],
            }
            key = (rec["article_id"], rec["model"], rec["strategy"], rec["iteration"])
            expected[key] = report_for(body)
        return expected

    def run_pass(self, index: int, tracer=None) -> PassResult:
        pass_dir = self.dir / f"pass-{index}"
        cfg = load_config(
            self.config_path, {"out": str(pass_dir / "out"), "cache_dir": str(pass_dir / "cache")}
        )
        before = self.stub.stats()
        wall = self.timed_stages(cfg, tracer)
        after = self.stub.stats()
        stub = {k: after[k] - before[k] for k in ("requests", "connections")}
        errors: list[str] = []
        records = read_jsonl(cfg.out_dir / "records.jsonl")
        failed = self.check_records(records, errors)
        if self.expected is None:
            self.expected = self.expected_texts(cfg)
        wrong = sum(
            1 for r in records
            if r["text"] != self.expected.get((r["article_id"], r["model"], r["strategy"], r["iteration"]))
        )
        if wrong:
            errors.append(f"{wrong} records differ from the report the stub serves")
        keys = sum(1 for _ in (pass_dir / "cache").rglob("*.json"))
        if stub["requests"] != keys:
            errors.append(f"stub served {stub['requests']} requests for {keys} distinct cache keys")
        self.check_digest("parsed.jsonl", file_digest(cfg.out_dir / "parsed.jsonl"), errors)
        shutil.rmtree(pass_dir)
        return PassResult(wall, self.tasks_per_pass, failed, errors, stub)

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()
            self.stub = None


class BackendCalls:
    """Counts completion calls on both backends while installed."""

    def __init__(self):
        self.calls = 0
        self.originals = {}

    def __enter__(self):
        for backend in (gateway.HttpBackend, gateway.MockBackend):
            original = self.originals[backend] = backend.complete_task

            def counted(*args, _original=original, **kwargs):
                self.calls += 1
                return _original(*args, **kwargs)

            backend.complete_task = counted
        return self

    def __exit__(self, *exc):
        for backend, original in self.originals.items():
            backend.complete_task = original


class CacheRerun(Workload):
    """score and extract rerun over a cache filled in set-up; every task hits."""

    name = "cache_rerun"
    stages = ("score", "extract")
    uoas = MOCK_UOAS
    per_uoa = MOCK_PER_UOA
    tasks_per_pass = MockFull.tasks_per_pass

    def setup(self) -> None:
        super().setup()
        self.write_config({**mock_config(self.corpus), "cache_dir": str(self.dir / "cache")})
        cfg = load_config(self.config_path)
        run_stages(cfg, ["ingest", "score", "extract"])
        self.filled = {
            name: (cfg.out_dir / name).read_bytes() for name in ("records.jsonl", "parsed.jsonl")
        }

    def run_pass(self, index: int, tracer=None) -> PassResult:
        cfg = load_config(self.config_path)
        with BackendCalls() as backend:
            wall = self.timed_stages(cfg, tracer)
        errors: list[str] = []
        failed = self.check_records(read_jsonl(cfg.out_dir / "records.jsonl"), errors)
        if backend.calls:
            errors.append(f"{backend.calls} backend calls on a warm cache")
        for name, data in self.filled.items():
            if (cfg.out_dir / name).read_bytes() != data:
                errors.append(f"{name} differs from the cache-fill run's")
        return PassResult(wall, self.tasks_per_pass, failed, errors)


WORKLOADS = {w.name: w for w in (MockFull, LiveStub, CacheRerun)}
