"""The benchmark's traced run wraps refscore functions by name.

``perfbench/tracing.py`` replaces names such as ``harness.tokenize`` and
``harness.run_batch`` at the modules that call them. A refactor that drops
one of those imports breaks only the traced benchmark run, so this test
installs and removes the tracer against the package.
"""
import importlib.util
import json
import re
from pathlib import Path

from refscore import fusion, gateway, harness, stats

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    tracing = load_tracing()
    sites = [
        (harness, "run_batch"),
        (harness, "tokenize"),
        (harness, "load_articles"),
        (harness, "load_gold_csv"),
        (harness, "correlate"),
        (harness, "fusion_row"),
        (harness, "violin_summary"),
        (stats, "midranks"),
        (stats, "bootstrap_ci"),
        (stats, "substream"),
        (fusion, "midranks"),
        (fusion, "de_optimize"),
        (fusion, "substream"),
        (gateway, "cache_key"),
        (gateway.MockBackend, "complete_task"),
    ]
    originals = [getattr(owner, name) for owner, name in sites]
    tracer = tracing.Tracer("t")
    try:
        tracer.install()
        wrapped = [getattr(owner, name) for owner, name in sites]
    finally:
        tracer.restore()
    assert [name for (_, name), w, o in zip(sites, wrapped, originals) if w is o] == []
    assert [getattr(owner, name) for owner, name in sites] == originals


def test_benchmark_stage_metrics_follow_the_pipeline():
    """A renamed or reordered stage would silently drop its per-layer metric."""
    bench = json.loads((TRACING.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = (re.fullmatch(r"harness\.stage\.(\w+)\.s", m["name"]) for m in bench["per_layer"])
    assert tuple(match[1] for match in names if match) == harness.STAGES
