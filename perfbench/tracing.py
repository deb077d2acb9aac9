"""Span tracer for the benchmark's traced run, and the per-layer metrics.

The tracer wraps refscore functions at the names the calling module looks
up. Modules import with ``from .x import y``, so each import site is
patched separately; patching only the defining module would miss calls.
Every wrapped call records one span ``(id, name, start, end, parent)`` in
memory. A span's parent is the innermost open span of its thread; spans in
``run_batch`` worker threads, whose stacks start empty, take the open
``run_batch`` span as parent.
"""
from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

CORPUS_FUNCS = ("load_articles", "filter_eligible", "sample_per_uoa", "load_gold_csv", "load_fewshot_pool")
HARNESS_SITES = {
    "stats": ("correlate",),
    "fusion": ("fusion_row",),
    "extract": ("analyze_report",),
    "wata": ("tokenize", "compare", "kwic"),
    "prompts": ("build_zero_shot_user", "build_few_shot_user", "select_fewshot", "compose_messages"),
    "violin": ("violin_summary", "emit_violin_svg"),
    "corpus": CORPUS_FUNCS,
}
SUBSTREAM_SITES = ("stats", "fusion", "prompts", "wata", "gateway", "corpus")


class Tracer:
    """In-memory spans and per-call facts; patches are undone by :meth:`restore`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.facts: dict[str, list] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool_parent: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, observe=None, pool=False, **kwargs):
        """Run ``fn`` inside a span; ``observe(result, args)`` adds a fact."""
        stack = self._stack()
        parent = stack[-1] if stack else self._pool_parent
        span_id = next(self._ids)
        stack.append(span_id)
        if pool:
            outer_pool, self._pool_parent = self._pool_parent, span_id
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if pool:
                self._pool_parent = outer_pool
            self.spans.append((span_id, name, start, end, parent))
        if observe is not None:
            self.facts[name].append(observe(result, args))
        return result

    def patch(self, owner, attr: str, name: str, observe=None, pool=False) -> None:
        original = getattr(owner, attr)
        if observe is not None:
            # created up front: worker threads then only append
            self.facts[name] = []

        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, observe=observe, pool=pool, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every measured layer boundary of the refscore package."""
        from refscore import fusion, gateway, harness, stats, util
        import refscore

        for layer, funcs in HARNESS_SITES.items():
            for func in funcs:
                self.patch(harness, func, f"{layer}.{func}", observe=_OBSERVERS.get(func))
        self.patch(harness, "run_batch", "gateway.run_batch", pool=True)
        self.patch(stats, "midranks", "stats.midranks")
        self.patch(stats, "bootstrap_ci", "stats.bootstrap_ci")
        self.patch(fusion, "midranks", "fusion.midranks")
        self.patch(fusion, "de_optimize", "fusion.de_optimize")
        self.patch(gateway, "cache_key", "gateway.cache_key")
        self.patch(gateway.ResponseCache, "load", "gateway.cache.load", observe=_hit)
        self.patch(gateway.ResponseCache, "store", "gateway.cache.store")
        for backend in (gateway.HttpBackend, gateway.MockBackend):
            self.patch(backend, "complete_task", "gateway.backend", observe=_attempts)
        self.patch(util, "atomic_write_bytes", "util.atomic_write_bytes", observe=_bytes_written)
        for site in SUBSTREAM_SITES:
            self.patch(getattr(refscore, site), "substream", f"util.substream@{site}")

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path, append: bool = False) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a" if append else "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": span_id, "name": name,
                    "start": start, "end": end, "parent": parent,
                }) + "\n")


def _hit(result, args):
    return result is not None


def _attempts(result, args):
    return result[1]


def _bytes_written(result, args):
    return len(args[1])


def _has_score(result, args):
    return result.effective is not None


_OBSERVERS = {"analyze_report": _has_score}


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def _percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, stages, concurrency: int, de_evals_per_fit: int, stub: dict | None) -> dict:
    """Per-layer metrics of one traced pass, in the benchmark's units.

    ``stages`` lists every pipeline stage; stages the workload does not run
    report 0 s. ``de_evals_per_fit`` is population x (generations + 1).
    """
    by_name: dict[str, list[tuple[int, float, float, int | None]]] = defaultdict(list)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    parent_of_name: dict[int, str] = {}
    for span_id, name, start, end, parent in tracer.spans:
        by_name[name].append((span_id, start, end, parent))
        parent_of_name[span_id] = name
        if parent is not None:
            children[parent].append((start, end))

    def seconds(*names) -> float:
        return sum(end - start for n in names for _, start, end, _ in by_name[n])

    def calls(*names) -> int:
        return sum(len(by_name[n]) for n in names)

    m: dict[str, tuple[float, str]] = {}
    self_s = 0.0
    for stage in stages:
        spans = by_name[f"harness.stage.{stage}"]
        m[f"harness.stage.{stage}.s"] = (seconds(f"harness.stage.{stage}"), "s")
        for span_id, start, end, _ in spans:
            self_s += (end - start) - _covered(children[span_id], start, end)
    m["harness.self_s"] = (self_s, "s")
    m["corpus.s"] = (seconds(*(f"corpus.{f}" for f in CORPUS_FUNCS)), "s")

    builds = ("prompts.build_zero_shot_user", "prompts.build_few_shot_user")
    m["prompts.build_user.calls"] = (calls(*builds), "count")
    m["prompts.select_fewshot.s"] = (seconds("prompts.select_fewshot"), "s")
    m["prompts.build.s"] = (seconds(*builds, "prompts.compose_messages"), "s")

    batch_s = seconds("gateway.run_batch")
    hits = tracer.facts["gateway.cache.load"]
    backend_ms = [1000.0 * (end - start) for _, start, end, _ in by_name["gateway.backend"]]
    worker_s = seconds("gateway.backend", "gateway.cache.load", "gateway.cache.store")
    m["gateway.run_batch.s"] = (batch_s, "s")
    m["gateway.cache_key.calls"] = (calls("gateway.cache_key"), "count")
    m["gateway.cache_key.s"] = (seconds("gateway.cache_key"), "s")
    m["gateway.cache.load.calls"] = (len(hits), "count")
    m["gateway.cache.load.s"] = (seconds("gateway.cache.load"), "s")
    m["gateway.cache.hit_ratio"] = (sum(hits) / len(hits) if hits else 0.0, "ratio")
    m["gateway.cache.store.calls"] = (calls("gateway.cache.store"), "count")
    m["gateway.cache.store.s"] = (seconds("gateway.cache.store"), "s")
    m["gateway.backend.calls"] = (len(backend_ms), "count")
    m["gateway.backend.ms_p50"] = (statistics.median(backend_ms) if backend_ms else 0.0, "ms")
    m["gateway.backend.ms_p99"] = (_percentile(backend_ms, 0.99), "ms")
    m["gateway.retries"] = (sum(a - 1 for a in tracer.facts["gateway.backend"]), "count")
    m["gateway.worker_busy_share"] = (
        worker_s / (concurrency * batch_s) if batch_s else 0.0, "ratio"
    )

    stub = stub or {"requests": 0, "connections": 0}
    m["stub.requests"] = (stub["requests"], "count")
    m["stub.connections"] = (stub["connections"], "count")
    m["stub.requests_per_connection"] = (
        stub["requests"] / stub["connections"] if stub["connections"] else 0.0, "ratio"
    )

    scored = tracer.facts["extract.analyze_report"]
    m["extract.analyze_report.calls"] = (len(scored), "count")
    m["extract.analyze_report.s"] = (seconds("extract.analyze_report"), "s")
    m["extract.with_score_ratio"] = (sum(scored) / len(scored) if scored else 0.0, "ratio")

    m["stats.correlate.calls"] = (calls("stats.correlate"), "count")
    m["stats.bootstrap_ci.s"] = (seconds("stats.bootstrap_ci"), "s")
    m["stats.midranks.calls"] = (calls("stats.midranks"), "count")
    m["stats.midranks.s"] = (seconds("stats.midranks"), "s")

    fits = calls("fusion.de_optimize")
    in_de = sum(
        1 for _, _, _, parent in by_name["fusion.midranks"]
        if parent is not None and parent_of_name.get(parent) == "fusion.de_optimize"
    )
    m["fusion.fusion_row.s"] = (seconds("fusion.fusion_row"), "s")
    m["fusion.de_optimize.calls"] = (fits, "count")
    m["fusion.de_optimize.s"] = (seconds("fusion.de_optimize"), "s")
    m["fusion.midranks.calls"] = (calls("fusion.midranks"), "count")
    # each fit ranks its gold vector once; every other call is the tie fallback
    m["fusion.tie_fallback_share"] = (
        (in_de - fits) / (fits * de_evals_per_fit) if fits else 0.0, "ratio"
    )

    m["wata.tokenize.calls"] = (calls("wata.tokenize"), "count")
    m["wata.tokenize.s"] = (seconds("wata.tokenize"), "s")
    m["wata.compare.s"] = (seconds("wata.compare"), "s")
    m["wata.kwic.calls"] = (calls("wata.kwic"), "count")
    m["wata.kwic.s"] = (seconds("wata.kwic"), "s")
    m["violin.s"] = (seconds("violin.violin_summary", "violin.emit_violin_svg"), "s")

    substreams = [f"util.substream@{site}" for site in SUBSTREAM_SITES]
    m["util.substream.calls"] = (calls(*substreams), "count")
    m["util.substream.s"] = (seconds(*substreams), "s")
    m["util.atomic_write.calls"] = (calls("util.atomic_write_bytes"), "count")
    m["util.atomic_write.s"] = (seconds("util.atomic_write_bytes"), "s")
    m["util.bytes_written"] = (sum(tracer.facts["util.atomic_write_bytes"]), "bytes")
    return m
