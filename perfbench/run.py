"""Benchmark of the refscore pipeline, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload mock_full --seed 0 --seconds 20 --trace 0

Workloads are ``mock_full``, ``live_stub`` and ``cache_rerun`` (see
BENCHMARK.json), or ``all`` to run the three in turn. ``--seed`` makes the
synthetic corpus and the pipeline seed. With ``--trace 0`` the workload is
set up ``SETUP_REPS`` times, then timed passes run until ``--seconds`` have
passed, and the end-to-end metrics are medians. With ``--trace 1`` it is set
up once, then untraced and traced passes alternate until ``--seconds`` have
passed (at least ``TRACE_PAIRS`` of each); the per-layer metrics are medians
over the traced passes, and ``trace.overhead_s`` is the median traced wall
time minus the median untraced one. A workload whose timed passes run
another input than ``--seed``'s then runs that input once, untimed, as a
held-out check. Each metric is printed as ``name value unit``; the last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A failed correctness check is reported on stderr and makes the
exit code 1.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 5
TRACE_PAIRS = 2
WORKLOAD_NAMES = ("mock_full", "live_stub", "cache_rerun")


def environment(seed: int) -> dict:
    import numpy
    import requests
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "requests": requests.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


def measure(workload, seconds: float, trace: bool):
    """Set up, run the passes and return (metrics, attempted, failed, errors)."""
    from refscore.harness import STAGES
    from workloads import CONCURRENCY, MOCK_STATS
    import tracing

    setups = []
    for _ in range(1 if trace else SETUP_REPS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)

    passes, traced, layers = [], [], []
    start = time.perf_counter()
    if trace:
        # untraced and traced passes alternate, so a drift of the host's
        # speed shifts both medians alike
        de = MOCK_STATS["de"]
        while len(traced) < TRACE_PAIRS or time.perf_counter() - start < seconds:
            passes.append(workload.run_pass(len(passes) + len(traced)))
            tracer = tracing.Tracer(run_id=f"{workload.name}-seed{workload.seed}-pass{len(traced)}")
            tracer.install()
            try:
                traced.append(workload.run_pass(len(passes) + len(traced), tracer))
            finally:
                tracer.restore()
            tracer.write(WORK / f"trace-{workload.name}.jsonl", append=len(traced) > 1)
            layers.append(tracing.layer_metrics(
                tracer, STAGES, CONCURRENCY,
                de["population"] * (de["generations"] + 1), traced[-1].stub,
            ))
    else:
        while not passes or time.perf_counter() - start < seconds:
            passes.append(workload.run_pass(len(passes)))
    held_out = workload.held_out_pass()

    checked = passes + traced + ([held_out] if held_out else [])
    attempted = sum(p.tasks for p in checked)
    failed = sum(p.tasks if p.errors else p.failed_records for p in checked)
    errors = [f"pass {i}: {e}" for i, p in enumerate(checked) for e in p.errors]
    if trace:
        metrics = {
            key: (statistics.median(m[key][0] for m in layers), unit)
            for key, (_, unit) in layers[0].items()
        }
        metrics["trace.overhead_s"] = (
            statistics.median(p.wall_s for p in traced) - statistics.median(p.wall_s for p in passes),
            "s",
        )
    else:
        metrics = {
            "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
            "tasks_per_s": (statistics.median(p.tasks / p.wall_s for p in passes), "tasks/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "ok_share": ((attempted - failed) / attempted, "ratio"),
        }
    print(f"# {workload.name}: setups " + " ".join(f"{s:.3f}" for s in setups)
          + "; walls " + " ".join(f"{p.wall_s:.3f}" for p in passes)
          + ("; traced " + " ".join(f"{p.wall_s:.3f}" for p in traced) if trace else ""),
          file=sys.stderr)
    return metrics, attempted, failed, errors


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    from workloads import WORKLOADS

    work = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[name](work, seed)
    try:
        return measure(workload, seconds, trace)
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="refscore pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "refscore" / "harness.py").is_file():
        print(f"error: {SRC / 'refscore'} not found; run from a refscore checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import refscore

    if Path(refscore.__file__).resolve().parent != SRC / "refscore":
        print(f"error: imported refscore from {refscore.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print("# env " + json.dumps(environment(args.seed)))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    metrics: dict = {}
    attempted = failed = 0
    errors: list[str] = []
    for name in names:
        m, a, f, e = run_workload(name, args.seed, args.seconds, bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        for key, (value, unit) in m.items():
            print(f"{name} {key} {value:.6g} {unit}")
            metrics[prefix + key] = {"value": value, "unit": unit}
        attempted += a
        failed += f
        errors += [f"{name} {msg}" for msg in e]
    for msg in errors:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
