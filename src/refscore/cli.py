"""Command line entry point.

One subcommand per pipeline stage plus ``all``. Shared flags override the
JSON config, so the same config file drives live and mock runs.
"""
from __future__ import annotations

import argparse
import sys

from .harness import STAGES, load_config, run_stages

_STAGE_HELP = {
    "ingest": "load, filter and sample articles; validate gold files",
    "prompt": "write per-article prompt dumps for audit",
    "score": "run the completion batch (live endpoints or --mock)",
    "extract": "parse raw reports into scores and flags",
    "analyze": "build the score matrix and correlation tables",
    "fuse": "fit and cross-validate fusion weights",
    "wata": "contrast report term usage between corpora",
    "violin": "render score distributions by gold level",
    "all": "run every stage in order",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refscore",
        description="Score journal articles with LLMs and evaluate the results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*STAGES, "all"):
        cmd = sub.add_parser(name, help=_STAGE_HELP[name])
        cmd.add_argument("--config", required=True, help="path to the JSON run config")
        cmd.add_argument("--seed", type=int, default=None, help="override the master seed")
        cmd.add_argument(
            "--iterations", type=int, default=None, help="override iterations per article"
        )
        cmd.add_argument(
            "--concurrency", type=int, default=None, help="override the request concurrency"
        )
        cmd.add_argument(
            "--strategy",
            choices=("zero", "few", "both"),
            default=None,
            help="restrict or widen the prompting strategies",
        )
        cmd.add_argument(
            "--mock", action="store_true", help="use the offline mock backend"
        )
        cmd.add_argument("--cache-dir", default=None, help="override the response cache directory")
        cmd.add_argument("--out", default=None, help="override the output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the override flags reach load_config by their argparse names
        cfg = load_config(args.config, vars(args))
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    stages = STAGES if args.command == "all" else (args.command,)
    try:
        manifest = run_stages(cfg, stages)
    except Exception as exc:
        print(f"run failed during {'/'.join(stages)}: {exc}", file=sys.stderr)
        return 1
    done = ", ".join(s["name"] for s in manifest["stages"])
    print(f"ok: stages complete [{done}]; outputs in {cfg.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
