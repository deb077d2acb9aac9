"""Command line entry point.

One subcommand per stage of ``harness.PIPELINE``, with that stage's help
line, plus ``all``, which runs every stage in order. Shared flags override
the JSON config, so the same config file drives live and mock runs. A
failed run names the stage that failed and exits 1; a config error exits 2.
"""
from __future__ import annotations

import argparse
import sys

from .harness import PIPELINE, STAGES, load_config, run_stages


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refscore",
        description="Score journal articles with LLMs and evaluate the results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {name: stage.help for name, stage in PIPELINE.items()}
    for name, help_text in {**helps, "all": "run every stage in order"}.items():
        cmd = sub.add_parser(name, help=help_text)
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
    # one stage per call, so a failure names its stage
    for name in STAGES if args.command == "all" else (args.command,):
        try:
            manifest = run_stages(cfg, (name,))
        except Exception as exc:
            print(f"run failed during {name}: {exc}", file=sys.stderr)
            return 1
    done = ", ".join(s["name"] for s in manifest["stages"])
    print(f"ok: stages complete [{done}]; outputs in {cfg.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
