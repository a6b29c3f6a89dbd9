#!/usr/bin/env python3
"""Run every config under experiments/ and collect outputs in results/.

Each config lands in results/<config-stem>/.  All configs are sweep
configs, so everything funnels through the `sweep` subcommand; rerunning
the script reproduces every file byte for byte.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the script regenerates this checkout's results/, so it imports this
# checkout's package, installed or not
sys.path.insert(0, str(ROOT / "src"))

from echosim.cli import build_parser, dispatch  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--experiments", default=str(ROOT / "experiments"), help="config directory"
    )
    parser.add_argument(
        "--results", default=str(ROOT / "results"), help="output root"
    )
    parser.add_argument(
        "--only", default=None, help="run only configs whose stem contains this"
    )
    args = parser.parse_args()

    configs = sorted(Path(args.experiments).glob("*.json"))
    if args.only:
        configs = [c for c in configs if args.only in c.stem]
    if not configs:
        print("no configs found", file=sys.stderr)
        return 1

    cli = build_parser()
    worst = 0
    for cfg in configs:
        out_dir = Path(args.results) / cfg.stem
        print(f"== {cfg.stem} ==", file=sys.stderr)
        code = dispatch(
            cli.parse_args(["sweep", "--config", str(cfg), "--out", str(out_dir)])
        )
        if code != 0:
            print(f"{cfg.stem} exited {code}", file=sys.stderr)
            worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
