#!/usr/bin/env python3
"""Run every config under experiments/ and collect outputs in results/.

Each config lands in results/<config-stem>/.  All configs are sweep
configs, so everything funnels through the `sweep` subcommand; rerunning
the script reproduces every file byte for byte.  With --check the outputs
go to a temporary directory instead and are compared with results/ byte
for byte: the script names each file that differs, is missing or is
extra, exits 1 if there is one, and writes nothing to results/.
"""

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the script regenerates this checkout's results/, so it imports this
# checkout's package, installed or not
sys.path.insert(0, str(ROOT / "src"))

from echosim.cli import build_parser, dispatch  # noqa: E402


def run_configs(configs, out_root: Path) -> int:
    """Run each config into out_root/<stem>; the worst exit code."""
    cli = build_parser()
    worst = 0
    for cfg in configs:
        print(f"== {cfg.stem} ==", file=sys.stderr)
        code = dispatch(cli.parse_args(["sweep", "--config", str(cfg), "--out", str(out_root / cfg.stem)]))
        if code != 0:
            print(f"{cfg.stem} exited {code}", file=sys.stderr)
            worst = max(worst, code)
    return worst


def differing_files(stems, got_root: Path, want_root: Path) -> list[str]:
    """The stem/name of every file under the stems' directories that is not
    byte-identical in got_root and want_root, present in only one included."""
    bad = []
    for stem in stems:
        got, want = got_root / stem, want_root / stem
        names = {p.name for d in (got, want) if d.is_dir() for p in d.iterdir()}
        for name in sorted(names):
            a, b = got / name, want / name
            if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
                bad.append(f"{stem}/{name}")
    return bad


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--experiments", default=str(ROOT / "experiments"), help="config directory"
    )
    parser.add_argument(
        "--results", default=str(ROOT / "results"), help="output root (with --check, the root compared against)"
    )
    parser.add_argument(
        "--only", default=None, help="run only configs whose stem contains this"
    )
    parser.add_argument(
        "--check", action="store_true", help="compare fresh outputs with --results instead of writing there"
    )
    args = parser.parse_args()

    configs = sorted(Path(args.experiments).glob("*.json"))
    if args.only:
        configs = [c for c in configs if args.only in c.stem]
    if not configs:
        print("no configs found", file=sys.stderr)
        return 1

    if not args.check:
        return run_configs(configs, Path(args.results))
    with tempfile.TemporaryDirectory() as tmp:
        worst = run_configs(configs, Path(tmp))
        bad = differing_files([c.stem for c in configs], Path(tmp), Path(args.results))
    for name in bad:
        print(f"differs: {name}")
    return max(worst, 1 if bad else 0)


if __name__ == "__main__":
    sys.exit(main())
