"""Command line front end.

Subcommands: gen (write a population), simulate (trajectory + summary),
place (trajectory + summary + injection events), sweep (records +
per-point means; trajectory_dump configs write what simulate or place
writes instead), graph (DOT/JSON export of a snapshot).  Every run is a
pure function of the config plus flags, so rerunning a command
reproduces its output files byte for byte.

Exit codes: 0 on success, 1 on validation or usage errors, 2 on I/O
errors.  Progress goes to stderr; --quiet silences it.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import replace
from pathlib import Path

from .core import DynamicsConfig, require_int, require_member, simulate
from .graph import build_graph_arrays, export_graph
from .harness import (
    SWEEP_KEYS,
    SweepKind,
    SweepSpec,
    aggregate_means,
    dump_trajectories,
    run_population,
    run_sweep,
    write_means_csv,
    write_sweep_csv,
)
from .placement import PlacementConfig
from .popgen import (
    MixtureSpec,
    clipped_normal_mixture,
    evenly_spaced,
    read_population_csv,
    transform,
    write_population_csv,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this tool reserves 2
    # for I/O problems and reports bad usage as validation (1)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# Each subcommand's help text and the top-level keys its config may hold (a sweep
# config: its kind's SWEEP_KEYS); a population or placement key it may hold is required.
_COMMANDS = {
    "gen": ("generate a population CSV", {"population"}),
    "simulate": ("run the dynamics, write trajectory and summary", {"population", "dynamics"}),
    "place": (
        "run with agent injection, write trajectory, summary and events",
        {"population", "dynamics", "placement"},
    ),
    "sweep": ("run a parameter sweep, write records and means", None),
    "graph": ("export an influence-graph snapshot", {"population", "dynamics", "step", "format"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="echosim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config entry by dotted path (repeatable)",
        )
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def _path(name: str, text) -> Path:
    # pathlib would only say "embedded null byte" or "expected str, ...",
    # naming no path
    if not isinstance(text, str):
        raise ValueError(f"{name} {text!r} is not a string")
    if "\0" in text:
        raise ValueError(f"{name} {text!r} holds a NUL byte")
    return Path(text)


def _csv_population(path):
    return read_population_csv(_path("population path", path).read_text())


# Each population kind's builder; its parameters are the kind's keys.
_POPULATIONS = {"evenly_spaced": evenly_spaced, "mixture": MixtureSpec, "csv": _csv_population}
_TRANSFORM_KEYS = {"from", "fraction", "epsilon_new", "rng_seed"}
# The config sections every subcommand builds alike, and their builders.
_SECTIONS = {"base_mixture": MixtureSpec, "dynamics": DynamicsConfig, "placement": PlacementConfig}


def _object(section: str, cfg) -> dict:
    if not isinstance(cfg, dict):
        raise ValueError(f"{section} must be a JSON object, got {cfg!r}")
    return cfg


def _keys(section: str, cfg, allowed, required=()) -> None:
    """A config section may hold only the allowed keys and must hold the required ones."""
    unknown = sorted(set(_object(section, cfg)) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {section} keys {unknown}")
    missing = [key for key in required if key not in cfg]
    if missing:
        raise ValueError(f"{section} has no {missing[0]!r} key")


def _section(name: str, cfg, build):
    """Call build (a dataclass or a function) with the config section of
    that name: its keys are build's parameters, and each parameter
    without a default must be given."""
    params = inspect.signature(build).parameters.values()
    _keys(name, cfg, [p.name for p in params], [p.name for p in params if p.default is p.empty])
    return build(**cfg)


def _unique_keys(pairs) -> dict:
    """json object_pairs_hook: a key given twice in one object is a config
    error, where plain json.loads would keep its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _loads(text: str):
    return json.loads(text, object_pairs_hook=_unique_keys)


def _apply_overrides(cfg: dict, args) -> dict:
    for item in args.set:
        if "=" not in item:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = _loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ValueError(f"--set path {key!r} crosses a non-object entry")
        node[parts[-1]] = value
    return cfg


def _population_from_config(cfg):
    spec = dict(_object("population", cfg))
    kind = spec.pop("kind", "mixture")
    if not isinstance(kind, str) or kind not in _POPULATIONS:
        raise ValueError(f"population kind must be one of {list(_POPULATIONS)}, got {kind!r}")
    t = spec.pop("transform", {})
    pop = _section("population", spec, _POPULATIONS[kind])
    if kind == "mixture":
        pop = clipped_normal_mixture(pop)
    _keys("transform", t, _TRANSFORM_KEYS, ("from", "fraction") if t else ())
    if t:
        options = {k: v for k, v in t.items() if k not in ("from", "fraction")}
        pop = transform(pop, t["from"], t["fraction"], **options)
    return pop


def _run_command(command: str, cfg: dict) -> dict:
    """Build everything from the config and return filename -> text."""
    if command == "sweep":
        kind = require_member("kind", cfg.get("kind"), SweepKind)
        needs, takes = SWEEP_KEYS[kind]
        _keys(kind.value, cfg, {"kind", "dynamics", *needs, *takes})
    else:
        allowed = _COMMANDS[command][1]
        _keys(f"{command} config", cfg, allowed)
        missing = [key for key in ("population", "placement") if key in allowed and key not in cfg]
        if missing:
            raise ValueError(f"{command} config has no {missing[0]!r} section")
    built = {key: _section(key, cfg[key], cls) for key, cls in _SECTIONS.items() if key in cfg}
    if command == "sweep":
        spec = SweepSpec(**{k: v for k, v in cfg.items() if k not in built}, **built)
        if spec.kind is SweepKind.TRAJECTORY_DUMP:
            return dump_trajectories(spec)
        records = run_sweep(spec)
        return {"sweep.csv": write_sweep_csv(records), "means.csv": write_means_csv(aggregate_means(records))}
    pop = _population_from_config(cfg["population"])
    if command == "gen":
        return {"population.csv": write_population_csv(pop)}
    dyn = built.get("dynamics", DynamicsConfig())
    if command in ("simulate", "place"):
        return run_population(pop, dyn, built.get("placement"))
    # graph: the snapshot at the configured step
    step = cfg.get("step", 0)
    require_int("step", step)
    fmt = cfg.get("format", "dot")
    if fmt not in ("dot", "json"):
        raise ValueError(f"unknown export format {fmt!r}")
    # a run that settles before the step exports its last profile,
    # labelled with the step it was reached at
    traj = [pop.opinions]
    if step > 0:
        traj = simulate(pop, replace(dyn, max_steps=min(step, dyn.max_steps))).trajectory
    g = build_graph_arrays(traj[-1], pop.epsilons, len(traj) - 1)
    return {f"graph.{fmt}": export_graph(g, fmt)}


_WRITE_SLICE = 1 << 20  # characters per write: at most 1 MiB of text


def dispatch(args) -> int:
    # all outputs are built before --out is made: a bad config writes nothing
    try:
        cfg = _object("config", _loads(_path("--config", args.config).read_text()))
        outputs = _run_command(args.command, _apply_overrides(cfg, args))
        out_dir = _path("--out", args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, payload in outputs.items():
            path = out_dir / name
            # open() encodes as Path.write_text does, a slice at a time,
            # so no second full-size copy of the payload is made
            with open(path, "w") as out:
                for k in range(0, len(payload), _WRITE_SLICE):
                    out.write(payload[k : k + _WRITE_SLICE])
            if not args.quiet:
                print(f"wrote {path}", file=sys.stderr)
    except OSError as exc:
        print(f"echosim: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"echosim: invalid config: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    sys.exit(dispatch(args))


if __name__ == "__main__":
    main()
