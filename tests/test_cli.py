"""End-to-end tests for the command line interface."""

import copy
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import echosim
from echosim import harness
from echosim.cli import build_parser, dispatch, main
from echosim.core import DynamicsConfig, simulate, write_trajectory_csv
from echosim.graph import build_graph_arrays, export_graph
from echosim.harness import SWEEP_KEYS, SweepKind, SweepSpec, run_sweep, write_sweep_csv
from echosim.placement import PlacementConfig, Strategy, run_with_placement
from echosim.popgen import MixtureSpec, clipped_normal_mixture


def run_cli(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


SPACED3 = {"population": {"kind": "evenly_spaced", "n": 3, "epsilon": 0.5}}
MIX = {
    "population": {
        "kind": "mixture",
        "n": 20,
        "fractions": {"close": 0.5, "open": 0.5},
        "rng_seed": 0,
    }
}
HALF10 = {"n": 10, "fractions": {"close": 0.5, "open": 0.5}}
HALF60 = {"n": 60, "fractions": {"close": 0.5, "open": 0.5}, "rng_seed": 3}


@pytest.fixture
def runs(monkeypatch):
    """The harness's simulate and run_with_placement calls, by name, in call order."""
    calls = []
    for name in ("simulate", "run_with_placement"):
        run = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *args, name=name, run=run: calls.append(name) or run(*args))
    return calls


class TestGen:
    def test_writes_population_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, MIX)
        assert run_cli(["gen", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        lines = (tmp_path / "population.csv").read_text().splitlines()
        assert lines[0] == "agent_id,opinion,epsilon,mindedness,injected"
        assert len(lines) == 21

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, MIX)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli(["gen", "--config", cfg, "--out", str(out_a), "--quiet"])
        run_cli(["gen", "--config", cfg, "--out", str(out_b), "--quiet"])
        assert (out_a / "population.csv").read_bytes() == (out_b / "population.csv").read_bytes()

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = write_cfg(tmp_path, MIX)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli(["gen", "--config", cfg, "--out", str(out_a), "--quiet"])
        run_cli(["gen", "--config", cfg, "--out", str(out_b), "--set", "population.rng_seed=7", "--quiet"])
        assert (out_a / "population.csv").read_text() != (out_b / "population.csv").read_text()

    def test_csv_kind_round_trips(self, tmp_path):
        cfg = write_cfg(tmp_path, MIX)
        run_cli(["gen", "--config", cfg, "--out", str(tmp_path), "--quiet"])
        csv_cfg = write_cfg(
            tmp_path,
            {"population": {"kind": "csv", "path": str(tmp_path / "population.csv")}},
            name="from_csv.json",
        )
        out = tmp_path / "again"
        assert run_cli(["gen", "--config", csv_cfg, "--out", str(out), "--quiet"]) == 0
        assert (out / "population.csv").read_text() == (tmp_path / "population.csv").read_text()

    def test_transform_applied(self, tmp_path):
        cfg = dict(MIX)
        cfg["population"] = dict(MIX["population"])
        cfg["population"]["transform"] = {"from": "close", "fraction": 1.0}
        path = write_cfg(tmp_path, cfg)
        run_cli(["gen", "--config", path, "--out", str(tmp_path), "--quiet"])
        text = (tmp_path / "population.csv").read_text()
        assert "close" not in text


class TestSimulate:
    def test_three_agent_summary(self, tmp_path):
        cfg = write_cfg(tmp_path, SPACED3)
        assert run_cli(["simulate", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        assert (tmp_path / "summary.csv").read_text() == "n,t_eqm,converged,c_eqm\n3,2,true,1\n"
        traj = (tmp_path / "trajectory.csv").read_text().splitlines()
        # t_eqm + 2 profiles, 3 agents each
        assert len(traj) == 1 + 3 * 4

    def test_set_override_caps_steps(self, tmp_path):
        cfg = write_cfg(tmp_path, SPACED3)
        assert (
            run_cli(
                [
                    "simulate",
                    "--config",
                    cfg,
                    "--out",
                    str(tmp_path),
                    "--set",
                    "dynamics.max_steps=1",
                    "--quiet",
                ]
            )
            == 0
        )
        assert (tmp_path / "summary.csv").read_text() == "n,t_eqm,converged,c_eqm\n3,1,false,3\n"

    def test_progress_goes_to_stderr(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SPACED3)
        run_cli(["simulate", "--config", cfg, "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert "wrote" in captured.err
        assert captured.out == ""

    def test_quiet_silences_progress(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SPACED3)
        run_cli(["simulate", "--config", cfg, "--out", str(tmp_path), "--quiet"])
        assert capsys.readouterr().err == ""


class TestPlace:
    def test_budget_zero_header_only(self, tmp_path):
        cfg = write_cfg(tmp_path, {**SPACED3, "placement": {"budget": 0}})
        assert run_cli(["place", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        events = (tmp_path / "events.csv").read_text().splitlines()
        assert events == ["time,opinion,requested_opinion,count,anchor_agent,side,clamped"]

    def test_converging_pair_emits_two_events(self, tmp_path):
        # two opens at 0.3/0.7 qualify once; later profiles have balanced
        # pulls, so exactly one left and one right injection happen
        pop_csv = tmp_path / "pair.csv"
        pop_csv.write_text(
            "agent_id,opinion,epsilon,mindedness,injected\n"
            "0,0.3,0.45,open,false\n"
            "1,0.7,0.45,open,false\n"
        )
        cfg = write_cfg(
            tmp_path,
            {
                "population": {"kind": "csv", "path": str(pop_csv)},
                "placement": {"budget": 3},
            },
        )
        assert run_cli(["place", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        events = (tmp_path / "events.csv").read_text().splitlines()
        assert len(events) == 3
        # requested opinions carry FP noise (0.3 - 0.45, 0.7 + 0.45)
        assert events[1] == "0,0.0,-0.15000000000000002,1,0,left,true"
        assert events[2] == "0,1.0,1.15,1,1,right,true"

    def test_injected_ids_follow_sparse_csv_ids(self, tmp_path):
        pop_csv = tmp_path / "sparse.csv"
        pop_csv.write_text(
            "agent_id,opinion,epsilon,mindedness,injected\n"
            + "".join(f"{i},{x},0.45,open,false\n" for i, x in [(0, 0.2), (2, 0.4), (5, 0.6), (7, 0.8)])
        )
        cfg = write_cfg(
            tmp_path,
            {
                "population": {"kind": "csv", "path": str(pop_csv)},
                "placement": {"budget": 2, "strategy": "random_at_start"},
            },
        )
        assert run_cli(["place", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:7]
        assert [row.split(",")[1] for row in rows] == ["0", "2", "5", "7", "8", "9"]

    def test_events_name_anchors_by_agent_id(self, tmp_path):
        # a mixture written with ids 1000 + 3k: events.csv names the two
        # anchors (roster positions 7 and 70) by the ids trajectory.csv uses
        cfg = write_cfg(tmp_path, {"population": {**MIX["population"], "n": 200}})
        assert run_cli(["gen", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        header, *rows = (tmp_path / "population.csv").read_text().splitlines()
        pop_csv = tmp_path / "ids.csv"
        pop_csv.write_text(header + "\n" + "".join(f"{1000 + 3 * k},{row.split(',', 1)[1]}\n" for k, row in enumerate(rows)))
        cfg = write_cfg(tmp_path, {"population": {"kind": "csv", "path": str(pop_csv)}, "placement": {"budget": 20}})
        assert run_cli(["place", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        events = (tmp_path / "events.csv").read_text().splitlines()[1:]
        assert [row.split(",")[4] for row in events] == ["1021", "1210"]
        agents = {row.split(",")[1] for row in (tmp_path / "trajectory.csv").read_text().splitlines()[1:]}
        assert {"1021", "1210"} <= agents

    def test_trajectory_includes_injected_rows(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {**MIX, "placement": {"budget": 4, "strategy": "random_at_start"}},
        )
        run_cli(["place", "--config", cfg, "--out", str(tmp_path), "--quiet"])
        first = (tmp_path / "trajectory.csv").read_text().splitlines()[1:25]
        assert sum(1 for line in first if line.startswith("0,")) == 24

    def test_summary_matches_the_intelligent_sweep_record(self, tmp_path):
        # the same mixture and budget as one placement_compare cell: the
        # summary reports the record's outcome, and n counts the injected
        cfg = write_cfg(tmp_path, {"population": HALF60, "placement": {"budget": 6}})
        assert run_cli(["place", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        n, *outcome = (tmp_path / "summary.csv").read_text().splitlines()[1].split(",")
        spec = SweepSpec("placement_compare", [0.1], [60], MixtureSpec(**HALF60), runs=1)
        record = run_sweep(spec)[0]
        assert record.strategy is Strategy.INTELLIGENT and record.budget_spent > 0
        assert outcome == write_sweep_csv([record]).splitlines()[1].split(",")[-3:]
        assert int(n) == 60 + record.budget_spent

    def test_summary_of_a_run_cut_at_max_steps(self, tmp_path):
        # two agents injected at t = 1, then cut off unsettled at t = 2
        cfg = write_cfg(tmp_path, {"population": HALF60, "placement": {"budget": 6}, "dynamics": {"max_steps": 2}})
        assert run_cli(["place", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        assert (tmp_path / "summary.csv").read_text() == "n,t_eqm,converged,c_eqm\n62,2,false,22\n"


class TestSweep:
    def test_epsilon_sweep_row_counts(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "kind": "epsilon_sweep",
                "grid": [0.05, 0.3],
                "population_sizes": [10, 20],
                "runs": 2,
            },
        )
        assert run_cli(["sweep", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        sweep = (tmp_path / "sweep.csv").read_text().splitlines()
        means = (tmp_path / "means.csv").read_text().splitlines()
        assert len(sweep) == 1 + 2 * 2 * 2
        assert len(means) == 1 + 2 * 2

    def test_largest_float_epsilon_sweeps_as_one_without_warnings(self, tmp_path, capsys):
        # a valid epsilon past 1 sees every agent, as 1.0 does; numpy
        # warnings are errors in this suite, and stderr stays empty
        cfg = write_cfg(
            tmp_path,
            {"kind": "epsilon_sweep", "grid": [1.0, 1.7976931348623157e308], "population_sizes": [10], "runs": 1},
        )
        assert run_cli(["sweep", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        for name in ("sweep.csv", "means.csv"):
            # the two rows differ only in their point column
            one, huge = (line.split(",") for line in (tmp_path / name).read_text().splitlines()[1:])
            assert one[:1] + one[2:] == huge[:1] + huge[2:], name

    def test_trajectory_dump_config(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "kind": "trajectory_dump",
                "base_mixture": {"n": 10, "fractions": {"open": 1.0}, "rng_seed": 0},
            },
        )
        assert run_cli(["sweep", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        assert (tmp_path / "trajectory.csv").exists()
        assert not (tmp_path / "sweep.csv").exists()

    def test_trajectory_dump_with_placement_matches_place(self, tmp_path):
        # a budget-0 placement section still writes events.csv, the same
        # files as place on the same population
        mixture = {"n": 20, "fractions": {"close": 0.5, "open": 0.5}, "rng_seed": 3}
        placement = {"budget": 0}
        dump = write_cfg(
            tmp_path,
            {"kind": "trajectory_dump", "base_mixture": mixture, "placement": placement},
            "dump.json",
        )
        place = write_cfg(tmp_path, {"population": mixture, "placement": placement}, "place.json")
        assert run_cli(["sweep", "--config", dump, "--out", str(tmp_path / "dump"), "--quiet"]) == 0
        assert run_cli(["place", "--config", place, "--out", str(tmp_path / "place"), "--quiet"]) == 0
        for name in ("trajectory.csv", "summary.csv", "events.csv"):
            assert (tmp_path / "dump" / name).read_bytes() == (tmp_path / "place" / name).read_bytes()
        assert (tmp_path / "dump" / "events.csv").read_text().count("\n") == 1


class TestGraph:
    def test_dot_export(self, tmp_path):
        cfg = write_cfg(tmp_path, SPACED3)
        assert run_cli(["graph", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        dot = (tmp_path / "graph.dot").read_text()
        assert '0 [label="0|0.0|open"];' in dot
        assert "0 -> 1;" in dot
        assert "0 -> 2;" not in dot  # distance 1.0 exceeds eps 0.5

    def test_json_export_after_steps(self, tmp_path):
        cfg = write_cfg(tmp_path, {**SPACED3, "format": "json", "step": 2})
        run_cli(["graph", "--config", cfg, "--out", str(tmp_path), "--quiet"])
        payload = json.loads((tmp_path / "graph.json").read_text())
        assert payload["n"] == 3
        assert payload["t"] == 2
        # consensus profile: everyone is everyone's neighbor
        assert len(payload["edges"]) == 9


    def test_unsettled_run_stops_at_max_steps(self, tmp_path):
        # the run does not settle in 3 steps, so step 50 exports the t = 3
        # profile, the last one max_steps lets the run reach
        cfg = write_cfg(
            tmp_path,
            {
                "population": {"kind": "evenly_spaced", "n": 20, "epsilon": 0.2},
                "dynamics": {"max_steps": 3},
                "format": "json",
                "step": 50,
            },
        )
        assert run_cli(["graph", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        assert json.loads((tmp_path / "graph.json").read_text())["t"] == 3

    def test_settled_run_labels_the_step_it_reached(self, tmp_path):
        # the run settles at t_eqm 7, so step 500 exports the t = 8 profile
        cfg = write_cfg(
            tmp_path,
            {"population": {"kind": "evenly_spaced", "n": 20, "epsilon": 0.2}, "format": "json", "step": 500},
        )
        assert run_cli(["graph", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        assert json.loads((tmp_path / "graph.json").read_text())["t"] == 8


@pytest.mark.parametrize(
    "command, cfg, name",
    [
        pytest.param("graph", {"population": HALF60, "format": "dot"}, "graph.dot", id="graph-dot"),
        pytest.param("graph", {"population": HALF60, "format": "json"}, "graph.json", id="graph-json"),
        pytest.param("graph", {"population": HALF60, "format": "dot", "step": 500}, "graph.dot", id="graph-dot-settled"),
        pytest.param(
            "graph", {"population": HALF60, "format": "json", "step": 500}, "graph.json", id="graph-json-settled"
        ),
        pytest.param("simulate", {"population": HALF60}, "trajectory.csv", id="simulate"),
        pytest.param("place", {"population": HALF60, "placement": {"budget": 20}}, "trajectory.csv", id="place"),
        pytest.param(
            "sweep",
            {"kind": "trajectory_dump", "base_mixture": HALF60, "placement": {"budget": 20}},
            "trajectory.csv",
            id="trajectory_dump",
        ),
    ],
)
def test_cli_writes_the_library_texts(tmp_path, command, cfg, name):
    # the CLI streams each file; its bytes are the library's one-str text
    pop = clipped_normal_mixture(MixtureSpec(**HALF60))
    dyn = DynamicsConfig()
    if command == "graph":
        traj = simulate(pop, dyn).trajectory
        assert len(traj) - 1 < 500  # the run settles before step 500
        traj = traj[: cfg.get("step", 0) + 1]
        want = export_graph(build_graph_arrays(traj[-1], pop.epsilons, len(traj) - 1), cfg["format"])
    else:
        place = cfg.get("placement")
        result = run_with_placement(pop, dyn, PlacementConfig(**place))[0] if place else simulate(pop, dyn)
        assert place is None or result.agents.n > pop.n
        want = write_trajectory_csv(result.trajectory, result.agents)
    path = write_cfg(tmp_path, cfg)
    assert run_cli([command, "--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert (tmp_path / "out" / name).read_bytes() == want.encode()


@pytest.mark.parametrize(
    "command, cfg, name, bound",
    [
        # the 6.3 MB JSON export of an n = 600 mixture: 1.34 x before
        # it was streamed, 0.10 x streamed
        pytest.param(
            "graph",
            {"population": {"n": 600, "fractions": {"close": 0.5, "open": 0.5}, "rng_seed": 1}, "format": "json"},
            "graph.json",
            0.5,
            id="graph-json",
        ),
        # the trajectories (1.2 and 1.6 MB) of n = 2000 runs: 3.7-3.8 x
        # before they were streamed, 0.82 and 0.67 x streamed
        pytest.param(
            "simulate",
            {"population": {"n": 2000, "fractions": {"close": 0.8, "open": 0.2}, "rng_seed": 0}},
            "trajectory.csv",
            1.5,
            id="simulate",
        ),
        pytest.param(
            "place",
            {
                "population": {"n": 2000, "fractions": {"close": 0.5, "open": 0.5}, "rng_seed": 0},
                "placement": {"budget": 200},
            },
            "trajectory.csv",
            1.5,
            id="place",
        ),
    ],
)
def test_dispatch_peak_memory_streams_the_file(tmp_path, command, cfg, name, bound):
    # dispatch writes each file a chunk at a time (a graph line, a
    # trajectory profile), so its traced peak is the run's, not the file's
    path = write_cfg(tmp_path, cfg)
    args = build_parser().parse_args([command, "--config", path, "--out", str(tmp_path), "--quiet"])
    tracemalloc.start()
    try:
        assert dispatch(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / name).stat().st_size
    assert size > 1_000_000
    assert peak <= bound * size, f"peak {peak / size:.2f} x the {size / 1e6:.1f} MB file"


class TestExitCodes:
    def test_missing_config_is_io_error(self, tmp_path):
        assert run_cli(["gen", "--config", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json_is_validation_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli(["gen", "--config", str(path)]) == 1

    def test_unknown_population_kind(self, tmp_path):
        cfg = write_cfg(tmp_path, {"population": {"kind": "bogus"}})
        assert run_cli(["gen", "--config", cfg, "--quiet"]) == 1

    def test_bad_set_syntax(self, tmp_path):
        cfg = write_cfg(tmp_path, SPACED3)
        assert run_cli(["simulate", "--config", cfg, "--set", "delta", "--quiet"]) == 1

    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate", "--config", "x.json"]) == 1
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert run_cli(["gen"]) == 1
        capsys.readouterr()

    def test_nan_epsilon_rejected(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"population": {"kind": "evenly_spaced", "n": 5, "epsilon": NaN}}')
        assert run_cli(["gen", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 1
        assert "epsilon must be finite" in capsys.readouterr().err
        assert not (tmp_path / "population.csv").exists()

    def test_unknown_population_key_rejected(self, tmp_path, capsys):
        cfg = {"population": {**MIX["population"], "rng_sed": 7}}
        path = write_cfg(tmp_path, cfg)
        assert run_cli(["gen", "--config", path, "--out", str(tmp_path), "--quiet"]) == 1
        assert "rng_sed" in capsys.readouterr().err

    def test_unknown_sweep_key_rejected(self, tmp_path, capsys):
        cfg = {"kind": "epsilon_sweep", "grid": [0.3], "population_sizes": [10], "run": 2}
        path = write_cfg(tmp_path, cfg)
        assert run_cli(["sweep", "--config", path, "--out", str(tmp_path), "--quiet"]) == 1
        assert "'run'" in capsys.readouterr().err

    def test_negative_graph_step_rejected(self, tmp_path, capsys):
        # and a step past int64, like every integer key
        for step in (-1, 2**63):
            path = write_cfg(tmp_path, {**SPACED3, "step": step})
            assert run_cli(["graph", "--config", path, "--out", str(tmp_path), "--quiet"]) == 1
            assert "step must be" in capsys.readouterr().err

    def test_unknown_graph_format_rejected_before_the_run(self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("graph ran the dynamics before checking format")

        monkeypatch.setattr(echosim.cli, "simulate", no_run)
        path = write_cfg(tmp_path, {**SPACED3, "format": "png", "step": 500})
        assert run_cli(["graph", "--config", path, "--out", str(tmp_path), "--quiet"]) == 1
        assert "unknown export format 'png'" in capsys.readouterr().err
        assert not list(tmp_path.glob("graph.*"))

    @pytest.mark.parametrize(
        "command, cfg",
        [
            ("gen", {**MIX, "populaton": {}}),
            ("simulate", {**SPACED3, "dynamcis": {"max_steps": 1}}),
            ("place", {**SPACED3, "placement": {"budget": 1}, "placment": {"budget": 9}}),
            ("graph", {**SPACED3, "fromat": "json"}),
        ],
    )
    def test_unknown_top_level_key_rejected(self, tmp_path, capsys, command, cfg):
        path = write_cfg(tmp_path, cfg)
        assert run_cli([command, "--config", path, "--out", str(tmp_path), "--quiet"]) == 1
        typo = (set(cfg) - {"population", "placement"}).pop()
        assert repr(typo) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    @pytest.mark.parametrize(
        "section, values",
        [
            ("dynamics", {"delta": float("nan")}),
            ("dynamics", {"w_own": float("nan")}),
            ("dynamics", {"cluster_tol": float("inf")}),
            ("dynamics", {"max_steps": True}),
            ("dynamics", {"max_steps": 2.5}),
            ("placement", {"budget": True}),
            ("placement", {"epsilon_new": float("nan")}),
            ("placement", {"rng_seed": -1}),
            # past int64; a budget under the bound would start a huge allocation
            ("placement", {"budget": 2**70}),
            ("placement", {"budget": 2**63}),
            ("placement", {"rng_seed": 2**63}),
            ("dynamics", {"max_steps": 2**63}),
            ("dynamics", {"cluster_tol": 10**400}),
        ],
    )
    def test_strict_numbers_rejected(self, tmp_path, capsys, section, values):
        cfg = {**SPACED3, "dynamics": {}, "placement": {"budget": 1}}
        cfg[section] = {**cfg[section], **values}
        path = write_cfg(tmp_path, cfg)
        assert run_cli(["place", "--config", path, "--out", str(tmp_path), "--quiet"]) == 1
        (name,) = values
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, cfg, name",
        [
            ("gen", {"population": {**SPACED3["population"], "n": 5.7}}, "n"),
            ("gen", {"population": {**MIX["population"], "n": 20.5}}, "n"),
            ("graph", {**SPACED3, "step": 1.9}, "step"),
            ("graph", {**SPACED3, "step": True}, "step"),
            ("gen", {"population": {**MIX["population"], "rng_seed": True}}, "rng_seed"),
            (
                "gen",
                {"population": {**MIX["population"], "transform": {"from": "close", "fraction": 0.5, "rng_seed": 1.5}}},
                "rng_seed",
            ),
            ("place", {**SPACED3, "placement": {"budget": 1, "rng_seed": True}}, "rng_seed"),
        ],
    )
    def test_integer_fields_not_truncated(self, tmp_path, capsys, command, cfg, name):
        path = write_cfg(tmp_path, cfg)
        assert run_cli([command, "--config", path, "--out", str(tmp_path), "--quiet"]) == 1
        assert f"{name} must be an integer" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    @pytest.mark.parametrize(
        "values, name",
        [
            ({"sd": float("inf")}, "sd"),
            ({"sd": True}, "sd"),
            ({"mean": float("nan")}, "mean"),
            ({"fractions": {"open": True}}, "fractions.open"),
            ({"fractions": {"open": 1.0}, "epsilons": {"open": True}}, "epsilons.open"),
            ({"kind": ["mixture"]}, "kind"),
            ({"fractions": {"close": 1.0}, "epsilons": {"close": 0.45}}, "epsilons.close"),
            ({"fractions": {"close": 1.0}, "epsilons": {"close": -0.1}}, "epsilons.close"),
            ({"rng_seed": -1}, "rng_seed"),
            ({"transform": {"from": "close", "fraction": 0.0, "rng_seed": -3}}, "rng_seed"),
            ({"transform": {"from": "close", "fraction": 0.0, "epsilon_new": -0.2}}, "epsilon_new"),
            # past int64 ids; a value under the bound would start a huge allocation
            ({"n": 10**400}, "n"),
            ({"n": 2**70}, "n"),
            ({"n": 2**63}, "n"),
            ({"rng_seed": 2**63}, "rng_seed"),
            ({"n": 1, "opinion_dist": "evenly_spaced"}, "n"),
        ],
    )
    def test_mixture_numbers_strict(self, tmp_path, capsys, values, name):
        cfg = {"population": {"kind": "mixture", "n": 5, "fractions": {"close": 0.5, "open": 0.5}, **values}}
        path = write_cfg(tmp_path, cfg)
        assert run_cli(["gen", "--config", path, "--out", str(tmp_path), "--quiet"]) == 1
        assert f"{name} must be" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    @pytest.mark.parametrize(
        "values, name",
        [
            ({"runs": True}, "runs"),
            ({"population_sizes": [10.5]}, "population_sizes"),
            ({"grid": [True]}, "grid"),
            (
                {
                    "kind": "transform_sweep",
                    "base_mixture": {"n": 10, "fractions": {"close": 0.5, "open": 0.5}},
                    "transform_from": "close",
                    "epsilon_new": True,
                },
                "epsilon_new",
            ),
            ({"grid": 0.3}, "grid"),
            ({"population_sizes": 10}, "population_sizes"),
            (
                {
                    "kind": "transform_sweep",
                    "grid": [0.0],
                    "base_mixture": {"n": 10, "fractions": {"close": 0.5, "open": 0.5}},
                    "transform_from": "close",
                    "epsilon_new": -0.5,
                },
                "epsilon_new",
            ),
            ({"runs": 2**63}, "runs"),
            # an integer past the float range is not finite
            ({"grid": [10**400]}, "grid"),
        ],
    )
    def test_sweep_fields_strict(self, tmp_path, capsys, values, name):
        cfg = {"kind": "epsilon_sweep", "grid": [0.3], "population_sizes": [10], "runs": 1, **values}
        path = write_cfg(tmp_path, cfg)
        assert run_cli(["sweep", "--config", path, "--out", str(tmp_path), "--quiet"]) == 1
        assert f"{name} must be" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"population_sizes": [10, 10]}, "population_sizes must not repeat 10"),
            ({"grid": [0.3, 0.3]}, "grid must not repeat 0.3"),
            ({"grid": [-0.3]}, "grid must be at least 0, got -0.3"),
            ({"population_sizes": [10, 0]}, "population_sizes must be at least 2, got 0"),
            (
                {"kind": "transform_sweep", "transform_from": "close", "grid": [-0.2], "base_mixture": HALF10},
                "grid must be at least 0, got -0.2",
            ),
            (
                {"kind": "placement_compare", "grid": [0.1, -0.5], "base_mixture": HALF10},
                "grid must be at least 0, got -0.5",
            ),
            (
                {"kind": "transform_sweep", "transform_from": "close", "grid": [0.5, 1.5], "base_mixture": HALF10},
                "grid must be at most 1.0, got 1.5",
            ),
            (
                {"kind": "placement_compare", "grid": [1e308], "base_mixture": HALF10},
                "grid 1e+308 gives a budget past int64 at population size 10",
            ),
            (
                {"kind": "placement_compare", "grid": [1e20], "base_mixture": HALF10},
                "grid 1e+20 gives a budget past int64 at population size 10",
            ),
            (
                {"population_sizes": [10, 2**70]},
                "population_sizes must be at most 9223372036854775807, got 1180591620717411303424",
            ),
            # an evenly spaced layout needs 2 agents; the n = 10 cell must not run first
            ({"population_sizes": [10, 1]}, "population_sizes must be at least 2, got 1"),
            (
                {"kind": "placement_compare", "grid": [0.1], "population_sizes": [10, 0], "base_mixture": HALF10},
                "population_sizes must be at least 1, got 0",
            ),
            # every size's base mixture is built before the n = 20 cells run
            (
                {
                    "kind": "placement_compare",
                    "grid": [0.1],
                    "population_sizes": [20, 1],
                    "base_mixture": {"n": 20, "fractions": {"close": 0.5, "open": 0.5}, "opinion_dist": "evenly_spaced"},
                },
                "n must be at least 2, got 1",
            ),
        ],
    )
    def test_sweep_lists_checked_before_any_cell_runs(self, tmp_path, capsys, runs, values, message):
        # a repeated entry would run twice and merge into one mean
        cfg = {"kind": "epsilon_sweep", "grid": [0.3], "population_sizes": [10], "runs": 1, **values}
        path = write_cfg(tmp_path, cfg)
        assert run_cli(["sweep", "--config", path, "--out", str(tmp_path), "--quiet"]) == 1
        assert f"echosim: invalid config: {message}" in capsys.readouterr().err
        assert runs == []
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    @pytest.mark.parametrize(
        "command, cfg, key",
        [
            ("simulate", {**SPACED3, "dynamics": {"rule": "bogus"}}, "rule"),
            ("gen", {"population": {**MIX["population"], "opinion_dist": "bogus"}}, "opinion_dist"),
            ("gen", {"population": {**MIX["population"], "fractions": {"close": 0.5, "bogus": 0.5}}}, "fractions class"),
            ("gen", {"population": {**MIX["population"], "epsilons": {"bogus": 0.1}}}, "epsilons class"),
            ("place", {**SPACED3, "placement": {"budget": 1, "strategy": "bogus"}}, "strategy"),
            ("gen", {"population": {**MIX["population"], "transform": {"from": "bogus", "fraction": 0.5}}}, "from"),
            (
                "sweep",
                {
                    "kind": "transform_sweep",
                    "grid": [0.5],
                    "population_sizes": [10],
                    "base_mixture": HALF10,
                    "transform_from": "bogus",
                },
                "transform_from",
            ),
            ("sweep", {"kind": "bogus", "grid": [0.3], "population_sizes": [10]}, "kind"),
        ],
    )
    def test_enum_key_named(self, tmp_path, capsys, runs, command, cfg, key):
        path = write_cfg(tmp_path, cfg)
        assert run_cli([command, "--config", path, "--out", str(tmp_path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert f"echosim: invalid config: {key} must be one of [" in err
        assert err.endswith("], got 'bogus'\n")
        assert runs == []
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    @pytest.mark.parametrize(
        "values",
        [
            {"population_sizes": [20, 50]},
            {"grid": [0.3, 0.9], "transform_from": "open"},
            {"grid": [0.3]},
        ],
    )
    def test_trajectory_dump_rejects_values_it_cannot_run(self, tmp_path, capsys, values):
        cfg = {
            "kind": "trajectory_dump",
            "grid": [],
            "population_sizes": [20],
            "base_mixture": {"n": 20, "fractions": {"close": 0.5, "open": 0.5}},
            **values,
        }
        path = write_cfg(tmp_path, cfg)
        assert run_cli(["sweep", "--config", path, "--out", str(tmp_path), "--quiet"]) == 1
        assert "trajectory_dump" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("epsilon_sweep", "base_mixture", {"n": 10, "fractions": {"open": 1.0}}),
            ("epsilon_sweep", "placement", {"budget": 1}),
            ("epsilon_sweep", "transform_from", "close"),
            ("transform_sweep", "placement", {"budget": 1}),
            ("trajectory_dump", "runs", 3),
            # trajectory_dump runs base_mixture once, at its own n
            ("trajectory_dump", "grid", []),
            ("trajectory_dump", "population_sizes", [10]),
        ],
    )
    def test_sweep_key_its_kind_does_not_read_rejected(self, tmp_path, capsys, kind, key, value):
        mixture = {"n": 10, "fractions": {"close": 0.5, "open": 0.5}}
        sweep = {"grid": [0.3], "population_sizes": [10]}
        cfg = {
            "epsilon_sweep": sweep,
            "transform_sweep": {**sweep, "base_mixture": mixture, "transform_from": "close"},
            "placement_compare": {**sweep, "base_mixture": mixture, "runs": 1},
            "trajectory_dump": {"base_mixture": mixture},
        }[kind]
        cfg = {"kind": kind, **cfg}
        # the config runs without the key
        assert run_cli(["sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "ok"), "--quiet"]) == 0
        path = write_cfg(tmp_path, {**cfg, key: value})
        assert run_cli(["sweep", "--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert f"unknown {kind} keys [{key!r}]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, cfg",
        [
            ("simulate", SPACED3),
            ("place", {**SPACED3, "placement": {"budget": 1}}),
            ("graph", {**SPACED3, "step": 1}),
            ("sweep", {"kind": "trajectory_dump", "base_mixture": HALF10}),
        ],
    )
    def test_bad_dynamics_section_same_on_every_command(self, tmp_path, capsys, command, cfg):
        # every subcommand builds its dynamics section on one path
        path = write_cfg(tmp_path, {**cfg, "dynamics": {"max_steps": 0}})
        assert run_cli([command, "--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert "echosim: invalid config: max_steps must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, cfg, section",
        [("place", SPACED3, "placement"), ("simulate", {"dynamics": {}}, "population")],
    )
    def test_missing_section_named(self, tmp_path, capsys, command, cfg, section):
        path = write_cfg(tmp_path, cfg)
        assert run_cli([command, "--config", path, "--out", str(tmp_path), "--quiet"]) == 1
        assert f"{command} config has no {section!r} section" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, cfg, section",
        [
            ("gen", {"population": 5}, "population"),
            ("gen", {"population": {**MIX["population"], "fractions": [0.5, 0.5]}}, "fractions"),
            ("gen", {"population": {**MIX["population"], "transform": [1]}}, "transform"),
            ("simulate", {**SPACED3, "dynamics": [1]}, "dynamics"),
            ("place", {**SPACED3, "placement": 3}, "placement"),
            (
                "sweep",
                {"kind": "placement_compare", "grid": [0.1], "population_sizes": [10], "base_mixture": [0.5]},
                "base_mixture",
            ),
        ],
    )
    def test_non_object_section_named(self, tmp_path, capsys, command, cfg, section):
        path = write_cfg(tmp_path, cfg)
        assert run_cli([command, "--config", path, "--out", str(tmp_path), "--quiet"]) == 1
        assert f"echosim: invalid config: {section} must" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    @pytest.mark.parametrize("kind, extra", [("transform_sweep", {"transform_from": "close"}), ("placement_compare", {})])
    def test_base_mixture_size_not_swept_rejected(self, tmp_path, capsys, kind, extra):
        # the sweep draws the mixture at each size, so n 7 would never run
        mixture = {"n": 7, "fractions": {"close": 0.5, "open": 0.5}}
        cfg = {"kind": kind, "grid": [0.3], "population_sizes": [20, 30], "base_mixture": mixture, **extra}
        path = write_cfg(tmp_path, cfg)
        assert run_cli(["sweep", "--config", path, "--out", str(tmp_path), "--quiet"]) == 1
        assert "base_mixture.n 7 is not one of population_sizes [20, 30]" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    @pytest.mark.parametrize(
        "command, cfg, section, key",
        [
            ("gen", {"population": {"kind": "evenly_spaced", "n": 5}}, "population", "epsilon"),
            ("gen", {"population": {"kind": "csv"}}, "population", "path"),
            ("gen", {"population": {**MIX["population"], "transform": {"fraction": 0.5}}}, "transform", "from"),
            ("gen", {"population": {**MIX["population"], "transform": {"from": "close"}}}, "transform", "fraction"),
            ("gen", {"population": {"kind": "mixture", "fractions": {"open": 1.0}}}, "population", "n"),
            ("place", {**SPACED3, "placement": {"epsilon_new": 0.2}}, "placement", "budget"),
            ("sweep", {"kind": "trajectory_dump", "base_mixture": {"fractions": {"open": 1.0}}}, "base_mixture", "n"),
        ],
    )
    def test_missing_key_named(self, tmp_path, capsys, command, cfg, section, key):
        path = write_cfg(tmp_path, cfg)
        assert run_cli([command, "--config", path, "--out", str(tmp_path), "--quiet"]) == 1
        assert f"echosim: invalid config: {section} has no {key!r} key" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    @pytest.mark.parametrize("name, value", [("budget", 77), ("strategy", "random_at_start"), ("rng_seed", 9)])
    def test_placement_compare_rejects_fields_it_sets(self, tmp_path, capsys, name, value):
        # placement_compare sets every run's placement from its grid, its run
        # seeds and epsilon_new, so a placement section is a key it does not read
        cfg = json.loads((Path(__file__).resolve().parents[1] / "experiments" / "placement_compare.json").read_text())
        cfg["placement"] = {name: value}
        path = write_cfg(tmp_path, cfg)
        assert run_cli(["sweep", "--config", path, "--out", str(tmp_path), "--quiet"]) == 1
        assert "unknown placement_compare keys ['placement']" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    def test_csv_mindedness_contradicting_epsilon_rejected(self, tmp_path, capsys):
        pop_csv = tmp_path / "pop.csv"
        pop_csv.write_text("agent_id,opinion,epsilon,mindedness,injected\n0,0.5,0.01,open,false\n")
        path = write_cfg(tmp_path, {"population": {"kind": "csv", "path": str(pop_csv)}})
        assert run_cli(["gen", "--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert "line 2: mindedness 'open', but epsilon 0.01 is 'close'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_csv_digit_separator_rejected(self, tmp_path, capsys):
        # float reads "0_1" as 1.0, which is an open epsilon
        pop_csv = tmp_path / "pop.csv"
        pop_csv.write_text("agent_id,opinion,epsilon,mindedness,injected\n0,0.5,0_1,open,false\n")
        path = write_cfg(tmp_path, {"population": {"kind": "csv", "path": str(pop_csv)}})
        assert run_cli(["gen", "--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert "line 2: epsilon must be a number, got '0_1'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_csv_cell_past_the_field_limit_rejected(self, tmp_path, capsys):
        pop_csv = tmp_path / "pop.csv"
        pop_csv.write_text(f"agent_id,opinion,epsilon,mindedness,injected\n0,{'5' * 200_000},0.1,close,false\n")
        path = write_cfg(tmp_path, {"population": {"kind": "csv", "path": str(pop_csv)}})
        assert run_cli(["gen", "--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err == "echosim: invalid config: population csv line 2: field larger than field limit (131072)\n"
        assert not (tmp_path / "out").exists()

    def test_config_not_an_object_rejected(self, tmp_path, capsys):
        path = write_cfg(tmp_path, [SPACED3])
        assert run_cli(["gen", "--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("echosim: invalid config: config must be a JSON object, got [")
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    def test_set_value_that_is_not_json_kept_as_text(self, tmp_path):
        # evenly_spaced is no JSON value; the override sets it as a string
        path = write_cfg(tmp_path, {"population": {"n": 3, "epsilon": 0.5}})
        argv = ["gen", "--config", path, "--set", "population.kind=evenly_spaced", "--out", str(tmp_path), "--quiet"]
        assert run_cli(argv) == 0
        assert (tmp_path / "population.csv").read_text().splitlines()[1:] == [
            "0,0.0,0.5,open,false",
            "1,0.5,0.5,open,false",
            "2,1.0,0.5,open,false",
        ]

    def test_set_path_through_a_non_object_rejected(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SPACED3)
        argv = ["gen", "--config", path, "--set", "population.n.x=1", "--out", str(tmp_path / "out"), "--quiet"]
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == (
            "echosim: invalid config: --set path 'population.n.x' crosses a non-object entry\n"
        )
        assert not (tmp_path / "out").exists()

    def test_injected_ids_past_int64_rejected(self, tmp_path, capsys):
        # the next id after the largest would wrap to -2**63
        pop_csv = tmp_path / "pop.csv"
        pop_csv.write_text("agent_id,opinion,epsilon,mindedness,injected\n9223372036854775807,0.5,0.45,open,false\n")
        place = {"budget": 1, "strategy": "random_at_start"}
        path = write_cfg(tmp_path, {"population": {"kind": "csv", "path": str(pop_csv)}, "placement": place})
        assert run_cli(["place", "--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert "largest id 9223372036854775807" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("simulate", '{"population": {"kind": "evenly_spaced", "n": 3, "epsilon": 0.5}, '
             '"dynamics": {"max_steps": 5}, "dynamics": {"max_steps": 9}}', "dynamics"),
            ("gen", '{"population": {"kind": "evenly_spaced", "n": 3, "epsilon": 0.3, "epsilon": 0.05}}', "epsilon"),
        ],
    )
    def test_duplicate_config_key_rejected(self, tmp_path, capsys, command, text, key):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert run_cli([command, "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert f"echosim: invalid config: duplicate key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_duplicate_key_in_set_value_rejected(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MIX)
        override = 'population.fractions={"close": 0.5, "open": 0.5, "close": 0.2}'
        assert run_cli(["gen", "--config", path, "--set", override, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert "echosim: invalid config: duplicate key 'close'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["absent.csv", "a_directory"])
    def test_unreadable_population_csv_is_io_error(self, tmp_path, capsys, name):
        (tmp_path / "a_directory").mkdir()
        pop_csv = tmp_path / name
        path = write_cfg(tmp_path, {"population": {"kind": "csv", "path": str(pop_csv)}})
        assert run_cli(["gen", "--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("echosim: ") and str(pop_csv) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad", ["config", "population csv"])
    def test_file_not_utf8_is_validation_error(self, tmp_path, capsys, bad):
        pop_csv = tmp_path / "pop.csv"
        pop_csv.write_bytes(b"agent_id,opinion,epsilon,mindedness,injected\n0,0.5,0.01,close,false\n")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"population": {"kind": "csv", "path": str(pop_csv)}}))
        spoilt = path if bad == "config" else pop_csv
        spoilt.write_bytes(spoilt.read_bytes() + b"\xff")
        assert run_cli(["gen", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert "echosim: invalid config: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--config", "--out", "population path"])
    def test_nul_in_path_is_validation_error(self, tmp_path, capsys, flag):
        nul_csv = {"population": {"kind": "csv", "path": str(tmp_path / "pop.csv\0x")}}
        cfg = nul_csv if flag == "population path" else SPACED3
        paths = {"--config": write_cfg(tmp_path, cfg), "--out": str(tmp_path / "out")}
        if flag in paths:
            paths[flag] += "\0x"
        argv = ["gen", "--config", paths["--config"], "--out", paths["--out"], "--quiet"]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert "echosim: invalid config: " in err
        assert f"{flag} " in err and "holds a NUL byte" in err
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    @pytest.mark.parametrize("path", [5, None, ["pop.csv"]])
    def test_population_path_not_a_string_is_validation_error(self, tmp_path, capsys, path):
        cfg = write_cfg(tmp_path, {"population": {"kind": "csv", "path": path}})
        assert run_cli(["gen", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err == f"echosim: invalid config: population path {path!r} is not a string\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    def test_output_path_through_file(self, tmp_path):
        cfg = write_cfg(tmp_path, SPACED3)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = run_cli(
            ["gen", "--config", cfg, "--out", str(blocker / "sub"), "--quiet"]
        )
        assert code == 2


def test_console_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, SPACED3)
    # the child imports echosim from where this process does, installed
    # or not
    path = [str(Path(echosim.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "echosim.cli",
            "simulate",
            "--config",
            cfg,
            "--out",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0
    assert "wrote" in proc.stderr
    assert (tmp_path / "summary.csv").read_text().endswith("3,2,true,1\n")


def test_readme_sweep_key_table_is_harness_table():
    # the README's "| kind | needs | may take |" rows, read back as SWEEP_KEYS
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    kinds = {k.value for k in SweepKind}
    rows = {}
    for line in readme.splitlines():
        cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0] in kinds:
            rows[cells[0]] = tuple(tuple(key.strip().strip("`") for key in c.split(",")) for c in cells[1:])
    assert rows == {k.value: keys for k, keys in SWEEP_KEYS.items()}


# A minimal config of each section README's key table names, as the
# subcommand that reads it, the config and the path to the section in it.
ONE_OPEN = {"kind": "mixture", "n": 10, "fractions": {"open": 1.0}, "epsilons": {"close": 0.01, "open": 0.45}}
TABLE_SECTIONS = {
    "mixture population": ("gen", {"population": ONE_OPEN}, ["population"]),
    "population": ("gen", {"population": ONE_OPEN}, ["population"]),
    "evenly_spaced population": ("gen", SPACED3, ["population"]),
    "transform": (
        "gen",
        {"population": {**ONE_OPEN, "transform": {"from": "open", "fraction": 0.5}}},
        ["population", "transform"],
    ),
    "placement": ("place", {**SPACED3, "placement": {"budget": 0}}, ["placement"]),
    "graph config": ("graph", SPACED3, []),
    "dynamics": ("simulate", {**SPACED3, "dynamics": {}}, ["dynamics"]),
}
# a sweep key's section is the first sweep kind that reads it
TABLE_SWEEPS = {
    SweepKind.EPSILON_SWEEP: {"grid": [0.3], "population_sizes": [10], "runs": 1},
    SweepKind.TRANSFORM_SWEEP: {
        "grid": [0.5], "population_sizes": [10], "base_mixture": HALF10, "transform_from": "close", "runs": 1,
    },
    SweepKind.PLACEMENT_COMPARE: {"grid": [0.1], "population_sizes": [10], "base_mixture": HALF10, "runs": 1},
    SweepKind.TRAJECTORY_DUMP: {"base_mixture": HALF10},
}


def _table_section(section, key):
    if section != "sweep":
        return TABLE_SECTIONS[section]
    kind = next(k for k, (needs, takes) in SWEEP_KEYS.items() if key in needs + takes)
    return "sweep", {"kind": kind.value, **TABLE_SWEEPS[kind]}, []


def _run_with_key(tmp_path, capsys, section, key, value):
    """Exit code and stderr of the section's minimal config with key set
    to value; for "each of" a list key, the list [value], and for a
    class map, value as its close entry (the class whose band holds 0)."""
    command, cfg, path = _table_section(section, key.removeprefix("each of "))
    cfg = copy.deepcopy(cfg)
    node = cfg
    for part in path:
        node = node[part]
    if key.startswith("each of "):
        key = key.removeprefix("each of ")
        value = [value] if isinstance(node[key], list) else {**node[key], "close": value}
    node[key] = value
    code = run_cli([command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out"), "--quiet"])
    return code, capsys.readouterr().err


def test_readme_key_table_bounds_hold(tmp_path, capsys):
    # each "| key | section | range |" row: the first bound it states is
    # accepted and the nearest value past it is rejected, naming the key;
    # every key is known to each section the row names
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| key | section | range |\n| --- | --- | --- |\n")[1].split("\n\n")[0]
    rows = [[cell.strip().replace("`", "") for cell in line.strip("|").split("|")] for line in table.splitlines()]
    assert len(rows) >= 15
    for key, sections, rng in rows:
        name = key.removeprefix("each of ")
        bound = re.match(r"(integer, )?(?:at least )?(\d+)\b", rng)
        for section in sections.split(", "):
            where = f"{key} in {section}"
            code, err = _run_with_key(tmp_path, capsys, section, key, "x")
            assert code == 1 and name in err and "unknown" not in err, (where, err)
            if bound is None:
                continue
            least = int(bound[2]) if bound[1] else float(bound[2])
            past = least - 1 if bound[1] else math.nextafter(least, -math.inf)
            assert _run_with_key(tmp_path, capsys, section, key, least) == (0, ""), where
            code, err = _run_with_key(tmp_path, capsys, section, key, past)
            assert code == 1 and name in err, (where, past, err)
            if "2⁶³ − 1" in rng:
                code, err = _run_with_key(tmp_path, capsys, section, key, 2**63)
                assert code == 1 and f"{name} must be at most {2**63 - 1}" in err, (where, err)
