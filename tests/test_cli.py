"""End-to-end tests for the command line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import echosim
from echosim.cli import main
from echosim.harness import SWEEP_KEYS, SweepKind, SweepSpec, run_sweep, write_sweep_csv
from echosim.placement import Strategy
from echosim.popgen import MixtureSpec


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
        path = write_cfg(tmp_path, {**SPACED3, "step": -1})
        assert run_cli(["graph", "--config", path, "--out", str(tmp_path), "--quiet"]) == 1
        assert "step" in capsys.readouterr().err

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
            ({"population_sizes": [10, 0]}, "population_sizes must be at least 1, got 0"),
            (
                {"kind": "transform_sweep", "transform_from": "close", "grid": [-0.2], "base_mixture": HALF10},
                "grid must be at least 0, got -0.2",
            ),
            (
                {"kind": "placement_compare", "grid": [0.1, -0.5], "base_mixture": HALF10},
                "grid must be at least 0, got -0.5",
            ),
        ],
    )
    def test_sweep_lists_checked_before_any_cell_runs(self, tmp_path, capsys, values, message):
        # a repeated entry would run twice and merge into one mean
        cfg = {"kind": "epsilon_sweep", "grid": [0.3], "population_sizes": [10], "runs": 1, **values}
        path = write_cfg(tmp_path, cfg)
        assert run_cli(["sweep", "--config", path, "--out", str(tmp_path), "--quiet"]) == 1
        assert f"echosim: invalid config: {message}" in capsys.readouterr().err
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

    def test_injected_ids_past_int64_rejected(self, tmp_path, capsys):
        # the next id after the largest would wrap to -2**63
        pop_csv = tmp_path / "pop.csv"
        pop_csv.write_text("agent_id,opinion,epsilon,mindedness,injected\n9223372036854775807,0.5,0.45,open,false\n")
        place = {"budget": 1, "strategy": "random_at_start"}
        path = write_cfg(tmp_path, {"population": {"kind": "csv", "path": str(pop_csv)}, "placement": place})
        assert run_cli(["place", "--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert "largest id 9223372036854775807" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
