"""Every experiment config reproduces its committed results byte for byte."""

import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from echosim.cli import build_parser, dispatch

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "experiments").glob("*.json"))


def test_every_config_has_results():
    assert CONFIGS
    assert {c.stem for c in CONFIGS} == {d.name for d in (ROOT / "results").iterdir()}


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.stem)
def test_sweep_reproduces_results(config, tmp_path):
    args = build_parser().parse_args(
        ["sweep", "--config", str(config), "--out", str(tmp_path), "--quiet"]
    )
    assert dispatch(args) == 0
    want = ROOT / "results" / config.stem
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in want.iterdir())
    for path in want.iterdir():
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


def run_script(*args, cwd=None):
    # no PYTHONPATH, as in a plain checkout: the script puts its own
    # checkout's src/ on its path
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_all_experiments.py"), *args],
        capture_output=True,
        text=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        cwd=cwd,
    )


def test_run_all_experiments_script(tmp_path):
    proc = run_script("--only", "trajectory_open", "--results", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["trajectory_open_close"]
    name = "trajectory_open_close/trajectory.csv"
    assert (tmp_path / name).read_bytes() == (ROOT / "results" / name).read_bytes()
    proc = run_script("--only", "nomatch", "--results", str(tmp_path))
    assert proc.returncode == 1
    assert "no configs found" in proc.stderr


def test_run_all_experiments_script_from_a_plain_checkout(tmp_path):
    # run from elsewhere, with nothing on PYTHONPATH
    proc = run_script("--only", "trajectory_open", "--results", str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert {p.name for p in (tmp_path / "out" / "trajectory_open_close").iterdir()} == {"trajectory.csv", "summary.csv"}


def test_check_mode_names_each_differing_file_and_writes_nothing(tmp_path):
    # one config whose committed files match, one whose copy was altered
    # and lost a file
    stems = ("trajectory_open_close", "trajectory_with_moderates")
    configs, results = tmp_path / "experiments", tmp_path / "results"
    configs.mkdir()
    for stem in stems:
        shutil.copy(ROOT / "experiments" / f"{stem}.json", configs)
        shutil.copytree(ROOT / "results" / stem, results / stem)
    altered = results / stems[1] / "trajectory.csv"
    altered.write_bytes(altered.read_bytes().replace(b"0.", b"1.", 1))
    (results / stems[1] / "summary.csv").unlink()
    before = {p: p.read_bytes() for p in results.rglob("*") if p.is_file()}
    proc = run_script("--check", "--experiments", str(configs), "--results", str(results))
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [f"differs: {stems[1]}/summary.csv", f"differs: {stems[1]}/trajectory.csv"]
    assert {p: p.read_bytes() for p in results.rglob("*") if p.is_file()} == before
    proc = run_script("--check", "--only", stems[0])
    assert (proc.returncode, proc.stdout) == (0, ""), proc.stderr


def test_benchmark_entry_points_resolve(monkeypatch):
    # perfbench/ wraps and calls these by name; deleting one breaks the benchmark
    import echosim

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("tracer")
    for name in echosim.__all__:
        assert hasattr(echosim, name), name
    traced = [f for fs in tracer.SELF_TIME.values() for f in fs] + list(tracer.COUNTERS) + list(tracer.DYNAMICS)
    for qualname in traced:
        layer, attr = qualname.split(".")
        assert hasattr(getattr(echosim, layer), attr), qualname
    assert callable(echosim.graph.build_graph)
    assert callable(echosim.core.Population.from_arrays)
    assert isinstance(echosim.graph.InfluenceGraph.out_neighbors, property)
