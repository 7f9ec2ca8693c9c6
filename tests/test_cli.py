"""Command-line tests: each subcommand end to end on small inputs, sweep
resume behavior, plot-data output, and exit codes.
"""

import csv
import json
import os

import numpy as np
import pytest

from rhglab.cli import main
from rhglab.graphs import load_edges


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def points_file(tmp_path):
    path = tmp_path / "pts.tsv"
    assert run(["generate", "--alpha", 0.75, "--n", 200, "--seed", 3,
                "--out", path]) == 0
    return path


def test_generate_row_count(points_file):
    lines = points_file.read_text().splitlines()
    assert lines[0].startswith("# rhg-points v1 ")
    assert len(lines) == 1 + 200


def test_generate_poisson_and_probes(tmp_path):
    path = tmp_path / "pts.tsv"
    assert run(["generate", "--alpha", 0.75, "--n", 150, "--seed", 1,
                "--model", "poisson", "--probes", 2, "--out", path]) == 0
    rows = path.read_text().splitlines()[1:]
    probe_rows = [r for r in rows if r.startswith("-")]
    assert len(probe_rows) == 2


def test_build_fast_naive_identical(points_file, tmp_path):
    fast = tmp_path / "fast.tsv"
    naive = tmp_path / "naive.tsv"
    assert run(["build", "--points", points_file, "--out", fast]) == 0
    assert run(["build", "--points", points_file, "--naive", "--out", naive]) == 0
    ef = load_edges(fast, 200)
    en = load_edges(naive, 200)
    assert np.array_equal(ef, en)
    assert len(ef) > 0


def test_analyze_report(points_file, tmp_path):
    edges = tmp_path / "e.tsv"
    out = tmp_path / "rep.json"
    assert run(["build", "--points", points_file, "--out", edges]) == 0
    assert run(["analyze", "--points", points_file, "--edges", edges,
                "--out", out]) == 0
    rep = json.loads(out.read_text())
    assert rep["schema"] == "rhg-report v1"
    assert rep["params"]["n"] == 200
    assert rep["giant_size"] >= 1


def test_expose_json(points_file, tmp_path):
    edges = tmp_path / "e.tsv"
    out = tmp_path / "exp.json"
    assert run(["build", "--points", points_file, "--out", edges]) == 0
    assert run(["expose", "--points", points_file, "--edges", edges,
                "--query", 0, "--out", out]) == 0
    payload = json.loads(out.read_text())
    assert payload["query"] == 0
    assert payload["verdict"] in ("success", "no_path", "failure")
    assert payload["schedule"]["i0"] >= 1


def test_measure_check_csv(tmp_path):
    out = tmp_path / "mc.csv"
    code = run(["measure-check", "--alpha", 0.75, "--n", 1000,
                "--samples", 200_000, "--out", out])
    assert code == 0
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 8
    assert all(r["pass"] == "True" for r in rows)
    for r in rows:
        float(r["closed_form"]), float(r["mc_mean"])


def test_sweep_and_resume(tmp_path, monkeypatch):
    monkeypatch.setenv("RHG_THREADS", "1")
    out_dir = tmp_path / "sweep"
    argv = ["sweep", "--alpha", "0.75", "--n-grid", "100,200,300",
            "--reps", 5, "--seed-base", 0, "--out-dir", out_dir]
    assert run(argv) == 0
    files = sorted(os.listdir(out_dir))
    cells = [f for f in files if f.startswith("cell-") and f.endswith(".json")]
    assert len(cells) == 15
    mtimes = {f: os.path.getmtime(out_dir / f) for f in cells}
    # resume: nothing recomputed
    assert run(argv) == 0
    assert {f: os.path.getmtime(out_dir / f) for f in cells} == mtimes
    rep = json.loads((out_dir / cells[0]).read_text())
    assert rep["schema"] == "rhg-report v1"
    assert rep["cell"]["builder"] == "fast"


def test_plot_data(tmp_path, monkeypatch):
    monkeypatch.setenv("RHG_THREADS", "1")
    out_dir = tmp_path / "sweep"
    assert run(["sweep", "--alpha", "0.75", "--n-grid", "100,200",
                "--reps", 2, "--out-dir", out_dir]) == 0
    out = tmp_path / "plot.csv"
    assert run(["plot-data", "--reports", out_dir, "--out", out]) == 0
    with open(out) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["n", "alpha", "seed", "metric", "value"]
    body = rows[1:]
    assert len(body) == 4 * 5  # 4 reports x 5 metrics
    assert body == sorted(body)  # deterministic order
    metrics = {r[3] for r in body}
    assert metrics == {"giant_size", "giant_diameter", "second_size",
                       "center_clique_size", "longest_induced_path"}
    # regenerating gives byte-identical output
    out2 = tmp_path / "plot2.csv"
    assert run(["plot-data", "--reports", out_dir, "--out", out2]) == 0
    assert out.read_text() == out2.read_text()


def test_exit_code_validation_error(tmp_path):
    # nonexistent points file -> OSError -> 1
    assert run(["build", "--points", tmp_path / "missing.tsv",
                "--out", tmp_path / "e.tsv"]) == 1
    # R above the overflow guard -> ValueError -> 1
    assert run(["generate", "--alpha", 0.75, "--n", 1000, "--C", 380,
                "--out", tmp_path / "big.tsv"]) == 1
    # bad sweep grid -> ValueError -> 1
    assert run(["sweep", "--n-grid", "300,100", "--out-dir", tmp_path]) == 1
    # empty reports dir -> 1
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run(["plot-data", "--reports", empty,
                "--out", tmp_path / "p.csv"]) == 1


def test_exit_code_numeric_health(tmp_path, monkeypatch):
    import rhglab.cli as cli
    from rhglab.geometry import NumericHealthError

    def boom(args):
        raise NumericHealthError("synthetic clamp abort")

    # build_parser resolves the handler through the module global, so
    # patching it routes the subcommand into the failure path
    monkeypatch.setattr(cli, "_cmd_generate", boom)
    assert run(["generate", "--alpha", 0.75, "--n", 10,
                "--out", tmp_path / "x.tsv"]) == 2
