"""Tests of the benchmark's reference computations (bench/checks.py).

On graphs small enough for `build_naive` and an all-pairs diameter, each
reference must agree with both the program and a brute-force answer, and
each check must catch a deliberately corrupted output.

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py
"""

import copy
import csv
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from rhglab import analysis, cli, explorer, graphs, sampler  # noqa: E402
from rhglab.geometry import ModelParams  # noqa: E402

CASES = [(0.6, 400, 3), (0.75, 1500, 0), (0.75, 2000, 5), (0.9, 1200, 7)]


def small_graph(alpha, n, seed):
    params = ModelParams(alpha=alpha, C=0.0, n=n)
    return graphs.build_naive(sampler.sample_uniform_model(params, seed))


def test_predicate_matches_naive_builder():
    for case in CASES:
        g = small_graph(*case)
        picks = np.arange(g.n_vertices)
        assert checks.check_neighbors(g.indptr, g.indices, g.sample.r, g.sample.theta,
                                      g.params.R, picks) == [], case


def test_labels_match_program_and_bfs():
    for case in CASES:
        g = small_graph(*case)
        labels = checks.component_labels(g.indptr, g.indices)
        assert np.array_equal(labels, analysis.connected_components(g).labels), case
        for v in range(0, g.n_vertices, 97):
            reached = np.flatnonzero(checks.bfs(g.indptr, g.indices, [v]) >= 0)
            assert np.all(labels[reached] == reached.min()), (case, v)


def test_bounding_diameter_matches_all_pairs():
    for case in CASES:
        g = small_graph(*case)
        labels = checks.component_labels(g.indptr, g.indices)
        sizes = np.bincount(labels)
        for root in np.argsort(-sizes)[:5]:
            members = np.flatnonzero(labels == root)
            want = checks.all_pairs_diameter(g.indptr, g.indices, members)
            got, _ = checks.exact_diameter(g.indptr, g.indices, members)
            prog, exact = analysis.component_diameter(g, members, mode="exact")
            assert got == want == prog and exact, (case, root, got, want, prog)


def test_induced_paths_match_program():
    band = (0.2, 0.3)
    for case in CASES:
        g = small_graph(*case)
        labels = checks.component_labels(g.indptr, g.indices)
        got = checks.induced_paths(labels, np.diff(g.indptr), g.sample.r, g.params.R, band)
        paths = analysis.induced_path_components(g, band=band)
        lens = [p.length for p in paths if p.length >= 1]
        banded = [p.length for p in paths if p.in_band and p.length >= 1]
        assert got == (max(lens, default=0), max(banded, default=0)), case


def test_report_check_passes_and_catches_corruption():
    g = small_graph(0.75, 2000, 5)
    report = analysis.analyze(g)
    args = (g.indptr, g.indices, g.sample.r, g.sample.theta, g.params.R, np.arange(50))
    problems, ref = checks.check_report(report, *args)
    assert problems == [] and ref["diameter"] == report["giant_diameter"]["value"]
    for field, change in (("giant_diameter", lambda d: {**d, "value": d["value"] + 1}),
                          ("second_size", lambda s: s + 1),
                          ("longest_induced_path", lambda p: {**p, "overall": p["overall"] + 1}),
                          ("component_sizes", lambda s: s[:-1] + [s[-1] + 1])):
        bad = copy.deepcopy(report)
        bad[field] = change(bad[field])
        assert checks.check_report(bad, *args)[0], field
    # a double-sweep value must lie in [D/2, D]
    assert checks.check_diameter(ref["diameter"] // 2 - 1, False, ref["diameter"])
    assert not checks.check_diameter(ref["diameter"] - 1, False, ref["diameter"])


def test_neighbor_check_catches_missing_edge():
    g = small_graph(0.75, 1500, 0)
    u = int(np.argmax(np.diff(g.indptr)))
    indices = g.indices.copy()
    indices[g.indptr[u]] = u  # replace one neighbour by a self-loop
    assert checks.check_neighbors(g.indptr, indices, g.sample.r, g.sample.theta,
                                  g.params.R, [u])


def test_audit_check():
    params = ModelParams(alpha=0.75, C=0.0, n=4096)
    s = sampler.sample_uniform_model(params, 2)
    mask = s.r > params.R - 1.0
    shell = sampler.SampleSet(r=s.r[mask], theta=s.theta[mask], params=params,
                              seed=2, model="manual")
    g = graphs.build_naive(shell)
    rep = explorer.boundary_path_audit(g, xi=1.0)
    assert checks.check_audit(rep, g.indptr, g.indices, g.n_vertices) == []
    bad = copy.deepcopy(rep)
    bad.max_length += 1
    bad.components[int(np.argmax([c["length"] for c in bad.components]))]["length"] += 1
    assert checks.check_audit(bad, g.indptr, g.indices, g.n_vertices)


def test_expose_check():
    g = small_graph(0.75, 2000, 5)
    R = g.params.R
    r, theta = g.sample.r, g.sample.theta
    reach = checks.bfs(g.indptr, g.indices, np.flatnonzero(r <= R / 2))
    schedule = explorer.compute_schedule(g.params)
    outer = np.flatnonzero(r > R - 1.0)
    for q in list(outer[reach[outer] >= 0][:3]) + list(outer[reach[outer] < 0][:3]):
        out = explorer.expose(g, int(q), schedule=schedule)
        payload = {"query": int(q), "verdict": out.verdict, "path": out.path}
        assert checks.check_expose(payload, int(q), g.indptr, g.indices, r, theta, R, reach) == []
        if out.verdict == "success":
            # a path that ends outside B_O(R/2), and one with a non-edge step
            far = int(np.argmax(r))
            assert checks.check_expose({**payload, "path": out.path + [far]}, int(q),
                                       g.indptr, g.indices, r, theta, R, reach)
    unreachable = int(outer[reach[outer] < 0][0])
    fake = {"query": unreachable, "verdict": "success", "path": [unreachable]}
    assert checks.check_expose(fake, unreachable, g.indptr, g.indices, r, theta, R, reach)


def test_measure_rows():
    samples = 20_000
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(io.StringIO()):
        rc = cli.main(["measure-check", "--alpha", "0.75", "--n", "1000",
                       "--samples", str(samples), "--seed", "3"])
    assert rc == 0
    rows = list(csv.DictReader(buf.getvalue().splitlines()))
    R = ModelParams(alpha=0.75, C=0.0, n=1000).R
    assert checks.check_measure_rows(rows, 0.75, R, samples) == []
    bad = copy.deepcopy(rows)
    bad[0]["mc_mean"] = repr(float(bad[0]["mc_mean"]) * 1.5)
    assert checks.check_measure_rows(bad, 0.75, R, samples)
    bad = copy.deepcopy(rows)
    bad[3]["closed_form"] = repr(float(bad[3]["closed_form"]) * (1 + 1e-6))
    assert checks.check_measure_rows(bad, 0.75, R, samples)


if __name__ == "__main__":
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as e:
                failed += 1
                print(f"FAIL {name}: {e}")
    sys.exit(1 if failed else 0)
