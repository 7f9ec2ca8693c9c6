"""Command-line front end: generation, building, analysis, exploration,
measure checks, and multi-n sweeps with persisted reports.

Exit codes: 0 success, 1 validation error, 2 numeric-health error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import analysis, explorer, graphs, measure, sampler
from .geometry import ModelParams, NumericHealthError, PolarPoint


def _params(args) -> ModelParams:
    return ModelParams(alpha=args.alpha, C=args.C, n=args.n)


def _cmd_generate(args) -> int:
    params = _params(args)
    if args.model == "uniform":
        s = sampler.sample_uniform_model(params, args.seed)
    else:
        s = sampler.sample_poisson_model(params, args.seed)
    for _ in range(args.probes):
        s = sampler.add_probe(s)
    sampler.save_points(s, args.out)
    print(f"wrote {s.n_points} points (+{s.n_probes} probes) to {args.out}")
    return 0


def _cmd_build(args) -> int:
    s = sampler.load_points(args.points)
    builder = "naive" if args.naive else "fast"
    g = graphs.build(s, builder=builder)
    graphs.save_edges(g, args.out)
    print(f"built {g.edge_count} edges with {builder} builder -> {args.out}")
    return 0


def _load_graph_from(args) -> graphs.Graph:
    if args.graph:
        return graphs.load_graph(args.graph)
    s = sampler.load_points(args.points)
    edges = graphs.load_edges(args.edges, s.n_total)
    return graphs.Graph.from_edges(s, edges[:, 0], edges[:, 1], "loaded")


def _cmd_analyze(args) -> int:
    g = _load_graph_from(args)
    report = analysis.analyze(g, band=(args.band_c1, args.band_c2))
    analysis.save_report(report, args.out)
    print(f"report -> {args.out}")
    return 0


def _cmd_expose(args) -> int:
    g = _load_graph_from(args)
    config = explorer.ExposeConfig(
        xi=args.xi, epsilon=args.epsilon,
        max_phases=args.max_phases,
        band_depth_override=args.band_depth,
    )
    schedule = explorer.compute_schedule(g.params)
    outcome = explorer.expose(g, args.query, config, schedule)
    payload = {
        "query": args.query,
        "verdict": outcome.verdict,
        "path": outcome.path,
        "phase_reached": outcome.phase_reached,
        "vertices_touched": outcome.vertices_touched,
        "schedule": {
            "C0": schedule.C0,
            "i0_raw": schedule.i0_raw,
            "i0": schedule.i0,
            "j0": schedule.j0,
            "T": schedule.T,
            "clamp_note": schedule.clamp_note,
        },
        "region_trace": outcome.region_trace,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


def _measure_rows(params: ModelParams, samples: int, seed: int):
    """Closed-form vs Monte-Carlo rows for the measure-check CSV."""
    R = params.R
    rows = []

    def add(region_id, region, closed, envelope, s):
        est = measure.mu_monte_carlo(region, samples, s, params)
        rows.append({
            "region_id": region_id,
            "closed_form": closed,
            "mc_mean": est.mean,
            "mc_halfwidth": est.half_width,
            "envelope": envelope,
            "pass": est.agrees(closed, envelope),
        })

    s = seed
    for frac in (0.5, 0.7, 0.9):
        rho = frac * R
        closed = measure.mu_ball_origin_exact(rho, params)
        # exact rows get a small relative cushion on top of the 99% CI,
        # which alone would reject about 1% of rows by construction
        add(f"ball_origin_exact_rho={rho:.3f}",
            measure.ball_origin(rho), closed, 0.02 * closed, s)
        s += 1
    for rho_hi, rho_lo in ((R - 1, R - 2), (R - 0.5, R - 1.5)):
        closed = measure.mu_band_origin(rho_hi, rho_lo, params)
        add(f"band_origin_({rho_lo:.3f},{rho_hi:.3f}]",
            measure.band_origin(rho_lo, rho_hi), closed, 0.02 * closed, s)
        s += 1
    for r_A, rho_O in ((R - 2.0, 0.75 * R), (R - 1.0, R), (0.8 * R, 0.8 * R)):
        A = PolarPoint(r=r_A, theta=0.0)
        closed, env = measure.mu_ball_intersection_approx(r_A, R, rho_O, params)
        region = measure.intersection(measure.ball_origin(rho_O), measure.ball_at(A, R))
        # envelope constant is fitted at desk scale (the bound is asymptotic)
        add(f"ball_intersection_rA={r_A:.3f}_rhoO={rho_O:.3f}",
            region, closed, 4.0 * env + 0.15 * closed, s)
        s += 1
    return rows


def _cmd_measure_check(args) -> int:
    params = _params(args)
    rows = _measure_rows(params, args.samples, args.seed)
    out = args.out or "-"
    f = sys.stdout if out == "-" else open(out, "w", newline="")
    try:
        writer = csv.DictWriter(
            f, fieldnames=["region_id", "closed_form", "mc_mean", "mc_halfwidth", "envelope", "pass"]
        )
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    finally:
        if f is not sys.stdout:
            f.close()
    failures = sum(1 for row in rows if not row["pass"])
    print(f"{len(rows) - failures}/{len(rows)} measure checks passed", file=sys.stderr)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# sweep

def _cell_hash(cell: dict) -> str:
    return hashlib.sha256(json.dumps(cell, sort_keys=True).encode()).hexdigest()[:16]


def _run_cell(cell: dict) -> str:
    params = ModelParams(alpha=cell["alpha"], C=cell["C"], n=cell["n"])
    s = sampler.sample_uniform_model(params, cell["seed"])
    g = graphs.build(s, builder=cell["builder"])
    report = analysis.analyze(g)
    report["cell"] = cell
    out_path = os.path.join(cell["out_dir"], f"cell-{_cell_hash(cell)}.json")
    fd, tmp = tempfile.mkstemp(dir=cell["out_dir"], suffix=".tmp")
    with os.fdopen(fd, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    os.replace(tmp, out_path)
    return out_path


def _cmd_sweep(args) -> int:
    n_grid = [int(x) for x in args.n_grid.split(",")]
    if sorted(n_grid) != n_grid or len(set(n_grid)) != len(n_grid):
        raise ValueError("n grid must be strictly increasing")
    if args.reps < 1:
        raise ValueError("reps must be >= 1")
    alphas = [float(x) for x in args.alpha.split(",")]
    os.makedirs(args.out_dir, exist_ok=True)
    cells = []
    for alpha in alphas:
        for n in n_grid:
            for rep in range(args.reps):
                cells.append({
                    "alpha": alpha, "C": args.C, "n": n,
                    "seed": args.seed_base + rep,
                    "builder": args.builder, "out_dir": args.out_dir,
                })
    pending = [
        c for c in cells
        if not os.path.exists(os.path.join(args.out_dir, f"cell-{_cell_hash(c)}.json"))
    ]
    print(f"{len(cells)} cells, {len(cells) - len(pending)} already complete")
    workers = int(os.environ.get("RHG_THREADS", "0")) or None
    if pending:
        if workers == 1:
            for c in pending:
                _run_cell(c)
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                list(pool.map(_run_cell, pending))
    print(f"sweep complete: {len(cells)} reports in {args.out_dir}")
    return 0


def emit_plot_data(reports: list, out_file) -> None:
    """Long-format CSV (n, alpha, seed, metric, value) from report dicts."""
    rows = []
    for rep in reports:
        base = (rep["params"]["n"], rep["params"]["alpha"], rep["seed"])
        rows.append(base + ("giant_size", rep["giant_size"]))
        rows.append(base + ("giant_diameter", rep["giant_diameter"]["value"]))
        rows.append(base + ("second_size", rep["second_size"]))
        rows.append(base + ("center_clique_size", rep["center_clique"]["size"]))
        rows.append(base + ("longest_induced_path", rep["longest_induced_path"]["overall"]))
    rows.sort()
    writer = csv.writer(out_file)
    writer.writerow(["n", "alpha", "seed", "metric", "value"])
    for row in rows:
        writer.writerow(row)


def _cmd_plot_data(args) -> int:
    reports = []
    for name in sorted(os.listdir(args.reports)):
        if name.endswith(".json"):
            with open(os.path.join(args.reports, name)) as f:
                reports.append(json.load(f))
    if not reports:
        raise ValueError(f"no report JSON files found in {args.reports}")
    with open(args.out, "w", newline="") as f:
        emit_plot_data(reports, f)
    print(f"{len(reports)} reports -> {args.out}")
    return 0


# ---------------------------------------------------------------------------

def _add_model_args(p):
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--C", type=float, default=0.0)
    p.add_argument("--n", type=int, required=True)


def _add_graph_source(p):
    p.add_argument("--graph", help="graph bundle prefix (<prefix>.points.tsv + .edges.tsv)")
    p.add_argument("--points", help="points TSV (with --edges)")
    p.add_argument("--edges", help="edges TSV (with --points)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rhg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a point set")
    _add_model_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", choices=["uniform", "poisson"], default="uniform")
    p.add_argument("--probes", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("build", help="build adjacency from a points file")
    p.add_argument("--points", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--fast", action="store_true", default=True)
    group.add_argument("--naive", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("analyze", help="structural report for a graph")
    _add_graph_source(p)
    p.add_argument("--band-c1", type=float, default=0.2)
    p.add_argument("--band-c2", type=float, default=0.3)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("expose", help="run the exposure search from a query vertex")
    _add_graph_source(p)
    p.add_argument("--query", type=int, required=True)
    p.add_argument("--xi", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--max-phases", type=int, default=None)
    p.add_argument("--band-depth", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_expose)

    p = sub.add_parser("measure-check", help="closed forms vs Monte-Carlo oracle")
    _add_model_args(p)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_measure_check)

    p = sub.add_parser("sweep", help="multi-n experiment sweep with persisted reports")
    p.add_argument("--alpha", default="0.6,0.75,0.9", help="comma-separated alphas")
    p.add_argument("--C", type=float, default=0.0)
    p.add_argument("--n-grid", required=True, help="comma-separated, strictly increasing")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--builder", choices=["fast", "naive"], default="fast")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("plot-data", help="long-format CSV from sweep reports")
    p.add_argument("--reports", required=True, help="directory of report JSON files")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plot_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericHealthError as e:
        print(f"numeric-health error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
