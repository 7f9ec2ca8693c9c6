"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line.

Numbered gates, tolerances, and runtime budgets are frozen here; the
trend criteria (7, 8, 9, 11) use growth-shape checks because the
underlying statements are asymptotic and carry no finite-n constants.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from rhglab import measure
from rhglab.analysis import (
    component_diameter,
    component_vertices,
    connected_components,
    distance_to_center,
    induced_path_components,
)
from rhglab.explorer import (
    ExposeConfig,
    boundary_path_audit,
    compute_schedule,
    descend_inner,
    expose,
    verify_path,
)
from rhglab.geometry import (
    ModelParams,
    PolarPoint,
    hyperbolic_distance,
    max_angle_for_edge,
)
from rhglab.graphs import build_fast, build_naive
from rhglab.sampler import (
    SampleSet,
    radial_quantile,
    sample_poisson_model,
    sample_uniform_model,
)


def report(num, name, ok, detail, elapsed, budget=None):
    verdict = "PASS" if ok else "FAIL"
    line = f"CRITERION {num:2d} {name}: {verdict} ({detail}; {elapsed:.1f}s)"
    print(line)
    assert ok, line
    if budget is not None:
        assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s >= {budget}s"


def params_for_radius(R, alpha=0.75, n=1000):
    return ModelParams(alpha=alpha, C=R - 2.0 * math.log(n), n=n)


# ---------------------------------------------------------------------------
# 1. geometry exactness


def test_criterion_01_geometry_exactness():
    t0 = time.perf_counter()
    ok = True
    # triangle identity and degenerate distances
    for r1, r2 in ((3.0, 5.0), (10.0, 2.5), (7.7, 7.7)):
        p_same = PolarPoint(r=r1, theta=1.0)
        ok &= hyperbolic_distance(p_same, p_same) == 0.0
        collinear = hyperbolic_distance(PolarPoint(r=r1, theta=0.3), PolarPoint(r=r2, theta=0.3))
        ok &= abs(collinear - abs(r1 - r2)) < 1e-9
        anti = hyperbolic_distance(
            PolarPoint(r=r1, theta=0.3), PolarPoint(r=r2, theta=0.3 + math.pi)
        )
        ok &= abs(anti - (r1 + r2)) < 1e-9
    rng = np.random.default_rng(11)
    bad = 0
    for _ in range(100_000):
        a = PolarPoint(r=float(rng.uniform(0, 25)), theta=float(rng.uniform(0, 2 * math.pi)))
        b = PolarPoint(r=float(rng.uniform(0, 25)), theta=float(rng.uniform(0, 2 * math.pi)))
        d_ab = hyperbolic_distance(a, b)
        if d_ab != hyperbolic_distance(b, a):
            bad += 1
        if not (abs(a.r - b.r) - 1e-9 <= d_ab <= a.r + b.r + 1e-9):
            bad += 1
    ok &= bad == 0
    elapsed = time.perf_counter() - t0
    report(1, "geometry exactness", ok, f"{bad} violations over 1e5 random pairs", elapsed, 5.0)


# ---------------------------------------------------------------------------
# 2. builder equivalence


def test_criterion_02_builder_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    for alpha in (0.6, 0.75, 0.9):
        params = ModelParams(alpha=alpha, C=0.0, n=1000)
        for seed in range(50):
            s = sample_uniform_model(params, seed)
            if not np.array_equal(build_naive(s).edge_array(), build_fast(s).edge_array()):
                mismatches += 1
    params = ModelParams(alpha=0.75, C=0.0, n=5000)
    for seed in range(5):
        s = sample_uniform_model(params, seed)
        if not np.array_equal(build_naive(s).edge_array(), build_fast(s).edge_array()):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    report(2, "builder equivalence", mismatches == 0,
           f"{mismatches} mismatching edge sets over 155 graphs", elapsed, 120.0)


# ---------------------------------------------------------------------------
# 3. clique invariant


def test_criterion_03_clique_invariant():
    t0 = time.perf_counter()
    violations = 0
    for seed in range(20):
        params = ModelParams(alpha=0.75, C=0.0, n=4000)
        g = build_fast(sample_uniform_model(params, seed))
        core = np.flatnonzero(g.sample.all_r() <= params.R / 2.0)
        for i, u in enumerate(core):
            for v in core[i + 1:]:
                if not g.has_edge(int(u), int(v)):
                    violations += 1
    elapsed = time.perf_counter() - t0
    report(3, "clique invariant", violations == 0,
           f"{violations} missing core pairs over 20 graphs", elapsed)


# ---------------------------------------------------------------------------
# 4. center-clique scaling


def test_criterion_04_center_clique_scaling():
    t0 = time.perf_counter()
    ok = True
    details = []
    for k in (12, 14, 16):
        n = 2 ** k
        params = ModelParams(alpha=0.75, C=0.0, n=n)
        a, R = params.alpha, params.R
        exact = n * (math.cosh(a * R / 2) - 1.0) / (math.cosh(a * R) - 1.0)
        simple = n ** (1.0 - a) * math.exp(-a * params.C / 2.0)
        ok &= abs(exact - simple) / exact < 0.02
        counts = [
            int(np.count_nonzero(sample_uniform_model(params, seed).r <= R / 2.0))
            for seed in range(50)
        ]
        mean = float(np.mean(counts))
        p = exact / n
        se = math.sqrt(n * p * (1.0 - p) / 50.0)
        z = abs(mean - exact) / se
        ok &= z <= 4.0
        details.append(f"n=2^{k}: z={z:.2f}")
    elapsed = time.perf_counter() - t0
    report(4, "center-clique scaling", ok, ", ".join(details), elapsed)


# ---------------------------------------------------------------------------
# 5. measure oracle agreement

MC_SAMPLES = 10_000_000


def _mc_agrees(closed, mc, envelope):
    """CI + envelope gate, with the CI evaluated at the larger of the
    observed and hypothesized rates so rare-event rows stay sound."""
    hyp = measure.Z99 * math.sqrt(max(closed, mc.mean, 0.0) / mc.samples)
    return abs(closed - mc.mean) <= mc.half_width + hyp + envelope + 0.15 * closed


def test_criterion_05_measure_oracle():
    t0 = time.perf_counter()
    failures = []
    seed = 0
    for R in (25.0, 30.0, 35.0):
        params = params_for_radius(R)
        for rho in (0.6 * R, 0.9 * R):
            closed = measure.mu_ball_origin_exact(rho, params)
            mc = measure.mu_monte_carlo(measure.ball_origin(rho), MC_SAMPLES, seed, params)
            seed += 1
            if not _mc_agrees(closed, mc, 0.0):
                failures.append(f"ball R={R} rho={rho:.1f}")
        for lo, hi in ((R - 2, R - 1), (0.5 * R, 0.9 * R)):
            closed = measure.mu_band_origin(hi, lo, params)
            mc = measure.mu_monte_carlo(measure.band_origin(lo, hi), MC_SAMPLES, seed, params)
            seed += 1
            if not _mc_agrees(closed, mc, 0.0):
                failures.append(f"band R={R} ({lo:.1f},{hi:.1f}]")
        for r_A, rho_O in ((R - 1, R), (R - 2, 0.75 * R)):
            closed, env = measure.mu_ball_intersection_approx(r_A, R, rho_O, params)
            A = PolarPoint(r=r_A, theta=0.0)
            reg = measure.intersection(measure.ball_origin(rho_O), measure.ball_at(A, R))
            mc = measure.mu_monte_carlo(reg, MC_SAMPLES, seed, params)
            seed += 1
            if not _mc_agrees(closed, mc, env):
                failures.append(f"intersection R={R} rA={r_A:.1f} rhoO={rho_O:.1f}")

    # boundary shell of a far ball meeting a thin origin band, against
    # its semi-closed integral form
    R = 25.0
    params = params_for_radius(R)
    c1, c2, c3 = 1.0, 2.0, 1.0
    r_A = R - 1.5
    A = PolarPoint(r=r_A, theta=0.0)
    shell = measure.difference(measure.ball_at(A, R), measure.ball_at(A, R - c3))
    norm = math.cosh(params.alpha * R) - 1.0
    integ = quad(
        lambda r: math.exp(-r / 2) * params.alpha * math.sinh(params.alpha * r),
        R - c2, R - c1,
    )[0]
    closed = 2.0 * math.exp((R - r_A) / 2) * (1.0 - math.exp(-c3 / 2)) / (math.pi * norm) * integ
    reg = measure.intersection(measure.band_origin(R - c2, R - c1), shell)
    mc = measure.mu_monte_carlo(reg, MC_SAMPLES, seed, params)
    seed += 1
    if not _mc_agrees(closed, mc, 0.0):
        failures.append("shell-band")

    # lens-minus-ball: the statement is a scale lower bound, checked
    # one-sided against half the shell-band semi-closed value
    c1, c2, c3 = 0.5, 0.8, 0.3
    r_A = R - 0.6
    A = PolarPoint(r=r_A, theta=0.0)
    B = PolarPoint(r=r_A, theta=0.999 * max_angle_for_edge(r_A, r_A, params))
    est = measure.mu_lens_minus_ball(A, B, c1, c2, c3, params, samples=MC_SAMPLES, seed=seed)
    seed += 1
    integ = quad(
        lambda r: math.exp(-r / 2) * params.alpha * math.sinh(params.alpha * r),
        R - c2, R - c1,
    )[0]
    proxy = math.exp((R - r_A) / 2) * (1.0 - math.exp(-c3 / 2)) / (math.pi * norm) * integ
    slack = measure.Z99 * math.sqrt(max(proxy, est.estimate.mean) / MC_SAMPLES)
    if est.estimate.mean + est.estimate.half_width + slack < proxy:
        failures.append("lens-minus-ball")

    # exact radial CDF vs its leading term, 1% relative at rho >= R/2
    for R in (25.0, 30.0, 35.0):
        params = params_for_radius(R)
        for frac in (0.5, 0.6, 0.75, 0.9, 1.0):
            rho = frac * R
            exact = measure.mu_ball_origin_exact(rho, params)
            approx = measure.mu_ball_origin_approx(rho, params)
            if abs(approx - exact) / exact > 0.01:
                failures.append(f"leading-term R={R} rho={rho:.1f}")

    elapsed = time.perf_counter() - t0
    report(5, "measure oracle agreement", not failures,
           f"20-config grid, failures: {failures or 'none'}", elapsed, 600.0)


# ---------------------------------------------------------------------------
# 6. sampler fidelity


def test_criterion_06_sampler_fidelity():
    t0 = time.perf_counter()
    params = ModelParams(alpha=0.75, C=0.0, n=1_000_000)
    r = np.sort(sample_uniform_model(params, 13).r)
    a, R = params.alpha, params.R
    cdf = (np.cosh(a * r) - 1.0) / (math.cosh(a * R) - 1.0)
    k = np.arange(1, len(r) + 1)
    ks = max(float(np.max(k / len(r) - cdf)), float(np.max(cdf - (k - 1) / len(r))))

    params = ModelParams(alpha=0.75, C=0.0, n=10_000)
    counts = [sample_poisson_model(params, seed).n_points for seed in range(200)]
    dev = abs(float(np.mean(counts)) - params.n)
    gate = 4.0 * math.sqrt(params.n / 200.0)
    ok = ks < 0.002 and dev <= gate
    elapsed = time.perf_counter() - t0
    report(6, "sampler fidelity", ok,
           f"KS={ks:.5f} (<0.002), poisson |mean-n|={dev:.1f} (<= {gate:.1f})", elapsed)


# ---------------------------------------------------------------------------
# 7/8/9 shared growth-trend sweep

N_GRID = [2 ** k for k in range(12, 18)]
SWEEP_SEEDS = 10


@pytest.fixture(scope="module")
def trend_sweep():
    t0 = time.perf_counter()
    records = []
    for n in N_GRID:
        params = ModelParams(alpha=0.75, C=0.0, n=n)
        for seed in range(SWEEP_SEEDS):
            g = build_fast(sample_uniform_model(params, seed))
            stats = connected_components(g)
            giant = component_vertices(stats, stats.giant_label)
            diam, _ = component_diameter(g, giant)
            paths = induced_path_components(g, stats=stats)
            lens = [p.length for p in paths if p.length >= 1]
            records.append({
                "n": n, "seed": seed, "giant": stats.giant_size,
                "second": stats.second_size, "diam": diam,
                "longest_path": max(lens) if lens else 0,
            })
    return {"records": records, "elapsed": time.perf_counter() - t0}


def _per_n(records, key, stat):
    return np.array([
        stat([rec[key] for rec in records if rec["n"] == n]) for n in N_GRID
    ], dtype=float)


def _loglog_fit(values):
    """Fit value ~ a (ln n)^b; returns (b, r_squared)."""
    x = np.log(np.log(N_GRID))
    y = np.log(values)
    b, loga = np.polyfit(x, y, 1)
    resid = y - (loga + b * x)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 0.0
    return float(b), r2


def test_criterion_07_diameter_trend(trend_sweep):
    t0 = time.perf_counter()
    med = _per_n(trend_sweep["records"], "diam", np.median)
    finite = all(rec["diam"] >= 1 for rec in trend_sweep["records"])
    monotone = bool(np.all(np.diff(med) >= 0)) and med[-1] > med[0]
    b, r2 = _loglog_fit(med)
    scaled = med / np.power(N_GRID, 0.3)
    subpoly = bool(np.all(np.diff(scaled) < 0))
    ok = finite and monotone and 0.5 <= b <= 6.0 and r2 >= 0.8 and subpoly
    elapsed = trend_sweep["elapsed"] + time.perf_counter() - t0
    report(7, "diameter growth trend", ok,
           f"medians={med.tolist()}, b={b:.2f}, R2={r2:.3f}, sub-poly={subpoly}",
           elapsed, 1800.0)


def test_criterion_08_second_component_trend(trend_sweep):
    t0 = time.perf_counter()
    recs = trend_sweep["records"]
    ratio = _per_n(recs, "second", np.mean) / _per_n(recs, "giant", np.mean)
    decreasing = bool(np.all(np.diff(ratio) < 0))
    second = _per_n(recs, "second", np.median)
    b, r2 = _loglog_fit(second)
    ok = decreasing and 0.5 <= b <= 6.0 and r2 >= 0.8
    elapsed = time.perf_counter() - t0
    report(8, "second-component trend", ok,
           f"second/giant={np.round(ratio, 5).tolist()}, b={b:.2f}, R2={r2:.3f}", elapsed)


def test_criterion_09_path_component_trend(trend_sweep):
    t0 = time.perf_counter()
    recs = trend_sweep["records"]
    big = [rec for rec in recs if rec["n"] >= 2 ** 14]
    frac = sum(rec["longest_path"] >= 1 for rec in big) / len(big)
    means = _per_n(recs, "longest_path", np.mean)
    slope = float(np.polyfit(np.log(N_GRID), means, 1)[0])
    spread = float(means.max() / means.min())
    ok = frac >= 0.8 and slope > 0 and spread <= 3.0
    elapsed = time.perf_counter() - t0
    report(9, "induced-path trend", ok,
           f"frac>=1: {frac:.2f}, slope={slope:.3f}, max/min={spread:.2f}", elapsed)


# ---------------------------------------------------------------------------
# 10. explorer consistency


def test_criterion_10_explorer_consistency():
    t0 = time.perf_counter()
    params = ModelParams(alpha=0.75, C=0.0, n=10_000)
    schedule = compute_schedule(params)
    config = ExposeConfig()
    disagreements = 0
    bad_paths = 0
    descend_ok = descend_total = 0
    queries = 0
    for seed in range(20):
        g = build_fast(sample_uniform_model(params, seed))
        dist = distance_to_center(g)
        r = g.sample.all_r()
        outer = r > schedule.R_outer[schedule.i0]
        reachable = np.flatnonzero(outer & np.isfinite(dist))
        unreachable = np.flatnonzero(outer & ~np.isfinite(dist))
        picks = list(reachable[:5]) + list(unreachable[:5])
        for q in picks:
            queries += 1
            out = expose(g, int(q), config, schedule)
            if (out.verdict == "success") != bool(np.isfinite(dist[q])):
                disagreements += 1
            if out.verdict == "success":
                if not verify_path(g, out.path) or r[out.path[-1]] > params.R / 2:
                    bad_paths += 1
        for v in np.flatnonzero(r <= schedule.R_outer[schedule.i0]):
            descend_total += 1
            path = descend_inner(g, int(v), schedule)
            if path is not None and r[path[-1]] <= params.R / 2:
                descend_ok += 1
    rate = descend_ok / descend_total
    ok = disagreements == 0 and bad_paths == 0 and rate >= 0.99
    elapsed = time.perf_counter() - t0
    report(10, "explorer consistency", ok,
           f"{disagreements} disagreements / {queries} queries, "
           f"{bad_paths} bad paths, descend rate {rate:.4f}", elapsed)


# ---------------------------------------------------------------------------
# 11. boundary-path audit

XI = 1.0


def test_criterion_11_boundary_audit():
    t0 = time.perf_counter()
    ratios = []
    spread_violations = 0
    for n in N_GRID:
        params = ModelParams(alpha=0.75, C=0.0, n=n)
        max_len = 0
        for seed in range(50):
            s = sample_uniform_model(params, seed)
            mask = s.r > params.R - XI
            # edges among shell vertices match the full graph's induced
            # subgraph, so the audit only needs the shell points
            shell = SampleSet(
                r=s.r[mask], theta=s.theta[mask], params=params,
                seed=seed, model="manual",
            )
            rep = boundary_path_audit(build_fast(shell), xi=XI)
            max_len = max(max_len, rep.max_length)
            spread_violations += rep.spread_violations
        ratios.append(max_len / math.log(n))
    stable = max(ratios) <= 2.0 * min(ratios)
    ok = stable and spread_violations == 0
    elapsed = time.perf_counter() - t0
    report(11, "boundary-path audit", ok,
           f"len/ln n ratios={np.round(ratios, 3).tolist()}, "
           f"{spread_violations} spread violations", elapsed)
