"""Reference computations that check rhglab's outputs.

Nothing here imports rhglab.  Every answer is recomputed from raw
coordinates and CSR adjacency arrays with numpy and scipy, by methods
other than the program's own: the half-angle edge predicate, min-label
propagation for components, bounding-diameter BFS for exact diameters, a
grouped-degree test for induced paths, and quadrature plus an exact
binomial interval for the measure rows.

Each `check_*` function returns a list of problem strings; an empty list
means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

# pairs whose sinh^2(d/2) lies this close (relative) to sinh^2(R/2) are
# not judged: the program's predicate and this one may round differently
THRESHOLD_REL = 1e-9

# two-sided tail probability below which a Monte-Carlo count is rejected
BINOMIAL_TAIL = 1e-9


# ---------------------------------------------------------------------------
# graph primitives


def half_angle_edges(r_u, theta_u, r, theta, R):
    """Edge and judged masks of vertex u against every vertex.

    d(u, v) <= R iff sinh^2(d/2) <= sinh^2(R/2), with
    sinh^2(d/2) = sinh^2((r_u - r_v)/2) + sinh r_u sinh r_v sin^2(dtheta/2).
    """
    lhs = np.sinh((r_u - r) / 2.0) ** 2 + (
        math.sinh(r_u) * np.sinh(r) * np.sin((theta_u - theta) / 2.0) ** 2
    )
    rhs = math.sinh(R / 2.0) ** 2
    return lhs <= rhs, np.abs(lhs - rhs) > THRESHOLD_REL * rhs


def gather_neighbors(indptr, indices, frontier):
    """Concatenated neighbour lists of the frontier vertices."""
    starts = indptr[frontier]
    lens = indptr[frontier + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype)
    offsets = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    return indices[offsets + np.arange(total)]


def bfs(indptr, indices, sources):
    """Level-synchronous BFS; hop distance per vertex, -1 when unreached."""
    n = len(indptr) - 1
    dist = np.full(n, -1, dtype=np.int64)
    frontier = np.unique(np.asarray(sources, dtype=np.int64))
    dist[frontier] = 0
    level = 0
    while len(frontier):
        level += 1
        nb = gather_neighbors(indptr, indices, frontier)
        nb = np.unique(nb[dist[nb] < 0])
        dist[nb] = level
        frontier = nb
    return dist


def component_labels(indptr, indices):
    """Min-index component label per vertex, by min-label propagation
    with pointer jumping."""
    n = len(indptr) - 1
    labels = np.arange(n, dtype=np.int64)
    deg = np.diff(indptr)
    has_nb = np.flatnonzero(deg > 0)
    if len(has_nb) == 0:
        return labels
    while True:
        nb_min = np.minimum.reduceat(labels[indices], indptr[has_nb])
        new = labels.copy()
        new[has_nb] = np.minimum(labels[has_nb], nb_min)
        while True:
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, labels):
            return labels
        labels = new


def exact_diameter(indptr, indices, component):
    """Exact diameter of a connected component by bounding diameters
    (Takes & Kosters): BFS from alternating extreme candidates until the
    eccentricity bounds meet.  Returns (diameter, BFS count)."""
    component = np.asarray(component, dtype=np.int64)
    k = len(component)
    if k <= 1:
        return 0, 0
    lo = np.zeros(k, dtype=np.int64)
    hi = np.full(k, np.iinfo(np.int64).max, dtype=np.int64)
    deg = (indptr[component + 1] - indptr[component])
    pick = int(np.argmax(deg))
    use_high = False
    sweeps = 0
    while True:
        dist = bfs(indptr, indices, [component[pick]])[component]
        if np.any(dist < 0):
            raise ValueError("component is not connected")
        sweeps += 1
        ecc = int(dist.max())
        lo = np.maximum(lo, np.maximum(dist, ecc - dist))
        hi = np.minimum(hi, ecc + dist)
        d_lo, d_hi = int(lo.max()), int(hi.max())
        open_ = lo < hi
        if d_lo == d_hi or not open_.any():
            return d_lo, sweeps
        cand = np.flatnonzero(open_)
        pick = int(cand[np.argmax(hi[cand])] if use_high else cand[np.argmin(lo[cand])])
        use_high = not use_high


def all_pairs_diameter(indptr, indices, component):
    """Largest finite BFS distance from every member (small graphs only)."""
    best = 0
    for v in component:
        d = bfs(indptr, indices, [v])
        best = max(best, int(d.max()))
    return best


def induced_paths(labels, deg, r, R, band):
    """Longest induced path component by a grouped-degree test.

    A component of k >= 2 vertices is an induced path iff it has k - 1
    edges and maximum degree <= 2.  Returns (overall, in_band) lengths in
    edges; in_band keeps paths with every radius in [R - c2, R - c1].
    """
    n = len(labels)
    sizes = np.bincount(labels, minlength=n)
    twice_edges = np.bincount(labels, weights=deg, minlength=n)
    max_deg = np.zeros(n, dtype=np.int64)
    np.maximum.at(max_deg, labels, deg)
    c1, c2 = band
    outside = np.bincount(labels, weights=~((r >= R - c2) & (r <= R - c1)), minlength=n)
    is_path = (sizes >= 2) & (twice_edges == 2 * (sizes - 1)) & (max_deg <= 2)
    lengths = sizes - 1
    overall = int(lengths[is_path].max()) if is_path.any() else 0
    banded = is_path & (outside == 0)
    in_band = int(lengths[banded].max()) if banded.any() else 0
    return overall, in_band


# ---------------------------------------------------------------------------
# checks on graphs and reports


def check_neighbors(indptr, indices, r, theta, R, picks):
    """Program adjacency of each picked vertex against the predicate."""
    problems = []
    mismatched = 0
    for u in picks:
        edge, judged = half_angle_edges(r[u], theta[u], r, theta, R)
        edge[u] = False
        judged[u] = True
        prog = np.zeros(len(r), dtype=bool)
        prog[indices[indptr[u]:indptr[u + 1]]] = True
        if prog[u]:
            problems.append(f"vertex {u} lists itself as a neighbour")
        if np.any(judged & (edge != prog)):
            mismatched += 1
            if mismatched <= 3:
                bad = np.flatnonzero(judged & (edge != prog))[:5].tolist()
                problems.append(f"vertex {u}: neighbour set differs from the predicate at {bad}")
    if mismatched > 3:
        problems.append(f"{mismatched} of {len(picks)} picked vertices mismatch")
    return problems


def check_components(labels, report):
    """Component sizes (descending, as many as reported), count, giant
    and second component of a report against labels."""
    sizes = np.sort(np.bincount(labels)[np.unique(labels)])[::-1].tolist()
    problems = []
    if report["component_sizes"] != sizes[:len(report["component_sizes"])]:
        problems.append(f"component sizes {report['component_sizes'][:5]}... != {sizes[:5]}...")
    want = {"component_count": len(sizes), "giant_size": (sizes + [0])[0],
            "second_size": (sizes + [0, 0])[1]}
    for key, value in want.items():
        if report[key] != value:
            problems.append(f"{key} {report[key]} != {value}")
    return problems


def check_diameter(value, exact, true_diameter):
    if exact and value != true_diameter:
        return [f"exact diameter {value} != bounding-diameter result {true_diameter}"]
    if not exact and not (true_diameter / 2.0 <= value <= true_diameter):
        return [f"double-sweep diameter {value} outside [D/2, D] for D={true_diameter}"]
    return []


def check_report(report, indptr, indices, r, theta, R, picks, band=(0.2, 0.3)):
    """Every structural field of an `analyze` report against the graph.

    Returns (problems, reference) where reference holds the recomputed
    values, for the run's diagnostics.
    """
    problems = check_neighbors(indptr, indices, r, theta, R, picks)
    labels = component_labels(indptr, indices)
    problems += check_components(labels, report)
    sizes = np.bincount(labels)
    giant_label = int(np.argmax(sizes))  # ties resolve to the smaller label
    giant = np.flatnonzero(labels == giant_label)
    diameter, sweeps = exact_diameter(indptr, indices, giant)
    problems += check_diameter(
        report["giant_diameter"]["value"], report["giant_diameter"]["exact"], diameter
    )
    core = np.flatnonzero(r <= R / 2.0)
    if report["center_clique"]["size"] != len(core):
        problems.append(f"center clique {report['center_clique']['size']} != {len(core)}")
    deg = np.diff(indptr)
    overall, in_band = induced_paths(labels, deg, r, R, band)
    got = report["longest_induced_path"]
    if (got["overall"], got["in_band"]) != (overall, in_band):
        problems.append(f"longest induced path {got} != overall={overall}, in_band={in_band}")
    return problems, {"diameter": diameter, "bfs": sweeps, "giant": len(giant)}


def check_expose(payload, query, indptr, indices, r, theta, R, reach):
    """A successful path is valid and ends at r <= R/2; an unreachable
    query never succeeds."""
    problems = []
    if payload["query"] != query:
        problems.append(f"expose answered query {payload['query']} for {query}")
    if payload["verdict"] != "success":
        return problems
    if reach[query] < 0:
        problems.append(f"query {query} cannot reach the center clique but succeeded")
    path = payload["path"]
    if not path or path[0] != query:
        problems.append(f"query {query}: path does not start at the query")
        return problems
    if r[path[-1]] > R / 2.0:
        problems.append(f"query {query}: path ends at r={r[path[-1]]:.4f} > R/2")
    for u, v in zip(path, path[1:]):
        edge, judged = half_angle_edges(r[u], theta[u], r[[v]], theta[[v]], R)
        if judged[0] and not edge[0]:
            problems.append(f"query {query}: step {u}->{v} is not an edge")
    return problems


def check_audit(report, indptr, indices, shell_count):
    """Boundary audit: sizes cover the shell, lengths fit, sizes match a
    fresh labelling, and the longest length is recomputed.

    A component of size k has diameter at most k - 1, so the longest
    length L is the largest exact diameter among components of at least
    L + 1 vertices; only those are searched.
    """
    problems = []
    comps = report.components
    sizes = np.array([c["size"] for c in comps], dtype=np.int64)
    lengths = np.array([c["length"] for c in comps], dtype=np.int64)
    if int(sizes.sum()) != shell_count:
        problems.append(f"component sizes sum to {int(sizes.sum())}, shell has {shell_count}")
    if np.any(lengths > sizes - 1) or np.any(lengths < 0):
        problems.append("a component length exceeds size - 1")
    longest = int(lengths.max()) if len(lengths) else 0
    if report.max_length != longest:
        problems.append(f"max_length {report.max_length} != max over components {longest}")
    labels = component_labels(indptr, indices)
    counts = np.bincount(labels)
    roots = np.unique(labels)
    if not np.array_equal(np.sort(sizes), np.sort(counts[roots])):
        problems.append("audit component sizes differ from a fresh labelling")
    true_longest = 0
    for root in roots[counts[roots] >= longest + 1]:
        members = np.flatnonzero(labels == root)
        true_longest = max(true_longest, exact_diameter(indptr, indices, members)[0])
    all_exact = all(c["length_exact"] for c in comps)
    problems += check_diameter(longest, all_exact, true_longest)
    return problems


# ---------------------------------------------------------------------------
# measure rows


def radial_mass(lo, hi, alpha, R):
    """Quadrature of alpha sinh(alpha r) / (cosh(alpha R) - 1) over (lo, hi]."""
    from scipy import integrate  # imported here: only the measure rows need it
    norm = math.cosh(alpha * R) - 1.0
    val, _ = integrate.quad(
        lambda x: alpha * math.sinh(alpha * x) / norm, lo, hi,
        epsabs=0.0, epsrel=1e-12, limit=200,
    )
    return val


def exact_regions(R):
    """The exact-measure rows `rhg measure-check` reports, with their
    radial intervals."""
    rows = {}
    for frac in (0.5, 0.7, 0.9):
        rho = frac * R
        rows[f"ball_origin_exact_rho={rho:.3f}"] = (0.0, rho)
    for hi, lo in ((R - 1, R - 2), (R - 0.5, R - 1.5)):
        rows[f"band_origin_({lo:.3f},{hi:.3f}]"] = (lo, hi)
    return rows


def check_measure_rows(rows, alpha, R, samples):
    """Exact rows: closed form equals quadrature, and the Monte-Carlo
    hit count is inside an exact binomial interval around it."""
    from scipy import stats  # imported here: slow to import, used by this check only
    problems = []
    regions = exact_regions(R)
    seen = 0
    for row in rows:
        rid = row["region_id"]
        if not rid.startswith(("ball_origin_exact", "band_origin")):
            continue
        if rid not in regions:
            problems.append(f"unknown exact row {rid}")
            continue
        seen += 1
        closed = float(row["closed_form"])
        quad = radial_mass(*regions[rid], alpha, R)
        if abs(closed - quad) > 1e-9 * quad:
            problems.append(f"{rid}: closed form {closed!r} != quadrature {quad!r}")
        hits = float(row["mc_mean"]) * samples
        k = int(round(hits))
        if abs(hits - k) > 1e-6:
            problems.append(f"{rid}: mc_mean {row['mc_mean']} is not a hit frequency")
        lower = stats.binom.cdf(k, samples, quad)
        upper = stats.binom.sf(k - 1, samples, quad)
        if min(lower, upper) < BINOMIAL_TAIL:
            problems.append(f"{rid}: {k} hits of {samples} outside the binomial interval for p={quad:.4g}")
    if seen != len(regions):
        problems.append(f"{seen} exact rows found, expected {len(regions)}")
    return problems
