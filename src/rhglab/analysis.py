"""Structural analytics on a built graph: components, diameters, the
center clique, hop distance to it, induced path components, and degree
statistics, with a JSON report writer.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .graphs import Graph

REPORT_SCHEMA = "rhg-report v1"


class CenterCliqueError(ValueError):
    """Two vertices with r <= R/2 are not adjacent: the edge set does not
    belong to the point set."""


def min_index_labels(adj: sparse.csr_matrix) -> np.ndarray:
    """Component label per vertex of a symmetric adjacency matrix: the
    smallest vertex index in its component."""
    n = adj.shape[0]
    n_comp, comp = csgraph.connected_components(adj, directed=False)
    first = np.full(n_comp, n, dtype=np.int64)
    np.minimum.at(first, comp, np.arange(n))
    return first[comp]


def bounding_diameters(adj: sparse.csr_matrix, labels: np.ndarray) -> np.ndarray:
    """Exact diameter of every component of a symmetric adjacency matrix.

    `labels` holds min-index component labels (`min_index_labels`).
    Bounding diameters (Takes & Kosters, CIKM 2011) runs in lockstep over
    all components: each round is one multi-source BFS from one pick per
    unfinished component, and tightens every vertex's eccentricity bounds
    lo <= ecc <= hi.  A component is done once no vertex has hi above the
    largest lo, which is then its diameter.  The first pick is the
    highest-degree vertex; later picks alternate between the smallest lo
    and the largest hi among the vertices still above it, smallest index
    on ties.  Returns an array indexed by label (0 off the labels).
    """
    n = len(labels)
    diam = np.zeros(n, dtype=np.int64)
    lo = np.zeros(n, dtype=np.int64)
    hi = np.full(n, n, dtype=np.int64)
    # vertices of unfinished components, grouped by label, by index within
    active = np.argsort(labels, kind="stable")
    # pick keys: larger wins, smallest index on ties
    key = np.diff(adj.indptr)[active] * n + (n - 1 - active)
    use_high = False
    while len(active):
        lab = labels[active]
        starts = np.flatnonzero(np.r_[True, lab[1:] != lab[:-1]])
        sizes = np.diff(np.r_[starts, len(active)])
        picks = n - 1 - np.maximum.reduceat(key, starts) % n
        dist = csgraph.dijkstra(adj, unweighted=True, indices=picks, min_only=True)
        d = dist[active].astype(np.int64)
        ecc = np.repeat(np.maximum.reduceat(d, starts), sizes)
        lo_a = np.maximum(lo[active], np.maximum(d, ecc - d))
        hi_a = np.minimum(hi[active], ecc + d)
        lo[active], hi[active] = lo_a, hi_a
        d_lo = np.maximum.reduceat(lo_a, starts)
        cand = hi_a > np.repeat(d_lo, sizes)
        open_ = np.logical_or.reduceat(cand, starts)
        diam[lab[starts[~open_]]] = d_lo[~open_]
        keep = np.repeat(open_, sizes)
        active, cand = active[keep], cand[keep]
        if use_high:
            key = np.where(cand, hi[active] * n + (n - 1 - active), -1)
        else:
            key = np.where(cand, (n - lo[active]) * n + (n - 1 - active), -1)
        use_high = not use_high
    return diam


@dataclass
class ComponentStats:
    labels: np.ndarray        # component id per vertex = min vertex index inside
    sizes: np.ndarray         # sorted descending
    giant_size: int
    second_size: int
    giant_label: int


def connected_components(g: Graph) -> ComponentStats:
    """Component partition; component ids are min member indices."""
    n = g.n_vertices
    labels = min_index_labels(g.as_csr_matrix())
    uniq, counts = np.unique(labels, return_counts=True)
    order = np.argsort(-counts, kind="stable")
    sizes = counts[order]
    giant_label = int(uniq[order[0]]) if n > 0 else -1
    return ComponentStats(
        labels=labels,
        sizes=sizes,
        giant_size=int(sizes[0]) if n > 0 else 0,
        second_size=int(sizes[1]) if len(sizes) > 1 else 0,
        giant_label=giant_label,
    )


def component_vertices(stats: ComponentStats, label: int) -> np.ndarray:
    return np.flatnonzero(stats.labels == label)


def component_diameter(g: Graph, component: np.ndarray, mode: str = "exact"):
    """Exact diameter of the subgraph induced by `component`: (value, True).

    The value is the longest finite shortest-path distance, found by
    `bounding_diameters`; "exact" is the only mode.
    """
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    component = np.asarray(component)
    if len(component) <= 1:
        return 0, True
    sub = g.as_csr_matrix()[component][:, component]
    return int(bounding_diameters(sub, min_index_labels(sub)).max()), True


def center_clique(g: Graph, verify: bool = True) -> np.ndarray:
    """Vertices with r <= R/2; optionally checks that every pair is adjacent
    and raises CenterCliqueError otherwise."""
    r = g.sample.all_r()
    members = np.flatnonzero(r <= g.params.R / 2.0)
    if verify and len(members) > 1:
        block = g.as_csr_matrix()[members][:, members]
        block.sum_duplicates()  # an altered edges file may repeat a row
        short = np.diff(block.indptr) < len(members) - 1
        if np.any(short):
            u = int(members[np.argmax(short)])
            missing = np.setdiff1d(members, g.neighbors(u))
            v = int(missing[missing != u][0])
            raise CenterCliqueError(
                f"center-clique violation: vertices {u} and {v} not adjacent"
            )
    return members


def distance_to_center(g: Graph, clique: np.ndarray | None = None) -> np.ndarray:
    """Hop count to the nearest center-clique vertex; inf when unreachable."""
    if clique is None:
        clique = center_clique(g, verify=False)
    if len(clique) == 0:
        return np.full(g.n_vertices, np.inf)
    return csgraph.dijkstra(g.as_csr_matrix(), unweighted=True, indices=clique, min_only=True)


@dataclass
class InducedPath:
    vertices: list          # path order, endpoints first/last
    length: int             # edge count; singleton component has length 0
    in_band: bool


def induced_path_components(g: Graph, band: tuple | None = None,
                            stats: ComponentStats | None = None):
    """Components whose induced subgraph is a simple path, in label order.

    Returns a list of InducedPath.  A singleton counts as length 0.  When
    `band` = (c1, c2) is given, in_band marks paths with every radius in
    [R - c2, R - c1].  A component is a path iff no vertex has degree above
    2 and it has k - 1 edges (a tree of maximum degree 2); each such path
    is walked from its smallest-index end.
    """
    if stats is None:
        stats = connected_components(g)
    n = g.n_vertices
    labels = stats.labels
    deg = g.degrees()
    size = np.bincount(labels, minlength=n)
    degree_sum = np.bincount(labels, weights=deg, minlength=n)
    branching = np.bincount(labels[deg > 2], minlength=n)
    is_path = (size > 0) & (branching == 0) & (degree_sum == 2 * (size - 1))
    in_band = np.zeros(n, dtype=bool)
    if band is not None:
        c1, c2 = band
        r = g.sample.all_r()
        R = g.params.R
        outside = ~((r >= R - c2) & (r <= R - c1))
        in_band = np.bincount(labels[outside], minlength=n) == 0
    ends = np.flatnonzero(deg == 1)
    end_labels, first = np.unique(labels[ends], return_index=True)
    start = np.arange(n)  # a singleton is its own label
    start[end_labels] = ends[first]
    out = []
    for label in np.flatnonzero(is_path):
        cur, prev = int(start[label]), -1
        path = [cur]
        for _ in range(size[label] - 1):
            nb = g.neighbors(cur)
            prev, cur = cur, int(nb[0] if nb[0] != prev else nb[1])
            path.append(cur)
        out.append(InducedPath(vertices=path, length=len(path) - 1,
                               in_band=bool(in_band[label])))
    return out


@dataclass
class DegreeStats:
    histogram: np.ndarray      # counts per degree value, index = degree
    ccdf_degrees: np.ndarray
    ccdf: np.ndarray
    tail_window: tuple
    tail_slope: float | None   # least-squares slope of log CCDF vs log degree


def degree_stats(g: Graph, tail_window: tuple | None = None) -> DegreeStats:
    """Degree histogram, empirical CCDF, and a log-log tail slope.

    The slope is a descriptive fit over the configured window; no
    distributional exponent is claimed.
    """
    deg = g.degrees()
    hist = np.bincount(deg) if len(deg) else np.zeros(1, dtype=np.int64)
    degrees = np.arange(len(hist))
    n = max(len(deg), 1)
    ccdf = np.cumsum(hist[::-1])[::-1] / n  # P(D >= k)
    if tail_window is None:
        dmax = int(deg.max()) if len(deg) else 0
        tail_window = (max(3, dmax // 10), dmax)
    lo, hi = tail_window
    mask = (degrees >= lo) & (degrees <= hi) & (ccdf > 0) & (degrees > 0)
    slope = None
    if np.count_nonzero(mask) >= 2:
        x = np.log(degrees[mask].astype(float))
        y = np.log(ccdf[mask])
        slope = float(np.polyfit(x, y, 1)[0])
    return DegreeStats(
        histogram=hist,
        ccdf_degrees=degrees,
        ccdf=ccdf,
        tail_window=tail_window,
        tail_slope=slope,
    )


def analyze(g: Graph, band: tuple = (0.2, 0.3)) -> dict:
    """Full per-run structural report (schema rhg-report v1)."""
    timings = {}
    t0 = time.perf_counter()
    stats = connected_components(g)
    timings["components_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    giant = component_vertices(stats, stats.giant_label) if g.n_vertices else np.empty(0, dtype=int)
    diam, exact = component_diameter(g, giant)
    timings["diameter_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    clique = center_clique(g, verify=True)
    timings["clique_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    paths = induced_path_components(g, band=band, stats=stats)
    nontrivial = [p.length for p in paths if p.length >= 1]
    in_band = [p.length for p in paths if p.in_band and p.length >= 1]
    timings["paths_s"] = time.perf_counter() - t0

    dstats = degree_stats(g)
    p = g.params
    return {
        "schema": REPORT_SCHEMA,
        "params": {"alpha": p.alpha, "C": p.C, "n": p.n, "R": p.R},
        "seed": g.seed,
        "model": g.sample.model,
        "builder": g.builder,
        "component_sizes": [int(s) for s in stats.sizes[:100]],
        "component_count": int(len(stats.sizes)),
        "giant_size": stats.giant_size,
        "second_size": stats.second_size,
        "giant_diameter": {"value": int(diam), "exact": bool(exact)},
        "center_clique": {"size": int(len(clique)), "verified": True},
        "longest_induced_path": {
            "overall": max(nontrivial) if nontrivial else 0,
            "in_band": max(in_band) if in_band else 0,
        },
        "degree_tail": {
            "window": [int(dstats.tail_window[0]), int(dstats.tail_window[1])],
            "slope": dstats.tail_slope,
        },
        "timings": {k: round(v, 6) for k, v in timings.items()},
    }


def save_report(report: dict, path):
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
