"""Determinized exploration machinery over a realized graph: band
schedules, the band descent, the phased region-exposure search, and the
boundary-path audit.

One backtracking search, `_band_descent`, serves both descents of the
proof: `find_center_path` through the outer bands into B_O(R_{i0}) and
`descend_inner` through the inner bands into B_O(R/2).  Each supplies
only its candidate order and its terminal radius.  `verify_path` checks
a path with the builders' edge predicate, `geometry.edge_mask`.

The asymptotic schedule degenerates at desk scale (its outer band depth
is negative for any reachable n, and the angular windows exceed a full
circle), so clamps are applied after evaluating the faithful formulas and
recorded in the schedule / trace.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .analysis import bounding_diameters, min_index_labels
from .geometry import ModelParams, edge_mask
from .graphs import Graph


# ---------------------------------------------------------------------------
# band schedule

@dataclass(frozen=True)
class BandSchedule:
    params: ModelParams
    C0: float
    i0_raw: float
    i0: int                  # clamped integer band depth
    R_outer: np.ndarray      # R_0 = R/2, R_i = R e^{-alpha^i/2}
    j0: int
    c: float                 # e^{-alpha^{j0}/2}
    R_inner: np.ndarray      # R'_0 = cR, R'_i = R(c - (i/2)(1-c)(1-alpha))
    T: int
    clamp_note: str | None = None

    def band_of(self, r: float) -> int:
        """Outer band index l with R_l < r <= R_{l+1}."""
        idx = int(np.searchsorted(self.R_outer, r, side="left"))
        return min(max(idx - 1, 0), len(self.R_outer) - 2)


def derived_c0(alpha: float) -> float:
    return 2.0 / (0.5 - 0.75 * alpha + alpha * alpha / 4.0)


def compute_schedule(params: ModelParams) -> BandSchedule:
    """Evaluate the band schedule for the given model constants."""
    a = params.alpha
    if not 0.5 < a < 1.0:
        raise ValueError(f"schedule requires 1/2 < alpha < 1, got {a}")
    R = params.R
    C0 = derived_c0(a)
    i0_raw = math.log(2.0 * C0 * math.log(R) / R) / math.log(a)
    clamp_note = None
    i0 = max(1, round(i0_raw))
    if i0_raw < 1:
        clamp_note = f"i0_raw={i0_raw:.3f} < 1; clamped to i0=1"
    # outer bands, extended until they have numerically converged to R
    outer = [R / 2.0]
    i = 1
    while i <= 500:
        outer.append(R * math.exp(-(a ** i) / 2.0))
        if R - outer[-1] < 1e-12 * R:
            break
        i += 1
    outer.append(R)  # sentinel so every r < R falls in some band
    R_outer = np.asarray(outer)

    # smallest j >= 1 whose defining inequality holds stably beyond j
    j0 = None
    for j in range(1, 200):
        ok = all(
            math.exp(-(a ** jj) / 2.0)
            <= 1.0 - (1.0 - (1.0 - a) / 2.0) * (a ** jj) / 2.0
            for jj in range(j, j + 51)
        )
        if ok:
            j0 = j
            break
    if j0 is None:
        raise ValueError(f"no stable j0 found for alpha={a}")
    c = math.exp(-(a ** j0) / 2.0)
    T = 1
    while c - ((T + 1) / 2.0) * (1.0 - c) * (1.0 - a) > 0.5:
        T += 1
    R_inner = np.array(
        [R * (c - (i / 2.0) * (1.0 - c) * (1.0 - a)) for i in range(T + 1)]
    )
    return BandSchedule(
        params=params,
        C0=C0,
        i0_raw=i0_raw,
        i0=i0,
        R_outer=R_outer,
        j0=j0,
        c=c,
        R_inner=R_inner,
        T=T,
        clamp_note=clamp_note,
    )


# ---------------------------------------------------------------------------
# greedy descents

def _band_descent(g: Graph, v: int, candidates, terminal: float):
    """Backtracking DFS from v toward the ball B_O(terminal).

    `candidates(u, depth)` lists the next vertices to try from u, which sits
    `depth` steps after v, in the order they are tried.  A vertex is tried
    at most once over the whole search.  A neighbor inside B_O(terminal)
    ends the path at once, minimum index first.  Returns the vertex list
    (starting at v) or None when every candidate is exhausted.
    """
    r = g.sample.all_r()

    def _terminal(u):
        nb = g.neighbors(u)
        hit = nb[r[nb] <= terminal]
        return int(hit.min()) if len(hit) else None

    v = int(v)
    t = _terminal(v)
    if t is not None:
        return [v, t]
    visited = set()
    # stack entries: (path, candidate list of its end, cursor)
    stack = [([v], candidates(v, 0), 0)]
    while stack:
        path, cand, k = stack[-1]
        if k >= len(cand):
            stack.pop()
            continue
        stack[-1] = (path, cand, k + 1)
        w = int(cand[k])
        if w in visited:
            continue
        visited.add(w)
        t = _terminal(w)
        if t is not None:
            return path + [w, t]
        stack.append((path + [w], candidates(w, len(path)), 0))
    return None


def find_center_path(g: Graph, v: int, schedule: BandSchedule):
    """Band descent from v toward B_O(R_{i0}).

    From the vertex in band (R_{l-i}, R_{l-i+1}] the minimum-index
    neighbor one band closer to the origin is tried first; dead ends
    backtrack deterministically to the next index.  A neighbor already
    inside B_O(R_{i0}) ends the path at once.  Returns the vertex list
    (starting at v) or None when no band-descending path exists.
    """
    r = g.sample.all_r()
    i0 = schedule.i0
    bands = schedule.R_outer
    ell = schedule.band_of(float(r[v]))
    if ell < i0:
        raise ValueError(
            f"vertex {v} has r={r[v]:.4f} <= R_i0={bands[i0]:.4f}; "
            "center paths start outside B_O(R_i0)"
        )

    def _candidates(u, depth):
        """Neighbors one band below u's band ell - depth, by index; none
        once that band reaches R_{i0}."""
        b = ell - depth
        if b <= i0:
            return ()
        nb = g.neighbors(u)
        return np.sort(nb[(r[nb] > bands[b - 1]) & (r[nb] <= bands[b])])

    return _band_descent(g, v, _candidates, bands[i0])


def _descent_boundaries(schedule: BandSchedule) -> np.ndarray:
    """Descending radius boundaries for the inner descent.

    Outer boundaries R_{j0}..R_{i0} first (empty at desk scale where the
    clamped i0 sits below j0), then the inner boundaries R'_0..R'_T.
    """
    outer = [
        schedule.R_outer[j]
        for j in range(schedule.i0, schedule.j0 - 1, -1)
        if schedule.R_outer[j] >= schedule.R_inner[0]
    ]
    bounds = np.array(sorted(set(outer) | set(schedule.R_inner.tolist()), reverse=True))
    return bounds


def descend_inner(g: Graph, v: int, schedule: BandSchedule):
    """Band descent from v (r_v <= R'_0) into B_O(R/2).

    Each step moves to a strictly deeper band, preferring the immediately
    next band and the minimum index within it; dead ends backtrack
    deterministically.  A neighbor already inside B_O(R/2) ends the path
    at once.  Returns the vertex list starting at v ([v] when already
    inside), or None when no band-descending path exists.
    """
    r = g.sample.all_r()
    half_R = g.params.R / 2.0
    bounds = _descent_boundaries(schedule)
    if r[v] > bounds[0]:
        raise ValueError(
            f"vertex {v} has r={r[v]:.4f} > R'_0={bounds[0]:.4f}; "
            "inner descent starts inside B_O(R'_0)"
        )
    if r[v] <= half_R:
        return [int(v)]

    def _candidates(u, depth):
        """Neighbors strictly deeper than u's band, shallower bands first,
        minimum index within a band."""
        k = int(np.searchsorted(-bounds, -r[u], side="right"))
        nb = g.neighbors(u)
        nb = nb[(r[nb] <= bounds[min(k, len(bounds) - 1)]) & (r[nb] > half_R)]
        band_pos = np.searchsorted(-bounds, -r[nb], side="left")
        return nb[np.lexsort((nb, band_pos))]

    return _band_descent(g, v, _candidates, half_R)


# ---------------------------------------------------------------------------
# exposure procedure

@dataclass(frozen=True)
class ExposeConfig:
    xi: float = 1.0
    epsilon: float = 0.1
    window_width: float | None = None   # default (log n)^{C0+eps}/n clamped to pi
    max_phases: int | None = None       # default ceil(C'' log n)
    phase_constant: float = 2.0         # C''
    band_depth_override: int | None = None

    def __post_init__(self):
        if self.xi <= 0:
            raise ValueError("xi must be positive")
        if self.window_width is not None and not 0 < self.window_width <= math.pi:
            raise ValueError("window_width must lie in (0, pi]")


@dataclass
class ExposeOutcome:
    verdict: str                  # "success" | "no_path" | "failure"
    path: list | None
    phase_reached: int
    vertices_touched: int
    region_trace: list


def _restricted_bfs(g: Graph, start: int, allowed: np.ndarray):
    """BFS from start visiting only vertices with allowed[v]; returns
    (dist, parent) int arrays with -1 for unreached."""
    n = g.n_vertices
    dist = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    dist[start] = 0
    dq = deque([start])
    while dq:
        u = dq.popleft()
        for v in g.neighbors(u):
            if allowed[v] and dist[v] < 0:
                dist[v] = dist[u] + 1
                parent[v] = u
                dq.append(int(v))
    return dist, parent


def _trace_path(parent: np.ndarray, t: int):
    path = [int(t)]
    while parent[path[-1]] >= 0:
        path.append(int(parent[path[-1]]))
    return path[::-1]


def verify_path(g: Graph, path: list) -> bool:
    """Consecutive vertices adjacent under the edge predicate, checked in
    one call on the coordinates the builders use."""
    p = np.asarray(path, dtype=np.int64)
    r = g.sample.all_r()[p]
    theta = g.sample.all_theta()[p]
    cosh_r, sinh_r = np.cosh(r), np.sinh(r)
    return bool(np.all(edge_mask(np.cos(theta[:-1] - theta[1:]), cosh_r[:-1], sinh_r[:-1],
                                 cosh_r[1:], sinh_r[1:], math.cosh(g.params.R))))


def expose(g: Graph, query: int, config: ExposeConfig | None = None,
           schedule: BandSchedule | None = None) -> ExposeOutcome:
    """Phased region exposure around `query`, determinized over the
    realized point set.

    Regions are filters over realized points (no resampling).  Each phase
    widens the angular window; sub-phases descend the radius floor.  When
    a reachable vertex with r <= R - xi turns up in freshly exposed
    territory, a greedy center path plus inner descent is attempted from
    it; a verified concatenated path into B_O(R/2) is a success.  'no
    path' means the floor reached R_{i0} at full window without any
    qualifying terminal ever appearing; exhausting the phase budget (or
    every qualifying terminal) is 'failure'.
    """
    config = config or ExposeConfig()
    schedule = schedule or compute_schedule(g.params)
    params = g.params
    n = g.n_vertices
    r = g.sample.all_r()
    theta = g.sample.all_theta()
    i0 = config.band_depth_override or schedule.i0
    bands = schedule.R_outer
    R = params.R
    half_R = R / 2.0

    trace = []

    def finish_inner(prefix):
        """Chain an inner descent onto a path ending at r <= R_{i0}."""
        inner = descend_inner(g, prefix[-1], schedule)
        if inner is None:
            return None
        full = prefix + inner[1:]
        if not verify_path(g, full) or r[full[-1]] > half_R:
            return None
        return full

    # queries already inside B_O(R_{i0}) route straight to the inner descent
    if r[query] <= bands[i0]:
        full = finish_inner([int(query)])
        if full is not None:
            return ExposeOutcome(
                verdict="success", path=full, phase_reached=0,
                vertices_touched=len(full), region_trace=trace,
            )
        return ExposeOutcome(
            verdict="failure", path=None, phase_reached=0,
            vertices_touched=1, region_trace=trace,
        )

    w_raw = config.window_width
    if w_raw is None:
        w_raw = (math.log(params.n) ** (schedule.C0 + config.epsilon)) / params.n
    window = min(w_raw, math.pi)
    window_clamped = w_raw > math.pi
    max_phases = config.max_phases
    if max_phases is None:
        max_phases = max(1, math.ceil(config.phase_constant * math.log(params.n)))

    dtheta = np.minimum(np.abs(theta - theta[query]) % (2 * math.pi),
                        2 * math.pi - np.abs(theta - theta[query]) % (2 * math.pi))
    # smallest l with R_l > R - xi
    ell0 = int(np.searchsorted(bands, R - config.xi, side="right"))
    ell0 = min(max(ell0, i0 + 1), len(bands) - 2)

    exposed = np.zeros(n, dtype=bool)
    exposed[query] = True
    tried = np.zeros(n, dtype=bool)
    tried_deep = np.zeros(n, dtype=bool)
    ever_qualified = False

    for phase in range(max_phases):
        cap_new = min((phase + 2) * window, math.pi)
        saturated = cap_new >= math.pi
        for ell in range(ell0, i0 - 1, -1):
            new_mask = (r > bands[ell]) & (dtheta <= cap_new) & ~exposed
            n_new = int(np.count_nonzero(new_mask))
            exposed |= new_mask
            trace.append({
                "phase": phase,
                "ell": ell,
                "floor": float(bands[ell]),
                "angle_cap": float(cap_new),
                "window_clamped": window_clamped,
                "newly_exposed": n_new,
            })
            dist, parent = _restricted_bfs(g, query, exposed)
            reach = (dist >= 0) & (r <= R - config.xi) & (r > bands[i0])
            qual = np.flatnonzero(reach)
            if len(qual):
                ever_qualified = True
                fresh = qual[~tried[qual]]
                # shortest BFS depth, then minimum index
                order = np.lexsort((fresh, dist[fresh]))
                for t in fresh[order]:
                    t = int(t)
                    tried[t] = True
                    center = find_center_path(g, t, schedule)
                    if center is None:
                        continue
                    full = finish_inner(_trace_path(parent, t) + center[1:])
                    if full is not None:
                        return ExposeOutcome(
                            verdict="success", path=full, phase_reached=phase,
                            vertices_touched=int(np.count_nonzero(exposed)),
                            region_trace=trace,
                        )
            if ell == i0:
                # at the deepest floor a reachable vertex may drop straight
                # into B_O(R_{i0}); chain the inner descent through it
                reach_all = np.flatnonzero(dist >= 0)
                for u in reach_all[np.lexsort((reach_all, dist[reach_all]))]:
                    nbu = g.neighbors(int(u))
                    for w in np.sort(nbu[r[nbu] <= bands[i0]]):
                        w = int(w)
                        if tried_deep[w]:
                            continue
                        tried_deep[w] = True
                        full = finish_inner(_trace_path(parent, int(u)) + [w])
                        if full is not None:
                            return ExposeOutcome(
                                verdict="success", path=full, phase_reached=phase,
                                vertices_touched=int(np.count_nonzero(exposed)),
                                region_trace=trace,
                            )
        if saturated and not ever_qualified:
            return ExposeOutcome(
                verdict="no_path", path=None, phase_reached=phase,
                vertices_touched=int(np.count_nonzero(exposed)),
                region_trace=trace,
            )
        if saturated and not np.any(exposed & ~tried & (r <= R - config.xi) & (r > bands[i0])):
            break  # every qualifying terminal has been tried
    return ExposeOutcome(
        verdict="failure", path=None, phase_reached=max_phases - 1,
        vertices_touched=int(np.count_nonzero(exposed)),
        region_trace=trace,
    )


# ---------------------------------------------------------------------------
# boundary-path audit

@dataclass
class BoundaryPathReport:
    xi: float
    components: list          # dicts: size, length, spread, flags
    max_length: int
    max_spread: float
    length_violations: int
    spread_violations: int


def boundary_path_audit(g: Graph, xi: float, K: float = 10.0,
                        K_prime: float = 10.0) -> BoundaryPathReport:
    """Audit paths confined to the boundary shell {v : r_v > R - xi}.

    Each connected component of the boundary-induced subgraph is measured
    by its exact longest shortest path and its angular spread (2*pi minus
    the largest circular gap between its angles), in one pass over all
    components, listed by their smallest member; lengths beyond K log n
    and spreads beyond K' log n / n are flagged.
    """
    if xi <= 0:
        raise ValueError("xi must be positive")
    r = g.sample.all_r()
    theta = g.sample.all_theta()
    R = g.params.R
    members = np.flatnonzero(r > R - xi)
    report = BoundaryPathReport(
        xi=xi, components=[], max_length=0, max_spread=0.0,
        length_violations=0, spread_violations=0,
    )
    if len(members) == 0:
        return report
    sub = g.as_csr_matrix()[members][:, members]
    labels = min_index_labels(sub)
    roots = np.flatnonzero(labels == np.arange(len(labels)))
    sizes = np.bincount(labels)[roots]
    lengths = bounding_diameters(sub, labels)[roots]
    # largest circular gap per component, on (label, theta)-sorted angles
    t_all = theta[members] % (2 * math.pi)
    order = np.lexsort((t_all, labels))
    t = t_all[order]
    starts = np.r_[0, np.cumsum(sizes)[:-1]]
    ends = starts + sizes - 1
    gaps = np.empty(len(t))
    gaps[:-1] = np.diff(t)
    gaps[ends] = t[starts] + 2 * math.pi - t[ends]
    spreads = np.where(sizes > 1, 2 * math.pi - np.maximum.reduceat(gaps, starts), 0.0)
    log_n = math.log(g.params.n)
    length_flags = lengths > K * log_n
    spread_flags = spreads > K_prime * log_n / g.params.n
    for k, length, spread, lf, sf in zip(sizes.tolist(), lengths.tolist(), spreads.tolist(),
                                         length_flags.tolist(), spread_flags.tolist()):
        report.components.append({
            "size": k,
            "length": length,
            "length_exact": True,
            "spread": spread,
            "length_flag": lf,
            "spread_flag": sf,
        })
    report.max_length = int(lengths.max())
    report.max_spread = max(0.0, float(spreads.max()))
    report.length_violations = int(length_flags.sum())
    report.spread_violations = int(spread_flags.sum())
    return report
