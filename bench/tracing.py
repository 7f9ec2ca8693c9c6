"""Per-layer tracing by wrapping rhglab's module attributes.

The program calls its layers through module attributes (`graphs.build`
looks up `build_fast` in the graphs module, the CLI calls
`analysis.analyze`, and so on), so replacing those attributes with timed
wrappers records one span per call without touching the program.  A span
holds its name, start, end, parent span and the phase it ran in
("setup" or the index of the operation).  Counters are attached to the
innermost open span, so a scipy shortest-path call inside
`component_diameter` is charged to `analysis.diameter` and one inside
`boundary_path_audit` to `explorer.audit`.

Spans stay in memory and are written out by `Tracer.dump` when the run
ends; `layer_metrics` derives the per-layer figures, self times included.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

import numpy as np

# (module attribute path, span name); one span per call
SPANNED = [
    ("sampler.sample_uniform_model", "sampler.sample"),
    ("sampler.load_points", "graphs.load"),
    ("graphs.load_points", "graphs.load"),
    ("graphs.load_edges", "graphs.load"),
    ("sampler.save_points", "graphs.save"),
    ("graphs.save_points", "graphs.save"),
    ("graphs.save_edges", "graphs.save"),
    ("graphs.build_fast", "graphs.build"),
    ("analysis.analyze", "analysis.analyze"),
    ("analysis.connected_components", "analysis.components"),
    ("analysis.component_diameter", "analysis.diameter"),
    ("analysis.induced_path_components", "analysis.paths"),
    ("explorer.expose", "explorer.expose"),
    ("explorer.boundary_path_audit", "explorer.audit"),
    ("measure.mu_monte_carlo", "measure.mc"),
    ("cli.main", "cli"),
]

# (module attribute path, counter name); counted, not timed
COUNTED = [
    ("graphs.Graph.neighbors", "graphs.neighbors_calls"),
    ("explorer.find_center_path", "explorer.descent_calls"),
    ("explorer.descend_inner", "explorer.descent_calls"),
]

# scipy.sparse.csgraph entry points the program calls; calls are counted
# for both, source vertices for dijkstra
CSGRAPH_COUNTED = ("dijkstra", "connected_components")

# per-layer metrics: (name, unit, better), in the order they are printed
LAYER_METRICS = [
    ("sampler.sample_s", "s", "lower"),
    ("graphs.build_s", "s", "lower"),
    ("graphs.build_us_per_edge", "us/edge", "lower"),
    ("graphs.load_s", "s", "lower"),
    ("graphs.save_s", "s", "lower"),
    ("graphs.neighbors_calls", "count", "lower"),
    ("analysis.components_s", "s", "lower"),
    ("analysis.diameter_s", "s", "lower"),
    ("analysis.bfs_sources", "count", "lower"),
    ("analysis.paths_s", "s", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("explorer.expose_s", "s", "lower"),
    ("explorer.descent_calls", "count", "lower"),
    ("explorer.audit_s", "s", "lower"),
    ("explorer.audit_us_per_component", "us/component", "lower"),
    ("explorer.audit_bfs_sources", "count", "lower"),
    ("measure.mc_s", "s", "lower"),
    ("measure.mc_points_per_s", "points/s", "higher"),
    ("cli.self_s", "s", "lower"),
    ("src.lines", "lines", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def _resolve(modules, path):
    head, *rest = path.split(".")
    owner = modules[head]
    for part in rest[:-1]:
        owner = getattr(owner, part)
    return owner, rest[-1]


def _source_count(bound):
    """Source vertices of a bound dijkstra call: `indices`, where None
    means every vertex."""
    given = bound.arguments
    if given.get("indices") is None:
        return int(given["csgraph"].shape[0])
    return int(np.size(given["indices"]))


class Tracer:
    """Spans and counters recorded through attribute wrappers.

    `install` swaps the wrappers in and `uninstall` restores the
    originals, so untraced rounds run the program unmodified.
    """

    def __init__(self, modules, csgraph_module):
        self.modules = modules
        self.csgraph = csgraph_module
        self.spans = []
        self.counts = defaultdict(int)   # (counter, span index or -1) -> value
        self.stack = []
        self.phase = "setup"
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {"name": name, "phase": self.phase,
                   "parent": self.stack[-1] if self.stack else -1,
                   "start": time.perf_counter(), "end": None}
            self.spans.append(rec)
            self.stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self.stack.pop()
            if name == "graphs.build":
                rec["edges"] = int(result.edge_count)
            elif name == "explorer.audit":
                rec["components"] = len(result.components)
            elif name == "measure.mc":
                rec["points"] = int(args[1] if len(args) > 1 else kwargs["samples"])
            return result
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[(name, self.stack[-1] if self.stack else -1)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _csgraph_counted(self, fn):
        signature = inspect.signature(fn) if fn.__name__ == "dijkstra" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            where = self.stack[-1] if self.stack else -1
            self.counts[("csgraph.calls", where)] += 1
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                self.counts[("csgraph.sources", where)] += _source_count(bound)
            return fn(*args, **kwargs)
        return wrapper

    def _swap(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        if self._saved:
            return
        for path, name in SPANNED:
            owner, attr = _resolve(self.modules, path)
            self._swap(owner, attr, self._spanned(name, getattr(owner, attr)))
        for path, name in COUNTED:
            owner, attr = _resolve(self.modules, path)
            self._swap(owner, attr, self._counted(name, getattr(owner, attr)))
        for attr in CSGRAPH_COUNTED:
            self._swap(self.csgraph, attr, self._csgraph_counted(getattr(self.csgraph, attr)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- derived figures ---------------------------------------------------

    def _ancestors(self, idx):
        while idx >= 0:
            yield self.spans[idx]["name"]
            idx = self.spans[idx]["parent"]

    def dump(self, path, extra):
        with open(path, "w") as f:
            json.dump({"spans": self.spans,
                       "counts": [{"counter": c, "span": s, "value": v}
                                  for (c, s), v in sorted(self.counts.items())],
                       **extra}, f)
            f.write("\n")


def layer_metrics(tracer, traced_ops, overhead_pct, src_lines):
    """Per-layer figures from a traced run.

    Spans inside operations are averaged over the `traced_ops` traced
    operations; spans in set-up are added once, so set-up work (the
    analyze workload's build and save) shows in the same figures.
    """
    spans = tracer.spans
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            child[s["parent"]] += dur[i]

    def share(i):
        return 1.0 if spans[i]["phase"] == "setup" else 1.0 / max(traced_ops, 1)

    total = defaultdict(float)      # name -> seconds (per op, set-up once)
    self_time = defaultdict(float)
    raw = defaultdict(float)        # name -> seconds, not averaged
    bases = defaultdict(float)      # (name, key) -> work, averaged like the times
    raw_bases = defaultdict(int)    # (name, key) -> work, not averaged (ratio bases)
    for i, s in enumerate(spans):
        total[s["name"]] += dur[i] * share(i)
        self_time[s["name"]] += (dur[i] - child[i]) * share(i)
        raw[s["name"]] += dur[i]
        for key in ("edges", "components", "points"):
            if key in s:
                bases[(s["name"], key)] += s[key] * share(i)
                raw_bases[(s["name"], key)] += s[key]

    counts = defaultdict(float)
    for (name, where), value in tracer.counts.items():
        w = share(where) if where >= 0 else 1.0
        counts[name] += value * w
        if name == "csgraph.sources" and where >= 0:
            chain = list(tracer._ancestors(where))
            if "explorer.audit" in chain:
                counts["explorer.audit_bfs_sources"] += value * w
            elif any(n.startswith("analysis.") for n in chain):
                counts["analysis.bfs_sources"] += value * w

    def per(numer, denom, scale=1.0):
        return numer * scale / denom if denom else 0.0

    values = {
        "sampler.sample_s": total["sampler.sample"],
        "graphs.build_s": total["graphs.build"],
        "graphs.build_us_per_edge": per(raw["graphs.build"], raw_bases[("graphs.build", "edges")], 1e6),
        "graphs.load_s": total["graphs.load"],
        "graphs.save_s": total["graphs.save"],
        "graphs.neighbors_calls": counts["graphs.neighbors_calls"],
        "analysis.components_s": total["analysis.components"],
        "analysis.diameter_s": total["analysis.diameter"],
        "analysis.bfs_sources": counts["analysis.bfs_sources"],
        "analysis.paths_s": total["analysis.paths"],
        "analysis.self_s": self_time["analysis.analyze"],
        "explorer.expose_s": total["explorer.expose"],
        "explorer.descent_calls": counts["explorer.descent_calls"],
        "explorer.audit_s": total["explorer.audit"],
        "explorer.audit_us_per_component": per(
            raw["explorer.audit"], raw_bases[("explorer.audit", "components")], 1e6),
        "explorer.audit_bfs_sources": counts["explorer.audit_bfs_sources"],
        "measure.mc_s": total["measure.mc"],
        "measure.mc_points_per_s": per(raw_bases[("measure.mc", "points")], raw["measure.mc"]),
        "cli.self_s": self_time["cli"],
        "src.lines": src_lines,
        "trace.overhead_pct": overhead_pct,
    }
    base_counts = {
        "graphs.build_edges": bases[("graphs.build", "edges")],
        "explorer.audit_components": bases[("explorer.audit", "components")],
        "measure.mc_points": bases[("measure.mc", "points")],
        "csgraph.calls": counts["csgraph.calls"],
    }
    return values, base_counts
