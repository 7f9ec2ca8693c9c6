"""Analysis tests: components against a BFS-flood oracle, diameters
against an all-pairs oracle, center clique, distance to center,
induced-path classification, degree statistics, and the report schema.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csgraph

from rhglab.analysis import (
    CenterCliqueError,
    analyze,
    bounding_diameters,
    center_clique,
    component_diameter,
    component_vertices,
    connected_components,
    degree_stats,
    distance_to_center,
    induced_path_components,
    save_report,
)
from rhglab.cli import main
from rhglab.geometry import ModelParams
from rhglab.graphs import Graph, build_fast, save_graph
from rhglab.sampler import SampleSet, sample_uniform_model

PARAMS = ModelParams(alpha=0.75, C=0.0, n=500)


def _bfs_component(g: Graph, start: int) -> np.ndarray:
    """Plain BFS flood from start (independent oracle for components)."""
    seen = np.zeros(g.n_vertices, dtype=bool)
    seen[start] = True
    stack = [start]
    while stack:
        u = stack.pop()
        for v in g.neighbors(u):
            if not seen[v]:
                seen[v] = True
                stack.append(int(v))
    return np.flatnonzero(seen)


def verify_induced_path(g: Graph, path: list) -> bool:
    """Re-check a reported path: consecutive adjacent, the rest non-adjacent."""
    for i, u in enumerate(path):
        for j in range(i + 1, len(path)):
            v = path[j]
            adjacent = g.has_edge(u, v)
            if j == i + 1 and not adjacent:
                return False
            if j > i + 1 and adjacent:
                return False
    return True


def graph_from_edges(n, edges, params=PARAMS):
    """Graph with synthetic coordinates; only adjacency matters here."""
    s = SampleSet(
        r=np.full(n, params.R - 1.0),
        theta=np.linspace(0, 1, n, endpoint=False),
        params=params,
        seed=0,
        model="manual",
    )
    us = np.array([e[0] for e in edges], dtype=np.int64)
    vs = np.array([e[1] for e in edges], dtype=np.int64)
    return Graph.from_edges(s, us, vs, "manual")


def test_components_empty_graph():
    g = graph_from_edges(5, [])
    stats = connected_components(g)
    assert len(stats.sizes) == 5
    assert stats.giant_size == 1 and stats.second_size == 1
    assert list(stats.labels) == [0, 1, 2, 3, 4]


def test_components_labels_are_min_index():
    g = graph_from_edges(6, [(1, 4), (4, 5), (2, 3)])
    stats = connected_components(g)
    assert list(stats.labels) == [0, 1, 2, 2, 1, 1]
    assert stats.giant_size == 3 and stats.second_size == 2


def test_components_match_bfs_oracle():
    for seed in range(20):
        params = ModelParams(alpha=0.75, C=0.0, n=500)
        g = build_fast(sample_uniform_model(params, seed))
        stats = connected_components(g)
        seen = np.zeros(g.n_vertices, dtype=bool)
        for v in range(g.n_vertices):
            if seen[v]:
                continue
            comp = _bfs_component(g, v)
            seen[comp] = True
            assert np.all(stats.labels[comp] == stats.labels[v])
            assert int(comp.min()) == stats.labels[v]
            assert len(comp) == int(np.count_nonzero(stats.labels == stats.labels[v]))


def test_component_diameter_trivials():
    path3 = graph_from_edges(3, [(0, 1), (1, 2)])
    val, exact = component_diameter(path3, np.arange(3), mode="exact")
    assert (val, exact) == (2, True)
    clique = graph_from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert component_diameter(clique, np.arange(4), mode="exact") == (1, True)
    single = graph_from_edges(1, [])
    assert component_diameter(single, np.array([0]), mode="exact") == (0, True)


def assert_diameters_match_oracle(g):
    """bounding_diameters over all components at once, and
    component_diameter on each, equal an all-pairs BFS oracle."""
    dist = csgraph.dijkstra(g.as_csr_matrix(), unweighted=True)
    dist[~np.isfinite(dist)] = -1
    labels = connected_components(g).labels
    want = np.zeros(g.n_vertices, dtype=np.int64)
    np.maximum.at(want, labels, dist.max(axis=1).astype(np.int64))
    assert np.array_equal(bounding_diameters(g.as_csr_matrix(), labels), want)
    for label in np.unique(labels):
        assert component_diameter(g, np.flatnonzero(labels == label)) == (want[label], True)


def test_component_diameter_matches_all_pairs():
    for seed in range(10):
        assert_diameters_match_oracle(build_fast(sample_uniform_model(PARAMS, seed)))
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        component_diameter(g, np.arange(3), mode="approximate")


def shapes():
    """(edge list, vertex count, diameter) for small hand-made graphs."""
    path = [(i, i + 1) for i in range(9)]
    cycle9 = [(i, (i + 1) % 9) for i in range(9)]
    cycle10 = [(i, (i + 1) % 10) for i in range(10)]
    star = [(0, i) for i in range(1, 8)]
    k5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    barbell = k5 + [(i + 8, j + 8) for i, j in k5] + [(4, 5), (5, 6), (6, 7), (7, 8)]
    return [(path, 10, 9), (cycle9, 9, 4), (cycle10, 10, 5), (star, 8, 2),
            (barbell, 13, 6)]


def test_bounding_diameters_hand_made_shapes():
    edges, offset, expected = [], 0, {}
    for shape, k, diameter in shapes():
        g = graph_from_edges(k, shape)
        assert component_diameter(g, np.arange(k)) == (diameter, True)
        # the disjoint union, with an isolated vertex after each shape
        edges += [(u + offset, v + offset) for u, v in shape]
        expected[offset] = diameter
        expected[offset + k] = 0
        offset += k + 1
    union = graph_from_edges(offset, edges)
    labels = connected_components(union).labels
    got = bounding_diameters(union.as_csr_matrix(), labels)
    assert {int(c): int(got[c]) for c in np.unique(labels)} == expected
    assert_diameters_match_oracle(union)


@st.composite
def edge_lists(draw):
    n = draw(st.integers(1, 40))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=80))
    return n, sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})


@settings(max_examples=200, deadline=None)
@given(edge_lists())
def test_bounding_diameters_random_edge_lists(graph):
    n, edges = graph
    assert_diameters_match_oracle(graph_from_edges(n, edges))


def test_center_clique_and_distance():
    g = build_fast(sample_uniform_model(ModelParams(alpha=0.75, C=0.0, n=3000), 4))
    clique = center_clique(g)
    r = g.sample.all_r()
    assert np.all(r[clique] <= g.params.R / 2)
    dist = distance_to_center(g)
    assert np.all(dist[clique] == 0)
    for u in clique:
        for v in g.neighbors(int(u)):
            assert dist[v] <= 1
    # finite distance iff sharing a component with a clique vertex
    stats = connected_components(g)
    clique_labels = set(stats.labels[clique].tolist())
    for v in range(g.n_vertices):
        assert np.isfinite(dist[v]) == (stats.labels[v] in clique_labels)


def test_center_clique_violation_rejected(tmp_path):
    # every vertex lies inside B_O(R/2), so all 2001 pairs must be edges
    n = 2001
    s = SampleSet(r=np.full(n, 0.5), theta=np.linspace(0, 1, n, endpoint=False),
                  params=PARAMS, seed=0, model="manual")
    g = Graph.from_edges(s, [], [], "manual")
    with pytest.raises(CenterCliqueError, match="vertices 0 and 1 not adjacent"):
        center_clique(g)
    save_graph(g, tmp_path / "g")
    assert main(["analyze", "--graph", str(tmp_path / "g"),
                 "--out", str(tmp_path / "rep.json")]) == 1


def test_induced_path_classifier_trivials():
    g = graph_from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (5, 7)])
    paths = induced_path_components(g)
    lengths = sorted(p.length for p in paths)
    assert lengths == [4]  # the 5-path; the triangle is excluded
    assert verify_induced_path(g, paths[0].vertices)


def test_induced_path_cycle_excluded():
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert induced_path_components(g) == []


def test_induced_path_singleton():
    g = graph_from_edges(3, [(0, 1)])
    paths = induced_path_components(g)
    lengths = sorted(p.length for p in paths)
    assert lengths == [0, 1]


def exhaustive_path_check(g, members):
    """Oracle: induced subgraph on a component is a simple path."""
    k = len(members)
    if k == 1:
        return True
    deg = {int(v): sum(1 for w in g.neighbors(int(v)) if w in set(members)) for v in members}
    ones = [v for v in members if deg[int(v)] == 1]
    twos = [v for v in members if deg[int(v)] == 2]
    if len(ones) != 2 or len(twos) != k - 2:
        return False
    edges = sum(deg.values()) // 2
    return edges == k - 1


def test_induced_paths_match_exhaustive_oracle():
    for seed in range(20):
        g = build_fast(sample_uniform_model(PARAMS, seed))
        stats = connected_components(g)
        found = {tuple(sorted(p.vertices)) for p in induced_path_components(g, stats=stats)}
        expected = set()
        for label in np.unique(stats.labels):
            members = component_vertices(stats, label)
            if exhaustive_path_check(g, members):
                expected.add(tuple(sorted(int(v) for v in members)))
        assert found == expected


def test_band_tagging():
    params = ModelParams(alpha=0.75, C=0.0, n=500)
    R = params.R
    s = SampleSet(
        r=np.array([R - 0.25, R - 0.25, R - 5.0, R - 5.0]),
        theta=np.array([0.0, 0.1, 2.0, 2.1]),
        params=params,
        seed=0,
        model="manual",
    )
    g = Graph.from_edges(s, [0, 2], [1, 3], "manual")
    paths = induced_path_components(g, band=(0.2, 0.3))
    by_start = {p.vertices[0]: p for p in paths}
    assert by_start[0].in_band
    assert not by_start[2].in_band


def test_degree_stats():
    clique = graph_from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    d = degree_stats(clique)
    assert int(d.histogram.sum()) == 4
    assert d.histogram[3] == 4
    g = build_fast(sample_uniform_model(PARAMS, 1))
    d1 = degree_stats(g)
    d2 = degree_stats(g)
    assert d1.tail_slope == d2.tail_slope
    assert int(d1.histogram.sum()) == g.n_vertices


def test_analyze_report_schema(tmp_path):
    g = build_fast(sample_uniform_model(PARAMS, 2))
    report = analyze(g)
    assert report["schema"] == "rhg-report v1"
    assert report["params"]["n"] == PARAMS.n
    assert sum(report["component_sizes"]) <= g.n_vertices
    assert report["giant_size"] >= report["second_size"]
    assert report["giant_diameter"]["exact"] is True
    clique = center_clique(g, verify=False)
    assert report["center_clique"]["size"] == len(clique)
    if len(clique) > 0:
        assert report["giant_size"] >= report["center_clique"]["size"]
    path = tmp_path / "rep.json"
    save_report(report, path)
    assert json.loads(path.read_text())["schema"] == "rhg-report v1"
