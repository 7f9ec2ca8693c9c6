"""Graph builder tests: naive/fast edge-set equality, structural
invariants, toy edge cases, and the edge-file format.
"""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rhglab.explorer import verify_path
from rhglab.geometry import TWO_PI, ModelParams, PolarPoint, is_edge, max_angle_for_edge
from rhglab import graphs
from rhglab.graphs import (
    BAND_WIDTH,
    EDGES_FORMAT,
    Graph,
    GraphFormatError,
    build,
    build_fast,
    build_naive,
    load_edges,
    load_graph,
    save_edges,
    save_graph,
)
from rhglab.sampler import SampleSet, add_probe, sample_uniform_model


def manual_sample(r_list, theta_list, params, seed=0):
    return SampleSet(
        r=np.asarray(r_list, dtype=float),
        theta=np.asarray(theta_list, dtype=float),
        params=params,
        seed=seed,
        model="uniform",
    )


def test_builders_identical_small_grid():
    for alpha in (0.6, 0.75, 0.9):
        params = ModelParams(alpha=alpha, C=0.0, n=400)
        for seed in range(5):
            s = sample_uniform_model(params, seed)
            gn = build_naive(s)
            gf = build_fast(s)
            assert np.array_equal(gn.edge_array(), gf.edge_array()), (alpha, seed)


def test_builders_identical_with_probes():
    params = ModelParams(alpha=0.75, C=0.0, n=300)
    s = sample_uniform_model(params, 1)
    s = add_probe(s, PolarPoint(r=params.R - 0.5, theta=1.0))
    s = add_probe(s)
    gn = build_naive(s)
    gf = build_fast(s)
    assert np.array_equal(gn.edge_array(), gf.edge_array())
    assert gn.n_vertices == params.n + 2


@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_builders_identical_in_small_chunks(monkeypatch, chunk):
    # windows split across, and many windows within, one expansion chunk
    monkeypatch.setattr(graphs, "CHUNK_PAIRS", chunk)
    params = ModelParams(alpha=0.6, C=-1.0, n=600)
    s = add_probe(sample_uniform_model(params, 3), PolarPoint(r=0.0, theta=6.0))
    assert np.array_equal(build_naive(s).edge_array(), build_fast(s).edge_array())


TIE_PARAMS = ModelParams(alpha=0.75, C=0.0, n=1000)
TIE_R = TIE_PARAMS.R
# R/2 and the band boundaries above it, where the sweep's windows change
BOUNDARIES = [TIE_R / 2 + k * BAND_WIDTH for k in range(int((TIE_R / 2) // BAND_WIDTH) + 1)]


def _radius():
    """Radii in [0, R): anywhere, at 0, or just either side of a boundary."""
    at_boundary = st.builds(
        lambda b, d: min(max(b + d, 0.0), math.nextafter(TIE_R, 0.0)),
        st.sampled_from(BOUNDARIES),
        st.sampled_from([-1e-6, -1e-12, -2e-15, 0.0, 2e-15, 1e-12, 1e-6]),
    )
    return st.one_of(st.just(0.0), at_boundary,
                     st.floats(0.0, math.nextafter(TIE_R, 0.0)))


def _tie_pair():
    """Two points whose angular gap is max_angle_for_edge(r_u, r_v) moved by
    k ulp, k in -4..4, on either side of theta_u; theta_u near 0 or 2 pi
    makes the window wrap across theta = 0."""
    theta_u = st.one_of(st.floats(0.0, 1e-3), st.floats(TWO_PI - 1e-3, math.nextafter(TWO_PI, 0.0)),
                        st.floats(0.0, math.nextafter(TWO_PI, 0.0)))
    return st.tuples(_radius(), _radius(), theta_u, st.integers(-4, 4), st.sampled_from([-1, 1]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_tie_pair(), min_size=1, max_size=6))
def test_builders_identical_at_threshold_ties(pairs):
    r, theta = [0.0], [1.0]  # an r = 0 vertex, adjacent to every other
    for r_u, r_v, theta_u, k, side in pairs:
        w = max_angle_for_edge(r_u, r_v, TIE_PARAMS)
        gap = w + k * math.ulp(w)
        r += [r_u, r_v]
        theta += [theta_u, (theta_u + side * gap) % TWO_PI]
    s = manual_sample(r, theta, TIE_PARAMS)
    g = build_naive(s)
    assert np.array_equal(g.edge_array(), build_fast(s).edge_array())
    # the point-level predicate and path check decide each tie pair as built
    for u in range(1, len(r), 2):
        adjacent = g.has_edge(u, u + 1)
        assert is_edge(s.point(u), s.point(u + 1), TIE_PARAMS) == adjacent
        if adjacent:
            assert verify_path(g, [u, u + 1])


@pytest.mark.parametrize("R", [340.0, 350.0])
def test_builders_identical_at_large_radius(R):
    params = ModelParams(alpha=0.75, C=R - 2.0 * math.log(1000), n=1000)
    assert params.R == R
    s = sample_uniform_model(params, 0)
    # sampled radii all lie near R, with no edges among them; inner probes
    # give edges at every band.  The three outer probes, 1e-9 rad apart,
    # have threshold angles below 1e-70, yet the predicate accepts them
    # (cos(1e-9) rounds to 1), so the windows must reach 1e-9 rad as well
    for r, theta in [(0.0, 0.0), (2.0, 2.0), (9.0, 9.0), (R / 2, 1.0), (R / 2 + 0.5, 4.0),
                     (R - 1.0, 1.0), (R - 1.0, 1.0 + 1e-9), (R - 1.0 - 1e-9, 1.0 - 1e-9)]:
        s = add_probe(s, PolarPoint(r=r, theta=theta))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        gn, gf = build_naive(s), build_fast(s)
    assert gn.edge_count > 1000
    assert np.array_equal(gn.edge_array(), gf.edge_array())


def test_toy_sizes():
    params = ModelParams(alpha=0.75, C=0.0, n=2)
    empty = manual_sample([], [], params)
    assert build_fast(empty).edge_count == 0
    one = manual_sample([3.0], [0.0], params)
    assert build_naive(one).edge_count == build_fast(one).edge_count == 0
    close = manual_sample([1.0, 1.0], [0.0, 0.1], ModelParams(alpha=0.75, C=0.0, n=10))
    assert build_naive(close).edge_count == build_fast(close).edge_count == 1


def test_naive_size_guard():
    params = ModelParams(alpha=0.75, C=0.0, n=60_000)
    s = sample_uniform_model(params, 0)
    with pytest.raises(ValueError):
        build_naive(s)


def test_center_clique_always_connected():
    params = ModelParams(alpha=0.75, C=0.0, n=500)
    s = sample_uniform_model(params, 7)
    g = build_fast(s)
    core = np.flatnonzero(s.all_r() <= params.R / 2)
    for i, u in enumerate(core):
        for v in core[i + 1:]:
            assert g.has_edge(int(u), int(v))


def test_degree_sum():
    params = ModelParams(alpha=0.75, C=0.0, n=800)
    g = build_fast(sample_uniform_model(params, 3))
    assert int(g.degrees().sum()) == 2 * g.edge_count


def test_adjacency_sorted_symmetric_no_loops():
    params = ModelParams(alpha=0.75, C=0.0, n=400)
    g = build_fast(sample_uniform_model(params, 5))
    for u in range(g.n_vertices):
        nb = g.neighbors(u)
        assert np.all(np.diff(nb) > 0)
        assert u not in nb
        for v in nb:
            assert u in g.neighbors(int(v))


def test_unknown_builder():
    params = ModelParams(alpha=0.75, C=0.0, n=10)
    with pytest.raises(ValueError):
        build(sample_uniform_model(params, 0), builder="magic")


def test_graph_round_trip(tmp_path):
    params = ModelParams(alpha=0.75, C=0.0, n=200)
    g = build_fast(sample_uniform_model(params, 9))
    prefix = tmp_path / "g"
    save_graph(g, prefix)
    h = load_graph(prefix)
    assert np.array_equal(g.edge_array(), h.edge_array())
    assert np.array_equal(g.indptr, h.indptr)
    assert h.params == g.params and h.seed == g.seed


def test_edge_file_bytes(tmp_path):
    # rows are "u<TAB>v<LF>" in decimal, including multi-digit widths
    params = ModelParams(alpha=0.75, C=0.0, n=1500)
    g = build_fast(sample_uniform_model(params, 4))
    path = tmp_path / "e.tsv"
    save_edges(g, path)
    payload = "".join(f"{u}\t{v}\n" for u, v in g.edge_array()).encode()
    checksum = hashlib.sha256(payload).hexdigest()[:16]
    header = f"# {EDGES_FORMAT} count={g.edge_count} checksum={checksum}\n".encode()
    assert path.read_bytes() == header + payload
    assert np.array_equal(load_edges(path, g.n_vertices), g.edge_array())
    empty = Graph.from_edges(g.sample, [], [], "manual")
    save_edges(empty, path)
    assert load_edges(path, g.n_vertices).shape == (0, 2)


def _write_edges(path, payload: bytes, count: int):
    checksum = hashlib.sha256(payload).hexdigest()[:16]
    path.write_bytes(f"# {EDGES_FORMAT} count={count} checksum={checksum}\n".encode() + payload)


def test_edges_without_final_newline(tmp_path):
    path = tmp_path / "e.tsv"
    _write_edges(path, b"0\t1\n2\t13", 2)
    assert load_edges(path, 14).tolist() == [[0, 1], [2, 13]]


@pytest.mark.parametrize("payload,count,n", [
    (b"0\t1\n", 2, 5),               # header count disagrees with rows
    (b"0\t1\n\n", 2, 5),            # blank row
    (b"0\tx\n", 1, 5),               # non-integer field
    (b"0\t-1\n", 1, 5),              # signed field
    (b"0\t1.0\n", 1, 5),             # non-integer field
    (b"0\t\n", 1, 5),                # empty field
    (b"0\t1\t2\n", 1, 5),           # three columns
    (b"0\n1\t2\n", 2, 5),           # one column
    (b"0 1\n", 1, 5),                # wrong separator
    (b"2\t1\n", 1, 5),               # u > v
    (b"3\t3\n", 1, 5),               # u == v
    (b"0\t5\n", 1, 5),               # endpoint out of range
    (b"0\t" + b"9" * 19 + b"\n", 1, 5),  # too long for int64
])
def test_edges_malformed_rows(tmp_path, payload, count, n):
    path = tmp_path / "e.tsv"
    _write_edges(path, payload, count)
    with pytest.raises(GraphFormatError):
        load_edges(path, n)


@pytest.mark.parametrize("header", [
    b"# rhg-edges v0 count=1 checksum=0\n",
    b"# rhg-edges v1 count=1\n",
    b"# rhg-edges v1 count=one checksum=0\n",
    b"# rhg-edges v1 count checksum=0\n",
    b"\xff\xfe\n",
])
def test_edges_bad_header(tmp_path, header):
    path = tmp_path / "e.tsv"
    path.write_bytes(header + b"0\t1\n")
    with pytest.raises(GraphFormatError):
        load_edges(path, 5)


def test_edges_checksum_mismatch(tmp_path):
    params = ModelParams(alpha=0.75, C=0.0, n=100)
    g = build_fast(sample_uniform_model(params, 2))
    path = tmp_path / "e.tsv"
    save_edges(g, path)
    text = path.read_text().splitlines()
    text[1] = "0\t1"  # tamper with the payload
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(GraphFormatError):
        load_edges(path, g.n_vertices)


def test_edges_truncated(tmp_path):
    params = ModelParams(alpha=0.75, C=0.0, n=100)
    g = build_fast(sample_uniform_model(params, 2))
    path = tmp_path / "e.tsv"
    save_edges(g, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(GraphFormatError):
        load_edges(path, g.n_vertices)


def test_bundle_header_mismatch(tmp_path):
    params = ModelParams(alpha=0.75, C=0.0, n=100)
    g = build_fast(sample_uniform_model(params, 2))
    prefix = tmp_path / "g"
    save_graph(g, prefix)
    pts = (tmp_path / "g.points.tsv").read_text().splitlines()
    pts[0] = pts[0].replace("alpha=0.75", "alpha=0.9")
    (tmp_path / "g.points.tsv").write_text("\n".join(pts) + "\n")
    with pytest.raises(ValueError):
        load_graph(prefix)
