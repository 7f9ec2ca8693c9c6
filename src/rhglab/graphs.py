"""Graph construction: edge iff hyperbolic distance <= R.

The one edge predicate, `geometry.edge_mask`, decides every pair in both
builders, so their edge sets are identical bit for bit.  `build_naive`
tests all pairs; `build_fast` tests the pairs inside angular windows over
radial bands.  The windows are a padded superset of the true
neighbourhoods, so pairs at the threshold angle are left to the predicate.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .geometry import TWO_PI, ModelParams, cos_threshold_array, edge_mask
from .sampler import SampleSet, load_points, save_points

EDGES_FORMAT = "rhg-edges v1"

NAIVE_SIZE_GUARD = 50_000

# radial width of every band above the core band [0, R/2]
BAND_WIDTH = 1.0
# candidate pairs expanded at once; bounds the sweep's temporary arrays
CHUNK_PAIRS = 1 << 20
# a window's cosine threshold is lowered by TIE_EPS times its rounding-error
# scale, and its half-width widened by ANGLE_PAD radians
TIE_EPS = 8 * np.finfo(float).eps
ANGLE_PAD = 1e-14


@dataclass(frozen=True)
class Graph:
    """Immutable vertex coordinates plus CSR adjacency, with provenance."""

    sample: SampleSet
    indptr: np.ndarray
    indices: np.ndarray
    builder: str

    @classmethod
    def from_edges(cls, sample: SampleSet, us, vs, builder: str) -> "Graph":
        """Graph on the points of `sample` with undirected edges (us[i], vs[i]),
        stored as symmetric CSR with sorted neighbour lists."""
        src = np.concatenate([us, vs]).astype(np.int64)
        dst = np.concatenate([vs, us]).astype(np.int64)
        order = np.lexsort((dst, src))
        indptr = np.zeros(sample.n_total + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=sample.n_total), out=indptr[1:])
        return cls(sample=sample, indptr=indptr, indices=dst[order], builder=builder)

    @property
    def n_vertices(self) -> int:
        return len(self.indptr) - 1

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    @property
    def params(self) -> ModelParams:
        return self.sample.params

    @property
    def seed(self) -> int:
        return self.sample.seed

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def has_edge(self, u: int, v: int) -> bool:
        nb = self.neighbors(u)
        i = np.searchsorted(nb, v)
        return bool(i < len(nb) and nb[i] == v)

    def edge_array(self) -> np.ndarray:
        """(m, 2) array of edges with u < v, lexicographically sorted."""
        n = self.n_vertices
        us = np.repeat(np.arange(n), np.diff(self.indptr))
        vs = self.indices
        keep = us < vs
        return np.column_stack([us[keep], vs[keep]])

    def as_csr_matrix(self) -> sparse.csr_matrix:
        """The adjacency as a scipy CSR matrix of int8 ones, for csgraph."""
        n = self.n_vertices
        data = np.ones(len(self.indices), dtype=np.int8)
        return sparse.csr_matrix((data, self.indices, self.indptr), shape=(n, n))


def build_naive(sample: SampleSet, override_size_guard: bool = False) -> Graph:
    """All-pairs edge test; quadratic, guarded at 5e4 vertices."""
    n = sample.n_total
    if n > NAIVE_SIZE_GUARD and not override_size_guard:
        raise ValueError(
            f"{n} vertices exceeds naive-builder guard {NAIVE_SIZE_GUARD}; "
            "pass override_size_guard=True to force"
        )
    r = sample.all_r()
    theta = sample.all_theta()
    cosh_r = np.cosh(r)
    sinh_r = np.sinh(r)
    cosh_R = math.cosh(sample.params.R)
    us_parts, vs_parts = [], []
    block = max(1, int(4e6 // max(n, 1)) or 1)
    for start in range(0, n, block):
        stop = min(start + block, n)
        i = np.arange(start, stop)
        cos_dt = np.cos(theta[i, None] - theta[None, :])
        mask = edge_mask(
            cos_dt,
            cosh_r[i, None], sinh_r[i, None],
            cosh_r[None, :], sinh_r[None, :],
            cosh_R,
        )
        mask &= i[:, None] < np.arange(n)[None, :]
        ui, vi = np.nonzero(mask)
        us_parts.append(i[ui])
        vs_parts.append(vi)
    us = np.concatenate(us_parts) if us_parts else np.empty(0, dtype=np.int64)
    vs = np.concatenate(vs_parts) if vs_parts else np.empty(0, dtype=np.int64)
    return Graph.from_edges(sample, us, vs, "naive")


def _window_pairs(lo, hi):
    """(window index, position) for every position in the windows
    [lo[i], hi[i]), in chunks of about CHUNK_PAIRS pairs."""
    counts = hi - lo
    ends = np.cumsum(counts)
    cuts = np.searchsorted(ends, np.arange(CHUNK_PAIRS, ends[-1], CHUNK_PAIRS))
    for a, b in zip(np.r_[0, cuts], np.r_[cuts, len(lo)]):
        c = counts[a:b]
        first = np.cumsum(c) - c
        yield (np.repeat(np.arange(a, b), c),
               np.arange(int(c.sum())) + np.repeat(lo[a:b] - first, c))


def build_fast(sample: SampleSet) -> Graph:
    """Radial-band sweep; edge set identical to build_naive.

    Each pair is owned by its endpoint in the lower band, or by the smaller
    index when both share a band.  For band j, every vertex in bands <= j
    looks up its padded angular window in band j's angle-sorted members
    (tiled at -2 pi, 0 and +2 pi, so windows wrap without a special case),
    and `edge_mask` decides each candidate pair.
    """
    params = sample.params
    r = sample.all_r()
    theta = sample.all_theta()
    angle = np.mod(theta, TWO_PI)  # the tiled search needs angles in [0, 2 pi)
    cosh_r = np.cosh(r)
    sinh_r = np.sinh(r)
    cosh_R = math.cosh(params.R)
    band = np.ceil(np.maximum(r - params.R / 2.0, 0.0) / BAND_WIDTH).astype(np.int64)
    order = np.lexsort((angle, band))
    bands, starts = np.unique(band[order], return_index=True)
    us_parts, vs_parts = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for j, start, stop in zip(bands, starts, np.r_[starts[1:], len(r)]):
        members = order[start:stop]
        queries = order[:stop]
        m = len(members)
        r_low = float(r[members].min())
        # a radius at or near 0 makes the threshold and its error bound
        # infinite; the nan of inf - inf becomes a full window
        with np.errstate(all="ignore"):
            scale = (cosh_r[queries] * math.cosh(r_low) + cosh_R) / (
                sinh_r[queries] * math.sinh(r_low))
            thr = cos_threshold_array(r[queries], r_low, params) - TIE_EPS * scale
        w = np.arccos(np.clip(np.nan_to_num(thr, nan=-1.0), -1.0, 1.0)) + ANGLE_PAD
        a = angle[members]
        tiled = np.concatenate([a - TWO_PI, a, a + TWO_PI])
        lo = np.searchsorted(tiled, angle[queries] - w, side="left")
        # a window of 2 pi or more takes each member once
        hi = np.minimum(np.searchsorted(tiled, angle[queries] + w, side="right"), lo + m)
        lower = band[queries] < j
        for q, pos in _window_pairs(lo, hi):
            u = queries[q]
            v = members[pos % m]
            keep = lower[q] | (u < v)
            u, v = u[keep], v[keep]
            hit = edge_mask(np.cos(theta[u] - theta[v]), cosh_r[u], sinh_r[u],
                            cosh_r[v], sinh_r[v], cosh_R)
            us_parts.append(u[hit])
            vs_parts.append(v[hit])
    return Graph.from_edges(sample, np.concatenate(us_parts), np.concatenate(vs_parts), "fast")


def build(sample: SampleSet, builder: str = "fast") -> Graph:
    if builder == "fast":
        return build_fast(sample)
    if builder == "naive":
        return build_naive(sample)
    raise ValueError(f"unknown builder {builder!r}")


# ---------------------------------------------------------------------------
# persistence: graph bundle = points file + edge file

class GraphFormatError(ValueError):
    """Malformed or inconsistent graph bundle."""


_SEPS = np.array([ord("\t"), ord("\n")], dtype=np.uint8)


def _edge_payload(edges: np.ndarray) -> bytes:
    """Rows "u<TAB>v<LF>" in decimal ASCII, written digit place by place."""
    vals = edges.ravel()
    if len(vals) == 0:
        return b""
    width = np.searchsorted(10 ** np.arange(1, 19), vals, side="right") + 1
    ends = np.cumsum(width + 1)  # one past each value's separator
    buf = np.empty(int(ends[-1]), dtype=np.uint8)
    buf[ends - 1] = np.tile(_SEPS, len(edges))
    for k in range(int(width.max())):
        has = width > k
        buf[(ends - 2 - k)[has]] = vals[has] // 10 ** k % 10 + ord("0")
    return buf.tobytes()


def _parse_edge_rows(payload: bytes, count: int) -> np.ndarray:
    """(count, 2) int64 array from rows "u<TAB>v<LF>"; the last LF may be
    missing.  Raises GraphFormatError on any other layout."""
    buf = np.frombuffer(payload, dtype=np.uint8)
    if len(buf) and buf[-1] != _SEPS[1]:
        buf = np.append(buf, _SEPS[1])
    rows = int(np.count_nonzero(buf == _SEPS[1]))
    if rows != count:
        raise GraphFormatError(f"header count={count} but {rows} edge rows")
    if count == 0:
        return np.empty((0, 2), dtype=np.int64)
    is_sep = np.isin(buf, _SEPS)
    sep = np.flatnonzero(is_sep)
    if not np.array_equal(buf[sep], np.tile(_SEPS, count)):
        raise GraphFormatError("bad edge row: each row must hold two tab-separated fields")
    digit = np.flatnonzero(~is_sep)
    width = np.diff(sep, prepend=-1) - 1
    chars = buf[digit]
    if np.any((chars < ord("0")) | (chars > ord("9"))) or width.min() < 1 or width.max() > 18:
        raise GraphFormatError("bad edge row: fields must be decimal integers of 1 to 18 digits")
    place = np.repeat(sep, width) - digit - 1
    first = np.cumsum(width) - width
    vals = np.add.reduceat((chars - ord("0")).astype(np.int64) * 10 ** place, first)
    return vals.reshape(count, 2)


def save_edges(g: Graph, path):
    edges = g.edge_array()
    payload = _edge_payload(edges)
    checksum = hashlib.sha256(payload).hexdigest()[:16]
    with open(path, "wb") as f:
        f.write(f"# {EDGES_FORMAT} count={len(edges)} checksum={checksum}\n".encode())
        f.write(payload)


def load_edges(path, n_vertices: int):
    with open(path, "rb") as f:
        header = f.readline().decode(errors="replace").rstrip("\n")
        prefix = f"# {EDGES_FORMAT} "
        if not header.startswith(prefix):
            raise GraphFormatError(f"bad edges header: {header!r}")
        try:
            fields = dict(tok.split("=", 1) for tok in header[len(prefix):].split())
            count = int(fields["count"])
            checksum = fields["checksum"]
        except (KeyError, ValueError) as e:
            raise GraphFormatError(f"bad edges header fields: {e}") from e
        payload = f.read()
    if hashlib.sha256(payload).hexdigest()[:16] != checksum:
        raise GraphFormatError("edge payload checksum mismatch")
    edges = _parse_edge_rows(payload, count)
    if np.any(edges[:, 0] >= edges[:, 1]):
        raise GraphFormatError("edges must be u < v pairs")
    if np.any(edges >= n_vertices):
        raise GraphFormatError("edge endpoint out of vertex range")
    return edges


def save_graph(g: Graph, prefix):
    """Write `<prefix>.points.tsv` and `<prefix>.edges.tsv`."""
    save_points(g.sample, f"{prefix}.points.tsv")
    save_edges(g, f"{prefix}.edges.tsv")


def load_graph(prefix, builder: str = "loaded") -> Graph:
    sample = load_points(f"{prefix}.points.tsv")
    edges = load_edges(f"{prefix}.edges.tsv", sample.n_total)
    return Graph.from_edges(sample, edges[:, 0], edges[:, 1], builder)
