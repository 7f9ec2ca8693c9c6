"""Vertex sampling for the uniform n-vertex model and its Poissonized variant.

Radial coordinates come from the exact inverse CDF of the model's radial
law; every vertex draws from its own counter-based substream, so point i is
the same whether the set is generated serially or in parallel.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import mix, uniforms, uniforms_into
from .geometry import TWO_PI, ModelParams, PolarPoint

# probe substreams live far away from the vertex counters
_PROBE_STREAM_BASE = 1 << 62

POINTS_FORMAT = "rhg-points v1"
# one points row: index (negative for probes), r, theta
_POINTS_ROW = [("i", np.int64), ("r", np.float64), ("theta", np.float64)]
_POINTS_ROW_FORMAT = "%d\t%.17g\t%.17g\n"
# rows formatted per write in save_points
_SAVE_CHUNK = 1 << 16


def radial_quantile(u, params: ModelParams):
    """Inverse radial CDF: arccosh(1 + u (cosh(alpha R) - 1)) / alpha.

    Accepts scalars or arrays; u must lie in [0, 1].
    """
    u_arr = np.array(u, dtype=np.float64)
    if np.any(u_arr < 0) or np.any(u_arr > 1):
        raise ValueError("quantile argument must lie in [0, 1]")
    r = _quantile_into(u_arr, params)
    return float(r) if np.isscalar(u) else r


def _quantile_into(u, params: ModelParams):
    """radial_quantile without the range check, overwriting the float64
    array `u`."""
    u *= math.cosh(params.alpha * params.R) - 1.0
    u += 1.0
    np.arccosh(u, out=u)
    u /= params.alpha
    return u


def _radii_into(u, params: ModelParams):
    """Radii for the program's own uniforms in [0, 1), overwriting `u`."""
    r = _quantile_into(u, params)
    # u < 1 strictly, so r < R mathematically; guard the rounding edge
    return np.minimum(r, np.nextafter(params.R, 0.0), out=r)


def _points_from_counters(params: ModelParams, seed: int, streams):
    """Coordinates for substream ids `streams` (one vertex per id): theta
    from counter 2 id, r from counter 2 id + 1, mixed in one pass."""
    streams = np.asarray(streams, dtype=np.uint64)
    counters = np.empty((2, streams.size), dtype=np.uint64)
    np.multiply(streams, np.uint64(2), out=counters[0])
    np.add(counters[0], np.uint64(1), out=counters[1])
    theta, u = uniforms_into(seed, counters)
    theta *= TWO_PI
    theta[theta >= TWO_PI] = 0.0
    return _radii_into(u, params), theta


def _radii_from_counters(params: ModelParams, seed: int, streams):
    """The radii of _points_from_counters alone: no angle is drawn."""
    streams = np.asarray(streams, dtype=np.uint64)
    return _radii_into(uniforms_into(seed, streams * np.uint64(2) + np.uint64(1)), params)


@dataclass(frozen=True)
class SampleSet:
    """An immutable drawn point set, plus optional tagged probe vertices."""

    r: np.ndarray
    theta: np.ndarray
    params: ModelParams
    seed: int
    model: str  # "uniform" | "poisson"
    probe_r: np.ndarray = field(default_factory=lambda: np.empty(0))
    probe_theta: np.ndarray = field(default_factory=lambda: np.empty(0))
    meta: dict = field(default_factory=dict)

    @property
    def n_points(self) -> int:
        return len(self.r)

    @property
    def n_probes(self) -> int:
        return len(self.probe_r)

    @property
    def n_total(self) -> int:
        return self.n_points + self.n_probes

    def all_r(self) -> np.ndarray:
        """Radii of points followed by probes (graph-builder ordering)."""
        return np.concatenate([self.r, self.probe_r])

    def all_theta(self) -> np.ndarray:
        return np.concatenate([self.theta, self.probe_theta])

    def point(self, i: int) -> PolarPoint:
        """Vertex i in builder ordering; indices >= n_points are probes."""
        if i < self.n_points:
            return PolarPoint(r=float(self.r[i]), theta=float(self.theta[i]))
        j = i - self.n_points
        return PolarPoint(r=float(self.probe_r[j]), theta=float(self.probe_theta[j]))


def sample_uniform_model(params: ModelParams, seed: int) -> SampleSet:
    """Exactly n i.i.d. points; vertex i keyed by (seed, i)."""
    r, theta = _points_from_counters(params, seed, np.arange(params.n))
    return SampleSet(r=r, theta=theta, params=params, seed=seed, model="uniform")


def _poisson_count(params: ModelParams, seed: int):
    """Draw N ~ Poisson(n): CDF inversion at toy scale, numpy otherwise."""
    n = params.n
    if n <= 10:
        u = float(uniforms(seed, np.uint64(_PROBE_STREAM_BASE - 1)))
        k, cdf, pmf = 0, math.exp(-n), math.exp(-n)
        while cdf < u and k < 100 * n + 100:
            k += 1
            pmf *= n / k
            cdf += pmf
        return k, "inversion"
    rng = np.random.Generator(np.random.Philox(key=int(mix(seed, 0))))
    return int(rng.poisson(n)), "numpy-philox"


def sample_poisson_model(params: ModelParams, seed: int) -> SampleSet:
    """N ~ Poisson(n) points; conditioned on N = n this is the uniform model."""
    count, method = _poisson_count(params, seed)
    r, theta = _points_from_counters(params, seed, np.arange(count))
    return SampleSet(
        r=r,
        theta=theta,
        params=params,
        seed=seed,
        model="poisson",
        meta={"poisson_count_method": method, "poisson_count": count},
    )


def probe_cap(params: ModelParams) -> int:
    """Probes must stay o(sqrt(n)); enforced as m <= n^0.45."""
    return int(params.n ** 0.45)


def add_probe(sample: SampleSet, probe: PolarPoint | None = None) -> SampleSet:
    """Return a new SampleSet with one probe appended.

    probe=None draws the probe from the model density using its own
    substream of the sample's seed.
    """
    m = sample.n_probes
    if m + 1 > probe_cap(sample.params):
        raise ValueError(
            f"probe cap exceeded: {m + 1} > n^0.45 = {probe_cap(sample.params)}"
        )
    if probe is None:
        r, theta = _points_from_counters(
            sample.params, sample.seed, np.array([_PROBE_STREAM_BASE + m])
        )
        pr, pt = float(r[0]), float(theta[0])
    else:
        if probe.r > sample.params.R:
            raise ValueError(f"probe radius {probe.r} exceeds R={sample.params.R}")
        pr, pt = probe.r, probe.theta
    return SampleSet(
        r=sample.r,
        theta=sample.theta,
        params=sample.params,
        seed=sample.seed,
        model=sample.model,
        probe_r=np.append(sample.probe_r, pr),
        probe_theta=np.append(sample.probe_theta, pt),
        meta=dict(sample.meta),
    )


def save_points(sample: SampleSet, path):
    """Write the points TSV (probes carry negative indices)."""
    p = sample.params
    index = np.concatenate([np.arange(sample.n_points), -np.arange(1, sample.n_probes + 1)])
    r, theta = sample.all_r(), sample.all_theta()
    with open(path, "w") as f:
        f.write(
            f"# {POINTS_FORMAT} alpha={p.alpha!r} C={p.C!r} n={p.n} R={p.R!r} "
            f"seed={sample.seed} model={sample.model} count={sample.n_points}\n"
        )
        # one % pass per chunk of rows: the formatting runs in C, and the
        # chunk bounds the Python objects it needs
        for lo in range(0, len(index), _SAVE_CHUNK):
            rows = zip(*(a[lo:lo + _SAVE_CHUNK].tolist() for a in (index, r, theta)))
            cells = tuple(itertools.chain.from_iterable(rows))
            f.write(_POINTS_ROW_FORMAT * (len(cells) // 3) % cells)


class PointsFormatError(ValueError):
    """Malformed or inconsistent points file."""


def load_points(path) -> SampleSet:
    """Read a points TSV written by save_points, validating the header and
    every row."""
    try:
        with open(path, encoding="utf-8") as f:
            header = f.readline().rstrip("\n")
            payload = f.read()
    except UnicodeDecodeError as e:
        raise PointsFormatError(f"points file is not UTF-8 text: {e}") from e
    prefix = f"# {POINTS_FORMAT} "
    if not header.startswith(prefix):
        raise PointsFormatError(f"bad points header: {header!r}")
    try:
        fields = dict(tok.split("=", 1) for tok in header[len(prefix):].split())
        params = ModelParams(alpha=float(fields["alpha"]), C=float(fields["C"]),
                             n=int(fields["n"]))
        R = float(fields["R"])
        seed = int(fields["seed"])
        model = fields["model"]
        count = int(fields["count"])
    except (KeyError, ValueError) as e:
        raise PointsFormatError(f"bad points header fields: {e}") from e
    if not math.isclose(params.R, R, rel_tol=1e-12):
        raise PointsFormatError(
            f"header R={R} inconsistent with 2 ln n + C = {params.R}"
        )
    rows = np.zeros(0, dtype=_POINTS_ROW)
    if payload:
        try:
            rows = np.loadtxt(io.StringIO(payload), dtype=_POINTS_ROW, delimiter="\t",
                              comments=None, ndmin=1)
        except ValueError as e:
            raise PointsFormatError(f"bad points row: {e}") from e
    # loadtxt skips blank lines, which are malformed rows here
    if len(rows) != payload.count("\n") + (payload[-1:] not in ("", "\n")):
        raise PointsFormatError("blank points row")
    idx, rs, ts = rows["i"], rows["r"], rows["theta"]
    point = idx >= 0
    if np.count_nonzero(point) != count:
        raise PointsFormatError(
            f"header count={count} but file has {np.count_nonzero(point)} point rows"
        )
    if not np.array_equal(idx[point], np.arange(count)):
        raise PointsFormatError("point indices are not 0..count-1 in order")
    if not np.array_equal(idx[~point], -np.arange(1, len(idx) - count + 1)):
        raise PointsFormatError("probe indices are not -1..-m in order")
    # a nan radius fails both comparisons
    if not np.all((rs >= 0) & (rs <= params.R)):
        raise PointsFormatError("radial coordinate outside [0, R]")
    if not np.all(np.isfinite(ts)):
        raise PointsFormatError("angular coordinate is not finite")
    # provenance spot-check: points are a pure function of the header
    # constants, so tampering with alpha/C/seed breaks reproduction
    if count > 0 and model in ("uniform", "poisson"):
        k = min(count, 4)
        want_r, want_t = _points_from_counters(params, seed, np.arange(k))
        if not (np.array_equal(want_r, rs[point][:k]) and np.array_equal(want_t, ts[point][:k])):
            raise PointsFormatError(
                "points do not reproduce from header constants; header or "
                "payload has been altered"
            )
    return SampleSet(
        r=rs[point],
        theta=ts[point],
        params=params,
        seed=seed,
        model=model,
        probe_r=rs[~point],
        probe_theta=ts[~point],
    )
