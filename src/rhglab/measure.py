"""Measure evaluators for balls, ball intersections and bands, with a
seeded Monte-Carlo oracle.

Closed forms are exact where the radial CDF permits and asymptotic
otherwise; each asymptotic form reports its error envelope so callers can
gate agreement as (confidence interval + envelope), never exact equality.

The oracle draws its points in fixed-size shards keyed by shard index and
evaluates each shard in fixed blocks of counters; every point keeps its
counter, so estimates depend on neither the shard schedule nor the block
size.  Composite regions evaluate a later part only on the points the
earlier parts left open, and a radial region (one that reads r alone) is
fed radii only: the oracle draws no angles for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import mix
from .geometry import TWO_PI, ModelParams, PolarPoint, edge_mask, hyperbolic_distance
from .sampler import _points_from_counters, _radii_from_counters

# 99% two-sided normal quantile
Z99 = 2.5758293035489004

# fixed Monte-Carlo shard size; keeps merged estimates independent of
# how shards are distributed over workers
SHARD_SIZE = 1_000_000

# counters per evaluation block inside a shard: 2^13 float64 (64 KiB) keep
# every temporary below glibc's mmap threshold and inside L2
BLOCK_SIZE = 8192

MIN_SAMPLES = 10_000


# ---------------------------------------------------------------------------
# regions

@dataclass(frozen=True)
class Region:
    """Base marker for point-set regions of the hyperbolic disc.

    `contains(r, theta, params)` returns a bool mask.  A region whose
    `radial` is true reads r alone: it accepts theta=None and its mask has
    r's shape.  Any other region's mask has the broadcast shape of
    (r, theta).
    """

    @property
    def radial(self) -> bool:
        return False

    def contains(self, r, theta, params):  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class BallOrigin(Region):
    rho: float
    radial = True

    def contains(self, r, theta, params):
        return np.asarray(r) <= self.rho


@dataclass(frozen=True)
class BallAt(Region):
    center: PolarPoint
    rho: float

    def contains(self, r, theta, params):
        return edge_mask(self.center.r, np.asarray(r, dtype=np.float64),
                         np.asarray(theta) - self.center.theta, self.rho)


@dataclass(frozen=True)
class BandOrigin(Region):
    rho_lo: float
    rho_hi: float
    radial = True

    def __post_init__(self):
        if not 0 <= self.rho_lo <= self.rho_hi:
            raise ValueError("band requires 0 <= rho_lo <= rho_hi")

    def contains(self, r, theta, params):
        r = np.asarray(r)
        return (r > self.rho_lo) & (r <= self.rho_hi)


@dataclass(frozen=True)
class Intersection(Region):
    parts: tuple

    @property
    def radial(self) -> bool:
        return all(part.radial for part in self.parts)

    def contains(self, r, theta, params):
        # a part sees only the points every earlier part kept, so the
        # cheap radial parts go first
        r, theta = _operands(self, r, theta)
        out = np.ones(r.shape, dtype=bool)
        for part in self.parts:
            out = _contains_where(part, out, r, theta, params)
        return out


@dataclass(frozen=True)
class Difference(Region):
    keep: Region
    drop: Region

    @property
    def radial(self) -> bool:
        return self.keep.radial and self.drop.radial

    def contains(self, r, theta, params):
        r, theta = _operands(self, r, theta)
        keep = np.asarray(self.keep.contains(r, theta, params), dtype=bool)
        return keep & ~_contains_where(self.drop, keep, r, theta, params)


@dataclass(frozen=True)
class Cone(Region):
    """Union of angular intervals [lo, hi) (radians, taken mod 2*pi); an
    interval with hi - lo >= 2*pi is the whole circle."""

    intervals: tuple  # of (lo, hi) pairs

    def contains(self, r, theta, params):
        theta = np.asarray(theta) % TWO_PI
        out = np.zeros(np.broadcast_shapes(np.shape(r), theta.shape), dtype=bool)
        for lo, hi in self.intervals:
            if hi - lo >= TWO_PI:
                out[...] = True
                continue
            lo %= TWO_PI
            hi %= TWO_PI
            if lo <= hi:
                out |= (theta >= lo) & (theta < hi)
            else:
                out |= (theta >= lo) | (theta < hi)
        return out


def _operands(region, r, theta):
    """(r, theta) as a composite evaluates them: a radial composite takes
    r alone, any other both at their broadcast shape."""
    if region.radial:
        return np.asarray(r), None
    return np.broadcast_arrays(r, theta)


def _contains_where(region, mask, r, theta, params):
    """region.contains(r, theta) where `mask` holds and False elsewhere,
    evaluating the region only on those points; r (and theta, unless
    None) have mask's shape."""
    if mask.all():
        return np.asarray(region.contains(r, theta, params), dtype=bool)
    idx = np.flatnonzero(mask)
    if theta is not None:
        theta = np.ravel(theta)[idx]
    out = np.zeros(mask.size, dtype=bool)
    out[idx] = region.contains(np.ravel(r)[idx], theta, params)
    return out.reshape(mask.shape)


def ball_origin(rho):
    return BallOrigin(rho=float(rho))


def ball_at(center, rho):
    return BallAt(center=center, rho=float(rho))


def band_origin(rho_lo, rho_hi):
    return BandOrigin(rho_lo=float(rho_lo), rho_hi=float(rho_hi))


def intersection(*parts):
    return Intersection(parts=tuple(parts))


def difference(keep, drop):
    return Difference(keep=keep, drop=drop)


def cone(intervals):
    return Cone(intervals=tuple(tuple(p) for p in intervals))


# ---------------------------------------------------------------------------
# closed forms

def mu_ball_origin_exact(rho, params: ModelParams):
    """Exact mu(B_O(rho)) = (cosh(alpha rho) - 1) / (cosh(alpha R) - 1)."""
    if not 0 <= rho <= params.R:
        raise ValueError(f"rho={rho} outside [0, R={params.R}]")
    a = params.alpha
    return (math.cosh(a * rho) - 1.0) / (math.cosh(a * params.R) - 1.0)


def mu_ball_origin_approx(rho, params: ModelParams):
    """Leading term e^{-alpha (R - rho)} of mu(B_O(rho))."""
    return math.exp(-params.alpha * (params.R - rho))


def mu_ball_intersection_approx(r_A, rho_A, rho_O, params: ModelParams):
    """Leading term of mu(B_A(rho_A) cap B_O(rho_O)) plus its error envelope.

    Requires r_A <= rho_A and rho_O + r_A >= rho_A.  Returns (value, envelope)
    where envelope is the magnitude scale e^{-alpha (R - rho_A + r_A)} of the
    additive error.
    """
    if r_A > rho_A:
        raise ValueError(f"need r_A <= rho_A, got r_A={r_A}, rho_A={rho_A}")
    if rho_O + r_A < rho_A:
        raise ValueError(
            f"need rho_O + r_A >= rho_A, got rho_O={rho_O}, r_A={r_A}, rho_A={rho_A}"
        )
    a = params.alpha
    c_alpha = 2.0 * a / (math.pi * (a - 0.5))
    value = c_alpha * math.exp(
        -a * (params.R - rho_O) - 0.5 * (rho_O - rho_A + r_A)
    )
    envelope = math.exp(-a * (params.R - rho_A + r_A))
    return value, envelope


def mu_band_origin(rho_hi, rho_lo, params: ModelParams):
    """Exact mu of the band B_O(rho_hi) \\ B_O(rho_lo)."""
    if not 0 <= rho_lo <= rho_hi <= params.R:
        raise ValueError(f"need 0 <= rho_lo <= rho_hi <= R, got ({rho_lo}, {rho_hi})")
    return mu_ball_origin_exact(rho_hi, params) - mu_ball_origin_exact(rho_lo, params)


def mu_band_origin_approx(rho_hi, rho_lo, params: ModelParams):
    """Band approximation e^{-alpha (R - rho_hi)} (1 - e^{-alpha (rho_hi - rho_lo)})."""
    a = params.alpha
    return math.exp(-a * (params.R - rho_hi)) * (1.0 - math.exp(-a * (rho_hi - rho_lo)))


# ---------------------------------------------------------------------------
# Monte-Carlo oracle

@dataclass(frozen=True)
class McEstimate:
    mean: float
    half_width: float  # 99% normal-approximation half-width
    samples: int
    seed: int

    def agrees(self, value, extra=0.0) -> bool:
        """True if `value` lies within half_width + extra of the mean."""
        return abs(value - self.mean) <= self.half_width + extra


def mu_monte_carlo(region: Region, samples: int, seed: int, params: ModelParams) -> McEstimate:
    """Hit-frequency estimate of mu(region) under the model density.

    Deterministic for fixed (seed, samples): point k of shard s is drawn
    from counter k under the key mix(seed, s), and each shard is evaluated
    in blocks of BLOCK_SIZE counters, so the result depends on neither how
    the shards are scheduled nor the block size.  A radial region gets the
    same radii and theta=None.
    """
    if samples < MIN_SAMPLES:
        raise ValueError(f"samples={samples} below minimum {MIN_SAMPLES}")
    radial = region.radial
    hits = 0
    for shard, done in enumerate(range(0, samples, SHARD_SIZE)):
        key = int(mix(seed, shard))
        size = min(SHARD_SIZE, samples - done)
        for lo in range(0, size, BLOCK_SIZE):
            k = np.arange(lo, min(lo + BLOCK_SIZE, size), dtype=np.uint64)
            if radial:
                r, theta = _radii_from_counters(params, key, k), None
            else:
                r, theta = _points_from_counters(params, key, k)
            hits += int(np.count_nonzero(region.contains(r, theta, params)))
    mean = hits / samples
    half = Z99 * math.sqrt(max(mean * (1.0 - mean), 0.0) / samples)
    return McEstimate(mean=mean, half_width=half, samples=samples, seed=seed)


# ---------------------------------------------------------------------------
# scale checks for near-boundary regions

@dataclass(frozen=True)
class RatioReport:
    band_index: int
    numerator: McEstimate
    denominator: McEstimate
    ratio: float
    floor: float
    clears_floor: bool


def band_ratio_check(
    i: int,
    r_A: float,
    params: ModelParams,
    schedule,
    xi: float = 1.0,
    floor: float = 0.02,
    samples: int = 1_000_000,
    seed: int = 0,
) -> RatioReport:
    """Ratio of band-restricted to full ball-intersection measure.

    Estimates mu(B_A(R) cap (B_O(R_i) \\ B_O(R_{i-1}))) over
    mu(B_A(R) cap B_O(R_i)) by Monte Carlo and flags whether the ratio
    clears the configured constant floor.
    """
    bands = schedule.R_outer
    if not 1 <= i < len(bands) - 1:
        raise ValueError(f"band index {i} out of range for schedule depth {len(bands)}")
    if not bands[i] < r_A <= bands[i + 1]:
        raise ValueError(
            f"need R_{i} < r_A <= R_{i + 1}, got r_A={r_A}, band=({bands[i]}, {bands[i + 1]}]"
        )
    if not bands[i] < params.R - xi:
        raise ValueError(f"need R_{i} < R - xi = {params.R - xi}, got {bands[i]}")
    A = PolarPoint(r=r_A, theta=0.0)
    ball_A = ball_at(A, params.R)
    num_region = intersection(band_origin(bands[i - 1], bands[i]), ball_A)
    den_region = intersection(ball_origin(bands[i]), ball_A)
    num = mu_monte_carlo(num_region, samples, seed, params)
    den = mu_monte_carlo(den_region, samples, int(mix(seed, 1 << 32)), params)
    ratio = num.mean / den.mean if den.mean > 0 else math.nan
    return RatioReport(
        band_index=i,
        numerator=num,
        denominator=den,
        ratio=ratio,
        floor=floor,
        clears_floor=bool(ratio >= floor),
    )


def check_lens_constants(c1, c2, c3):
    """Constants constraint 2 e^{c1 - c2} > e^{c3 / 2} for lens regions.

    This is the inequality that keeps the two shell-band components on
    either side of B separated by more than the edge threshold, so the
    subtracted ball B_A(R) cannot cover both.
    """
    if not 0 < c3 < c1 < c2:
        raise ValueError(f"need 0 < c3 < c1 < c2, got c3={c3}, c1={c1}, c2={c2}")
    if not 2.0 * math.exp(c1 - c2) > math.exp(c3 / 2.0):
        raise ValueError(
            f"constants constraint violated: 2 e^(c1-c2) = {2 * math.exp(c1 - c2):.4f} "
            f"<= e^(c3/2) = {math.exp(c3 / 2):.4f}"
        )


def lens_minus_ball_region(A: PolarPoint, B: PolarPoint, c1, c2, c3, params: ModelParams) -> Region:
    """[(B_B(R) \\ B_B(R-c3)) cap (B_O(R-c1) \\ B_O(R-c2))] \\ B_A(R)."""
    R = params.R
    shell_B = difference(ball_at(B, R), ball_at(B, R - c3))
    band = band_origin(R - c2, R - c1)
    return difference(intersection(band, shell_B), ball_at(A, R))


@dataclass(frozen=True)
class LensEstimate:
    estimate: McEstimate
    expected_vertices: float  # n * mean


def mu_lens_minus_ball(
    A: PolarPoint,
    B: PolarPoint,
    c1: float,
    c2: float,
    c3: float,
    params: ModelParams,
    samples: int = 1_000_000,
    seed: int = 0,
) -> LensEstimate:
    """Monte-Carlo measure of the lens-minus-ball region around A, B."""
    check_lens_constants(c1, c2, c3)
    R = params.R
    for name, pt in (("A", A), ("B", B)):
        if not R - c2 <= pt.r <= R - c1:
            raise ValueError(
                f"vertex {name} radius {pt.r} outside [R-c2, R-c1] = [{R - c2}, {R - c1}]"
            )
    d = hyperbolic_distance(A, B)
    if not R - c3 <= d <= R:
        raise ValueError(f"d(A, B) = {d} outside [R-c3, R] = [{R - c3}, {R}]")
    est = mu_monte_carlo(lens_minus_ball_region(A, B, c1, c2, c3, params), samples, seed, params)
    return LensEstimate(estimate=est, expected_vertices=params.n * est.mean)
