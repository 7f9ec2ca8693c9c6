"""Hyperbolic-plane primitives in native polar coordinates.

Everything here is a pure function of its arguments.  Adjacency questions
are always decided through the single canonical cosine comparison

    cos(theta_u - theta_v)  >=  (cosh r_u cosh r_v - cosh R) / (sinh r_u sinh r_v)

so that every caller (naive builder, fast builder, explorer audits) agrees
bit-for-bit on edge membership.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

# the edge predicate multiplies cosh r_u by cosh r_v, which overflows
# double precision once r_u + r_v nears 710; radii stay below R, so
# 2 * MAX_RADIUS must stay clear of that.
MAX_RADIUS = 350.0

# a clamp larger than this indicates parameter misuse, not rounding
CLAMP_ABORT = 1e-9


class NumericHealthError(ArithmeticError):
    """Raised when a domain clamp exceeds plausible rounding noise."""


class ClampStats:
    """Tally of arccos/arccosh domain clamps performed so far."""

    def __init__(self):
        self.events = 0
        self.max_magnitude = 0.0

    def record(self, magnitude):
        if magnitude <= 0.0:
            return
        self.events += 1
        if magnitude > self.max_magnitude:
            self.max_magnitude = magnitude
        if magnitude > CLAMP_ABORT:
            raise NumericHealthError(
                f"domain clamp of magnitude {magnitude:.3e} exceeds {CLAMP_ABORT:.0e}"
            )

    def reset(self):
        self.events = 0
        self.max_magnitude = 0.0


clamp_stats = ClampStats()


def _clamped_arccos(x):
    """arccos with [-1, 1] clamping, recording clamp magnitude."""
    if x > 1.0:
        clamp_stats.record(x - 1.0)
        x = 1.0
    elif x < -1.0:
        clamp_stats.record(-1.0 - x)
        x = -1.0
    return math.acos(x)


def _clamped_arccosh(x):
    """arccosh with [1, inf) clamping, recording clamp magnitude."""
    if x < 1.0:
        clamp_stats.record(1.0 - x)
        x = 1.0
    return math.acosh(x)


@dataclass(frozen=True)
class ModelParams:
    """Model constants: exponent alpha, offset C, vertex count n, R = 2 ln n + C."""

    alpha: float
    C: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0.5 < self.alpha < 1.0:
            warnings.warn(
                f"alpha={self.alpha} is outside (1/2, 1); the structural claims "
                "this package checks target that range",
                stacklevel=3,
            )
        if self.R <= 0:
            raise ValueError(f"derived R = 2 ln n + C = {self.R} must be positive")
        if self.R > MAX_RADIUS:
            raise ValueError(
                f"derived R = {self.R:.1f} exceeds {MAX_RADIUS}; cosh/sinh would "
                "overflow double precision"
            )

    @property
    def R(self) -> float:
        return 2.0 * math.log(self.n) + self.C


@dataclass(frozen=True)
class PolarPoint:
    """A point (r, theta) of the hyperbolic disc; theta is reduced mod 2*pi."""

    r: float
    theta: float = 0.0

    def __post_init__(self):
        if self.r < 0:
            raise ValueError(f"radial coordinate must be nonnegative, got {self.r}")
        object.__setattr__(self, "theta", self.theta % TWO_PI)


def angular_difference(t1, t2):
    """Smaller angle between two directions, in [0, pi]."""
    d = abs(t1 - t2) % TWO_PI
    return min(d, TWO_PI - d)


def hyperbolic_distance(p: PolarPoint, q: PolarPoint, params: ModelParams | None = None):
    """Distance from the hyperbolic law of cosines.

    Arguments are canonicalized by (r, theta) order so the floating evaluation
    is exactly symmetric.  `params` is accepted for signature uniformity with
    the rest of the package; the distance itself does not depend on it.
    """
    if (q.r, q.theta) < (p.r, p.theta):
        p, q = q, p
    if p.r == 0.0:
        return q.r
    if p.r == q.r and p.theta == q.theta:
        return 0.0
    arg = math.cosh(p.r) * math.cosh(q.r) - math.sinh(p.r) * math.sinh(q.r) * math.cos(
        p.theta - q.theta
    )
    return _clamped_arccosh(arg)


def _lnsinh(x):
    """log(sinh x) for x > 0, safe against overflow of sinh itself."""
    return x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0)


def angle_at_origin(a, b, c):
    """Angle opposite side c in a hyperbolic triangle with sides a, b, c.

    Requires |a - b| <= c <= a + b (up to rounding slack); symmetric in
    (a, b).  Evaluated through the half-angle form
    tan(theta/2)^2 = (cosh c - cosh(a-b)) / (cosh(a+b) - cosh c),
    which stays accurate at both degenerate ends where the raw arccos
    loses all precision.
    """
    if a <= 0 or b <= 0:
        raise ValueError("sides a, b must be positive")
    d = abs(a - b)
    if c < d - CLAMP_ABORT or c > a + b + CLAMP_ABORT:
        raise ValueError(f"side c={c} outside [|a-b|, a+b] = [{d}, {a + b}]")
    if c <= d:
        return 0.0
    if c >= a + b:
        return math.pi
    ln_p = _lnsinh((c + d) / 2.0) + _lnsinh((c - d) / 2.0)
    ln_q = _lnsinh((a + b + c) / 2.0) + _lnsinh((a + b - c) / 2.0)
    return 2.0 * math.atan(math.exp(0.5 * (ln_p - ln_q)))


def angle_approx(a, b, c):
    """Leading-order approximation 2 e^{(c-a-b)/2} of angle_at_origin."""
    if not (0 <= min(a, b) <= c <= a + b):
        raise ValueError(
            f"need 0 <= min(a,b) <= c <= a+b, got a={a}, b={b}, c={c}"
        )
    return 2.0 * math.exp(0.5 * (c - a - b))


def angle_approx_correction(a, b, c):
    """Multiplicative bracket angle_at_origin / angle_approx for the same sides."""
    return angle_at_origin(a, b, c) / angle_approx(a, b, c)


def cos_threshold(r_u, r_v, params: ModelParams):
    """Canonical cosine threshold: edge iff cos(dtheta) >= this value.

    Returns -2.0 (always an edge) when either radius is 0 or r_u + r_v <= R,
    so the comparison never divides by sinh(0).
    """
    if r_u == 0.0 or r_v == 0.0 or r_u + r_v <= params.R:
        return -2.0
    return (math.cosh(r_u) * math.cosh(r_v) - math.cosh(params.R)) / (
        math.sinh(r_u) * math.sinh(r_v)
    )


def cos_threshold_array(r_u, r_v, params: ModelParams):
    """Vectorized cos_threshold; r_u, r_v broadcast against each other."""
    r_u = np.asarray(r_u, dtype=np.float64)
    r_v = np.asarray(r_v, dtype=np.float64)
    cosh_R = math.cosh(params.R)
    den = np.sinh(r_u) * np.sinh(r_v)
    with np.errstate(divide="ignore", invalid="ignore"):
        thr = (np.cosh(r_u) * np.cosh(r_v) - cosh_R) / den
    always = (den == 0.0) | (r_u + r_v <= params.R)
    return np.where(always, -2.0, thr)


def is_edge(p: PolarPoint, q: PolarPoint, params: ModelParams) -> bool:
    """Edge rule d(p, q) <= R, decided through the canonical comparison.

    Evaluated in product form, cos(dtheta) * sinh(r_p) sinh(r_q) >= cosh(r_p)
    cosh(r_q) - cosh(R), matching the builders' vectorized predicate exactly.
    """
    den = math.sinh(p.r) * math.sinh(q.r)
    num = math.cosh(p.r) * math.cosh(q.r) - math.cosh(params.R)
    if den == 0.0 or num <= -den:
        return True
    return math.cos(p.theta - q.theta) * den >= num


def max_angle_for_edge(r_u, r_v, params: ModelParams):
    """Angular threshold theta* with: edge iff angular difference <= theta*."""
    if not (0 <= r_u < params.R + CLAMP_ABORT and 0 <= r_v < params.R + CLAMP_ABORT):
        raise ValueError("radii must lie in [0, R)")
    thr = cos_threshold(r_u, r_v, params)
    if thr <= -1.0:
        return math.pi
    return _clamped_arccos(thr)


def max_angle_for_edge_array(r_u, r_v, params: ModelParams):
    """Vectorized max_angle_for_edge."""
    thr = np.clip(cos_threshold_array(r_u, r_v, params), -1.0, 1.0)
    return np.arccos(thr)
