"""Hyperbolic-plane primitives in native polar coordinates.

Everything here is a pure function of its arguments.  Distance is written
once, in `sinh2_half_distance`, as the half-angle identity

    sinh^2(d/2) = sinh^2((r_u - r_v)/2) + sinh r_u sinh r_v sin^2(dtheta/2),

a sum of nonnegative terms that loses no precision at small angles or
large radii.  `edge_mask` (the edge rule d <= R, and any ball d <= rho),
`hyperbolic_distance`, `is_edge`, `explorer.verify_path`, both builders
and `measure.BallAt` all evaluate it with numpy's sinh and sin, so they
agree bit for bit.  `threshold_angle` is its one inverse in dtheta; it
only sizes windows and constructs test points, and never decides a pair.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# the kernel multiplies sinh r_u by sinh r_v, about e^{r_u + r_v} / 4,
# which overflows double precision once r_u + r_v nears 710; radii stay
# below R, so 2 * MAX_RADIUS must stay clear of that.
MAX_RADIUS = 350.0


class NumericHealthError(ArithmeticError):
    """A computation left the range double precision represents
    faithfully; the command line maps it to exit code 2.  The distance
    kernel needs no domain clamp, so geometry itself never raises it."""


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
                f"derived R = {self.R:.1f} exceeds {MAX_RADIUS}; the product "
                "sinh r_u sinh r_v would overflow double precision"
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
    """Smaller angle between two directions, in [0, pi]; t1, t2 broadcast."""
    d = np.abs(t1 - t2) % TWO_PI
    return np.minimum(d, TWO_PI - d)


def sinh2_half_distance(r_u, r_v, dtheta):
    """sinh^2(d/2) for points at radii r_u, r_v an angle dtheta apart
    (any sign, any multiple of 2 pi); arguments broadcast."""
    return (np.sinh((r_u - r_v) / 2.0) ** 2
            + np.sinh(r_u) * np.sinh(r_v) * np.sin(dtheta / 2.0) ** 2)


def threshold_angle(r_u, r_v, rho, slack=0.0):
    """Largest angular gap with d <= rho between radii r_u and r_v: the
    inverse of `sinh2_half_distance` in dtheta, 2 asin(sqrt(x)) with

        x = (sinh^2(rho/2) - sinh^2((r_u - r_v)/2)) / (sinh r_u sinh r_v).

    `slack` adds slack * (sinh^2(rho/2) + sinh^2((r_u - r_v)/2)) to the
    numerator, a relative allowance for rounding in both terms.  x is
    clipped to [0, 1]; a zero radius gives pi unless |r_u - r_v| > rho.
    """
    s = math.sinh(rho / 2.0) ** 2
    a = np.sinh((r_u - r_v) / 2.0) ** 2
    # a zero or subnormal radius overflows x to inf, or makes the nan of
    # 0 / 0 at |r_u - r_v| = rho; fmin maps both to 1
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = (s - a + slack * (s + a)) / (np.sinh(r_u) * np.sinh(r_v))
    return 2.0 * np.arcsin(np.sqrt(np.clip(np.fmin(x, 1.0), 0.0, None)))


def edge_mask(r_u, r_v, dtheta, rho):
    """The distance rule d <= rho, vectorized; with rho = R, the edge rule.

    Every caller evaluates the kernel with numpy, whose results do not
    depend on array shape, so every caller decides a pair the same way.
    """
    return sinh2_half_distance(r_u, r_v, dtheta) <= math.sinh(rho / 2.0) ** 2


def hyperbolic_distance(p: PolarPoint, q: PolarPoint):
    """Distance 2 asinh(sqrt(sinh^2(d/2))) from the half-angle kernel."""
    return float(2.0 * np.arcsinh(np.sqrt(sinh2_half_distance(p.r, q.r, p.theta - q.theta))))


def is_edge(p: PolarPoint, q: PolarPoint, params: ModelParams) -> bool:
    """Edge rule d(p, q) <= R, decided by `edge_mask` as in the builders."""
    return bool(edge_mask(p.r, q.r, p.theta - q.theta, params.R))


def max_angle_for_edge(r_u, r_v, params: ModelParams):
    """Angular threshold theta* with: edge iff angular difference <= theta*."""
    if not (0 <= r_u <= params.R and 0 <= r_v <= params.R):
        raise ValueError("radii must lie in [0, R]")
    return float(threshold_angle(r_u, r_v, params.R))
