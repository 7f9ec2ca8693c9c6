"""Geometry kernel tests: exactness against a high-precision oracle,
triangle identities, predicate equivalence, decisions at the threshold,
and the paper's angle approximation.
"""

import math

import mpmath
import numpy as np
import pytest

from rhglab.geometry import (
    ModelParams,
    PolarPoint,
    angular_difference,
    edge_mask,
    hyperbolic_distance,
    is_edge,
    max_angle_for_edge,
    threshold_angle,
)
from rhglab.measure import ball_at

PARAMS = ModelParams(alpha=0.75, C=0.0, n=int(round(math.exp(15.0))))  # R close to 30


def mp_distance(r1, t1, r2, t2):
    """Extended-precision law-of-cosines distance (independent oracle);
    the working precision grows with r1 + r2, so the cancellation of
    cosh r1 cosh r2 against sinh r1 sinh r2 cos(t1 - t2) leaves 60 digits."""
    with mpmath.workdps(60 + int(r1 + r2)):
        arg = mpmath.cosh(r1) * mpmath.cosh(r2) - mpmath.sinh(r1) * mpmath.sinh(
            r2
        ) * mpmath.cos(t1 - t2)
        if arg < 1:
            arg = mpmath.mpf(1)
        return float(mpmath.acosh(arg))


def random_points(rng, count, R):
    r = R * rng.random(count)
    theta = 2 * math.pi * rng.random(count)
    return r, theta


def test_identical_points():
    p = PolarPoint(r=3.0, theta=1.0)
    assert hyperbolic_distance(p, p) == 0.0


def test_collinear_distance():
    p = PolarPoint(r=2.0, theta=0.0)
    q = PolarPoint(r=5.0, theta=0.0)
    assert abs(hyperbolic_distance(p, q) - 3.0) < 1e-9


def test_antipodal_distance():
    p = PolarPoint(r=2.0, theta=0.0)
    q = PolarPoint(r=3.0, theta=math.pi)
    assert abs(hyperbolic_distance(p, q) - 5.0) < 1e-9


def test_distance_to_origin_representative():
    rng = np.random.default_rng(1)
    for _ in range(100):
        p = PolarPoint(r=30.0 * rng.random(), theta=2 * math.pi * rng.random())
        o = PolarPoint(r=0.0, theta=2 * math.pi * rng.random())
        d = hyperbolic_distance(p, o)
        assert abs(d - p.r) <= 1e-12 * max(p.r, 1.0)


def test_distance_matches_high_precision_oracle():
    rng = np.random.default_rng(2)
    R = PARAMS.R
    r, theta = random_points(rng, 500, R)
    r2, theta2 = random_points(rng, 500, R)
    for i in range(500):
        p = PolarPoint(r=r[i], theta=theta[i])
        q = PolarPoint(r=r2[i], theta=theta2[i])
        want = mp_distance(r[i], theta[i], r2[i], theta2[i])
        got = hyperbolic_distance(p, q)
        assert abs(got - want) <= 1e-9 * max(want, 1.0)


def test_symmetry_exact():
    rng = np.random.default_rng(3)
    R = PARAMS.R
    r, theta = random_points(rng, 100_000, R)
    r2, theta2 = random_points(rng, 100_000, R)
    for i in range(0, 100_000, 37):
        p = PolarPoint(r=r[i], theta=theta[i])
        q = PolarPoint(r=r2[i], theta=theta2[i])
        assert hyperbolic_distance(p, q) == hyperbolic_distance(q, p)


def test_triangle_inequality():
    rng = np.random.default_rng(4)
    R = PARAMS.R
    pts = [
        PolarPoint(r=R * rng.random(), theta=2 * math.pi * rng.random())
        for _ in range(300)
    ]
    checked = 0
    for i in range(100):
        a, b, c = pts[3 * i], pts[3 * i + 1], pts[3 * i + 2]
        dab = hyperbolic_distance(a, b)
        dbc = hyperbolic_distance(b, c)
        dac = hyperbolic_distance(a, c)
        assert dac <= dab + dbc + 1e-9
        checked += 1
    assert checked == 100


# the angle at the origin opposite side c of a triangle with sides a, b
# from the origin is threshold_angle(a, b, c)

def test_angle_at_origin_degenerate_cases():
    assert abs(threshold_angle(2.0, 3.0, 5.0) - math.pi) < 1e-9
    assert abs(threshold_angle(2.0, 3.0, 1.0) - 0.0) < 1e-9


def test_angle_at_origin_symmetric():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = 1.0 + 20.0 * rng.random()
        b = 1.0 + 20.0 * rng.random()
        c = abs(a - b) + (a + b - abs(a - b)) * rng.random()
        assert threshold_angle(a, b, c) == threshold_angle(b, a, c)


def test_angle_approx_correction_tends_to_one():
    # the multiplicative bracket exact / 2 e^{(c-a-b)/2} should approach 1
    # as a+b-c grows
    R = 30.0
    prev = None
    for gap in (2.0, 4.0, 8.0, 12.0):
        corr = threshold_angle(R, R, 2 * R - gap) / (2.0 * math.exp(-gap / 2.0))
        err = abs(corr - 1.0)
        if prev is not None:
            assert err < prev
        prev = err
    assert prev < 1e-4


def test_angle_increasing_in_c():
    a = b = 16.0  # both above R/2 for R = 30
    prev = 0.0
    for c in np.linspace(16.0, 30.0, 50):
        ang = threshold_angle(a, b, float(c))
        assert ang >= prev
        prev = ang


def test_angular_difference():
    assert abs(angular_difference(0.1, 0.3) - 0.2) < 1e-15
    assert abs(angular_difference(0.05, 2 * math.pi - 0.05) - 0.1) < 1e-12
    assert angular_difference(1.234, 1.234) == 0.0
    rng = np.random.default_rng(8)
    theta = 2 * math.pi * rng.random(1000)
    got = angular_difference(theta, theta[17])
    assert np.array_equal(got, [angular_difference(float(t), float(theta[17])) for t in theta])
    assert got[17] == 0.0 and np.all((got >= 0.0) & (got <= math.pi))


def test_max_angle_always_edge():
    R = PARAMS.R
    assert max_angle_for_edge(R / 2 - 1, R / 2 - 1, PARAMS) == math.pi
    assert max_angle_for_edge(0.0, R - 1, PARAMS) == math.pi


def test_max_angle_boundary_value():
    # threshold at r_u = r_v = R close to the leading term 2 e^{-R/2}
    n = int(round(math.exp(15.0)))
    params = ModelParams(alpha=0.75, C=30.0 - 2 * math.log(n), n=n)
    R = params.R
    thr = max_angle_for_edge(R * (1 - 1e-12), R * (1 - 1e-12), params)
    lead = 2.0 * math.exp(-R / 2.0)
    assert abs(thr - lead) / lead < 0.10


def test_max_angle_monotone_in_radius():
    R = PARAMS.R
    r_v = 0.8 * R
    prev = math.pi
    for r_u in np.linspace(0.3 * R, R * (1 - 1e-9), 200):
        thr = max_angle_for_edge(float(r_u), r_v, PARAMS)
        assert thr <= prev + 1e-12
        prev = thr


def test_edge_predicate_equivalence():
    """[d <= R] iff [dtheta <= threshold angle] iff edge_mask iff is_edge,
    on 10^5 pairs, off a 1e-9 relative knife edge."""
    rng = np.random.default_rng(6)
    R = PARAMS.R
    count = 100_000
    r1, t1 = random_points(rng, count, R)
    r2, t2 = random_points(rng, count, R)
    thr = threshold_angle(r1, r2, R)
    dt = angular_difference(t1, t2)
    by_kernel = edge_mask(r1, r2, t1 - t2, R)
    clear = np.abs(dt - thr) > 1e-9 * thr
    assert clear.mean() > 0.999
    assert np.array_equal((dt <= thr)[clear], by_kernel[clear])
    for i in range(0, count, 211):
        p = PolarPoint(r=r1[i], theta=t1[i])
        q = PolarPoint(r=r2[i], theta=t2[i])
        assert is_edge(p, q, PARAMS) == bool(by_kernel[i])
        d = hyperbolic_distance(p, q)
        if abs(d - R) > 1e-9:  # stay off the knife edge for the d-form
            assert (d <= R) == bool(by_kernel[i])


def test_angle_bracket_constant():
    """|exact - approx| / approx <= K e^{c-a-b} with K <= 4 when a+b-c >= 2,
    for the paper's estimate approx = 2 e^{(c-a-b)/2} of the angle.

    Sampled with c >= max(a, b), the regime the threshold bound actually
    uses; for smaller c the neglected e^{|a-b|-c} term dominates and no
    finite K of this form exists.
    """
    rng = np.random.default_rng(7)
    R = 30.0
    worst = 0.0
    checked = 0
    for _ in range(5000):
        a = R / 2 + (R / 2) * rng.random()
        b = R / 2 + (R / 2) * rng.random()
        lo = max(a, b)
        hi = min(R, a + b - 2.0)
        if hi <= lo:
            continue
        c = lo + (hi - lo) * rng.random()
        approx = 2.0 * math.exp(0.5 * (c - a - b))
        rel = abs(threshold_angle(a, b, c) - approx) / approx
        worst = max(worst, rel / math.exp(c - a - b))
        checked += 1
    assert checked > 1000
    assert worst <= 4.0


def test_large_radius_near_coincident_pair():
    """At R = 340 two points at r = R - 1, 1e-9 rad apart, are about 635
    apart: the kernel must neither join them nor lose their distance."""
    params = ModelParams(alpha=0.75, C=340.0 - 2.0 * math.log(1000), n=1000)
    R = params.R
    for p, q in [(PolarPoint(R - 1.0, 1.0), PolarPoint(R - 1.0, 1.0 + 1e-9)),
                 (PolarPoint(R - 1.0, 1.0), PolarPoint(R - 1.0 - 1e-9, 1.0 - 1e-9))]:
        assert not is_edge(p, q, params)
        want = mp_distance(p.r, p.theta, q.r, q.theta)
        assert 600.0 < want < 700.0
        assert abs(hyperbolic_distance(p, q) - want) <= 1e-12 * want


def _mp_gap(r_u, r_v, d):
    """Angular gap at which radii r_u, r_v are exactly d apart, to 60 digits."""
    with mpmath.workdps(60):
        x = (mpmath.sinh(mpmath.mpf(d) / 2) ** 2 - mpmath.sinh((mpmath.mpf(r_u) - r_v) / 2) ** 2) / (
            mpmath.sinh(r_u) * mpmath.sinh(r_v))
        return float(2 * mpmath.asin(mpmath.sqrt(x)))


@pytest.mark.parametrize("rho", [PARAMS.R, 340.0])
def test_threshold_decisions_match_mpmath_oracle(rho):
    """Pairs whose distance lies within 1e-9 relative of rho, on either
    side, are decided as the 60-digit oracle decides them by edge_mask,
    BallAt.contains and hyperbolic_distance."""
    rng = np.random.default_rng(10)
    pairs, inside = [], []
    for _ in range(400):
        a, b = rho / 2 + (rho / 2) * rng.random(2)  # |a - b| < rho < a + b
        target = rho * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** -rng.integers(9, 12))
        gap = _mp_gap(a, b, target)
        # a tiny gap starts at theta = 0, where the float angles keep it exactly
        p = PolarPoint(r=a, theta=2 * math.pi * rng.random() if gap > 1e-3 else 0.0)
        q = PolarPoint(r=b, theta=p.theta + gap)
        d = mp_distance(p.r, p.theta, q.r, q.theta)
        assert abs(d / rho - 1.0) > 1e-12  # clear of rounding in the oracle's inputs
        pairs.append((p.r, q.r, p.theta, q.theta))
        inside.append(d <= rho)
        assert (hyperbolic_distance(p, q) <= rho) == (d <= rho)
        assert bool(ball_at(p, rho).contains(q.r, q.theta, PARAMS)) == (d <= rho)
    r_u, r_v, t_u, t_v = np.array(pairs).T
    assert 100 < sum(inside) < 300
    assert np.array_equal(edge_mask(r_u, r_v, t_u - t_v, rho), inside)
    assert np.array_equal(edge_mask(r_v, r_u, t_v - t_u, rho), inside)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(alpha=0.75, C=0.0, n=0)
    with pytest.raises(ValueError):
        ModelParams(alpha=0.75, C=800.0, n=10)  # R > 700
    with pytest.raises(ValueError):
        ModelParams(alpha=0.75, C=380.0, n=1000)  # R ~ 394: cosh products overflow
    with pytest.raises(ValueError):
        ModelParams(alpha=0.75, C=-100.0, n=10)  # R <= 0
    with pytest.warns(UserWarning):
        ModelParams(alpha=1.5, C=0.0, n=100)


def test_polar_point_normalization():
    p = PolarPoint(r=1.0, theta=2 * math.pi + 0.25)
    assert abs(p.theta - 0.25) < 1e-12
    with pytest.raises(ValueError):
        PolarPoint(r=-0.1, theta=0.0)
