"""Geometry kernel tests: exactness against a high-precision oracle,
triangle identities, predicate equivalence, and the angle approximation.
"""

import math

import mpmath
import numpy as np
import pytest

from rhglab.geometry import (
    CLAMP_ABORT,
    ModelParams,
    NumericHealthError,
    PolarPoint,
    angle_approx,
    angle_approx_correction,
    angle_at_origin,
    angular_difference,
    clamp_stats,
    cos_threshold,
    cos_threshold_array,
    hyperbolic_distance,
    is_edge,
    max_angle_for_edge,
    max_angle_for_edge_array,
)

PARAMS = ModelParams(alpha=0.75, C=0.0, n=int(round(math.exp(15.0))))  # R close to 30


def mp_distance(r1, t1, r2, t2):
    """Extended-precision law-of-cosines distance (independent oracle)."""
    with mpmath.workdps(60):
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


def test_angle_at_origin_degenerate_cases():
    assert abs(angle_at_origin(2.0, 3.0, 5.0) - math.pi) < 1e-9
    assert abs(angle_at_origin(2.0, 3.0, 1.0) - 0.0) < 1e-9


def test_angle_at_origin_symmetric():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = 1.0 + 20.0 * rng.random()
        b = 1.0 + 20.0 * rng.random()
        c = abs(a - b) + (a + b - abs(a - b)) * rng.random()
        assert angle_at_origin(a, b, c) == angle_at_origin(b, a, c)


def test_angle_at_origin_domain_error():
    with pytest.raises(ValueError):
        angle_at_origin(2.0, 3.0, 6.0)
    with pytest.raises(ValueError):
        angle_at_origin(2.0, 3.0, 0.5)


def test_angle_approx_leading_term():
    R = 30.0
    assert abs(angle_approx(R, R, R) - 2.0 * math.exp(-15.0)) < 1e-18


def test_angle_approx_correction_tends_to_one():
    # the multiplicative bracket should approach 1 as a+b-c grows
    R = 30.0
    prev = None
    for gap in (2.0, 4.0, 8.0, 12.0):
        corr = angle_approx_correction(R, R, 2 * R - gap)
        err = abs(corr - 1.0)
        if prev is not None:
            assert err < prev
        prev = err
    assert prev < 1e-4


def test_angle_increasing_in_c():
    a = b = 16.0  # both above R/2 for R = 30
    prev = 0.0
    for c in np.linspace(16.0, 30.0, 50):
        ang = angle_at_origin(a, b, float(c))
        assert ang >= prev
        prev = ang


def test_angular_difference():
    assert abs(angular_difference(0.1, 0.3) - 0.2) < 1e-15
    assert abs(angular_difference(0.05, 2 * math.pi - 0.05) - 0.1) < 1e-12
    assert angular_difference(1.234, 1.234) == 0.0


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
    """[d <= R] iff [dtheta <= max_angle] iff is_edge, on 10^5 pairs."""
    rng = np.random.default_rng(6)
    R = PARAMS.R
    count = 100_000
    r1, t1 = random_points(rng, count, R)
    r2, t2 = random_points(rng, count, R)
    thr = max_angle_for_edge_array(r1, r2, PARAMS)
    dt = np.minimum(np.abs(t1 - t2) % (2 * math.pi),
                    2 * math.pi - np.abs(t1 - t2) % (2 * math.pi))
    by_angle = dt <= thr
    cos_thr = cos_threshold_array(r1, r2, PARAMS)
    by_cos = np.cos(t1 - t2) >= cos_thr
    assert np.array_equal(by_angle, by_cos)
    for i in range(0, count, 211):
        p = PolarPoint(r=r1[i], theta=t1[i])
        q = PolarPoint(r=r2[i], theta=t2[i])
        assert is_edge(p, q, PARAMS) == bool(by_cos[i])
        d = hyperbolic_distance(p, q)
        if abs(d - R) > 1e-9:  # stay off the knife edge for the d-form
            assert (d <= R) == bool(by_cos[i])


def test_cos_threshold_always_edge_sentinel():
    R = PARAMS.R
    assert cos_threshold(0.0, 5.0, PARAMS) == -2.0
    assert cos_threshold(R / 2, R / 2, PARAMS) == -2.0
    assert cos_threshold(R - 1, R - 1, PARAMS) > -1.0


def test_angle_bracket_constant():
    """|exact - approx| / approx <= K e^{c-a-b} with K <= 4 when a+b-c >= 2.

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
        rel = abs(angle_at_origin(a, b, c) - angle_approx(a, b, c)) / angle_approx(a, b, c)
        worst = max(worst, rel / math.exp(c - a - b))
        checked += 1
    assert checked > 1000
    assert worst <= 4.0


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


def test_clamp_health_abort():
    clamp_stats.reset()
    with pytest.raises(NumericHealthError):
        clamp_stats.record(10 * CLAMP_ABORT)
    clamp_stats.reset()
