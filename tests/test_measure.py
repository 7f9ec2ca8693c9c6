"""Measure toolkit tests: exact CDF values, band additivity, Monte-Carlo
oracle agreement and determinism, intersection and lens forms.
"""

import math

import numpy as np
import pytest

from rhglab._rng import mix
from rhglab.geometry import ModelParams, PolarPoint
from rhglab.measure import (
    SHARD_SIZE,
    Z99,
    McEstimate,
    band_origin,
    band_ratio_check,
    ball_at,
    ball_origin,
    check_lens_constants,
    cone,
    difference,
    intersection,
    lens_minus_ball_region,
    mu_ball_intersection_approx,
    mu_ball_origin_approx,
    mu_ball_origin_exact,
    mu_band_origin,
    mu_band_origin_approx,
    mu_lens_minus_ball,
    mu_monte_carlo,
)
from rhglab.explorer import compute_schedule
from rhglab.sampler import _points_from_counters


def params_for_radius(R, alpha=0.75, n=1000):
    """Model constants with the requested disc radius hit exactly via C."""
    return ModelParams(alpha=alpha, C=R - 2.0 * math.log(n), n=n)


P30 = params_for_radius(30.0)


def test_ball_exact_endpoints():
    assert mu_ball_origin_exact(0.0, P30) == 0.0
    assert mu_ball_origin_exact(P30.R, P30) == 1.0
    with pytest.raises(ValueError):
        mu_ball_origin_exact(-1.0, P30)
    with pytest.raises(ValueError):
        mu_ball_origin_exact(P30.R + 1.0, P30)


def test_ball_exact_vs_leading_term():
    exact = mu_ball_origin_exact(20.0, P30)
    approx = mu_ball_origin_approx(20.0, P30)
    assert abs(exact / approx - 1.0) < 0.002


def test_ball_exact_monotone():
    rhos = np.linspace(0.0, P30.R, 200)
    vals = [mu_ball_origin_exact(float(x), P30) for x in rhos]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_band_additivity():
    a, b, c = 10.0, 18.0, 26.0
    lhs = mu_band_origin(c, a, P30)
    rhs = mu_band_origin(b, a, P30) + mu_band_origin(c, b, P30)
    assert abs(lhs - rhs) < 1e-12


def test_band_trivials_and_approx():
    assert mu_band_origin(5.0, 5.0, P30) == 0.0
    assert mu_band_origin(P30.R, 0.0, P30) == 1.0
    exact = mu_band_origin(P30.R - 1.0, P30.R - 2.0, P30)
    approx = mu_band_origin_approx(P30.R - 1.0, P30.R - 2.0, P30)
    assert abs(exact / approx - 1.0) < 0.01


def test_monte_carlo_trivials():
    est = mu_monte_carlo(ball_origin(P30.R), 10_000, 0, P30)
    assert est.mean == 1.0 and est.half_width == 0.0
    est0 = mu_monte_carlo(ball_origin(0.0), 10_000, 0, P30)
    assert est0.mean == 0.0
    with pytest.raises(ValueError):
        mu_monte_carlo(ball_origin(1.0), 9_999, 0, P30)


def test_monte_carlo_deterministic():
    region = band_origin(20.0, 25.0)
    a = mu_monte_carlo(region, 50_000, 123, P30)
    b = mu_monte_carlo(region, 50_000, 123, P30)
    assert a == b
    c = mu_monte_carlo(region, 50_000, 124, P30)
    assert a != c


def test_monte_carlo_blocks_match_full_shards():
    """The blocked loop counts the hits a full-width pass over each shard
    counts: no block boundary drops or repeats a counter.  The sample
    count ends in a partial shard and a partial block."""
    samples, seed = SHARD_SIZE + 12_345, 31
    shards = []
    for shard, done in enumerate(range(0, samples, SHARD_SIZE)):
        size = min(SHARD_SIZE, samples - done)
        shards.append(_points_from_counters(P30, int(mix(seed, shard)), np.arange(size)))
    R = P30.R
    regions = [
        ball_origin(R),
        ball_origin(R - 1.0),
        band_origin(R - 2.0, R - 1.0),
        intersection(band_origin(R - 3.0, R), ball_at(PolarPoint(r=10.0, theta=1.0), R)),
        difference(ball_origin(R - 0.5), ball_at(PolarPoint(r=20.0, theta=2.0), R - 1.0)),
        cone([(0.5, 2.5), (5.0, 0.5)]),
    ]
    for region in regions:
        hits = sum(int(np.count_nonzero(region.contains(r, theta, P30))) for r, theta in shards)
        mean = hits / samples
        want = McEstimate(mean=mean, half_width=Z99 * math.sqrt(mean * (1.0 - mean) / samples),
                          samples=samples, seed=seed)
        assert mu_monte_carlo(region, samples, seed, P30) == want, region


def _plain(region, r, theta):
    """Reference evaluation of a composite region with whole-array masks."""
    if hasattr(region, "parts"):
        out = np.ones(np.shape(r), dtype=bool)
        for part in region.parts:
            out = out & _plain(part, r, theta)
        return out
    if hasattr(region, "keep"):
        return _plain(region.keep, r, theta) & ~_plain(region.drop, r, theta)
    return region.contains(r, theta, P30)


def test_composite_regions_match_plain_masks():
    """Intersection and Difference evaluate later parts only where the
    answer is open; the masks equal the plain `&` / `& ~` forms."""
    R = P30.R
    atoms = [
        ball_origin(R - 1.0),
        band_origin(R - 3.0, R - 0.5),
        ball_at(PolarPoint(r=R - 1.0, theta=0.0), R),
        ball_at(PolarPoint(r=12.0, theta=2.5), R - 2.0),
        cone([(0.5, 2.5), (5.0, 0.5)]),
        ball_origin(0.0),  # keeps nothing
    ]
    rng = np.random.default_rng(12)
    r = R * rng.random(5000) ** 0.2
    theta = 2 * math.pi * rng.random(5000)
    inputs = [
        (r, theta),
        (r.reshape(50, 100), theta.reshape(50, 100)),
        (r[:300], 1.0),  # broadcast scalar angle
        (20.0, theta[:300]),  # broadcast scalar radius
        (np.empty(0), np.empty(0)),
        (R - 0.7, 0.1),
        (np.float64(R - 0.7), np.asarray(0.1)),
        (np.asarray(20.0), np.asarray(3.0)),
    ]
    composites = []
    for a in atoms:
        for b in atoms:
            composites += [intersection(a, b), difference(a, b)]
    composites += [
        intersection(atoms[1], atoms[2], atoms[4]),
        intersection(),
        difference(intersection(atoms[1], atoms[3]), intersection(atoms[4], atoms[2])),
    ]
    for region in composites:
        for rr, tt in inputs:
            got = region.contains(rr, tt, P30)
            want = _plain(region, rr, tt)
            assert np.shape(got) == np.shape(want), (region, np.shape(rr))
            assert np.array_equal(got, want), (region, np.shape(rr))


def test_region_mask_shapes():
    """A radial region's mask has r's shape and accepts theta=None; any
    other region's mask has the broadcast shape of (r, theta)."""
    R = P30.R
    r = np.arange(300.0)
    band = band_origin(R - 3.0, R - 0.5)
    k = cone([(0.5, 2.5)])
    assert k.contains(r, 1.0, P30).shape == (300,)
    assert k.contains(1.0, r, P30).shape == (300,)
    assert ball_at(PolarPoint(r=R - 1.0, theta=0.0), R).contains(r, 1.0, P30).shape == (300,)
    for region in (ball_origin(R - 1.0), band, intersection(ball_origin(R), band),
                   difference(band, ball_origin(R - 2.0)), intersection()):
        assert region.contains(r, np.zeros((2, 1)), P30).shape == (300,), region
        assert np.array_equal(region.contains(r, None, P30), region.contains(r, 1.0, P30))
    # an interval spanning 2 pi or more is the whole circle, wherever it starts
    theta = np.linspace(-7.0, 7.0, 301)
    for whole in (cone([(0.0, 2 * math.pi)]), cone([(1.0, 1.0 + 2 * math.pi)]),
                  cone([(-3.0, 5.0)])):
        assert whole.contains(1.0, theta, P30).all(), whole


def test_radial_flag():
    R = P30.R
    ball, band = ball_origin(R - 1.0), band_origin(R - 3.0, R - 0.5)
    far, k = ball_at(PolarPoint(r=R - 1.0, theta=0.0), R), cone([(0.5, 2.5)])
    assert ball.radial and band.radial
    assert not far.radial and not k.radial
    assert intersection(ball, band).radial and difference(ball, band).radial
    assert intersection().radial
    assert difference(intersection(ball, band), band).radial
    assert not intersection(band, far).radial and not intersection(k, band).radial
    assert not difference(ball, k).radial and not difference(far, ball).radial
    assert not difference(intersection(ball, band), intersection(band, k)).radial


def test_radial_regions_match_angular_draw():
    """A radial region, drawn as radii alone, gets the McEstimate that the
    same region gets inside a whole-circle cone, which draws angles."""
    R = P30.R
    whole = cone([(0.0, 2 * math.pi)])
    regions = [
        ball_origin(R - 1.0),
        band_origin(R - 2.0, R - 1.0),
        intersection(ball_origin(R - 0.5), band_origin(R - 3.0, R)),
        difference(ball_origin(R - 1.0), band_origin(R - 2.0, R - 1.5)),
    ]
    for region in regions:
        wrapped = intersection(region, whole)
        assert region.radial and not wrapped.radial
        est = mu_monte_carlo(region, 30_001, 5, P30)
        assert est == mu_monte_carlo(wrapped, 30_001, 5, P30), region
        assert 0.0 < est.mean < 1.0


def test_monte_carlo_vs_exact_cdf():
    rng = np.random.default_rng(8)
    for _ in range(20):
        rho = float(P30.R * rng.random())
        exact = mu_ball_origin_exact(rho, P30)
        est = mu_monte_carlo(ball_origin(rho), 200_000, int(rng.integers(1 << 60)), P30)
        assert est.agrees(exact, 1e-4)


def test_region_algebra():
    r = np.array([5.0, 15.0, 29.0])
    theta = np.array([0.0, 1.0, 2.0])
    band = band_origin(10.0, 20.0)
    assert list(band.contains(r, theta, P30)) == [False, True, False]
    inter = intersection(ball_origin(20.0), band_origin(10.0, 25.0))
    assert list(inter.contains(r, theta, P30)) == [False, True, False]
    diff = difference(ball_origin(20.0), ball_origin(10.0))
    assert list(diff.contains(r, theta, P30)) == [False, True, False]
    k = cone([(0.5, 1.5), (6.0, 0.2)])  # second interval wraps
    assert list(k.contains(r, theta, P30)) == [True, True, False]


def test_ball_at_contains_matches_distance():
    center = PolarPoint(r=25.0, theta=0.3)
    ball = ball_at(center, P30.R)
    rng = np.random.default_rng(9)
    r = P30.R * rng.random(500)
    theta = 2 * math.pi * rng.random(500)
    inside = ball.contains(r, theta, P30)
    from rhglab.geometry import hyperbolic_distance

    for i in range(0, 500, 13):
        d = hyperbolic_distance(PolarPoint(r=float(r[i]), theta=float(theta[i])), center)
        if abs(d - P30.R) > 1e-9:
            assert bool(inside[i]) == (d <= P30.R)


def test_intersection_approx_preconditions():
    with pytest.raises(ValueError):
        mu_ball_intersection_approx(20.0, 10.0, 30.0, P30)  # r_A > rho_A
    with pytest.raises(ValueError):
        mu_ball_intersection_approx(1.0, 30.0, 5.0, P30)  # rho_O + r_A < rho_A


def test_intersection_approx_special_form():
    # rho_A = rho_O = R collapses to C_alpha e^{-r_A/2}
    a = P30.alpha
    c_alpha = 2 * a / (math.pi * (a - 0.5))
    val, env = mu_ball_intersection_approx(25.0, P30.R, P30.R, P30)
    assert abs(val - c_alpha * math.exp(-12.5)) < 1e-15
    assert env == math.exp(-a * (P30.R - P30.R + 25.0))


def test_intersection_approx_vs_monte_carlo():
    r_A = 25.0
    A = PolarPoint(r=r_A, theta=0.0)
    val, env = mu_ball_intersection_approx(r_A, P30.R, P30.R, P30)
    region = intersection(ball_at(A, P30.R), ball_origin(P30.R))
    est = mu_monte_carlo(region, 2_000_000, 77, P30)
    assert est.agrees(val, 4.0 * env + 0.15 * val)


def test_band_ratio_check():
    # small disc keeps the intersection measure large enough for raw
    # hit-frequency sampling
    params = params_for_radius(15.0)
    sch = compute_schedule(params)
    bands = sch.R_outer
    i = 2
    r_A = 0.5 * (bands[i] + bands[i + 1])
    rep = band_ratio_check(i, r_A, params, sch, samples=2_000_000, seed=5)
    assert rep.numerator.mean <= rep.denominator.mean + 1e-12
    assert 0.0 <= rep.ratio <= 1.0
    assert rep.clears_floor
    with pytest.raises(ValueError):
        band_ratio_check(i, bands[i] - 0.1, params, sch)


def test_lens_constants_forms():
    check_lens_constants(0.2, 0.3, 0.1)  # defaults satisfy the constraint
    with pytest.raises(ValueError):
        check_lens_constants(0.3, 0.2, 0.1)  # ordering violated
    with pytest.raises(ValueError):
        check_lens_constants(0.2, 3.0, 0.1)  # 2 e^{c1-c2} <= e^{c3/2}


def test_lens_minus_ball():
    c1, c2, c3 = 0.2, 0.3, 0.1
    R = P30.R
    r_mid = R - 0.25
    # place A and B so their distance lands in [R - c3, R]
    from rhglab.geometry import max_angle_for_edge

    dtheta = max_angle_for_edge(r_mid, r_mid, P30) * 0.999
    A = PolarPoint(r=r_mid, theta=0.0)
    B = PolarPoint(r=r_mid, theta=dtheta)
    lens = mu_lens_minus_ball(A, B, c1, c2, c3, P30, samples=500_000, seed=3)
    assert lens.estimate.mean >= 0.0
    assert lens.expected_vertices == P30.n * lens.estimate.mean
    # containment: lens region is inside the defining band
    band_est = mu_monte_carlo(band_origin(R - c2, R - c1), 500_000, 3, P30)
    assert lens.estimate.mean <= band_est.mean + 1e-12
    # precondition gates
    with pytest.raises(ValueError):
        mu_lens_minus_ball(PolarPoint(r=R - 5.0), B, c1, c2, c3, P30)


def test_mc_estimate_agrees():
    est = McEstimate(mean=0.5, half_width=0.01, samples=10_000, seed=0)
    assert est.agrees(0.505)
    assert est.agrees(0.519, extra=0.01)
    assert not est.agrees(0.52)
