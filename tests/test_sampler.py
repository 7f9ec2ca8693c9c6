"""Sampler tests: quantile round trip, distributional fidelity, counter
determinism, probes, and the points file format.
"""

import math

import numpy as np
import pytest

from rhglab import _rng, sampler
from rhglab.geometry import ModelParams, PolarPoint
from rhglab.measure import mu_ball_origin_exact
from rhglab.sampler import (
    PointsFormatError,
    add_probe,
    load_points,
    probe_cap,
    radial_quantile,
    sample_poisson_model,
    sample_uniform_model,
    save_points,
    _points_from_counters,
)

PARAMS = ModelParams(alpha=0.75, C=0.0, n=1000)


def test_quantile_endpoints():
    assert radial_quantile(0.0, PARAMS) == 0.0
    assert abs(radial_quantile(1.0, PARAMS) - PARAMS.R) < 1e-12 * PARAMS.R


def test_quantile_domain():
    with pytest.raises(ValueError):
        radial_quantile(-0.01, PARAMS)
    with pytest.raises(ValueError):
        radial_quantile(1.01, PARAMS)


def test_quantile_cdf_round_trip():
    rng = np.random.default_rng(0)
    u = rng.random(10_000)
    r = radial_quantile(u, PARAMS)
    back = np.array([mu_ball_origin_exact(x, PARAMS) for x in r[:500]])
    assert np.max(np.abs(back - u[:500])) < 1e-12


def test_uniform_model_count_and_bounds():
    s = sample_uniform_model(PARAMS, 3)
    assert s.n_points == PARAMS.n
    assert np.all(s.r < PARAMS.R)
    assert np.all(s.r >= 0)
    assert np.all(s.theta >= 0) and np.all(s.theta < 2 * math.pi)


def test_counter_substreams_batch_independent():
    """Point i is the same whether drawn alone or inside the full batch."""
    s = sample_uniform_model(PARAMS, 9)
    for i in (0, 17, 999):
        r, theta = _points_from_counters(PARAMS, 9, [i])
        assert r[0] == s.r[i]
        assert theta[0] == s.theta[i]


# counters 0, 1 and the first two probe substreams (2^62, 2^62 + 1)
GOLDEN_COUNTERS = np.array([0, 1, 1 << 62, (1 << 62) + 1], dtype=np.uint64)
# mix(7, 3): a Monte-Carlo shard key
GOLDEN_SHARD_KEY = 0xE7567EF2AD7545B9
# (seed, uniforms, radii, angles) at GOLDEN_COUNTERS under PARAMS
GOLDEN_STREAMS = [
    (0,
     ["0x1.4e0dba5e9a32fp-1", "0x1.f647530ffa1bcp-2", "0x1.f64d2870a3146p-1", "0x1.3fb17252008b2p-1"],
     ["0x1.9bb4fb09053ccp+3", "0x1.a5c6666c17d34p+3", "0x1.a92c68261d7adp+3", "0x1.844edffc28e97p+3"],
     ["0x1.065d776d739a0p+2", "0x1.99501c07b6e3ap+1", "0x1.0665097fd651cp+1", "0x1.58ecae7567859p+0"]),
    (12345,
     ["0x1.035808208fee0p-6", "0x1.999eb32febde8p-1", "0x1.f4bc014c61386p-1", "0x1.21391a0e372ddp-1"],
     ["0x1.b0940b32eea13p+3", "0x1.a7dddb4de01a0p+3", "0x1.b4f9c283bb69cp+3", "0x1.7397526760010p+3"],
     ["0x1.97605c0e82c74p-4", "0x1.3d9d5d0f15b6ap+1", "0x1.6de6101711975p+0", "0x1.ccd19a6cb338fp+0"]),
    (GOLDEN_SHARD_KEY,
     ["0x1.fde4dd9162250p-2", "0x1.3731e89aa4328p-2", "0x1.87ccd5a9177d0p-2", "0x1.67a24e2b13bc0p-2"],
     ["0x1.8748c736e3669p+3", "0x1.b206188e8b7b9p+3", "0x1.b7eb6504f7dc4p+3", "0x1.ac4202381bf74p+3"],
     ["0x1.907845d7f3a0fp+1", "0x1.2d1a488d21658p+2", "0x1.dfff95b79f383p-1", "0x1.84de206c6fa5cp+2"]),
]


def test_counter_stream_golden_bits():
    """The exact doubles of the counter streams: any change to the mixer,
    the 53-bit conversion or the radial quantile changes every sample."""
    assert int(_rng.mix(7, 3)) == GOLDEN_SHARD_KEY
    for seed, u_hex, r_hex, theta_hex in GOLDEN_STREAMS:
        u = _rng.uniforms(seed, GOLDEN_COUNTERS)
        r, theta = _points_from_counters(PARAMS, seed, GOLDEN_COUNTERS)
        assert [float(x).hex() for x in u] == u_hex, seed
        assert [float(x).hex() for x in r] == r_hex, seed
        assert [float(x).hex() for x in theta] == theta_hex, seed
        assert np.array_equal(sampler._radii_from_counters(PARAMS, seed, GOLDEN_COUNTERS), r)


def test_fixed_seed_reproducible():
    a = sample_uniform_model(PARAMS, 5)
    b = sample_uniform_model(PARAMS, 5)
    assert np.array_equal(a.r, b.r) and np.array_equal(a.theta, b.theta)
    c = sample_uniform_model(PARAMS, 6)
    assert not np.array_equal(a.r, c.r)


def test_radial_ks_statistic():
    params = ModelParams(alpha=0.75, C=0.0, n=1_000_000)
    s = sample_uniform_model(params, 11)
    r = np.sort(s.r)
    cdf = (np.cosh(params.alpha * r) - 1.0) / (math.cosh(params.alpha * params.R) - 1.0)
    k = len(r)
    emp_hi = np.arange(1, k + 1) / k
    emp_lo = np.arange(0, k) / k
    ks = max(np.max(np.abs(emp_hi - cdf)), np.max(np.abs(cdf - emp_lo)))
    assert ks < 0.002


def test_angle_uniformity_chi2():
    s = sample_uniform_model(ModelParams(alpha=0.75, C=0.0, n=100_000), 12)
    bins = 50
    counts, _ = np.histogram(s.theta, bins=bins, range=(0, 2 * math.pi))
    expected = len(s.theta) / bins
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # 99.9% quantile of chi2 with 49 dof is ~85.4
    assert chi2 < 85.4


def test_poisson_model_mean():
    params = ModelParams(alpha=0.75, C=0.0, n=10_000)
    counts = [sample_poisson_model(params, seed).n_points for seed in range(200)]
    mean = float(np.mean(counts))
    assert abs(mean - params.n) <= 4.0 * math.sqrt(params.n / 200)
    assert sample_poisson_model(params, 0).meta["poisson_count_method"] == "numpy-philox"


def test_poisson_toy_inversion():
    params = ModelParams(alpha=0.75, C=8.0, n=5)
    s = sample_poisson_model(params, 1)
    assert s.meta["poisson_count_method"] == "inversion"
    assert s.n_points >= 0


def test_probe_cap_and_tagging():
    s = sample_uniform_model(PARAMS, 2)
    cap = probe_cap(PARAMS)
    assert cap == int(PARAMS.n ** 0.45)
    s2 = add_probe(s, PolarPoint(r=PARAMS.R - 1.0, theta=0.0))
    assert s2.n_probes == 1 and s2.n_points == PARAMS.n
    assert s2.probe_r[0] == PARAMS.R - 1.0
    assert s.n_probes == 0  # original untouched
    for _ in range(cap - 1):
        s2 = add_probe(s2)
    with pytest.raises(ValueError):
        add_probe(s2)


def test_probe_model_draw_deterministic():
    s = add_probe(sample_uniform_model(PARAMS, 2))
    t = add_probe(sample_uniform_model(PARAMS, 2))
    assert s.probe_r[0] == t.probe_r[0]
    assert s.probe_theta[0] == t.probe_theta[0]


def test_points_round_trip(tmp_path):
    s = add_probe(sample_uniform_model(PARAMS, 4), PolarPoint(r=PARAMS.R - 1, theta=0.5))
    path = tmp_path / "p.tsv"
    save_points(s, path)
    t = load_points(path)
    assert t.params == s.params
    assert t.seed == s.seed and t.model == s.model
    assert np.array_equal(t.r, s.r) and np.array_equal(t.theta, s.theta)
    assert np.array_equal(t.probe_r, s.probe_r)


@pytest.mark.parametrize("chunk", [None, 7])
def test_points_file_bytes(tmp_path, monkeypatch, chunk):
    """The points file is the header plus one `%d\\t%.17g\\t%.17g` row per
    point, then per probe with indices -1..-m; a small chunk puts row
    boundaries inside the points and at the probes."""
    if chunk is not None:
        monkeypatch.setattr(sampler, "_SAVE_CHUNK", chunk)
    s = sample_poisson_model(ModelParams(alpha=0.6, C=1.5, n=40), 3)
    s = add_probe(s)
    s = add_probe(s, PolarPoint(r=0.0, theta=3.0))
    path = tmp_path / "p.tsv"
    save_points(s, path)
    expected = (
        f"# rhg-points v1 alpha=0.6 C=1.5 n=40 R={s.params.R!r} "
        f"seed=3 model=poisson count={s.n_points}\n"
    )
    for i in range(s.n_points):
        expected += f"{i}\t{s.r[i]:.17g}\t{s.theta[i]:.17g}\n"
    for j in range(s.n_probes):
        expected += f"{-(j + 1)}\t{s.probe_r[j]:.17g}\t{s.probe_theta[j]:.17g}\n"
    assert path.read_bytes() == expected.encode()


def test_points_bad_header(tmp_path):
    path = tmp_path / "bad.tsv"
    for header in ("# not-a-points-file",
                   "# rhg-points v1 alpha=0.75 C=0.0 n=10 R seed=0 model=uniform count=1"):
        path.write_text(header + "\n0\t1.0\t1.0\n")
        with pytest.raises(PointsFormatError):
            load_points(path)


@pytest.mark.parametrize("row", [
    "9\tnan\t1.0",             # nan radius after the spot-checked rows
    "9\t1.0\tnan",             # nan angle
    "9\t1.0\tinf",             # infinite angle
    "9\t-inf\t1.0",            # infinite radius
    "9\tx\t1.0",               # non-numeric radius
    "9\t1.0\t",                # empty angle
    "9.0\t1.0\t1.0",           # non-integer index
    "x\t1.0\t1.0",             # non-numeric index
    "9\t1.0",                   # two columns
    "9\t1.0\t1.0\t1.0",         # four columns
    "9 1.0 1.0",                # wrong separator
    "\n{last}",                 # blank row
    "{last}\n",                 # blank last row
    "10\t1.0\t1.0",            # index out of order
    "{last}\n-2\t1.0\t1.0",     # probe index out of order
    "9\t1.0\t\xff",            # not UTF-8 (written as latin-1)
])
def test_points_malformed_rows(tmp_path, row):
    """The last of ten rows replaced by `row`; {last} stands for the row."""
    s = sample_uniform_model(ModelParams(alpha=0.75, C=0.0, n=10), 0)
    path = tmp_path / "p.tsv"
    save_points(s, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1] + [row.format(last=lines[-1])]) + "\n",
                    encoding="latin-1")
    with pytest.raises(PointsFormatError):
        load_points(path)


def test_points_inconsistent_radius_header(tmp_path):
    s = sample_uniform_model(ModelParams(alpha=0.75, C=0.0, n=10), 0)
    path = tmp_path / "p.tsv"
    save_points(s, path)
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace("R=", "R=9", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(PointsFormatError):
        load_points(path)


def test_points_truncated(tmp_path):
    s = sample_uniform_model(ModelParams(alpha=0.75, C=0.0, n=10), 0)
    path = tmp_path / "p.tsv"
    save_points(s, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(PointsFormatError):
        load_points(path)
