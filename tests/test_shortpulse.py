"""Short-pulse data construction tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import CubicSpline

from charshock.errors import GridTooCoarse, InvalidParameter
from charshock.shortpulse import (
    _seed_profile,
    SeedProfiles,
    ShortPulseData,
    build_annulus_data,
    bump,
    bump_seeds,
    null_derivative_ratio,
)


def zero(s):
    return np.zeros_like(np.asarray(s, dtype=float))


def test_ode_linear_seed():
    seeds = SeedProfiles(phi1=lambda s: s, phi2=zero, delta=0.1)
    s = np.linspace(0.0, 1.0, 257)
    phi0, dphi0 = _seed_profile(seeds, s)
    assert np.max(np.abs(phi0 - s**2 / 2)) <= 1e-12
    assert np.max(np.abs(dphi0 - s)) <= 1e-12


def test_ode_constant_forcing():
    seeds = SeedProfiles(phi1=zero, phi2=lambda s: np.ones_like(s), delta=0.1)
    s = np.linspace(0.0, 1.0, 257)
    phi0, _ = _seed_profile(seeds, s)
    assert np.max(np.abs(phi0 - 0.05 * s**2)) <= 1e-12


def test_ode_sine_seed_vs_antiderivative():
    seeds = SeedProfiles(phi1=lambda s: np.sin(np.pi * s), phi2=zero, delta=0.2)
    s = np.linspace(0.0, 1.0, 513)
    phi0, _ = _seed_profile(seeds, s)
    assert np.max(np.abs(phi0 - (1 - np.cos(np.pi * s)) / np.pi)) <= 1e-10


def test_zero_seeds_give_zero_data():
    data = build_annulus_data(SeedProfiles(phi1=zero, phi2=zero, delta=0.1))
    assert np.all(data.phi_at(data.r_grid) == 0.0)
    assert np.all(data.dtphi_at(data.r_grid) == 0.0)
    res = null_derivative_ratio(data)
    assert res["sup_second_null"] == 0.0


def test_amplitude_scaling():
    seeds = bump_seeds(c=1.0, delta=0.1)
    data = build_annulus_data(seeds, r_grid_n=512)
    s = np.linspace(0, 1, 2001)
    assert np.max(np.abs(data.dtphi_at(data.r_grid))) == pytest.approx(
        0.1 * np.max(seeds.phi1(s)), rel=1e-3)
    assert (np.max(np.abs(data.phi_at(data.r_grid)))
            <= 0.01 * np.max(np.abs(data.phi0_profile)) * (1 + 1e-12))


def test_delta_halving_scaling_law():
    sup = {}
    for delta in (0.1, 0.05):
        data = build_annulus_data(bump_seeds(c=1.0, delta=delta), r_grid_n=512)
        sup[delta] = (np.max(np.abs(data.phi_at(data.r_grid))),
                      np.max(np.abs(data.dtphi_at(data.r_grid))))
    assert sup[0.05][0] / sup[0.1][0] == pytest.approx(0.25, rel=1e-6)
    assert sup[0.05][1] / sup[0.1][1] == pytest.approx(0.5, rel=1e-6)


def test_invalid_width():
    with pytest.raises(InvalidParameter):
        build_annulus_data(SeedProfiles(phi1=zero, phi2=zero, delta=1.0))


def test_null_derivative_ratio_bounded_across_delta():
    """sup |(dt-dr)^2 phi| / delta stays bounded as delta shrinks."""
    ratios = []
    for delta in (0.2, 0.1, 0.05, 0.025):
        data = build_annulus_data(bump_seeds(c=0.5, delta=delta), r_grid_n=1024)
        ratios.append(null_derivative_ratio(data)["ratio"])
    ratios = np.asarray(ratios)
    assert np.all(ratios <= 4.0 * ratios[0] + 1e-12)
    # consecutive ratios stay within a factor of two of each other
    assert np.all(ratios[1:] / ratios[:-1] >= 0.4)
    assert np.all(ratios[1:] / ratios[:-1] <= 2.0)


def test_null_derivative_ratio_names_a_coarse_grid():
    """Below r_grid_n = 14 the Richardson check's half grid holds fewer than
    the stencils' 8 points; at 16 its error estimate exceeds the sup."""
    seeds = bump_seeds(c=1.0, delta=0.1)
    for n in (1, 13, 16):
        with pytest.raises(GridTooCoarse):
            null_derivative_ratio(build_annulus_data(seeds, r_grid_n=n))
    assert null_derivative_ratio(build_annulus_data(seeds, r_grid_n=64))["ratio"] > 0.0


def test_round_trip_radial_derivative():
    """d/dr of the built phi, rescaled, recovers dphi0."""
    data = build_annulus_data(bump_seeds(c=1.0, delta=0.1), r_grid_n=2048)
    dr = data.r_grid[1] - data.r_grid[0]
    dphi_dr = np.gradient(data.phi_at(data.r_grid), dr)
    s = (data.r_grid - 2.0) / data.delta
    expect = data.delta * np.interp(s, data.s_grid, data.dphi0_profile)
    assert np.max(np.abs(dphi_dr - expect)[2:-2]) <= 1e-5


def test_c_extraction_from_samples():
    """max_s phi1'(s) measured from samples matches the requested c."""
    seeds = bump_seeds(c=0.7, delta=0.1)
    s = np.linspace(0, 1, 20001)
    slope = np.gradient(seeds.phi1(s), s[1] - s[0])
    assert np.max(slope) == pytest.approx(0.7, rel=1e-4)


def test_bump_support():
    s = np.array([0.0, 0.05, 0.1, 0.95, 1.0])
    assert np.all(bump(s) == 0.0)
    assert bump(0.5) > 0.0


def _spline_phi(data, r):
    """phi(-2, r) through a not-a-knot cubic spline of phi0 on s_grid."""
    s = (np.asarray(r, dtype=float) - 2.0) / data.delta
    out = np.zeros_like(s)
    inside = (s > 0.0) & (s < data.s_grid[-1])
    out[inside] = data.delta**2 * CubicSpline(data.s_grid, data.phi0_profile)(s[inside])
    out[s >= data.s_grid[-1]] = data.delta**2 * data.phi0_profile[-1]
    return out


_SLOPES = st.floats(1e-3, 60.0).flatmap(lambda c: st.sampled_from([c, -c]))
_POWER_OF_TWO_DELTAS = st.sampled_from([2.0**-k for k in range(1, 7)])


@settings(deadline=None, max_examples=25)
@given(c=_SLOPES, delta=st.floats(0.011, 0.89))
@example(c=58.5, delta=0.1136121899959893)
def test_hermite_phi_at_matches_a_cubic_spline(c, delta):
    """On the annulus and past it phi_at agrees with a spline of phi0 to round-off."""
    data = build_annulus_data(bump_seeds(c, delta))
    r = 2.0 + delta * np.linspace(-0.1, 1.2, 4001)
    assert (np.max(np.abs(data.phi_at(r) - _spline_phi(data, r)))
            <= 2e-15 * np.max(np.abs(data.phi_at(data.r_grid))))


@settings(deadline=None, max_examples=20)
@given(c=_SLOPES, delta=_POWER_OF_TWO_DELTAS)
def test_hermite_phi_at_is_the_profile_at_the_nodes(c, delta):
    """At r = 2 + delta s_k (exact for a power-of-two delta) phi_at returns
    delta^2 phi0_profile[k] bit for bit."""
    data = build_annulus_data(bump_seeds(c, delta), r_grid_n=512)
    expect = delta**2 * data.phi0_profile
    assert data.phi_at(2.0 + delta * data.s_grid).tobytes() == expect.tobytes()


@pytest.mark.parametrize("c", [1.0, -1.0])
@pytest.mark.parametrize("delta", [0.3, 0.5, 0.77], ids="delta-{}".format)
def test_samples_are_dtphi_at_on_the_annulus(c, delta):
    """The annulus is [2, 2 + delta] and dtphi_at keeps both its edges: with a
    seed phi1 = c (1 + s), nonzero at s = 0 and 1, it is delta phi1 there and
    zero just outside."""
    seeds = SeedProfiles(phi1=lambda s: c * (1.0 + s), phi2=zero, delta=delta)
    data = build_annulus_data(seeds, r_grid_n=512)
    edges = data.r_grid[[0, -1]]
    assert edges[0] == 2.0 and edges[1] == 2.0 + delta
    assert np.array_equal(data.dtphi_at(edges), delta * seeds.phi1((edges - 2.0) / delta))
    assert np.all(data.dtphi_at(edges) != 0.0)
    outside = edges + np.array([-1e-12, 1e-12])
    assert np.all(data.dtphi_at(outside) == 0.0)


def test_hermite_phi_at_reproduces_a_cubic_profile():
    """phi1 = 3s^2 - 2s with phi2 = 6 gives phi0 = s^3 + (3 delta - 1) s^2."""
    delta = 0.3
    seeds = SeedProfiles(phi1=lambda s: 3.0 * s**2 - 2.0 * s,
                         phi2=lambda s: np.full_like(np.asarray(s, dtype=float), 6.0),
                         delta=delta)
    data = build_annulus_data(seeds, r_grid_n=64)
    s = np.linspace(0.0, 1.0, 7919)[1:-1]
    exact = delta**2 * (s**3 + (3.0 * delta - 1.0) * s**2)
    assert np.max(np.abs(data.phi_at(2.0 + delta * s) - exact)) <= 1e-15


@settings(deadline=None, max_examples=20)
@given(c=_SLOPES, delta=st.floats(0.011, 0.89))
def test_phi_at_is_zero_inside_and_constant_past_the_support(c, delta):
    """phi(-2, r) vanishes for r <= 2 and keeps its edge value past the support."""
    data = build_annulus_data(bump_seeds(c, delta), r_grid_n=64)
    assert np.all(data.phi_at(np.array([0.0, 1.0, 1.9, 2.0 - 1e-12, 2.0])) == 0.0)
    edge = 2.0 + delta * data.s_grid[-1]
    beyond = edge + np.array([1e-12, delta, 3.0])
    assert np.all(data.phi_at(beyond) == delta**2 * data.phi0_profile[-1])


def test_seed_resolution_does_not_follow_the_sample_grid():
    """The seed ODE has one resolution, so r_grid_n sets the samples only."""
    seeds = bump_seeds(c=1.0, delta=0.05)
    coarse, fine = (build_annulus_data(seeds, r_grid_n=n) for n in (64, 4096))
    assert np.array_equal(coarse.s_grid, fine.s_grid)
    r = 2.0 + 0.05 * np.linspace(-0.1, 1.1, 3001)
    assert coarse.phi_at(r).tobytes() == fine.phi_at(r).tobytes()
    assert coarse.r_grid[-1] == fine.r_grid[-1]
