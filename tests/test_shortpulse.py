"""Short-pulse data construction tests."""

import numpy as np
import pytest

from charshock.errors import InvalidWidth
from charshock.shortpulse import (
    SeedProfiles,
    ShortPulseData,
    build_annulus_data,
    bump,
    bump_seeds,
    null_derivative_ratio,
    solve_seed_ode,
)


def zero(s):
    return np.zeros_like(np.asarray(s, dtype=float))


def test_ode_linear_seed():
    seeds = SeedProfiles(phi1=lambda s: s, phi2=zero, delta=0.1)
    s, phi0, dphi0 = solve_seed_ode(seeds, s_grid_n=256)
    assert np.max(np.abs(phi0 - s**2 / 2)) <= 1e-12
    assert np.max(np.abs(dphi0 - s)) <= 1e-12


def test_ode_constant_forcing():
    seeds = SeedProfiles(phi1=zero, phi2=lambda s: np.ones_like(s), delta=0.1)
    s, phi0, _ = solve_seed_ode(seeds, s_grid_n=256)
    assert np.max(np.abs(phi0 - 0.05 * s**2)) <= 1e-12


def test_ode_sine_seed_vs_antiderivative():
    seeds = SeedProfiles(phi1=lambda s: np.sin(np.pi * s), phi2=zero, delta=0.2)
    s, phi0, _ = solve_seed_ode(seeds, s_grid_n=512)
    assert np.max(np.abs(phi0 - (1 - np.cos(np.pi * s)) / np.pi)) <= 1e-10


def test_zero_seeds_give_zero_data():
    data = build_annulus_data(SeedProfiles(phi1=zero, phi2=zero, delta=0.1))
    assert np.all(data.phi_at_minus2 == 0.0)
    assert np.all(data.dtphi_at_minus2 == 0.0)
    res = null_derivative_ratio(data)
    assert res["sup_second_null"] == 0.0


def test_amplitude_scaling():
    seeds = bump_seeds(c=1.0, delta=0.1)
    data = build_annulus_data(seeds, r_grid_n=512)
    s = np.linspace(0, 1, 2001)
    assert np.max(np.abs(data.dtphi_at_minus2)) == pytest.approx(
        0.1 * np.max(seeds.phi1(s)), rel=1e-3)
    assert np.max(np.abs(data.phi_at_minus2)) <= 0.01 * np.max(np.abs(data.phi0_profile)) * (1 + 1e-12)


def test_delta_halving_scaling_law():
    sup = {}
    for delta in (0.1, 0.05):
        data = build_annulus_data(bump_seeds(c=1.0, delta=delta), r_grid_n=512)
        sup[delta] = (np.max(np.abs(data.phi_at_minus2)),
                      np.max(np.abs(data.dtphi_at_minus2)))
    assert sup[0.05][0] / sup[0.1][0] == pytest.approx(0.25, rel=1e-6)
    assert sup[0.05][1] / sup[0.1][1] == pytest.approx(0.5, rel=1e-6)


def test_data_vanish_beyond_a_delta_squared_annulus():
    """Both fields stop at the annulus's outer edge 2 + delta^2, not at 2 + delta."""
    data = build_annulus_data(bump_seeds(c=1.0, delta=0.5), width_mode="delta_squared")
    assert data.r_grid[-1] == 2.25
    beyond = np.array([2.25, 2.3, 2.35, 2.5])
    assert np.all(data.dtphi_at(beyond) == 0.0)
    assert np.all(data.phi_at(beyond) == data.phi_at(2.25))
    assert data.dtphi_at(2.2) > 0.0


def test_invalid_width():
    with pytest.raises(InvalidWidth):
        build_annulus_data(SeedProfiles(phi1=zero, phi2=zero, delta=1.0))
    with pytest.raises(InvalidWidth):
        build_annulus_data(SeedProfiles(phi1=zero, phi2=zero, delta=0.1),
                           width_mode="banana")


def test_width_modes():
    seeds = bump_seeds(c=1.0, delta=0.2)
    full = build_annulus_data(seeds, width_mode="delta")
    thin = build_annulus_data(seeds, width_mode="delta_squared")
    assert full.r_grid[-1] == pytest.approx(2.2)
    assert thin.r_grid[-1] == pytest.approx(2.04)


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


def test_round_trip_radial_derivative():
    """d/dr of the built phi, rescaled, recovers dphi0."""
    data = build_annulus_data(bump_seeds(c=1.0, delta=0.1), r_grid_n=2048)
    dr = data.r_grid[1] - data.r_grid[0]
    dphi_dr = np.gradient(data.phi_at_minus2, dr)
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
