"""Short-pulse initial data on the annulus [2, 2+w] at t = -2.

The potential and its time derivative are prescribed as

    phi(-2, r)   = delta^2 * phi0((r - 2)/delta)
    dtphi(-2, r) = delta   * phi1((r - 2)/delta)

with phi0 obtained from the seed profiles (phi1, phi2) by solving

    d^2/ds^2 phi0 - d/ds phi1 = delta * phi2,   phi0(0) = 0, phi0'(0) = 0,

i.e. phi0(s) = int_0^s phi1 + delta * int_0^s int_0^sigma phi2.  With this
choice the second incoming-null derivative (dt - dr)^2 phi is O(delta)
instead of the naive O(1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import numpy as np
from numpy.polynomial import legendre
from scipy.interpolate import CubicSpline

from .errors import GridTooCoarse, InvalidWidth
from .eos import EquationOfState, make_polytropic
from .radial import _fields, d1

__all__ = [
    "SeedProfiles",
    "ShortPulseData",
    "solve_seed_ode",
    "build_annulus_data",
    "null_derivative_ratio",
    "bump",
    "bump_seeds",
]

# 8-point Gauss-Legendre nodes/weights on [0, 1], used for per-cell quadrature.
_GL_X, _GL_W = legendre.leggauss(8)
_GL_X = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W


@dataclass(frozen=True)
class SeedProfiles:
    phi1: Callable[[np.ndarray], np.ndarray]   # seed for dtphi
    phi2: Callable[[np.ndarray], np.ndarray]   # forcing seed
    delta: float                               # pulse amplitude in (0, 1)


def _cumulative_integral(f, s_grid):
    """Cumulative integral of f from s_grid[0], Gauss-Legendre per cell."""
    ds = np.diff(s_grid)
    # quadrature nodes for every cell at once: shape (n_cells, 8)
    nodes = s_grid[:-1, None] + ds[:, None] * _GL_X[None, :]
    cell = ds * (np.asarray(f(nodes.ravel())).reshape(nodes.shape) @ _GL_W)
    out = np.empty_like(s_grid)
    out[0] = 0.0
    np.cumsum(cell, out=out[1:])
    return out


def solve_seed_ode(seeds: SeedProfiles, s_grid_n=1024):
    """Solve for phi0 on s in [0, 1] by exact double integration.

    Returns (s_grid, phi0, dphi0) where dphi0 is the first derivative.
    """
    s = np.linspace(0.0, 1.0, s_grid_n + 1)
    int_phi1 = _cumulative_integral(seeds.phi1, s)
    int_phi2 = _cumulative_integral(seeds.phi2, s)
    int_sphi2 = _cumulative_integral(lambda x: x * np.asarray(seeds.phi2(x)), s)
    # int_0^s int_0^sigma phi2 = s*int_0^s phi2 - int_0^s sigma*phi2(sigma)
    phi0 = int_phi1 + seeds.delta * (s * int_phi2 - int_sphi2)
    dphi0 = np.asarray(seeds.phi1(s)) + seeds.delta * int_phi2
    return s, phi0, dphi0


@dataclass(frozen=True)
class ShortPulseData:
    r_grid: np.ndarray
    phi_at_minus2: np.ndarray
    dtphi_at_minus2: np.ndarray
    delta: float
    s_grid: np.ndarray
    phi0_profile: np.ndarray
    dphi0_profile: np.ndarray
    seeds: SeedProfiles
    _phi0_spline: CubicSpline = field(repr=False, default=None)

    def _s(self, r):
        return (np.asarray(r, dtype=float) - 2.0) / self.delta

    def phi_at(self, r):
        """phi(-2, r), extended by zero outside the annulus."""
        s = self._s(r)
        inside = (s > 0.0) & (s < self.s_grid[-1])
        out = np.zeros_like(s)
        out[inside] = self.delta**2 * self._phi0_spline(s[inside])
        # constant continuation past the outer edge of the support
        out[s >= self.s_grid[-1]] = self.delta**2 * self.phi0_profile[-1]
        return out

    def dtphi_at(self, r):
        """dtphi(-2, r), extended by zero outside the annulus."""
        s = self._s(r)
        inside = (s > 0.0) & (s < 1.0)
        out = np.zeros_like(s)
        out[inside] = self.delta * np.asarray(self.seeds.phi1(s[inside]))
        return out


def build_annulus_data(seeds: SeedProfiles, r_grid_n=512,
                       width_mode="delta") -> ShortPulseData:
    """Sample the short-pulse fields on the annulus [2, 2+w].

    width_mode 'delta' takes w = delta (the full support of the data);
    'delta_squared' takes w = delta^2 (the inner restriction), which only
    makes sense for delta < 1.
    """
    delta = seeds.delta
    if not 0.0 < delta < 1.0:
        raise InvalidWidth(f"pulse amplitude must lie in (0, 1), got {delta}")
    if width_mode == "delta":
        s_max = 1.0
    elif width_mode == "delta_squared":
        s_max = delta
    else:
        raise InvalidWidth(f"unknown width_mode {width_mode!r}")

    s_fine, phi0, dphi0 = solve_seed_ode(seeds, s_grid_n=max(4096, 4 * r_grid_n))
    keep = s_fine <= s_max + 1e-14
    s_fine, phi0, dphi0 = s_fine[keep], phi0[keep], dphi0[keep]
    spline = CubicSpline(s_fine, phi0)

    r_grid = 2.0 + delta * np.linspace(0.0, s_max, r_grid_n + 1)
    s = (r_grid - 2.0) / delta
    return ShortPulseData(
        r_grid=r_grid,
        phi_at_minus2=delta**2 * spline(s),
        dtphi_at_minus2=delta * np.asarray(seeds.phi1(s)),
        delta=delta,
        s_grid=s_fine,
        phi0_profile=phi0,
        dphi0_profile=dphi0,
        seeds=seeds,
        _phi0_spline=spline,
    )


def _second_null_sup(r, phi, dtphi, eos, a):
    """sup |(dt - dr)^2 phi| with dt^2 phi taken from the wave equation."""
    _, ddtphi, d2phi, _, _, dtt = _fields(r, np.stack((phi, dtphi)), a, eos)
    return float(np.max(np.abs(dtt - 2.0 * ddtphi + d2phi)))


def null_derivative_ratio(data: ShortPulseData, eos: EquationOfState = None,
                          a=0.0):
    """Measure the second incoming-null derivative of the built data.

    Returns {'sup_second_null': sup over the annulus of |(dt-dr)^2 phi|,
    'ratio': sup / delta}.  dt^2 phi is reconstructed from the radial wave
    equation, so the measurement needs an equation of state and damping
    coefficient (defaults: polytropic gamma=2, a=0).
    """
    if eos is None:
        eos = make_polytropic(2.0)
    r, phi, dtphi = data.r_grid, data.phi_at_minus2, data.dtphi_at_minus2
    sup = _second_null_sup(r, phi, dtphi, eos, a)
    coarse = _second_null_sup(r[::2], phi[::2], dtphi[::2], eos, a)
    fd_err = abs(sup - coarse) / 15.0 * 16.0   # Richardson estimate, 4th order
    if sup > 0.0 and fd_err > sup:
        raise GridTooCoarse(
            f"finite-difference error estimate {fd_err:.3g} exceeds "
            f"measured sup {sup:.3g}; refine r_grid_n")
    return {"sup_second_null": sup, "ratio": sup / data.delta}


def bump(s, lo=0.1, hi=0.9):
    """Smooth compactly supported bump on (lo, hi), zero elsewhere."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = (s > lo) & (s < hi)
    si = s[inside]
    out[inside] = np.exp(-1.0 / ((si - lo) * (hi - si)))
    return out


@cache
def _bump_slope_norm(lo=0.1, hi=0.9):
    s = np.linspace(lo, hi, 200_001)
    return float(np.max(d1(bump(s, lo, hi), s[1] - s[0])))


def bump_seeds(c, delta, phi2_amplitude=0.0):
    """Seed profiles with max_s phi1'(s) = c and optional phi2 forcing."""
    scale = c / _bump_slope_norm()

    def phi1(s):
        return scale * bump(s)

    def phi2(s):
        return phi2_amplitude * bump(s)

    return SeedProfiles(phi1=phi1, phi2=phi2, delta=delta)
