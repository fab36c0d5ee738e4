"""Short-pulse initial data on the annulus [2, 2+delta] at t = -2.

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

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np
from numpy.polynomial import legendre

from .errors import GridTooCoarse, InvalidParameter, check_size
from .eos import make_polytropic
from .radial import _fields, d1

__all__ = [
    "SeedProfiles",
    "ShortPulseData",
    "build_annulus_data",
    "null_derivative_ratio",
    "bump",
    "bump_seeds",
]

# 8-point Gauss-Legendre nodes/weights on [0, 1], used for per-cell quadrature.
_GL_X, _GL_W = legendre.leggauss(8)
_GL_X = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W

_SEED_CELLS = 8192   # cells of the seed-ODE grid on s in [0, 1]


@dataclass(frozen=True)
class SeedProfiles:
    phi1: Callable[[np.ndarray], np.ndarray]   # seed for dtphi
    phi2: Callable[[np.ndarray], np.ndarray]   # forcing seed
    delta: float                               # pulse amplitude in (0, 1)


def _cumulative_integral(f, s_grid):
    """Cumulative integral of f from s_grid[0], Gauss-Legendre per cell.

    Each cell's sum is taken along its own row, so its rounding does not
    depend on how many cells the grid holds (a mat-vec product's does).
    """
    ds = np.diff(s_grid)
    # quadrature nodes for every cell at once: shape (n_cells, 8)
    nodes = s_grid[:-1, None] + ds[:, None] * _GL_X[None, :]
    cell = ds * (np.asarray(f(nodes.ravel())).reshape(nodes.shape) * _GL_W).sum(axis=1)
    out = np.empty_like(s_grid)
    out[0] = 0.0
    np.cumsum(cell, out=out[1:])
    return out


def _seed_profile(seeds, s):
    """(phi0, dphi0) on the nodes s from 0; the quadrature runs cell by
    cell, so a node's values do not depend on the nodes after it."""
    int_phi1 = _cumulative_integral(seeds.phi1, s)
    int_phi2 = _cumulative_integral(seeds.phi2, s)
    int_sphi2 = _cumulative_integral(lambda x: x * np.asarray(seeds.phi2(x)), s)
    # int_0^s int_0^sigma phi2 = s*int_0^s phi2 - int_0^s sigma*phi2(sigma)
    phi0 = int_phi1 + seeds.delta * (s * int_phi2 - int_sphi2)
    dphi0 = np.asarray(seeds.phi1(s)) + seeds.delta * int_phi2
    return phi0, dphi0


def _hermite(s, s_grid, f, df):
    """Piecewise cubic Hermite interpolant of (f, df) on s_grid, at s."""
    k = np.clip(np.searchsorted(s_grid, s, side="right") - 1, 0, len(s_grid) - 2)
    h = s_grid[k + 1] - s_grid[k]
    t = (s - s_grid[k]) / h
    t2, t3 = t * t, t * t * t
    return ((2.0 * t3 - 3.0 * t2 + 1.0) * f[k] + (t3 - 2.0 * t2 + t) * h * df[k]
            + (3.0 * t2 - 2.0 * t3) * f[k + 1] + (t3 - t2) * h * df[k + 1])


@dataclass(frozen=True)
class ShortPulseData:
    """The annulus points r_grid, and phi0 with its exact slope on s_grid;
    phi_at is the cubic Hermite interpolant on (phi0_profile, dphi0_profile)."""

    r_grid: np.ndarray
    delta: float
    s_grid: np.ndarray
    phi0_profile: np.ndarray
    dphi0_profile: np.ndarray
    seeds: SeedProfiles

    def _s(self, r):
        return (np.asarray(r, dtype=float) - 2.0) / self.delta

    def phi_at(self, r):
        """phi(-2, r), extended by zero outside the annulus."""
        s = self._s(r)
        inside = (s > 0.0) & (s < self.s_grid[-1])
        out = np.zeros_like(s)
        out[inside] = self.delta**2 * _hermite(
            s[inside], self.s_grid, self.phi0_profile, self.dphi0_profile)
        # constant continuation past the outer edge of the support
        out[s >= self.s_grid[-1]] = self.delta**2 * self.phi0_profile[-1]
        return out

    def dtphi_at(self, r):
        """dtphi(-2, r), extended by zero outside the annulus r_grid[0] <= r <= r_grid[-1]."""
        r = np.asarray(r, dtype=float)
        inside = (r >= self.r_grid[0]) & (r <= self.r_grid[-1])
        out = np.zeros_like(r)
        out[inside] = self.delta * np.asarray(self.seeds.phi1(self._s(r[inside])))
        return out


def build_annulus_data(seeds: SeedProfiles, r_grid_n=512) -> ShortPulseData:
    """The short-pulse data on the annulus [2, 2+delta], the full support of
    the data, with r_grid_n + 1 points.

    InvalidParameter for r_grid_n outside [1, MAX_VALUES) and delta outside
    (0, 1).  The seed ODE is solved on the nodes of _SEED_CELLS cells of
    [0, 1], whatever r_grid_n.
    """
    if r_grid_n < 1:
        raise InvalidParameter(f"r_grid_n must be >= 1, got {r_grid_n}")
    check_size("the annulus grid", r_grid_n + 1)
    delta = seeds.delta
    if not 0.0 < delta < 1.0:
        raise InvalidParameter(f"pulse amplitude must lie in (0, 1), got {delta}")
    s_grid = np.linspace(0.0, 1.0, _SEED_CELLS + 1)
    phi0, dphi0 = _seed_profile(seeds, s_grid)
    return ShortPulseData(
        r_grid=2.0 + delta * np.linspace(0.0, 1.0, r_grid_n + 1),
        delta=delta,
        s_grid=s_grid,
        phi0_profile=phi0,
        dphi0_profile=dphi0,
        seeds=seeds,
    )


def _second_null_sup(r, phi, dtphi):
    """sup |(dt - dr)^2 phi| with dt^2 phi taken from the wave equation at
    gamma = 2, a = 0."""
    _, ddtphi, d2phi, _, _, dtt = _fields(r, np.stack((phi, dtphi)), 0.0, make_polytropic(2.0))
    return float(np.max(np.abs(dtt - 2.0 * ddtphi + d2phi)))


def null_derivative_ratio(data: ShortPulseData):
    """Measure the second incoming-null derivative of the built data.

    Returns {'sup_second_null': sup over the annulus of |(dt-dr)^2 phi|,
    'ratio': sup / delta}.  dt^2 phi is reconstructed from the radial wave
    equation of the polytropic gas gamma = 2 without damping (a = 0).
    GridTooCoarse where the Richardson check's half grid r[::2] holds fewer
    than the stencils' 8 points (r_grid_n below 14), and where the Richardson
    estimate of the stencil's error exceeds the sup.
    """
    r = data.r_grid
    if len(r[::2]) < 8:
        raise GridTooCoarse(f"r_grid_n = {len(r) - 1} leaves the Richardson check "
                            f"{len(r[::2])} points; the stencils need 8 (r_grid_n >= 14)")
    phi, dtphi = data.phi_at(r), data.dtphi_at(r)
    sup = _second_null_sup(r, phi, dtphi)
    coarse = _second_null_sup(r[::2], phi[::2], dtphi[::2])
    fd_err = abs(sup - coarse) / 15.0 * 16.0   # Richardson estimate, 4th order
    if sup > 0.0 and fd_err > sup:
        raise GridTooCoarse(
            f"finite-difference error estimate {fd_err:.3g} exceeds "
            f"measured sup {sup:.3g}; refine r_grid_n")
    return {"sup_second_null": sup, "ratio": sup / data.delta}


_BUMP_SUPPORT = (0.1, 0.9)


def bump(s):
    """Smooth bump supported on _BUMP_SUPPORT, zero elsewhere."""
    lo, hi = _BUMP_SUPPORT
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = (s > lo) & (s < hi)
    si = s[inside]
    out[inside] = np.exp(-1.0 / ((si - lo) * (hi - si)))
    return out


@cache
def _bump_slope_norm():
    s = np.linspace(*_BUMP_SUPPORT, 200_001)
    return float(np.max(d1(bump(s), s[1] - s[0])))


def bump_seeds(c, delta):
    """Seed profiles phi1 = c bump / max bump', whose max_s phi1'(s) is |c| (the
    bump is symmetric), and no phi2 forcing; c must be finite, and so must the
    bump's scale (|c| up to about 2.1e306), InvalidParameter otherwise."""
    scale = c / _bump_slope_norm()
    if not math.isfinite(scale):
        raise InvalidParameter(f"c must be finite and at most "
                               f"{_bump_slope_norm() * np.finfo(float).max:.3g} in size, got {c}")

    def phi1(s):
        return scale * bump(s)

    def phi2(s):
        return np.zeros_like(np.asarray(s, dtype=float))

    return SeedProfiles(phi1=phi1, phi2=phi2, delta=delta)
