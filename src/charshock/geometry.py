"""Acoustical metric and null frames built from pointwise fluid state.

The metric in rectangular coordinates (t, x^1, x^2, x^3) is

    g_00 = -eta^2 + |v|^2,   g_0i = -v^i,   g_ij = delta_ij,

with inverse  g^00 = -1/eta^2,  g^0i = -v^i/eta^2,
g^ij = delta_ij - v^i v^j / eta^2.  The adapted frame consists of the
surface normal N = (1, v), the outward spatial direction T = kappa That
with kappa = mu / eta, the incoming null vector L = N - eta That, and the
outgoing null vector Lbar = kappa L / eta + 2 T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter

__all__ = [
    "FluidPointState",
    "FrameSet",
    "assemble_metric",
    "build_frames",
    "random_subsonic_states",
]

_MACH_MAX = 0.9  # random_subsonic_states keeps |v| below this fraction of eta


@dataclass(frozen=True)
class FluidPointState:
    v: np.ndarray                   # velocity 3-vector
    eta: float                      # sound speed > 0
    mu: float = 1.0                 # inverse foliation density >= 0
    that: np.ndarray = (1.0, 0.0, 0.0)  # unit spatial direction of T

    def __post_init__(self):
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        object.__setattr__(self, "that", np.asarray(self.that, dtype=float))


@dataclass(frozen=True)
class FrameSet:
    L: np.ndarray
    N: np.ndarray
    T: np.ndarray
    Lbar: np.ndarray
    kappa: float


def assemble_metric(state):
    """Return (g, g_inv) as 4x4 symmetric matrices.

    Accepts a FluidPointState or any object with .v and .eta; InvalidParameter
    unless eta > 0.
    """
    eta = float(state.eta)
    if eta <= 0.0:
        raise InvalidParameter(f"sound speed must be positive, got {eta}")
    v = np.asarray(state.v, dtype=float)
    g = np.eye(4)
    g[0, 0] = -eta**2 + v @ v
    g[0, 1:] = -v
    g[1:, 0] = -v
    g_inv = np.empty((4, 4))
    g_inv[0, 0] = -1.0
    g_inv[0, 1:] = -v
    g_inv[1:, 0] = -v
    g_inv[1:, 1:] = eta**2 * np.eye(3) - np.outer(v, v)
    g_inv /= eta**2
    return g, g_inv


def build_frames(state: FluidPointState) -> FrameSet:
    """Null/adapted frame from (v, eta, mu, That)."""
    v, eta, mu, that = state.v, state.eta, state.mu, state.that
    kappa = mu / eta
    N = np.concatenate(([1.0], v))
    T = np.concatenate(([0.0], kappa * that))
    L = np.concatenate(([1.0], v - eta * that))      # N - eta That
    Lbar = (kappa / eta) * L + 2.0 * T
    return FrameSet(L=L, N=N, T=T, Lbar=Lbar, kappa=kappa)


def random_subsonic_states(n, rng=None):
    """Sample admissible states with |v| < eta, for property tests."""
    rng = np.random.default_rng(rng)
    states = []
    for _ in range(n):
        eta = rng.uniform(0.2, 2.0)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        v = rng.uniform(0.0, _MACH_MAX * eta) * direction
        that = rng.normal(size=3)
        that /= np.linalg.norm(that)
        mu = rng.uniform(0.0, 1.5)
        states.append(FluidPointState(v=v, eta=eta, mu=mu, that=that))
    return states
