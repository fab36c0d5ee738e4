"""Characteristic analysis of the damped Burgers equation.

The Cauchy problem

    d(phi)/dt + phi d(phi)/dx = -a phi,    phi(x, -1) = f(x),

is solved exactly along characteristics: phi stays equal to
f(x0) * exp(-a (t+1)) on the curve emanating from x0, and the inverse
foliation density

    mu(x0, t) = 1 + f'(x0) * E(t),   E(t) = (1 - exp(-a (t+1))) / a,

measures the spacing of characteristics; mu -> 0 is the shock.  With
c = -min f' > 0 the first crossing happens at

    t* = -(1/a) * ln(1 - a/c) - 1      (a != 0, a < c)
    t* = -1 + 1/c                      (a = 0),

and no crossing ever happens when a >= c > 0.  A conservative
finite-volume solver of the flux form d(phi)/dt + d(phi^2/2)/dx = -a phi
(minmod MUSCL, the Godunov flux max(f(max(ul, 0)), f(min(ur, 0))) of the
convex f = phi^2/2, SSP-RK2) provides an independent numerical oracle for
these closed forms.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    CflViolation,
    InvalidParameter,
    NoBlowupTrend,
    PastShock,
)

__all__ = [
    "BurgersProblem",
    "ShockReport",
    "BurgersHistory",
    "BlowupEstimate",
    "damping_kernel",
    "burgers_shock_time",
    "burgers_mu",
    "burgers_characteristic_solve",
    "burgers_direct_solve",
    "estimate_blowup_time",
    "sine_profile",
]

_DT_MAX = 0.05      # largest burgers_direct_solve step, whatever the CFL allows
_FIT_FLOOR = 0.3    # estimate_blowup_time fits only r <= (1 - this) * r(start)


@dataclass(frozen=True)
class ShockReport:
    classification: str                 # "Global" or "Shock"
    t_star: Optional[float] = None
    x_star: Optional[float] = None
    method: str = "ClosedForm"
    tolerance: float = 0.0

    def to_dict(self):
        return asdict(self)


@dataclass
class BurgersProblem:
    """Initial profile at t = -1 plus damping constant."""

    profile: Callable[[np.ndarray], np.ndarray]
    a: float = 0.0
    domain: tuple[float, float] = (-1.0, 1.0)
    slope: Optional[Callable[[np.ndarray], np.ndarray]] = None
    c: float = field(init=False)

    def __post_init__(self):
        x = np.linspace(self.domain[0], self.domain[1], 8193)
        if self.slope is not None:
            s = self.slope(x)
        else:
            s = np.gradient(self.profile(x), x)
        self.c = float(-np.min(s))

    def slope_at(self, x):
        if self.slope is not None:
            return self.slope(x)
        xx = np.asarray(x, dtype=float)
        h = 1e-6 * max(1.0, self.domain[1] - self.domain[0])
        return (self.profile(xx + h) - self.profile(xx - h)) / (2.0 * h)


def damping_kernel(t, a):
    """E(t) = integral_{-1}^{t} exp(-a (tau+1)) d tau = (1 - e^{-a(t+1)}) / a."""
    t = np.asarray(t, dtype=float)
    s = t + 1.0
    if a == 0.0:
        return s
    return -np.expm1(-a * s) / a


def burgers_shock_time(a: float, c: float) -> ShockReport:
    """Shock/global dichotomy in terms of the damping a and max compression c."""
    if not (np.isfinite(a) and np.isfinite(c)):
        raise InvalidParameter("a and c must be finite")
    if c <= 0.0:
        # no compression anywhere: global with infinite horizon
        return ShockReport(classification="Global", method="ClosedForm")
    if a >= c and a > 0.0:
        return ShockReport(classification="Global", method="ClosedForm")
    t_star = -1.0 + 1.0 / c if a == 0.0 else -math.log1p(-a / c) / a - 1.0
    return ShockReport(
        classification="Shock",
        t_star=t_star,
        x_star=0.0,
        method="ClosedForm",
        tolerance=4.0 * np.finfo(float).eps * max(1.0, abs(t_star)),
    )


def burgers_mu(x, t, problem: BurgersProblem):
    """Inverse foliation density along the characteristic labelled by x."""
    return 1.0 + problem.slope_at(x) * damping_kernel(t, problem.a)


def burgers_characteristic_solve(x0, t, problem: BurgersProblem):
    """Exact solution record along the characteristic from (x0, -1)."""
    x0 = np.asarray(x0, dtype=float)
    f0 = problem.profile(x0)
    E = damping_kernel(t, problem.a)
    mu = 1.0 + problem.slope_at(x0) * E
    if np.any(mu <= 0.0):
        raise PastShock(f"characteristics crossed before t = {t}")
    decay = np.exp(-problem.a * (np.asarray(t, dtype=float) + 1.0))
    return {
        "x": x0 + f0 * E,
        "phi": f0 * decay,
        "mu": mu,
    }


# ---------------------------------------------------------------------------
# direct finite-volume oracle


@dataclass
class BurgersHistory:
    times: np.ndarray
    max_neg_slope: np.ndarray
    x: np.ndarray
    phi: np.ndarray                     # field at last_good_time (the last finite one)
    u_label: Optional[np.ndarray] = None  # advected eikonal label, if tracked
    status: str = "ok"
    last_good_time: float = -1.0


def _limited_slope(ue):
    """Minmod slope of each interior cell of the padded row ue: the median of
    its left difference, its right difference and 0."""
    d = ue[1:] - ue[:-1]                 # np.diff without its call overhead
    a, b = d[:-1], d[1:]
    return np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), 0.0))


def _muscl_rhs(u, dx):
    """Second-order MUSCL divergence of the Burgers flux with outflow edges.

    The Godunov flux of the convex f(u) = u^2/2 at a face with states
    (ul, ur) is max(f(max(ul, 0)), f(min(ur, 0))), the exact Riemann flux
    of every shock and rarefaction case.
    """
    ue = np.concatenate(([u[0], u[0]], u, [u[-1], u[-1]]))
    half = 0.5 * _limited_slope(ue)
    ul = np.maximum(ue[1:-2] + half[:-1], 0.0)   # left state at face i+1/2, clipped at 0
    ur = np.minimum(ue[2:-1] - half[1:], 0.0)    # right state at face i+1/2, clipped at 0
    flux = np.maximum(0.5 * ul * ul, 0.5 * ur * ur)
    return -(flux[1:] - flux[:-1]) / dx


def _label_rhs(u_lab, phi, dx):
    """Limited-upwind advection of the passive eikonal label: u_t + phi u_x = 0."""
    ue = np.concatenate(([2.0 * u_lab[0] - u_lab[1]] * 2, u_lab,
                         [2.0 * u_lab[-1] - u_lab[-2]] * 2))
    slope = _limited_slope(ue)           # per extended cell
    uL = ue[1:-1] + 0.5 * slope          # reconstructed value at right face
    dif_up = (uL[1:-1] - uL[:-2]) / dx   # upwind for phi > 0
    uR = ue[1:-1] - 0.5 * slope          # reconstructed value at left face
    dif_dn = (uR[2:] - uR[1:-1]) / dx    # upwind for phi < 0
    return -phi * np.where(phi > 0.0, dif_up, dif_dn)


def burgers_direct_solve(
    problem: BurgersProblem,
    grid_n: int = 1024,
    t_end: float = 0.0,
    cfl: float = 0.5,
    track_eikonal: bool = False,
) -> BurgersHistory:
    """Conservative MUSCL/SSP-RK2 solve with Strang-split damping source."""
    if grid_n < 64:
        raise InvalidParameter("grid_n must be >= 64")
    if not (0.0 < cfl <= 0.9):
        raise CflViolation(f"cfl must lie in (0, 0.9], got {cfl}")
    a = problem.a
    x_lo, x_hi = problem.domain
    dx = (x_hi - x_lo) / grid_n
    x = x_lo + dx * (np.arange(grid_n) + 0.5)
    phi = problem.profile(x).astype(float)
    u_lab = x.copy() if track_eikonal else None

    t = -1.0
    times, slopes = [t], [max(0.0, float(np.max(phi[:-1] - phi[1:])) / dx)]
    speed = float(np.max(np.abs(phi)))
    status = "ok"
    while t < t_end - 1e-14:
        dt = min(cfl * dx / max(speed, 1e-12), _DT_MAX, t_end - t)
        decay = math.exp(-a * dt / 2.0)

        phi0 = phi * decay
        phi1 = phi0 + dt * _muscl_rhs(phi0, dx)
        phi_new = 0.5 * (phi0 + phi1 + dt * _muscl_rhs(phi1, dx))
        phi_next = phi_new * decay

        speed = float(np.max(np.abs(phi_next)))  # the next CFL speed; NaN/inf propagate
        if not math.isfinite(speed):
            status = "NonFiniteField"     # phi and u_lab stay at last_good_time
            break
        if u_lab is not None:
            mid = 0.5 * (phi_next + phi_new)  # phi during the advective stage
            k1 = _label_rhs(u_lab, mid, dx)
            k2 = _label_rhs(u_lab + dt * k1, mid, dx)
            u_lab = u_lab + 0.5 * dt * (k1 + k2)
        phi = phi_next
        t += dt
        times.append(t)
        slopes.append(max(0.0, float(np.max(phi[:-1] - phi[1:])) / dx))

    return BurgersHistory(
        times=np.asarray(times),
        max_neg_slope=np.asarray(slopes),
        x=x,
        phi=phi,
        u_label=u_lab,
        status=status,
        last_good_time=t,
    )


@dataclass(frozen=True)
class BlowupEstimate:
    t_star_estimate: float
    confidence_window: tuple[float, float]


def estimate_blowup_time(times, slopes, a: float) -> BlowupEstimate:
    """Extrapolate the max-negative-slope series to its blow-up time.

    Along the steepest characteristic the slope is c e^{-a(t+1)} / mu(t), so
    e^{-a(t+1)} / slope is proportional to mu and follows the exact shape
    alpha + beta * (exp(-a (t+1)) - 1); the fit finds its root.  The initial
    transient and the saturated post-shock samples are excluded.
    """
    times = np.asarray(times, dtype=float)
    slopes = np.asarray(slopes, dtype=float)
    pos = slopes > 0
    times, slopes = times[pos], slopes[pos]
    increasing = np.diff(slopes) > 0
    if slopes.size < 10 or not np.any(increasing):
        raise NoBlowupTrend("slope series is too short or non-increasing")
    if slopes.max() <= 1.5 * slopes[0]:
        raise NoBlowupTrend("slope series shows no blow-up trend")

    # Fit the asymptotic regime only: drop the initial transient (large r)
    # and the saturated post-shock samples (r pinned near the grid floor).
    r = np.exp(-a * (times + 1.0)) / slopes
    r0, r_min = r[0], r.min()
    sel = (r <= (1.0 - _FIT_FLOOR) * r0) & (r >= max(4.0 * r_min, 1e-3 * r0))
    if np.count_nonzero(sel) < 10:
        sel = np.argsort(r)[:10]
    tt, rr = times[sel], r[sel]

    basis = tt + 1.0 if a == 0.0 else np.expm1(-a * (tt + 1.0))
    A = np.column_stack([np.ones_like(tt), basis])
    (alpha, beta), *_ = np.linalg.lstsq(A, rr, rcond=None)

    def _root(al, be):
        if a == 0.0:
            return -1.0 - al / be
        arg = 1.0 - al / be
        if arg <= 0.0:
            return math.inf
        return -1.0 - math.log(arg) / a

    t_star = _root(alpha, beta)
    # spread between half-window refits as a crude confidence band
    half = len(tt) // 2
    windows = []
    for sl in (slice(None, half), slice(half, None)):
        if np.count_nonzero(sel) >= 6 and len(tt[sl]) >= 3:
            coef, *_ = np.linalg.lstsq(A[sl], rr[sl], rcond=None)
            windows.append(_root(*coef))
    lo, hi = min(windows + [t_star]), max(windows + [t_star])
    return BlowupEstimate(t_star_estimate=float(t_star), confidence_window=(float(lo), float(hi)))


def sine_profile(c: float = 1.0, wavelength: float = 2.0):
    """f(x) = -(c / k) sin(k x): f(0) = 0, min slope -c at x = 0."""
    k = 2.0 * math.pi / wavelength
    f = lambda x: -(c / k) * np.sin(k * np.asarray(x, dtype=float))
    df = lambda x: -c * np.cos(k * np.asarray(x, dtype=float))
    return f, df
