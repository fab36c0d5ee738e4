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
these closed forms; its steps reuse buffers allocated once per solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParameter, NoBlowupTrend, check_size, check_steps

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

DOMAIN = (-1.0, 1.0)    # the interval every BurgersProblem lives on, with outflow edges
_DT_MAX = 0.05      # largest burgers_direct_solve step, whatever the CFL allows
_CFL = 0.5          # burgers_direct_solve's step is _CFL dx / max|phi|, at most _DT_MAX
_FIT_FLOOR = 0.3    # estimate_blowup_time fits only r <= (1 - this) * r(start)


@dataclass(frozen=True)
class ShockReport:
    classification: str                 # "Global" or "Shock"
    t_star: Optional[float] = None


@dataclass
class BurgersProblem:
    """Initial profile at t = -1 on DOMAIN, its slope, and the damping constant."""

    profile: Callable[[np.ndarray], np.ndarray]
    slope: Callable[[np.ndarray], np.ndarray]
    a: float = 0.0
    c: float = field(init=False)

    def __post_init__(self):
        x = np.linspace(*DOMAIN, 8193)
        self.c = float(-np.min(self.slope(x)))


def damping_kernel(t, a):
    """E(t) = integral_{-1}^{t} exp(-a (tau+1)) d tau = (1 - e^{-a(t+1)}) / a, and
    t + 1 where |a (t+1)| is below the smallest normal double (a = 0 too), where
    the quotient would lose its digits."""
    s = np.asarray(t, dtype=float) + 1.0
    if a == 0.0:
        return s
    return np.where(np.abs(a * s) < np.finfo(float).tiny, s, -np.expm1(-a * s) / a)


def burgers_shock_time(a: float, c: float) -> ShockReport:
    """Shock/global dichotomy in terms of the damping a and max compression c; a
    root beyond the float range (a near 0, c below about 5.6e-309) reads Global."""
    if not (np.isfinite(a) and np.isfinite(c)):
        raise InvalidParameter("a and c must be finite")
    if c <= 0.0:
        # no compression anywhere: global with infinite horizon
        return ShockReport(classification="Global")
    if a >= c and a > 0.0:
        return ShockReport(classification="Global")
    if abs(a) <= 1e-8 * c:      # -log1p(-x)/x = 1 + x/2 to 3e-17, where x = a/c may be subnormal
        t_star = (1.0 + 0.5 * (a / c)) / c - 1.0
    elif -a / c == math.inf:    # log1p(x) = log(x) to 1e-308 relative beyond the float range
        t_star = (math.log(c) - math.log(-a)) / a - 1.0
    else:
        t_star = -math.log1p(-a / c) / a - 1.0
    if t_star == math.inf:
        return ShockReport(classification="Global")
    return ShockReport(classification="Shock", t_star=t_star)


def burgers_mu(x, t, problem: BurgersProblem):
    """Inverse foliation density along the characteristic labelled by x."""
    return 1.0 + problem.slope(x) * damping_kernel(t, problem.a)


def burgers_characteristic_solve(x0, t, problem: BurgersProblem):
    """Exact solution record along the characteristic from (x0, -1);
    InvalidParameter for a t past the first crossing (mu <= 0)."""
    x0 = np.asarray(x0, dtype=float)
    f0, E = problem.profile(x0), damping_kernel(t, problem.a)
    mu = burgers_mu(x0, t, problem)
    if np.any(mu <= 0.0):
        raise InvalidParameter(f"characteristics crossed before t = {t}")
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
    status: str = "Completed"           # 'Completed' | 'NonFinite', as a RunHistory's

    @property
    def last_good_time(self):
        """The last time stored, times[-1]; a non-finite step is not stored."""
        return float(self.times[-1])


def _muscl_rhs(ue, dx, work, out):
    """Second-order MUSCL divergence of the Burgers flux with outflow edges,
    written into out and returned.  ue holds out's n cells between two ghost
    cells a side, which this fills; work is (4, n + 3): three scratch rows and
    a row of zeros, a faster operand than the scalar 0.  A cell's slope is
    minmod, the median of its two one-sided differences and 0.  The Godunov
    flux of f(u) = u^2/2 at a face with states (ul, ur), max(f(max(ul, 0)),
    f(min(ur, 0))), exact in every shock and rarefaction case, is taken as
    max(ul, -ur, 0)^2 / 2 with the halving in the face difference's divisor
    -2 dx; both rewrites are exact (README, numerical notes)."""
    ue[0] = ue[1] = ue[2]
    ue[-1] = ue[-2] = ue[-3]
    d, (lo, g, zero) = work[0], work[1:, :-1]
    np.subtract(ue[1:], ue[:-1], out=d)
    np.minimum(d[:-1], d[1:], out=lo)
    np.minimum(np.maximum(d[:-1], d[1:], out=g), zero, out=g)
    half = np.multiply(np.maximum(lo, g, out=lo), 0.5, out=lo)
    ul = np.add(ue[1:-2], half[:-1], out=g[:-1])            # left state at face i+1/2
    nr = np.subtract(half[1:], ue[2:-1], out=d[:-2])        # minus the right state there
    g = np.square(np.maximum(np.maximum(ul, nr, out=ul), zero[:-1], out=ul), out=ul)
    return np.divide(np.subtract(g[1:], g[:-1], out=out), -2.0 * dx, out=out)


def burgers_direct_solve(
    problem: BurgersProblem,
    grid_n: int = 2048,
    t_end: float = 2.0,
) -> BurgersHistory:
    """Conservative MUSCL/SSP-RK2 solve with Strang-split damping source from
    t = -1 to t_end, or to the last step before a non-finite field (status
    "NonFinite"; numpy's overflow warnings on the way are silenced).  The
    defaults are the sweep's and the CLI's.  Each an InvalidParameter:
    grid_n outside [64, MAX_VALUES], a t_end that is not finite or not
    above -1, and a step too small to reach t_end in errors.MAX_VALUES
    steps, once it is taken and has left a finite field
    (errors.check_steps); where a < 0 shrinks the steps, before the first
    one too.  A step allocates nothing: the field and its two stages swap
    between three ghosted rows, and the returned phi is a copy of the last
    finite field."""
    if grid_n < 64:
        raise InvalidParameter("grid_n must be >= 64")
    check_size("the Burgers grid", grid_n)
    if not (math.isfinite(t_end) and t_end > -1.0):
        raise InvalidParameter(f"t_end must be finite and above -1, got {t_end}")
    a = problem.a
    x_lo, x_hi = DOMAIN
    dx = (x_hi - x_lo) / grid_n
    x = x_lo + dx * (np.arange(grid_n) + 0.5)
    rows = np.empty((3, grid_n + 4))             # phi, phi0, phi1, two ghost cells a side
    (u, u0, u1), (phi, phi0, phi1) = rows, rows[:, 2:-2]
    work, rhs = np.zeros((4, grid_n + 3)), np.empty(grid_n)
    phi[:], scratch = problem.profile(x), work[0, :grid_n]

    t = -1.0
    np.subtract(phi[:-1], phi[1:], out=scratch[1:])
    times, slopes = [t], [max(0.0, float(scratch[1:].max()) / dx)]
    speed = float(np.abs(phi, out=scratch).max())
    status = "Completed"
    with np.errstate(over="ignore", invalid="ignore"):     # the finiteness check names it
        if a < 0.0 and speed > 0.0 and math.isfinite(speed * np.exp(-a * (t_end + 1.0))):
            # phi = f(x0) e^{-a(t+1)}: about speed E(t_end) / (_CFL dx) steps reach t_end
            check_steps(t, _CFL * dx * (t_end - t) / (speed * damping_kernel(t_end, a)), t_end)
        while t < t_end - 1e-14:
            step = min(_CFL * dx / max(speed, 1e-12), _DT_MAX)
            dt = min(step, t_end - t)
            try:
                decay = math.exp(-a * dt / 2.0)
            except OverflowError:             # growth beyond the float range in one step
                status = "NonFinite"
                break

            np.multiply(phi, decay, out=phi0)
            np.add(phi0, np.multiply(_muscl_rhs(u0, dx, work, rhs), dt, out=rhs), out=phi1)
            np.multiply(_muscl_rhs(u1, dx, work, rhs), dt, out=rhs)
            np.add(np.add(phi0, phi1, out=phi1), rhs, out=phi1)
            np.multiply(phi1, 0.5 * decay, out=phi1)     # 0.5 (phi0 + phi1 + dt rhs) decay

            speed = float(np.abs(phi1, out=scratch).max())  # next CFL speed; NaN/inf propagate
            if not math.isfinite(speed):
                status = "NonFinite"          # phi stays at last_good_time
                break
            check_steps(t, step, t_end)       # after the finiteness check, which a NaN step fails
            (u, phi), (u1, phi1) = (u1, phi1), (u, phi)
            t += dt
            times.append(t)
            np.subtract(phi[:-1], phi[1:], out=scratch[1:])
            slopes.append(max(0.0, float(scratch[1:].max()) / dx))

    return BurgersHistory(
        times=np.asarray(times),
        max_neg_slope=np.asarray(slopes),
        x=x,
        phi=phi.copy(),
        status=status,
    )


@dataclass(frozen=True)
class BlowupEstimate:
    t_star_estimate: float
    confidence_window: tuple[float, float]


@np.errstate(divide="ignore", over="ignore")    # inf r or a fit without a root: NoBlowupTrend
def estimate_blowup_time(times, slopes, a: float) -> BlowupEstimate:
    """Extrapolate the max-negative-slope series to its blow-up time.

    Along the steepest characteristic the slope is c e^{-a(t+1)} / mu(t), so
    e^{-a(t+1)} / slope is proportional to mu = 1 - c E(t), E = damping_kernel.
    A fit of alpha + beta E gives the compression c = -beta / alpha, and the
    blow-up time is burgers_shock_time(a, c)'s t*.  The initial transient and
    the post-shock samples, those after the least e^{-a(t+1)} / slope, are
    excluded.  NoBlowupTrend where the fit has no root: c is not finite, or
    burgers_shock_time reads Global, as for an increasing fit; a half-window
    refit without one is left out of the confidence window.
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

    # Fit the asymptotic regime only: drop the samples after the least r,
    # which come after the shock, then the initial transient (large r) and
    # the saturated samples before the shock (r near the grid floor).
    r = np.exp(-a * (times + 1.0)) / slopes
    if not np.isfinite(r).all():
        raise NoBlowupTrend("e^{-a(t+1)} / slope overflows a double")
    last = int(np.argmin(r)) + 1
    times, r = times[:last], r[:last]
    r0, r_min = r[0], r[-1]
    sel = (r <= (1.0 - _FIT_FLOOR) * r0) & (r >= max(4.0 * r_min, 1e-3 * r0))
    if np.count_nonzero(sel) < 10:
        sel = np.argsort(r)[:10]
    tt, rr = times[sel], r[sel]

    A = np.column_stack([np.ones_like(tt), damping_kernel(tt, a)])

    def _root(alpha, beta):     # the fit's t*, None where it has none
        c = float(-beta / alpha)
        return burgers_shock_time(a, c).t_star if math.isfinite(c) else None

    (alpha, beta), *_ = np.linalg.lstsq(A, rr, rcond=None)
    t_star = _root(alpha, beta)
    if t_star is None:
        raise NoBlowupTrend("the fitted e^{-a(t+1)} / slope has no root")
    # spread between half-window refits as a crude confidence band; a refit
    # without a root is left out
    half = len(tt) // 2
    windows = [t_star]
    for sl in (slice(None, half), slice(half, None)):
        if np.count_nonzero(sel) >= 6 and len(tt[sl]) >= 3:
            coef, *_ = np.linalg.lstsq(A[sl], rr[sl], rcond=None)
            windows.append(_root(*coef))
    windows = [t for t in windows if t is not None]
    lo, hi = min(windows), max(windows)
    return BlowupEstimate(t_star_estimate=float(t_star), confidence_window=(float(lo), float(hi)))


def sine_profile(c: float = 1.0):
    """f(x) = -(c / k) sin(k x) with k = pi, one period across DOMAIN:
    f(0) = 0, min slope -c at x = 0."""
    k = math.pi
    f = lambda x: -(c / k) * np.sin(k * np.asarray(x, dtype=float))
    df = lambda x: -c * np.cos(k * np.asarray(x, dtype=float))
    return f, df
