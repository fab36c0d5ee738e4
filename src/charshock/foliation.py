"""Geometric shock diagnostics over radial solver histories.

Incoming null rays satisfy dr/dt = -(eta + dphi/dr).  The inverse
foliation density mu is computed two independent ways:

  * spacing: mu = eta * (dr/du) across the ray bundle, where u labels rays
    by their initial radius r(-2) = 2 + u;
  * transport: d(mu)/dt = m + mu * e along each ray, with

        m = (mu/eta) * (1/2 dH/dh * dh/dr + a * dphi/dr)
        e = (d eta^2/dh)/(2 eta^2) * Lh + (1/eta) * L(dphi/dr)

    and Lf = df/dt + (dr/dt) df/dr the derivative along the ray.

The fields come from the stored snapshots alone, through _FieldSampler:
one four-row block (eta, dr/dt, m_factor, e) per snapshot, derived once on
its stored window and interpolated by a cubic in r.  trace_rays steps the
rays once per snapshot interval by the trapezoidal rule, so it samples the
fields only at stored times and never interpolates them in t.  _mu_rate is
the one transport law, for trace_rays and lmu_initial alike.  trace_rays
returns the rows up to the last time at which the whole bundle was traced;
why it stopped there is not recorded.

The semi-analytic predictor is mu_hat(t) = 1 + 2 A1(t) Lmu(-2, u) with
A1(t) = int_{-2}^t d tau / (e^{a(tau+2)} (-tau)) = e^{-2a} (Ei(2a) - Ei(-a t))
in closed form through the exponential integral Ei; mu_hat = 0 gives the
predicted shock time, and the largeness threshold a* classifies seeds into
shock-forming and global-to-sigma branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eos import EquationOfState, eos_from_config
from .errors import (
    InterpolationOutOfRange,
    InvalidParameter,
    NoRootBeforeSigma,
    ShockDetected,
    SingularEndpoint,
)
from .radial import RunHistory, _fields

__all__ = [
    "RayBundle",
    "ShockPrediction",
    "trace_rays",
    "mu_from_spacing",
    "spacing_weights",
    "a1_integral",
    "predict_mu",
    "shock_time_3d",
    "classify_largeness",
    "shock_region_monitor",
    "lmu_initial",
]

_MU_STOP = 0.02             # trace_rays declares a shock once mu reaches this
_SHOCK_REGION_MU = 0.1      # shock_region_monitor watches {mu <= this}


# ---------------------------------------------------------------------------
# closed-form predictor
# ---------------------------------------------------------------------------

_SHOCK_COEFFICIENT = 4.0        # -2 Lmu(-2) / c, the coefficient of c A1 in the predictor
_EI_A_MAX = 354.0               # beyond this |a|, e^{-2a} or Ei(2a) overflow
_TINY = np.finfo(float).tiny    # smallest normal double


def a1_integral(t, a):
    """A1(t) = int_{-2}^t d tau / (e^{a(tau+2)} (-tau)) = e^{-2a} (Ei(2a) - Ei(-a t)).

    The closed form (s = -tau) holds to round-off, log(2/-t) at a = 0.  Where
    -a t is subnormal, Ei(-a t) = gamma + ln|a| + ln(-t) to round-off (and
    log 2 - log(-t) at a = 0, where 2/-t would overflow).  Where e^{-2a} or
    Ei(2a) overflows, quadrature answers: above a = 354 in s = a (tau + 2),
    as int_0^{a(t+2)} e^{-s} / (2a - s) ds (relative tol 1e-12), so that the
    1/a-wide spike at tau = -2 is not missed; below a = -354 in tau (absolute
    tol 1e-12), with InvalidParameter where the integrand overflows a double.
    InvalidParameter for a non-finite t or a.
    """
    if not (math.isfinite(t) and math.isfinite(a)):
        raise InvalidParameter(f"t and a must be finite, got t={t}, a={a}")
    if t >= 0.0:
        raise SingularEndpoint(f"integrand singular at tau=0; got t={t}")
    if t < -2.0:
        raise SingularEndpoint(f"lower limit is -2; got t={t}")
    if a == 0.0:
        return float(np.log(2.0 / -t)) if -t >= _TINY else math.log(2.0) - math.log(-t)
    from scipy.integrate import quad    # loaded here so a = 0 runs never load scipy
    from scipy.special import expi
    if a > _EI_A_MAX:
        # e^{-s} is below round-off past s = 700, and 700 < 2a keeps 2 - s/a > 0
        val, _ = quad(lambda s: math.exp(-s) / (2.0 - s / a), 0.0, min(a * (t + 2.0), 700.0),
                      epsabs=0.0, epsrel=1e-12, limit=200)
        return val / a
    if a < -_EI_A_MAX:
        try:
            with np.errstate(over="raise"):
                val, _ = quad(lambda tau: np.exp(-a * (tau + 2.0)) / (-tau), -2.0, t,
                              epsabs=1e-12, epsrel=1e-12, limit=200)
        except FloatingPointError:
            raise InvalidParameter(f"A1 overflows a double at t={t}, a={a}") from None
        return float(val)
    ei_at = expi(-a * t) if abs(a * t) >= _TINY else (
        np.euler_gamma + math.log(abs(a)) + math.log(-t))
    return math.exp(-2.0 * a) * float(expi(2.0 * a) - ei_at)


def predict_mu(t, lmu_init, a):
    """Semi-analytic mu predictor: mu_hat = 1 + 2 A1(t) Lmu(-2)."""
    return 1.0 + 2.0 * a1_integral(t, a) * lmu_init


def shock_time_3d(c, a, sigma=-0.1):
    """Root t* of 4 c A1(t*) = 1 in [-2, sigma].

    The coefficient 4 (_SHOCK_COEFFICIENT) comes from integrating the mu
    transport equation with mu(-2) = 1 and Lmu(-2) = -2c.  The bracket starts
    at -2, where A1 = 0 for every a, and c (4 A1) cannot overflow, so every
    finite c > 0 has its root; above c of about 2e15 it rounds to -2.
    InvalidParameter for a non-finite c.
    """
    if not math.isfinite(c):
        raise InvalidParameter(f"c must be finite, got {c}")
    if c <= 0.0:
        raise NoRootBeforeSigma(f"no shock for non-positive slope c={c}")

    def f(t):
        return c * (_SHOCK_COEFFICIENT * a1_integral(t, a)) - 1.0

    if f(sigma) < 0.0:
        raise NoRootBeforeSigma(
            f"4 c A1(sigma) = {c * (_SHOCK_COEFFICIENT * a1_integral(sigma, a)):.6f} < 1")
    from scipy.optimize import brentq
    t_star = brentq(f, -2.0, sigma, xtol=1e-13, rtol=8.9e-16)
    assert abs(f(t_star)) <= 1e-10 * max(1.0, _SHOCK_COEFFICIENT * c)
    return float(t_star)


@dataclass(frozen=True)
class ShockPrediction:
    classification: str        # 'ShockBefore' | 'GlobalToSigma' | 'Indeterminate'
    t_star: float              # predicted shock time (nan unless ShockBefore)
    a_star: float
    c_shock: float
    c_global: float
    sigma: float
    c: float
    a: float


def classify_largeness(c, a, sigma=-0.1):
    """Shock/global dichotomy from the largeness threshold a*.

    a* = -4 A1(sigma) < 0.  The seed slope c = max phi1' is compared with
    c_shock = -2/a* (shock forms before sigma) and c_global = -1/a* (the
    solution persists to sigma); the gap in between is Indeterminate.
    InvalidParameter for a non-finite c.
    """
    if not math.isfinite(c):
        raise InvalidParameter(f"c must be finite, got {c}")
    a_star = -_SHOCK_COEFFICIENT * a1_integral(sigma, a)
    c_shock = -2.0 / a_star
    c_global = -1.0 / a_star
    if c >= c_shock:
        cls, t_star = "ShockBefore", shock_time_3d(c, a, sigma)
    elif c <= c_global:
        cls, t_star = "GlobalToSigma", float("nan")
    else:
        cls, t_star = "Indeterminate", float("nan")
    return ShockPrediction(classification=cls, t_star=t_star, a_star=a_star,
                           c_shock=c_shock, c_global=c_global, sigma=sigma,
                           c=c, a=a)


# ---------------------------------------------------------------------------
# field sampling along rays
# ---------------------------------------------------------------------------

# rows of a sampled block; the cubic stencil's taps as offsets from the cell, tap
# j's weight at x being v[a] * v[b] * v[c] / d_j, v = x - _TAPS, in this order
_ETA, _RDOT, _M_FACTOR, _E = range(4)
_TAPS = np.arange(-1, 3)[:, None]
_TAP_FACTORS = np.array([[1, 0, 0, 0], [2, 2, 1, 1], [3, 3, 3, 2]])    # (a, b, c) of each j
_TAP_DENOMS = np.array([-6.0, 2.0, -2.0, 6.0])[:, None]


class _FieldSampler:
    """Derived-field samples along the ray bundle at the stored snapshot times.

    Snapshot k's block (eta, dr/dt, m_factor, e) is derived once, on its
    whole stored window and with the grid's dr; at(k, r_pos) interpolates it
    by a 4-point cubic in r.  The last block derived is kept, so that the
    samples of one snapshot share it.  eos=None reads the equation of state
    from the history's eos_meta.
    """

    def __init__(self, history: RunHistory, eos: EquationOfState = None):
        self.hist = history
        self.eos = eos if eos is not None else eos_from_config(history.eos_meta)
        self.r = history.r_grid
        self.dr = self.r[1] - self.r[0]
        self._last = None, None     # (k, block) of the last snapshot derived

    def _block(self, k):
        """Snapshot k's block on its stored window r_grid[start[k]:start[k] + W]."""
        if self._last[0] != k:
            s, a = int(self.hist.start[k]), self.hist.a
            y = np.array((self.hist.phi[k], self.hist.dtphi[k]))
            dphi, ddtphi, d2phi, h, eta_sq, dtt = _fields(self.r[s:s + y.shape[1]], y, a,
                                                          self.eos, self.dr)
            eta, deta_sq = np.sqrt(eta_sq), self.eos.deta_sq_dh(h)
            dh = ddtphi - dphi * d2phi + a * dphi          # dh/dr
            dth = dtt - dphi * ddtphi + a * y[1]           # dh/dt
            rdot = -(eta + dphi)
            self._last = k, np.array((
                eta, rdot,
                # m = (mu/eta) * m_factor, dH/dh = -2 - d eta^2/dh
                0.5 * (-2.0 - deta_sq) * dh + a * dphi,
                (deta_sq / (2.0 * eta_sq) * (dth + rdot * dh)
                 + (ddtphi + rdot * d2phi) / eta),
            ))
        return self._last[1]

    def at(self, k, r_pos):
        """The block (eta, rdot = dr/dt, m_factor, e) of snapshot k at positions r_pos.

        InterpolationOutOfRange when a position lies outside the grid or a
        cubic tap outside the snapshot's stored window.
        """
        r, dr, t = self.r, self.dr, float(self.hist.times[k])
        r_pos = np.asarray(r_pos, dtype=float)
        if r_pos.min() < r[0] or r_pos.max() > r[-1]:
            raise InterpolationOutOfRange(f"ray position outside stored grid at t={t:.6f}")
        i = np.minimum(np.maximum(((r_pos - r[0]) / dr).astype(int), 1), len(r) - 3)
        cell = i - int(self.hist.start[k])     # i's index in the stored window
        if cell.min() < 1 or cell.max() + 3 > self.hist.phi.shape[1]:
            raise InterpolationOutOfRange(f"ray band outside the window stored at t={t:.6f}")
        f = ((r_pos - r[i]) / dr - _TAPS).take(_TAP_FACTORS, axis=0)
        w = f[0] * f[1] * f[2] / _TAP_DENOMS
        g = self._block(k)[:, cell + _TAPS]     # g[row, tap, ray]
        return np.add.reduce(np.multiply(w, g, out=g), axis=1)


def _mu_rate(blk, mu):
    """d(mu)/dt = m + mu * e with m = (mu/eta) * m_factor, from a sampled block."""
    return mu / blk[_ETA] * blk[_M_FACTOR] + mu * blk[_E]


def spacing_weights(u):
    """np.gradient's coefficients for d/du on labels u: the (a, b, c) of its
    non-uniform interior rows (None for exactly even labels, where numpy
    takes its uniform branch), then the spacings at both ends."""
    du = np.diff(u)
    if np.all(du == du[0]):
        return None, None, None, du[0], du[0]
    d1, d2 = du[:-1], du[1:]
    return -d2 / (d1 * (d1 + d2)), (d2 - d1) / (d1 * d2), d1 / (d2 * (d1 + d2)), du[0], du[-1]


def mu_from_spacing(eta, r_pos, weights):
    """mu = eta * dr/du, weights = spacing_weights(u): np.gradient(r_pos, u) bit for bit."""
    a, b, c, du_0, du_n = weights
    dr_du = np.empty_like(r_pos)
    if a is None:
        dr_du[1:-1] = (r_pos[2:] - r_pos[:-2]) / (2.0 * du_0)
    else:
        dr_du[1:-1] = a * r_pos[:-2] + b * r_pos[1:-1] + c * r_pos[2:]
    dr_du[0] = (r_pos[1] - r_pos[0]) / du_0
    dr_du[-1] = (r_pos[-1] - r_pos[-2]) / du_n
    if np.any(dr_du <= 0.0):
        raise ShockDetected("ray crossing detected: dr/du <= 0")
    return eta * dr_du


def lmu_initial(history: RunHistory, u, eos: EquationOfState = None):
    """Lmu(-2, u) from the initial data (mu = eta on the first slice)."""
    r_pos = 2.0 + np.asarray(u, dtype=float)
    blk = _FieldSampler(history, eos).at(0, r_pos)
    return _mu_rate(blk, blk[_ETA])


# ---------------------------------------------------------------------------
# ray bundle
# ---------------------------------------------------------------------------

@dataclass
class RayBundle:
    """The traced bundle: one row per stored time, from the first one up to
    the last at which every ray was traced."""

    u: np.ndarray                  # ray labels, initial r - 2
    times: np.ndarray              # the leading history times
    r: np.ndarray                  # (n_t, n_rays) positions
    mu_spacing: np.ndarray         # (n_t, n_rays)
    mu_transport: np.ndarray       # (n_t, n_rays)


def trace_rays(history: RunHistory, ray_count=65, eos: EquationOfState = None):
    """Integrate the incoming null rays and both mu discretizations.

    Rays are seeded at equally spaced u in [0, w] at the first stored time
    (w = annulus width = delta).  The stacked state y = (r, mu) takes one
    trapezoidal predictor-corrector (Heun) step per stored snapshot
    interval [t_i, t_i+1], y* = y + dt k(t_i, y) and
    y' = y + dt/2 (k(t_i, y) + k(t_i+1, y*)), so every sample falls at a
    stored time and no field is interpolated in t; eos=None reads the
    history's eos_meta.  The block sampled at y' gives both the spacing mu
    at t_i+1 and the next step's k(t_i+1, y'), so a step takes two samples.
    The whole bundle stops at the first row in which any ray reaches
    mu <= _MU_STOP (that row is kept), or at the first step in which rays
    cross or a ray leaves the grid or the stored window (that step's row is
    dropped).  ray_count must be at least 33 (InvalidParameter otherwise).
    """
    if ray_count < 33:
        raise InvalidParameter(f"ray_count must be >= 33, got {ray_count}")
    sampler = _FieldSampler(history, eos)
    times = history.times
    u = np.linspace(0.0, history.delta, ray_count)
    weights = spacing_weights(u)
    r_pos = 2.0 + u
    blk = sampler.at(0, r_pos)
    mu_tr = blk[_ETA]                            # mu = eta initially
    y = np.stack((r_pos, mu_tr))

    rows = np.empty((3, len(times), ray_count))     # r, mu_spacing, mu_transport
    rows[:, 0] = r_pos, mu_from_spacing(mu_tr, r_pos, weights), mu_tr
    n = 1                                           # rows traced
    r_lo = history.r_grid[0] + 2.0 * (history.r_grid[1] - history.r_grid[0])

    def rate(blk, y):
        return np.array((blk[_RDOT], _mu_rate(blk, y[1])))

    for k in range(1, len(times)):
        dt = float(times[k]) - float(times[k - 1])
        rate_a = rate(blk, y)
        y_pred = y + dt * rate_a                 # y*
        try:
            y = y + 0.5 * dt * (rate_a + rate(sampler.at(k, y_pred[0]), y_pred))
            blk = sampler.at(k, y[0])
        except InterpolationOutOfRange:
            break
        r_pos, mu_tr = y
        if np.min(r_pos) < r_lo:
            break
        try:
            mu_sp = mu_from_spacing(blk[_ETA], r_pos, weights)
        except ShockDetected:
            break
        rows[:, n] = r_pos, mu_sp, mu_tr
        n += 1
        if np.min(mu_sp) <= _MU_STOP or np.min(mu_tr) <= _MU_STOP:
            break

    return RayBundle(u=u, times=times[:n], r=rows[0, :n], mu_spacing=rows[1, :n],
                     mu_transport=rows[2, :n])


def shock_region_monitor(bundle: RayBundle):
    """Check that mu keeps decreasing once a ray is inside {mu <= 1/10}.

    Returns a list of per-(time, ray) records for rays in the shock
    region, each with the sign of d(mu)/dt and a violation flag.
    """
    mu = bundle.mu_spacing
    dmu_dt = np.gradient(mu, bundle.times, axis=0) if len(bundle.times) > 1 else np.zeros_like(mu)
    its, js = np.nonzero(mu <= _SHOCK_REGION_MU)        # row-major: by time, then ray
    return [{"t": float(bundle.times[it]), "u": float(bundle.u[j]),
             "mu": float(mu[it, j]), "dmu_dt": float(dmu_dt[it, j]),
             "violation": bool(dmu_dt[it, j] >= 0.0)} for it, j in zip(its, js)]
