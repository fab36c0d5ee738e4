"""Geometric shock diagnostics over radial solver histories.

Incoming null rays satisfy dr/dt = -(eta + dphi/dr).  The inverse
foliation density mu is computed two independent ways:

  * spacing: mu = eta * (dr/du) across the ray bundle, where u labels rays
    by their initial radius r(-2) = 2 + u;
  * transport: d(mu)/dt = m + mu * e along each ray, with

        m = (mu/eta) * (1/2 dH/dh * dh/dr + a * dphi/dr)
        e = (d eta^2/dh)/(2 eta^2) * Lh + (1/eta) * L(dphi/dr)

    and Lf = df/dt + (dr/dt) df/dr the derivative along the ray.

The semi-analytic predictor is mu_hat(t) = 1 + 2 A1(t) Lmu(-2, u) with
A1(t) = int_{-2}^t d tau / (e^{a(tau+2)} (-tau)) = e^{-2a} (Ei(2a) - Ei(-a t))
in closed form through the exponential integral Ei; mu_hat = 0 gives the
predicted shock time, and the largeness threshold a* classifies seeds into
shock-forming and global-to-sigma branches.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import expi

from .eos import EquationOfState, eos_from_config
from .errors import (
    InterpolationOutOfRange,
    NonPositiveMu,
    NoRootBeforeSigma,
    ShockDetected,
    SingularEndpoint,
)
from .radial import RunHistory, _fields, _rk4, _time_stencil

__all__ = [
    "RayBundle",
    "ShockPrediction",
    "trace_rays",
    "mu_from_spacing",
    "mu_transport_step",
    "a1_integral",
    "predict_mu",
    "shock_time_3d",
    "classify_largeness",
    "shock_region_monitor",
    "lmu_initial",
]

ALIVE = "Alive"
SHOCK = "ShockDetected"
LEFT = "LeftDomain"
_MU_STOP = 0.02             # trace_rays declares a shock once mu reaches this
_SHOCK_REGION_MU = 0.1      # shock_region_monitor watches {mu <= this}


# ---------------------------------------------------------------------------
# closed-form predictor
# ---------------------------------------------------------------------------

_EI_A_MAX = 354.0               # beyond this |a|, e^{-2a} or Ei(2a) overflow
_TINY = np.finfo(float).tiny    # smallest normal double


def a1_integral(t, a):
    """A1(t) = int_{-2}^t d tau / (e^{a(tau+2)} (-tau)) = e^{-2a} (Ei(2a) - Ei(-a t)).

    The closed form (s = -tau) holds to round-off, log(2/-t) at a = 0.  Where
    -a t is subnormal, Ei(-a t) = gamma + ln|a| + ln(-t) to round-off (and
    log 2 - log(-t) at a = 0, where 2/-t would overflow); where e^{-2a} or
    Ei(2a) overflows, quadrature answers (absolute tol 1e-12).
    """
    if t >= 0.0:
        raise SingularEndpoint(f"integrand singular at tau=0; got t={t}")
    if t < -2.0:
        raise SingularEndpoint(f"lower limit is -2; got t={t}")
    if a == 0.0:
        return float(np.log(2.0 / -t)) if -t >= _TINY else math.log(2.0) - math.log(-t)
    if abs(a) > _EI_A_MAX:
        val, _ = quad(lambda tau: np.exp(-a * (tau + 2.0)) / (-tau), -2.0, t,
                      epsabs=1e-12, epsrel=1e-12, limit=200)
        return float(val)
    ei_at = expi(-a * t) if abs(a * t) >= _TINY else (
        np.euler_gamma + math.log(abs(a)) + math.log(-t))
    return math.exp(-2.0 * a) * float(expi(2.0 * a) - ei_at)


def predict_mu(t, lmu_init, a):
    """Semi-analytic mu predictor: mu_hat = 1 + 2 A1(t) Lmu(-2)."""
    return 1.0 + 2.0 * a1_integral(t, a) * lmu_init


def shock_time_3d(c, a, sigma=-0.1, coefficient=4.0):
    """Root t* of coefficient * c * A1(t*) = 1 in (-2, sigma].

    The default coefficient 4 comes from integrating the mu transport
    equation with mu(-2) = 1 and Lmu(-2) = -2c; coefficient=1 gives the
    alternative single-c normalization for comparison.
    """
    if c <= 0.0:
        raise NoRootBeforeSigma(f"no shock for non-positive slope c={c}")

    def f(t):
        return coefficient * c * a1_integral(t, a) - 1.0

    t_lo = -2.0 + 1e-13
    if f(sigma) < 0.0:
        raise NoRootBeforeSigma(
            f"coefficient*c*A1(sigma) = {coefficient * c * a1_integral(sigma, a):.6f} < 1")
    t_star = brentq(f, t_lo, sigma, xtol=1e-13, rtol=8.9e-16)
    assert abs(f(t_star)) <= 1e-10 * max(1.0, coefficient * c)
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
    delta_band: float = 0.0

    def to_dict(self):
        return asdict(self)


def classify_largeness(c, a, sigma=-0.1, delta=0.0):
    """Shock/global dichotomy from the largeness threshold a*.

    a* = -4 A1(sigma) < 0.  The seed slope c = max phi1' is compared with
    c_shock = -2/a* (shock forms before sigma) and c_global = -1/a* (the
    solution persists to sigma); the gap in between is Indeterminate.
    """
    a1_sigma = a1_integral(sigma, a)
    a_star = -4.0 * a1_sigma
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
                           c=c, a=a, delta_band=delta)


# ---------------------------------------------------------------------------
# field sampling along rays
# ---------------------------------------------------------------------------

# rows of a derived-field snapshot, and the cubic stencil's offsets from its cell
_KEYS = ("eta", "dphi", "rdot", "m_factor", "e")
_CUBIC_OFFSETS = np.arange(-1, 3)


class _FieldSampler:
    """Derived-field samples at arbitrary (t, r) along the ray bundle.

    Interpolation between stored snapshots is done along the incoming
    characteristic: the value at (t, r) combines the snapshots at shifted
    positions r + (t - t_k), where the pulse profile varies slowly.
    Interpolating at fixed r instead would smooth the pulse by a relative
    (omega*dt)^2..4 with omega ~ 1/(mu*delta), an error that neither
    shrinks with delta nor with the grid and that grows as the rays
    compress.  Spatial interpolation is 4-point cubic on the solver grid.
    eos=None reads the equation of state from the history's eos_meta.
    """

    def __init__(self, history: RunHistory, eos: EquationOfState = None):
        self.hist = history
        self.eos = eos if eos is not None else eos_from_config(history.eos_meta)
        self.r = history.r_grid
        self.dr = self.r[1] - self.r[0]
        self.a = history.a
        self._snap_cache = {}

    def _snap_arrays(self, k):
        """Derived fields on the grid at stored snapshot index k, stacked in _KEYS order."""
        if k in self._snap_cache:
            return self._snap_cache[k]
        a = self.a
        y = np.stack((self.hist.phi[k], self.hist.dtphi[k]))
        dphi, ddtphi, d2phi, h, eta_sq, dtt = _fields(self.r, y, a, self.eos)
        st = self.eos.eval(h)
        eta = st.eta
        dh = ddtphi - dphi * d2phi + a * dphi          # dh/dr
        dth = dtt - dphi * ddtphi + a * y[1]           # dh/dt
        rdot = -(eta + dphi)
        out = np.stack((
            eta, dphi, rdot,
            # m = (mu/eta) * m_factor
            0.5 * st.dH_dh * dh + a * dphi,
            (st.deta_sq_dh / (2.0 * eta_sq) * (dth + rdot * dh)
             + (ddtphi + rdot * d2phi) / eta),
        ))
        if len(self._snap_cache) > 8:
            self._snap_cache.pop(next(iter(self._snap_cache)))
        self._snap_cache[k] = out
        return out

    def _cubic(self, arr, rows, r_pos):
        """4-point cubic interpolation of rows of a stacked grid array at positions r_pos."""
        r, dr = self.r, self.dr
        i = np.clip(((r_pos - r[0]) / dr).astype(int), 1, len(r) - 3)
        x = (r_pos - r[i]) / dr                # in [0, 1] inside the cell
        w0 = -x * (x - 1.0) * (x - 2.0) / 6.0
        w1 = (x + 1.0) * (x - 1.0) * (x - 2.0) / 2.0
        w2 = -(x + 1.0) * x * (x - 2.0) / 2.0
        w3 = (x + 1.0) * x * (x - 1.0) / 6.0
        g = arr[rows[:, None, None], i + _CUBIC_OFFSETS[:, None]]   # (key, point, ray)
        return w0 * g[:, 0] + w1 * g[:, 1] + w2 * g[:, 2] + w3 * g[:, 3]

    def at(self, t, r_pos, keys):
        r = self.r
        r_pos = np.asarray(r_pos, dtype=float)
        if np.min(r_pos) < r[0] or np.max(r_pos) > r[-1]:
            raise InterpolationOutOfRange(
                f"ray position outside stored grid at t={t:.6f}")
        times = self.hist.times
        snaps, weights = _time_stencil(times, t)
        rows = np.array([_KEYS.index(k) for k in keys])
        out = 0.0
        for sk, w in zip(snaps, weights):
            # incoming characteristic shift at unit speed, clamped to grid
            shifted = np.clip(r_pos + (t - times[sk]), r[0], r[-1])
            out = out + w * self._cubic(self._snap_arrays(sk), rows, shifted)
        return dict(zip(keys, out))


# sampled fields that d(mu)/dt needs
_MU_KEYS = ("eta", "m_factor", "e")


def _mu_rate(vals, mu):
    """d(mu)/dt = m + mu * e with m = (mu/eta) * m_factor, from sampled fields."""
    return mu / vals["eta"] * vals["m_factor"] + mu * vals["e"]


def mu_transport_step(sampler: _FieldSampler, t, r_pos, mu):
    """d(mu)/dt = m + mu * e along the rays."""
    if np.any(mu <= 0.0):
        raise NonPositiveMu(f"mu must stay positive, min={np.min(mu)}")
    return _mu_rate(sampler.at(t, r_pos, _MU_KEYS), mu)


def mu_from_spacing(eta, r_pos, u):
    """mu = eta * dr/du across the bundle, central differences in u."""
    dr_du = np.gradient(r_pos, u)
    if np.any(dr_du <= 0.0):
        raise ShockDetected("ray crossing detected: dr/du <= 0")
    return eta * dr_du


def lmu_initial(history: RunHistory, u, eos: EquationOfState = None):
    """Lmu(-2, u) from the initial data (mu = eta on the first slice)."""
    r_pos = 2.0 + np.asarray(u, dtype=float)
    vals = _FieldSampler(history, eos).at(float(history.times[0]), r_pos, _MU_KEYS)
    return _mu_rate(vals, vals["eta"])


# ---------------------------------------------------------------------------
# ray bundle
# ---------------------------------------------------------------------------

@dataclass
class RayBundle:
    u: np.ndarray                  # ray labels, initial r - 2
    times: np.ndarray              # sample times (subset of history times)
    r: np.ndarray                  # (n_t, n_rays) positions
    mu_spacing: np.ndarray         # (n_t, n_rays)
    mu_transport: np.ndarray       # (n_t, n_rays)
    status: np.ndarray             # final per-ray status strings
    last_alive_index: int          # last time index with the full bundle alive
    history: RunHistory = field(repr=False, default=None)

    def min_mu(self, t_index):
        return float(np.min(self.mu_spacing[t_index]))


def trace_rays(history: RunHistory, ray_count=65, eos: EquationOfState = None):
    """Integrate the incoming null rays and both mu discretizations.

    Rays are seeded at equally spaced u in [0, w] at the first stored time
    (w = annulus width = delta).  Integration is RK4 (radial._rk4) on the
    stacked state (r, mu) through time-interpolated fields, sampled at every
    stored snapshot; eos=None reads the history's eos_meta.  The whole
    bundle stops once any ray reaches mu <= _MU_STOP (shock declared), a
    ray crossing occurs, or a ray leaves the stored grid.
    """
    if ray_count < 33:
        raise ValueError(f"ray_count must be >= 33, got {ray_count}")
    sampler = _FieldSampler(history, eos)
    times = history.times
    u = np.linspace(0.0, history.delta, ray_count)
    r_pos = 2.0 + u
    mu_tr = sampler.at(float(times[0]), r_pos, ("eta",))["eta"]   # mu = eta initially
    y = np.stack((r_pos, mu_tr))

    rows_r, rows_sp, rows_tr = [r_pos], [mu_from_spacing(mu_tr, r_pos, u)], [mu_tr]
    status = np.full(ray_count, ALIVE, dtype=object)
    last_alive = 0
    r_lo = history.r_grid[0] + 2.0 * (history.r_grid[1] - history.r_grid[0])

    def rhs(t, y):
        vals = sampler.at(t, y[0], ("rdot",) + _MU_KEYS)
        return np.stack((vals["rdot"], _mu_rate(vals, y[1])))

    for i in range(len(times) - 1):
        t, t_b = float(times[i]), float(times[i + 1])
        try:
            y = _rk4(rhs, t, y, t_b - t, rhs(t, y))
        except InterpolationOutOfRange:
            status[:] = LEFT
            break
        r_pos, mu_tr = y
        if np.min(r_pos) < r_lo:
            status[:] = LEFT
            break
        eta = sampler.at(t_b, r_pos, ("eta",))["eta"]
        try:
            mu_sp = mu_from_spacing(eta, r_pos, u)
        except ShockDetected:
            status[np.argmin(np.gradient(r_pos, u))] = SHOCK
            break
        rows_r.append(r_pos)
        rows_sp.append(mu_sp)
        rows_tr.append(mu_tr)
        last_alive = len(rows_r) - 1
        if np.min(mu_sp) <= _MU_STOP or np.min(mu_tr) <= _MU_STOP:
            status[np.argmin(mu_sp)] = SHOCK
            break

    n = len(rows_r)
    return RayBundle(u=u, times=times[:n], r=np.asarray(rows_r),
                     mu_spacing=np.asarray(rows_sp),
                     mu_transport=np.asarray(rows_tr), status=status,
                     last_alive_index=last_alive, history=history)


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
