"""Geometric shock diagnostics over radial solver histories.

Incoming null rays satisfy dr/dt = -(eta + dphi/dr).  The inverse
foliation density mu is computed two independent ways:

  * spacing: mu = eta * (dr/du) across the ray bundle, where u labels rays
    by their initial radius r(-2) = 2 + u, evenly: d/du is a uniform difference;
  * transport: d(mu)/dt = m + mu * e along each ray, with

        m = (mu/eta) * (1/2 dH/dh * dh/dr + a * dphi/dr)
        e = (d eta^2/dh)/(2 eta^2) * Lh + (1/eta) * L(dphi/dr)

    and Lf = df/dt + (dr/dt) df/dr the derivative along the ray.  Both
    terms are proportional to mu, so d(mu)/dt = mu * growth with
    growth = (1/2 dH/dh * dh/dr + a * dphi/dr)/eta + e.

The fields come from the stored snapshots alone: _block derives snapshot k's
rows (eta, dr/dt, growth) once on its stored window, and _sample interpolates
them at the ray positions by a cubic in r.  trace_rays steps the rays once
per snapshot interval by the trapezoidal rule, so it never interpolates in
t; lmu_initial is eta * growth on block 0.  trace_rays keeps the rows up to
the last time at which the whole bundle was traced, by plain checks (a None
sample or spacing, mu at _MU_STOP); which rule stopped it is not recorded.

The semi-analytic predictor is mu_hat(t) = 1 + 2 A1(t) Lmu(-2, u) with
A1(t) = int_{-2}^t d tau / (e^{a(tau+2)} (-tau)) = e^{-2a} (Ei(2a) - Ei(-a t))
in closed form through the exponential integral Ei; mu_hat = 0 gives the
predicted shock time, and the largeness threshold a* classifies seeds into
shock-forming and global-to-sigma branches.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .eos import EquationOfState
from .errors import InvalidParameter, NoRootBeforeSigma, check_size
from .radial import RunHistory, _fields

__all__ = [
    "RayBundle",
    "ShockPrediction",
    "trace_rays",
    "mu_from_spacing",
    "a1_integral",
    "predict_mu",
    "shock_time_3d",
    "classify_largeness",
    "lmu_initial",
]

_MU_STOP = 0.02             # trace_rays declares a shock once mu reaches this


# ---------------------------------------------------------------------------
# closed-form predictor
# ---------------------------------------------------------------------------

_SHOCK_COEFFICIENT = 4.0        # -2 Lmu(-2) / c, the coefficient of c A1 in the predictor
_EI_A_MAX = 354.0               # beyond this |a|, e^{-2a} or Ei(2a) overflow
_TINY = np.finfo(float).tiny    # smallest normal double
_EI_NEAR = 1e-3                 # below this t + 2, Ei(2a) - Ei(-a t) cancels to > 1e-12 of A1
_EIN_COEFFS = tuple(1.0 / (k * math.factorial(k)) for k in range(18, 0, -1))  # Horner's order
_GAUSS_NODES = 20               # Gauss-Legendre nodes per panel of _laplace
_LAPLACE_CUT = 50.0             # _laplace stops at lam u = 50, where e^{-lam u} < 2e-22


def _ei(x):
    """The exponential integral Ei(x) for real x != 0, to a few ulp of
    max(|Ei(x)|, 1) for 0 < x <= 1 and of |Ei(x)| elsewhere.

    |x| <= 1: gamma + ln|x| + Ein(x), Ein(x) = sum_k x^k/(k k!) by Horner's
    rule in degree 18 (the first term left out is below 1e-17).  x < -1:
    -E1(-x), E1(y) = e^{-y}/(y + 1 - 1/(y + 3 - 4/(y + 5 - ...))) evaluated
    from a tail of 20 + 80/y terms.  1 < x <= 40: the same series as for
    |x| <= 1, summed until a term falls below 1e-17 of the sum.  x > 40: the
    asymptotic series e^x/x sum_k k!/x^k, cut at its smallest term or below
    1e-17 of the sum.
    """
    if -1.0 <= x <= 1.0:
        ein = 0.0
        for coeff in _EIN_COEFFS:
            ein = ein * x + coeff
        return np.euler_gamma + math.log(abs(x)) + ein * x
    if x < -1.0:
        y, tail = -x, 0.0
        for k in range(20 + int(80.0 / y), 0, -1):
            tail = k * k / (y + 2 * k + 1 - tail)
        return -math.exp(-y) / (y + 1.0 - tail)
    k = 1
    if x <= 40.0:
        term = total = x
        while term > 1e-17 * total:
            k += 1
            term *= x * (k - 1) / (k * k)
            total += term
        return np.euler_gamma + math.log(x) + total
    term = total = 1.0
    while term > 1e-17 * total and k < x:
        term *= k / x
        total += term
        k += 1
    return math.exp(x) / x * total


def _laplace(lam, p, q, length):
    """int_0^length e^{-lam u} / (p + q u) du, for p + q u > 0 on [0, length]
    and either lam > 0 or |lam| length <= 1.

    The mass sits at u = 0, so the panels double in width away from it:
    [0, w], [w, 2w], [2w, 4w], ... with w = min(1/lam, p/|q|), up to length or
    to lam u = _LAPLACE_CUT, whichever comes first (w = length where lam
    length <= 1); each panel takes a _GAUSS_NODES-point Gauss-Legendre rule,
    and math.fsum sums the products.
    """
    end = length if lam * length <= _LAPLACE_CUT else _LAPLACE_CUT / lam
    width = min(p / abs(q), end if lam * end <= 1.0 else 1.0 / lam)
    edges = np.minimum(end, width * 2.0 ** np.arange(math.ceil(math.log2(end / width)) + 1))
    edges[-1] = end                 # should log2 round down
    lo = np.concatenate(([0.0], edges[:-1]))[:, None]
    span = edges[:, None] - lo
    nodes, weights = _gauss_legendre()
    u = lo + span * nodes
    return math.fsum((span * weights * np.exp(-lam * u) / (p + q * u)).ravel())


@functools.cache        # one rule; numpy.polynomial loads on first use only
def _gauss_legendre():
    """Nodes and weights of the _GAUSS_NODES-point Gauss-Legendre rule on [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(_GAUSS_NODES)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def a1_integral(t, a):
    """A1(t) = int_{-2}^t d tau / (e^{a(tau+2)} (-tau)) = e^{-2a} (Ei(2a) - Ei(-a t)).

    The closed form (s = -tau) holds to round-off, log(2/-t) at a = 0, with
    Ei from _ei.  Where -a t is subnormal, Ei(-a t) = gamma + ln|a| + ln(-t)
    to round-off (and log 2 - log(-t) at a = 0, where 2/-t would overflow).
    A1(-2) = 0.  Elsewhere the integral is int_0^L e^{-lam u}/(p + q u) du
    after a change of variable, and _laplace's Gauss-Legendre panels answer:
      * a > 354, where e^{-2a} or Ei(2a) overflows: s = a (tau + 2) gives
        (1/a) int_0^{a(t+2)} e^{-s}/(2 - s/a) ds, whose panels resolve the
        1/a-wide spike of the integrand at tau = -2;
      * a < -354: v = t - tau gives e^{-a(t+2)} int_0^{t+2} e^{a v}/(-t + v) dv,
        the mass sitting at tau = t; InvalidParameter where the integrand's
        largest value e^{-a(t+2)}/(-t) overflows a double;
      * within 1e-3 of -2, where the two Ei values (or 2/-t at a = 0) would
        lose about 1e-15/(t + 2) of A1: s = tau + 2 gives
        int_0^{t+2} e^{-a s}/(2 - s) ds.
    InvalidParameter for a non-finite t or a, and for t outside [-2, 0), where
    the integrand is singular at tau = 0 or the lower limit -2 is passed.
    """
    if not (math.isfinite(t) and math.isfinite(a)):
        raise InvalidParameter(f"t and a must be finite, got t={t}, a={a}")
    if t >= 0.0:
        raise InvalidParameter(f"integrand singular at tau=0; got t={t}")
    if t < -2.0:
        raise InvalidParameter(f"lower limit is -2; got t={t}")
    if t == -2.0:
        return 0.0
    if a == 0.0 and t + 2.0 >= _EI_NEAR:
        return float(np.log(2.0 / -t)) if -t >= _TINY else math.log(2.0) - math.log(-t)
    if a > _EI_A_MAX:
        return _laplace(1.0, 2.0, -1.0 / a, a * (t + 2.0)) / a
    if a < -_EI_A_MAX:
        try:
            scale = math.exp(-a * (t + 2.0))
        except OverflowError:
            scale = math.inf
        if scale / -t == math.inf:
            raise InvalidParameter(f"A1 overflows a double at t={t}, a={a}")
        return scale * _laplace(-a, -t, 1.0, t + 2.0)
    if t + 2.0 < _EI_NEAR:
        return _laplace(a, 2.0, -1.0, t + 2.0)
    ei_at = _ei(-a * t) if abs(a * t) >= _TINY else (
        np.euler_gamma + math.log(abs(a)) + math.log(-t))
    return math.exp(-2.0 * a) * (_ei(2.0 * a) - ei_at)


def predict_mu(t, lmu_init, a):
    """Semi-analytic mu predictor: mu_hat = 1 + 2 A1(t) Lmu(-2)."""
    return 1.0 + 2.0 * a1_integral(t, a) * lmu_init


def _brentq(f, xa, xb, fa, fb, xtol, rtol):
    """A root of f in [xa, xb], where f(xa) = fa and f(xb) = fb differ in sign:
    Brent's method (Brent 1973, ch. 4) step for step as scipy.optimize.brentq
    takes it, so that the same f, bracket and tolerances give the same bits,
    but with f's values at the ends passed in rather than evaluated."""
    xpre, xcur, fpre, fcur = xa, xb, fa, fb
    xblk = fblk = spre = scur = 0.0
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    for _ in range(100):            # scipy's default maxiter
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                   # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError("Brent's method took more than 100 steps")


def shock_time_3d(c, a, sigma=-0.1):
    """Root t* of 4 c A1(t*) = 1 in [-2, sigma], by _brentq (xtol 1e-13,
    rtol 8.9e-16).

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
    return _shock_time(c, a, sigma, a1_integral(sigma, a))


def _shock_time(c, a, sigma, a1_sigma):
    """shock_time_3d for a finite c > 0, given a1_sigma = A1(sigma)."""
    if (f_sigma := c * (_SHOCK_COEFFICIENT * a1_sigma) - 1.0) < 0.0:
        raise NoRootBeforeSigma(f"4 c A1(sigma) = {f_sigma + 1.0:.6f} < 1")
    # f(-2) = c * 0 - 1 exactly
    return _brentq(lambda t: c * (_SHOCK_COEFFICIENT * a1_integral(t, a)) - 1.0,
                   -2.0, sigma, -1.0, f_sigma, xtol=1e-13, rtol=8.9e-16)


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
    InvalidParameter for a non-finite c, a sigma outside (-2, 0), and an a
    so close to the largest double that c_shock overflows.
    """
    if not math.isfinite(c):
        raise InvalidParameter(f"c must be finite, got {c}")
    if not -2.0 < sigma < 0.0:
        raise InvalidParameter(f"sigma must lie in (-2, 0), got {sigma}")
    a1_sigma = a1_integral(sigma, a)
    a_star = -_SHOCK_COEFFICIENT * a1_sigma
    c_shock = -2.0 / a_star
    c_global = -1.0 / a_star
    if c_shock == math.inf:
        raise InvalidParameter(f"c_shock = -2/a* overflows a double at a={a}")
    if c >= c_shock:
        cls, t_star = "ShockBefore", _shock_time(c, a, sigma, a1_sigma)
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

# rows of a block; the cubic stencil's taps as offsets from the cell, tap j's
# weight at x being v[a] * v[b] * v[c] / d_j, v = x - _TAPS, in this order
_ETA, _RDOT, _GROWTH = range(3)
_TAPS = np.arange(-1, 3)[:, None]
_TAP_FACTORS = np.array([[1, 0, 0, 0], [2, 2, 1, 1], [3, 3, 3, 2]])    # (a, b, c) of each j
_TAP_DENOMS = np.array([-6.0, 2.0, -2.0, 6.0])[:, None]


def _block(history: RunHistory, k, eos: EquationOfState):
    """Snapshot k's block (eta, dr/dt, growth) on its stored window
    r_grid[start[k]:start[k] + W], derived with the grid's dr."""
    r, s, a = history.r_grid, int(history.start[k]), history.a
    y = np.array((history.phi[k], history.dtphi[k]))
    dphi, ddtphi, d2phi, h, eta_sq, dtt = _fields(r[s:s + y.shape[1]], y, a, eos, r[1] - r[0])
    eta, deta_sq = np.sqrt(eta_sq), eos.deta_sq_dh(h)
    dh = ddtphi - dphi * d2phi + a * dphi          # dh/dr
    dth = dtt - dphi * ddtphi + a * y[1]           # dh/dt
    rdot = -(eta + dphi)
    m_factor = 0.5 * (-2.0 - deta_sq) * dh + a * dphi      # dH/dh = -2 - d eta^2/dh
    e = deta_sq / (2.0 * eta_sq) * (dth + rdot * dh) + (ddtphi + rdot * d2phi) / eta
    return np.array((eta, rdot, m_factor / eta + e))


def _sample(history: RunHistory, k, blk, r_pos):
    """Snapshot k's block blk at positions r_pos, by a 4-point cubic in r;
    None when a position is NaN or lies outside the grid, or a cubic tap
    outside the snapshot's stored window."""
    r = history.r_grid
    dr = r[1] - r[0]
    r_pos = np.asarray(r_pos, dtype=float)
    if not r[0] <= r_pos.min() <= r_pos.max() <= r[-1]:     # False for a NaN
        return None
    i = np.minimum(np.maximum(((r_pos - r[0]) / dr).astype(int), 1), len(r) - 3)
    cell = i - int(history.start[k])     # i's index in the stored window
    if cell.min() < 1 or cell.max() + 3 > blk.shape[1]:
        return None
    f = ((r_pos - r[i]) / dr - _TAPS).take(_TAP_FACTORS, axis=0)
    w = f[0] * f[1] * f[2] / _TAP_DENOMS
    g = blk[:, cell + _TAPS]     # g[row, tap, ray]
    return np.add.reduce(np.multiply(w, g, out=g), axis=1)


def mu_from_spacing(eta, r_pos, du):
    """mu = eta * dr/du on labels du apart, dr/du being np.gradient(r_pos, du)
    bit for bit; None where rays have crossed (dr/du <= 0)."""
    dr_du = np.empty_like(r_pos)
    dr_du[1:-1] = (r_pos[2:] - r_pos[:-2]) / (2.0 * du)
    dr_du[0], dr_du[-1] = (r_pos[1] - r_pos[0]) / du, (r_pos[-1] - r_pos[-2]) / du
    if np.any(dr_du <= 0.0):
        return None
    return eta * dr_du


@np.errstate(over="ignore", invalid="ignore")    # as trace_rays, which derives the same block
def lmu_initial(history: RunHistory, u, eos: EquationOfState = None):
    """Lmu(-2, u) = eta * growth on the first slice, where mu = eta; eos=None
    takes the history's own EOS.  InvalidParameter for a label u whose ray
    2 + u is not finite or has a cubic tap off the first snapshot's window."""
    eta, _, growth = _first_sample(history, 2.0 + np.asarray(u, dtype=float), eos)
    return eta * growth


def _first_sample(history: RunHistory, r_pos, eos):
    """_sample on the first snapshot; InvalidParameter where it gives None."""
    eos = eos if eos is not None else history.eos
    if (smp := _sample(history, 0, _block(history, 0, eos), r_pos)) is None:
        raise InvalidParameter("a ray 2 + u is NaN or lies off the grid or the first stored window")
    return smp


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


@np.errstate(over="ignore", invalid="ignore")    # the EOS and the stop rules name a breakdown
def trace_rays(history: RunHistory, ray_count=65, eos: EquationOfState = None):
    """Integrate the incoming null rays and both mu discretizations.

    Rays are seeded at equally spaced u in [0, w] at the first stored time
    (w = annulus width = delta), du = w/(ray_count - 1) apart.  The stacked
    state y = (r, mu) takes one trapezoidal predictor-corrector (Heun) step
    per stored snapshot interval [t_i, t_i+1], y* = y + dt k(t_i, y) and
    y' = y + dt/2 (k(t_i, y) + k(t_i+1, y*)), with k = (dr/dt, mu * growth),
    so every sample falls at a stored time and no field is interpolated in t;
    eos=None takes the history's own EOS.  Each step derives the block of
    t_i+1 once and samples it twice, at y* and at y'; the sample at y' gives
    both the spacing mu at t_i+1 and the next step's k(t_i+1, y').
    The whole bundle stops at the first step in which a ray leaves the grid
    or the stored window at y* or y', or passes r_grid[0] + 2 dr, or rays
    cross (that step's row is dropped), or at the first row in which any ray
    reaches mu <= _MU_STOP (that row is kept).  ray_count must be at least
    33, the bundle's 3 x times x rays at most errors.MAX_VALUES and the first
    row on the first stored window (InvalidParameter otherwise).
    """
    if ray_count < 33:
        raise InvalidParameter(f"ray_count must be >= 33, got {ray_count}")
    check_size("the ray bundle", 3 * len(history.times) * ray_count)
    eos = eos if eos is not None else history.eos
    times = history.times
    u = np.linspace(0.0, history.delta, ray_count)
    du = history.delta / (ray_count - 1)
    r_pos = 2.0 + u
    smp = _first_sample(history, r_pos, eos)
    mu_tr = smp[_ETA]                            # mu = eta initially
    y = np.stack((r_pos, mu_tr))

    rows = np.empty((3, len(times), ray_count))     # r, mu_spacing, mu_transport
    rows[:, 0] = r_pos, mu_from_spacing(mu_tr, r_pos, du), mu_tr
    n = 1                                           # rows traced
    r_lo = history.r_grid[0] + 2.0 * (history.r_grid[1] - history.r_grid[0])

    def rate(smp, y):
        return np.array((smp[_RDOT], y[1] * smp[_GROWTH]))

    for k in range(1, len(times)):
        dt = float(times[k]) - float(times[k - 1])
        rate_a = rate(smp, y)
        y_pred = y + dt * rate_a                 # y*
        blk = _block(history, k, eos)
        if (smp := _sample(history, k, blk, y_pred[0])) is None:
            break
        y = y + 0.5 * dt * (rate_a + rate(smp, y_pred))
        if (smp := _sample(history, k, blk, y[0])) is None or np.min(y[0]) < r_lo:
            break
        if (mu_sp := mu_from_spacing(smp[_ETA], y[0], du)) is None:
            break
        rows[:, n] = y[0], mu_sp, y[1]
        n += 1
        if np.min(mu_sp) <= _MU_STOP or np.min(y[1]) <= _MU_STOP:
            break

    return RayBundle(u=u, times=times[:n], r=rows[0, :n], mu_spacing=rows[1, :n],
                     mu_transport=rows[2, :n])

