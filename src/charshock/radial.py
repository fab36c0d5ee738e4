"""Method-of-lines solver for the damped potential-flow wave equation in
spherical symmetry.

State variables are the potential phi and its time derivative dtphi on a
uniform radial grid.  The evolution equation, obtained by contracting the
inverse acoustical metric with the Hessian of phi and keeping the damping
source, is

    d(dtphi)/dt = 2 dphi * d(dtphi)/dr
                  + eta^2 (d2phi + (2/r) dphi)
                  - dphi^2 * d2phi
                  - a (dtphi - dphi^2)

with dphi = d(phi)/dr, enthalpy h = dtphi - dphi^2/2 + a*phi and sound
speed eta = eta(h) from the equation of state.  Spatial derivatives are
4th-order central differences (one-sided at the edges); time stepping is
classical RK4 under a CFL restriction based on the fastest characteristic
speed eta + |v_r|; run_until paces its steps by that limit alone, never by
the snapshot clock.

The pointwise fields of that equation (dphi, d(dtphi)/dr, d2phi, h, eta^2
and d(dtphi)/dt) have one definition, _fields, on the stacked state
y = (phi, dtphi): one d1 call for both rows, one d2 call, one EOS
evaluation.  The solver stage, the ray sampler in foliation and the seed
diagnostic in shortpulse all call it.  advance takes one classical RK4 step,
_rk4, of y, on the window view that run_until passes, with the CFL speed and
k1 from one first stage.  On a window of a few hundred points a stage
costs numpy call overhead, not arithmetic, so _fields and _rk4 compute their
temporaries in place, and the stage has _fields write d(dtphi)/dt straight
into its right-hand side and skip d2's one-sided rows, which only feed rows
the stage overwrites.  Each operation keeps its operands and their order, so
the results are the same bytes as the plain expressions'.

run_until evolves and stores only an active window that moves inward at
c0, the rest-state sound speed.  The data vanish ahead of the cone
r = r_front - c0 (t + 2) through the inner edge of their support, so the
points more than _MARGIN ahead of it are held at exactly zero, a moving
continuation of the pinned inner boundary.  Nothing behind the trailing
characteristic through the annulus' outer edge reaches the pulse (domain of
dependence), so the points more than _TRAIL behind it keep their last
values; the window's last two take the characteristic outflow rows.  A
snapshot holds the window's W = annulus + _MARGIN + _TRAIL points.
"""

from __future__ import annotations

import bisect
import math
import zipfile
from dataclasses import dataclass

import numpy as np

from .eos import EquationOfState, eos_from_config
from .errors import (ConfigInvalid, InvalidParameter, NonFiniteField, OutOfDomain,
                     check_size, check_steps)

__all__ = [
    "RunHistory",
    "advance",
    "run_until",
    "energy_functional",
]

_N_PIN = 3  # inner grid points held at zero (deep inside the trivial region)
_MARGIN = 64  # grid points evolved ahead of the incoming front
_TRAIL = 256  # grid points evolved behind the trailing characteristic
_CFL = 0.4  # advance's step is _CFL dr / max(eta + |v_r|)


def _edge_rows(edge, width):
    """One-sided stencil rows for the first two grid points, as a (width, 2) matrix."""
    rows = np.zeros((2, width))
    rows[0, :len(edge)] = edge
    rows[1, 1:1 + len(edge)] = edge
    return rows.T


# 4th-order stencils: 5-point central rows (times 12 dx^k), correlation order
_D1_CENTRAL = np.array([1.0, -8.0, 0.0, 8.0, -1.0])
_D2_CENTRAL = np.array([-1.0, 16.0, -30.0, 16.0, -1.0])
# one-sided rows at the lower edge; the upper edge mirrors them, with a sign
# flip for the odd derivative
_D1_LO = _edge_rows(np.array([-25.0, 48.0, -36.0, 16.0, -3.0]), 6)
_D1_HI = -_D1_LO[::-1, ::-1]
_D2_LO = _edge_rows(np.array([812.0, -3132.0, 5265.0, -5080.0, 2970.0, -972.0,
                              137.0]) / 180.0, 8)
_D2_HI = _D2_LO[::-1, ::-1]


def _central(f, stencil):
    """Central 5-point stencil along the last axis, by one correlation.

    The two points at each end of a row mix in the neighbouring row or the
    zero padding; d1 and d2 overwrite them with the one-sided rows.
    """
    return np.correlate(f.ravel(), stencil, "same").reshape(f.shape)


def d1(f, dx):
    """Fourth-order first derivative along the last axis, one-sided at the edges."""
    out = _central(f, _D1_CENTRAL)
    out[..., :2] = f[..., :6] @ _D1_LO
    out[..., -2:] = f[..., -6:] @ _D1_HI
    out /= 12 * dx
    return out


def d2(f, dx):
    """Fourth-order second derivative along the last axis, one-sided at the edges."""
    out = _central(f, _D2_CENTRAL)
    out /= 12 * dx**2
    out[..., :2] = f[..., :8] @ _D2_LO / dx**2
    out[..., -2:] = f[..., -8:] @ _D2_HI / dx**2
    return out


def _fields(r, y, a, eos, dr=None, out=None):
    """(dphi, d(dtphi)/dr, d2phi, h, eta^2, d(dtphi)/dt) of the stacked state
    y = (phi, dtphi) on the grid r, from the equation in the module docstring.

    The edge rows are the one-sided stencils'; no boundary condition is applied.
    dr defaults to r[1] - r[0], which on a slice can differ from the grid's.
    With out (the solver stage's right-hand-side row), d(dtphi)/dt is written
    there and d2phi's one-sided rows are skipped, so the first two and last two
    rows of d2phi and d(dtphi)/dt are left unspecified: the stage overwrites
    those rows of the right-hand side with the pin and the outflow rows.
    """
    dr = r[1] - r[0] if dr is None else dr
    phi, dtphi = y
    dphi, ddtphi = d1(y, dr)
    if out is None:
        d2phi = d2(phi, dr)
    else:
        d2phi = _central(phi, _D2_CENTRAL)
        d2phi /= 12 * dr**2
    dphi_sq, two_dphi = dphi**2, 2.0 * dphi
    h = 0.5 * dphi_sq
    np.subtract(dtphi, h, out=h)
    dtt = np.multiply(a, phi, out=out)       # a*phi, until dtt is formed
    h += dtt
    eta_sq = eos.eta_sq(h)
    # summed in place, in the equation's order; two_dphi turns into scratch
    np.multiply(two_dphi, ddtphi, out=dtt)
    tmp = two_dphi
    tmp /= r
    tmp += d2phi
    tmp *= eta_sq
    dtt += tmp
    np.multiply(dphi_sq, d2phi, out=tmp)
    dtt -= tmp
    np.subtract(dtphi, dphi_sq, out=tmp)
    tmp *= a
    dtt -= tmp
    return dphi, ddtphi, d2phi, h, eta_sq, dtt


def _rk4(f, t, y, dt, k1):
    """One classical RK4 step of dy/dt = f(t, y), given the stage k1 = f(t, y).

    f must return a new array and keep no reference to its argument: the
    stage arguments share one array, and the stages are summed in place into
    k2's, as y + dt/6 (((k1 + 2 k2) + 2 k3) + k4).  k1 is left as it is.
    """
    ys = np.multiply(0.5 * dt, k1)
    ys += y
    k2 = f(t + 0.5 * dt, ys)
    np.multiply(0.5 * dt, k2, out=ys)
    ys += y
    k3 = f(t + 0.5 * dt, ys)
    np.multiply(dt, k3, out=ys)
    ys += y
    k4 = f(t + dt, ys)
    k2 *= 2.0
    k2 += k1
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= dt / 6.0
    k2 += y
    return k2


def _stage(t, r, y, a, eos):
    """d/dt of the stacked state y = (phi, dtphi) on the grid r.

    Returns it with eta^2 and dphi/dr, from which the CFL speed follows;
    OutOfDomain, with t appended to the EOS's message, on a domain exit.
    _fields writes d(dtphi)/dt into the returned array's second row; the
    rows it leaves unspecified there are the pinned and the outflow ones,
    which are set here.  The two outflow rows are computed in Python floats.
    """
    rhs = np.empty_like(y)
    try:
        dphi, ddtphi, _, _, eta_sq, _ = _fields(r, y, a, eos, out=rhs[1])
    except OutOfDomain as exc:
        raise OutOfDomain(f"{exc} at t={t:.6f}") from None
    rhs[0] = y[1]

    # inner boundary: pinned to zero, deep inside the trivial region
    rhs[:, :_N_PIN] = 0.0

    # outer boundary: characteristic outflow for the outgoing spherical wave,
    # (dt + lam * (dr + 1/r)) dtphi = 0 with lam = eta + v_r
    for j in (-2, -1):
        lam = math.sqrt(eta_sq.item(j)) - dphi.item(j)
        rhs[1, j] = -lam * (ddtphi.item(j) + y.item(1, j) / r.item(j))

    if not np.isfinite(rhs).all():
        raise NonFiniteField(f"non-finite right-hand side at t={t:.6f}")
    return rhs, eta_sq, dphi


def advance(t, r, y, a: float, eos: EquationOfState, t_end: float):
    """One classical RK4 step of the stacked state y = (phi, dtphi) on the grid
    r from t toward t_end under the CFL limit; returns (t', y').

    The first stage k1 also gives the CFL speed max(eta + |v_r|).  The step is
    dt = (t_end - t) / ceil((t_end - t) / (_CFL dr / speed)), so none exceeds
    the CFL step and no tiny last step occurs; a step that reaches t_end
    returns t' = t_end exactly.  y is not modified; y' is a new array.

    InvalidParameter for a t_end that is not finite or not after t, for a
    grid of fewer than the stencils' 8 points, and for a CFL step that would
    take more than errors.MAX_VALUES steps to reach t_end or that does not
    move t (errors.check_steps).
    """
    if not t < t_end < math.inf:
        raise InvalidParameter(f"t_end must be finite and after t={t}, got {t_end}")
    if len(r) < 8:
        raise InvalidParameter(
            f"field of {len(r)} grid points; the stencils need at least 8")
    k1, eta_sq, dphi = _stage(t, r, y, a, eos)
    speed = float(np.max(np.sqrt(eta_sq) + np.abs(dphi)))
    limit = _CFL * (r[1] - r[0]) / speed             # the CFL step
    check_steps(t, limit, t_end)                     # before ceil: a finite count
    steps = math.ceil((t_end - t) / limit)
    dt = (t_end - t) / steps
    y_new = _rk4(lambda ts, ys: _stage(ts, r, ys, a, eos)[0], t, y, dt, k1)
    if not np.isfinite(y_new).all():
        raise NonFiniteField(f"non-finite field after step to t={t + dt:.6f}")
    return t_end if steps == 1 else t + dt, y_new


@dataclass
class RunHistory:
    """The snapshots of a run_until solve, the EOS it ran with and how it
    ended; the last snapshot is the last time reached (last_good_time).
    Snapshot k holds r_grid[start[k]:start[k] + W], W = phi.shape[1];
    InvalidParameter for fields that disagree (__post_init__'s checks)."""

    r_grid: np.ndarray
    times: np.ndarray                 # snapshot times, ascending
    phi: np.ndarray                   # (n_snapshots, W)
    dtphi: np.ndarray
    a: float
    delta: float
    status: str                       # 'Completed' | 'EosDomain' | 'NonFinite'
    eos: EquationOfState
    message: str = ""                 # why the run broke down; "" when Completed
    start: np.ndarray = None          # (n_snapshots,) ints; None: all 0 (whole grid)

    def __post_init__(self):
        if self.start is None:
            self.start = np.zeros(len(self.times), dtype=int)
        t, s, n_r, w = self.times, self.start, len(self.r_grid), self.phi.shape[-1]
        if not (t.ndim == 1 and w >= 8 and self.phi.shape == self.dtphi.shape == (len(t), w)):
            raise InvalidParameter("phi and dtphi are not (len(times), W) with W >= 8")
        if not (t.size and np.all(np.isfinite(t)) and np.all(np.diff(t) > 0.0)):
            raise InvalidParameter("times are empty, not finite or not strictly increasing")
        if not (s.shape == t.shape and s.dtype.kind in "iu"
                and 0 <= s.min() <= s.max() <= n_r - w):     # so W <= len(r_grid) too
            raise InvalidParameter(f"start is not ints in [0, len(r_grid) - W = {n_r - w}]")
        r, dr = self.r_grid, np.diff(self.r_grid)   # _block, _sample and trace_rays read dr[0]
        if not (r.ndim == 1 and np.isfinite(r).all() and (dr > 0.0).all()
                and np.abs(dr - dr[0]).max() <= 4.0 * np.spacing(np.abs(r).max())):
            raise InvalidParameter("r_grid is not 1-D, finite, increasing and even to 4 ulp")
        if not (math.isfinite(self.a) and 0.0 < self.delta < 1.0):
            raise InvalidParameter(f"a is not finite or delta = {self.delta} is not in (0, 1)")

    @property
    def last_good_time(self):
        return float(self.times[-1])

    def save(self, path):
        np.savez_compressed(
            path, r_grid=self.r_grid, times=self.times, phi=self.phi,
            dtphi=self.dtphi, start=self.start, a=self.a, delta=self.delta,
            status=self.status, message=self.message,
            **{f"eos_{k}": v for k, v in self.eos.record().items()})

    @classmethod
    def load(cls, path):
        """Read a history written by save, its EOS from the eos_* keys; older files
        load with message "" and, holding the whole grid, start 0, ignoring their
        last_good_time and NaN eos_gamma keys.  ConfigInvalid for any other file."""
        try:
            with np.load(path) as z:
                f = {k: z[k] for k in z.files}
            eos = eos_from_config({k[4:]: v.tolist() for k, v in f.items()
                                   if k.startswith("eos_")})
            return cls(r_grid=f["r_grid"], times=f["times"], phi=f["phi"], dtphi=f["dtphi"],
                       a=float(f["a"]), delta=float(f["delta"]), status=str(f["status"]),
                       eos=eos, message=str(f.get("message", "")), start=f.get("start"))
        except (InvalidParameter, ValueError, TypeError, KeyError, IndexError, EOFError,
                zipfile.BadZipFile) as exc:
            raise ConfigInvalid(f"{path} is not a run history .npz: {exc}") from None


def energy_functional(r, y, eos: EquationOfState, a: float):
    """int ((dtphi)^2 + eta^2 (dphi)^2) r^2 dr of y = (phi, dtphi) on r."""
    dphi, _, _, _, eta_sq, _ = _fields(r, y, a, eos)
    integrand = (y[1]**2 + eta_sq * dphi**2) * r**2
    return float(np.trapezoid(integrand, r))


def run_until(data, a, eos, t_end, points_per_delta=64, r_min=0.05, pad=1.0,
              sample_dt=None):
    """Evolve short-pulse data from t = -2 to t_end, storing snapshots.

    data: ShortPulseData providing phi_at / dtphi_at evaluators and delta.
    Each step is one advance toward t_end, which picks its own CFL step.  A
    snapshot is the state at the first step at or after each multiple of
    sample_dt (default delta/20) after -2, at most one per step, from -2 to
    exactly t_end.
    Breakdowns (EOS domain exit, non-finite fields) end the run with status
    and message recorded; the last snapshot is then the last state reached.
    Each step evolves only the active window, from _MARGIN points ahead of
    the cone c0 (t + 2) inside the data's inner edge to _TRAIL points behind
    the one inside the annulus' outer edge (module docstring); a snapshot
    stores the window's W points, from start[k], or the grid's last W.

    Inputs are checked on entry, each an InvalidParameter: a non-finite a,
    t_end outside (-2, 0), points_per_delta, sample_dt or r_min <= 0, fewer
    than the stencils' 8 grid points, and points_per_delta, a grid or a
    snapshot store above errors.MAX_VALUES values (checked before dr and
    either array are made).
    """
    delta = data.delta
    if not math.isfinite(a):
        raise InvalidParameter(f"a must be finite, got {a}")
    if not -2.0 < t_end < 0.0:
        raise InvalidParameter(f"t_end must lie in (-2, 0), got {t_end}")
    if not points_per_delta > 0:
        raise InvalidParameter(f"points_per_delta must be positive, got {points_per_delta}")
    check_size("one delta of the grid", points_per_delta)    # before delta / it can overflow
    if sample_dt is not None and not sample_dt > 0.0:
        raise InvalidParameter(f"sample_dt must be positive, got {sample_dt}")
    if not r_min > 0.0:         # the 2/r term is infinite at r = 0
        raise InvalidParameter(f"r_min must be positive, got {r_min}")
    dr = delta / points_per_delta
    r_max = float(data.r_grid[-1]) + pad     # a Python float: the count below overflows unwarned
    if not r_max - r_min >= 7 * dr:
        raise InvalidParameter(
            f"grid [{r_min}, {r_max}] holds fewer than 8 points of spacing {dr}")
    check_size("the grid", (r_max - r_min) * points_per_delta / delta + 1.0)   # dr may underflow
    n = int(np.ceil((r_max - r_min) / dr))
    r = r_min + dr * np.arange(n + 1)
    y = np.stack((data.phi_at(r), data.dtphi_at(r)))
    live = np.flatnonzero(np.any(y != 0.0, axis=0))
    back = int(np.searchsorted(r, data.r_grid[-1]))
    front = live[0] if live.size else back
    width = min(r.size, back - front + _MARGIN + _TRAIL)

    if sample_dt is None:
        sample_dt = delta / 20.0
    check_size("the snapshots", 2.0 * width * ((t_end + 2.0) / sample_dt + 2.0))
    sample_times = np.arange(-2.0, t_end + 1e-12, sample_dt)
    sample_times = np.append(sample_times[sample_times < t_end - 1e-12], t_end)

    times = np.empty(len(sample_times))
    start = np.empty(len(sample_times), dtype=int)
    snaps = np.empty((2, len(sample_times), width))

    def keep(t, j1):
        nonlocal stored
        times[stored], start[stored], snaps[:, stored] = t, j1 - width, y[:, j1 - width:j1]
        stored += 1

    t, stored, due, status, message = -2.0, 0, 1, "Completed", ""
    j0 = max(0, front - _MARGIN)
    j1 = min(j0 + width, r.size)
    keep(t, j1)
    try:
        c0 = float(np.sqrt(eos.eta_sq(0.0)))
        with np.errstate(over="ignore", invalid="ignore"):     # the breakdowns below name it
            while t < t_end:
                t, y[:, j0:j1] = advance(t, r[j0:j1], y[:, j0:j1], a, eos, t_end)
                j0 = max(0, int(front - c0 * (t + 2.0) / dr) - _MARGIN)
                j1 = min(j0 + width, r.size)
                if t >= sample_times[due]:
                    keep(t, j1)
                    due = bisect.bisect_right(sample_times, t)
    except OutOfDomain as exc:
        status, message = "EosDomain", str(exc)
    except NonFiniteField as exc:
        status, message = "NonFinite", str(exc)
    if t > times[stored - 1]:       # a breakdown after the last snapshot; t_end's row is free
        keep(t, j1)

    return RunHistory(
        r_grid=r, times=times[:stored], phi=snaps[0, :stored],
        dtphi=snaps[1, :stored], a=a, delta=delta, status=status,
        eos=eos, message=message, start=start[:stored])
