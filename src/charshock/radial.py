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
speed eta + |v_r|.

The pointwise fields of that equation (dphi, d(dtphi)/dr, d2phi, h, eta^2
and d(dtphi)/dt) have one definition, _fields, on the stacked state
(phi, dtphi): one d1 call for both rows, one d2 call, one EOS evaluation.
The solver stage, the ray sampler in foliation and the seed diagnostic in
shortpulse all call it.  One classical RK4 step, _rk4, serves both the
solver and the ray tracer; the first stage of a solver step also gives the
CFL speed.

run_until evolves only an active window behind the incoming front: the
data vanish ahead of the cone r = r_front - c0 (t + 2) through the inner
edge of their support, c0 being the rest-state sound speed, so the grid
points more than _MARGIN points ahead of it are held at exactly zero, as a
moving continuation of the pinned inner boundary.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass, field

import numpy as np

from .eos import EquationOfState
from .errors import CflViolation, ConfigInvalid, EosDomain, NonFiniteField, OutOfDomain

__all__ = [
    "RadialField",
    "RunHistory",
    "radial_rhs",
    "advance",
    "run_until",
    "energy_functional",
]

_N_PIN = 3  # inner grid points held at zero (deep inside the trivial region)
_MARGIN = 64  # grid points evolved ahead of the incoming front
_EOS_TABLES = ("h_table", "eta_sq_table")  # custom-EOS fields kept in eos_meta


def _edge_rows(edge, width):
    """One-sided stencil rows for the first two grid points, as a (width, 2) matrix."""
    rows = np.zeros((2, width))
    rows[0, :len(edge)] = edge
    rows[1, 1:1 + len(edge)] = edge
    return rows.T


# 4th-order stencils: 5-point central rows (times 12 dx^k), convolution order
_D1_CENTRAL = np.array([-1.0, 8.0, 0.0, -8.0, 1.0])
_D2_CENTRAL = np.array([-1.0, 16.0, -30.0, 16.0, -1.0])
# one-sided rows at the lower edge; the upper edge mirrors them, with a sign
# flip for the odd derivative
_D1_LO = _edge_rows(np.array([-25.0, 48.0, -36.0, 16.0, -3.0]), 6)
_D1_HI = -_D1_LO[::-1, ::-1]
_D2_LO = _edge_rows(np.array([812.0, -3132.0, 5265.0, -5080.0, 2970.0, -972.0,
                              137.0]) / 180.0, 8)
_D2_HI = _D2_LO[::-1, ::-1]


def _central(f, stencil):
    """Central 5-point stencil along the last axis, by one convolution.

    The two points at each end of a row mix in the neighbouring row or the
    zero padding; d1 and d2 overwrite them with the one-sided rows.
    """
    return np.convolve(f.ravel(), stencil, "same").reshape(f.shape)


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


def _fields(r, y, a, eos):
    """(dphi, d(dtphi)/dr, d2phi, h, eta^2, d(dtphi)/dt) of the stacked state
    y = (phi, dtphi) on the grid r, from the equation in the module docstring.

    The edge rows are the one-sided stencils'; no boundary condition is applied.
    """
    dr = r[1] - r[0]
    phi, dtphi = y
    dphi, ddtphi = d1(y, dr)
    d2phi = d2(phi, dr)
    h = dtphi - 0.5 * dphi**2 + a * phi
    eta_sq = eos.eta_sq(h)
    dtt = (2.0 * dphi * ddtphi + eta_sq * (d2phi + 2.0 * dphi / r)
           - dphi**2 * d2phi - a * (dtphi - dphi**2))
    return dphi, ddtphi, d2phi, h, eta_sq, dtt


def _rk4(f, t, y, dt, k1):
    """One classical RK4 step of dy/dt = f(t, y), given the stage k1 = f(t, y)."""
    k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def _time_stencil(times, t):
    """(indices, weights) of the stored snapshots that interpolate to time t.

    A time within 1e-13 of a snapshot takes that snapshot alone.  Otherwise
    the weights are 4-point Lagrange in t, linear when fewer than four
    snapshots are stored.  Linear interpolation in t systematically smooths
    the pulse: the relative bias is (omega*dt)^2/8 with omega ~ 1/delta,
    which does not vanish when the snapshot cadence is scaled with delta;
    cubic interpolation drops it to (omega*dt)^4.
    """
    i = int(np.clip(np.searchsorted(times, t) - 1, 0, len(times) - 2))
    for k in (i, i + 1):
        if abs(t - times[k]) < 1e-13:
            return [k], [1.0]
    if len(times) < 4:
        w = (t - times[i]) / (times[i + 1] - times[i])
        return [i, i + 1], [1.0 - w, w]
    lo = int(np.clip(i - 1, 0, len(times) - 4))
    ts = times[lo:lo + 4]
    weights = []
    for k in range(4):
        others = np.delete(ts, k)
        weights.append(float(np.prod((t - others) / (ts[k] - others))))
    return list(range(lo, lo + 4)), weights


@dataclass
class RadialField:
    t: float
    r_grid: np.ndarray
    phi: np.ndarray
    dtphi: np.ndarray
    _k1: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def derived(self, eos: EquationOfState, a: float):
        """Pointwise derived quantities: dphi, h, eta_sq, v_r."""
        y = np.stack((self.phi, self.dtphi))
        dphi, _, _, h, eta_sq, _ = _fields(self.r_grid, y, a, eos)
        return {"dphi": dphi, "h": h, "eta_sq": eta_sq, "v_r": -dphi}

    def _first_stage(self, a, eos):
        """(stacked state, RK4 stage k1, CFL speed max(eta + |v_r|)).

        Evaluated once per field, so the time step run_until picks from the
        speed and the step advance takes from k1 share one evaluation.
        """
        if self._k1 is None or self._k1[0] != a or self._k1[1] is not eos:
            y = np.stack((self.phi, self.dtphi))
            k1, eta_sq, dphi = _stage(self.t, self.r_grid, y, a, eos)
            speed = float(np.max(np.sqrt(eta_sq) + np.abs(dphi)))
            self._k1 = (a, eos, y, k1, speed)
        return self._k1[2:]


def _stage(t, r, y, a, eos):
    """d/dt of the stacked state y = (phi, dtphi) on the grid r.

    Returns it with eta^2 and dphi/dr, from which the CFL speed follows.
    """
    try:
        dphi, ddtphi, _, _, eta_sq, dtt = _fields(r, y, a, eos)
    except OutOfDomain as exc:
        raise EosDomain(f"{exc} at t={t:.6f}") from None

    rhs = np.empty_like(y)
    rhs[0] = y[1]
    rhs[1] = dtt

    # inner boundary: pinned to zero, deep inside the trivial region
    rhs[:, :_N_PIN] = 0.0

    # outer boundary: characteristic outflow for the outgoing spherical wave,
    # (dt + lam * (dr + 1/r)) dtphi = 0 with lam = eta + v_r
    lam = np.sqrt(eta_sq[-2:]) - dphi[-2:]
    rhs[1, -2:] = -lam * (ddtphi[-2:] + y[1, -2:] / r[-2:])

    if not np.isfinite(rhs).all():
        raise NonFiniteField(f"non-finite right-hand side at t={t:.6f}")
    return rhs, eta_sq, dphi


def radial_rhs(fld: RadialField, a: float, eos: EquationOfState):
    """Time derivatives (d phi/dt, d dtphi/dt) of the radial system."""
    rhs = _stage(fld.t, fld.r_grid, np.stack((fld.phi, fld.dtphi)), a, eos)[0]
    return rhs[0], rhs[1]


def advance(fld: RadialField, dt: float, a: float, eos: EquationOfState):
    """One classical RK4 step; enforces the CFL precondition."""
    y, k1, speed = fld._first_stage(a, eos)
    r, t = fld.r_grid, fld.t
    dr = r[1] - r[0]
    if dt > 0.9 * dr / speed + 1e-15:
        raise CflViolation(
            f"dt={dt:.3e} exceeds CFL limit {0.9 * dr / speed:.3e}")

    y_new = _rk4(lambda ts, ys: _stage(ts, r, ys, a, eos)[0], t, y, dt, k1)
    if not np.isfinite(y_new).all():
        raise NonFiniteField(f"non-finite field after step to t={t + dt:.6f}")
    return RadialField(t + dt, r, y_new[0], y_new[1])


@dataclass
class RunHistory:
    r_grid: np.ndarray
    times: np.ndarray                 # snapshot times, ascending
    phi: np.ndarray                   # (n_snapshots, n_r)
    dtphi: np.ndarray
    a: float
    delta: float
    status: str                       # 'Completed' | 'EosDomain' | 'NonFinite'
    last_good_time: float
    eos_meta: dict = field(default_factory=dict)
    message: str = ""                 # why the run broke down; "" when Completed

    def frame(self, t):
        """Fields at time t, interpolated in time by _time_stencil."""
        times = self.times
        if t < times[0] - 1e-12 or t > times[-1] + 1e-12:
            raise IndexError(f"time {t} outside stored range "
                             f"[{times[0]}, {times[-1]}]")
        snaps, weights = _time_stencil(times, t)
        phi = np.tensordot(weights, self.phi[snaps], axes=1)
        dtphi = np.tensordot(weights, self.dtphi[snaps], axes=1)
        return RadialField(t, self.r_grid, phi, dtphi)

    def save(self, path):
        tables = {f"eos_{k}": np.asarray(self.eos_meta[k])
                  for k in _EOS_TABLES if k in self.eos_meta}
        np.savez_compressed(
            path, r_grid=self.r_grid, times=self.times, phi=self.phi,
            dtphi=self.dtphi, a=self.a, delta=self.delta,
            status=self.status, message=self.message,
            last_good_time=self.last_good_time, eos_family=self.eos_meta.get("family", ""),
            eos_gamma=self.eos_meta.get("gamma", np.nan), **tables)

    @classmethod
    def load(cls, path):
        """Read a history written by save; older files load with message ""."""
        try:
            with np.load(path) as z:
                f = {k: z[k] for k in z.files}
            meta = {"family": str(f["eos_family"])}
            if np.isfinite(float(f["eos_gamma"])):
                meta["gamma"] = float(f["eos_gamma"])
            meta.update({k: f[f"eos_{k}"].tolist() for k in _EOS_TABLES if f"eos_{k}" in f})
            return cls(r_grid=f["r_grid"], times=f["times"], phi=f["phi"], dtphi=f["dtphi"],
                       a=float(f["a"]), delta=float(f["delta"]), status=str(f["status"]),
                       last_good_time=float(f["last_good_time"]), eos_meta=meta,
                       message=str(f.get("message", "")))
        except (ValueError, TypeError, KeyError, EOFError, zipfile.BadZipFile) as exc:
            raise ConfigInvalid(f"{path} is not a run history .npz: {exc}") from None


def energy_functional(fld: RadialField, eos: EquationOfState, a: float):
    """int ((dtphi)^2 + eta^2 (dphi)^2) r^2 dr, a Lyapunov-type functional."""
    der = fld.derived(eos, a)
    r = fld.r_grid
    integrand = (fld.dtphi**2 + der["eta_sq"] * der["dphi"]**2) * r**2
    return float(np.trapezoid(integrand, r))


def run_until(data, a, eos, t_end, cfl=0.4, points_per_delta=64,
              r_min=0.05, pad=1.0, sample_dt=None):
    """Evolve short-pulse data from t = -2 to t_end, storing snapshots.

    data: ShortPulseData providing phi_at / dtphi_at evaluators and delta.
    Snapshots are stored every sample_dt (default delta/20) plus the first
    and last time reached.  Breakdowns (EOS domain exit, non-finite fields)
    terminate the run with status, message and last_good_time recorded.
    Each step evolves only the active window r >= r_front(t) - _MARGIN * dr
    (module docstring); the snapshots hold the whole grid.
    """
    delta = data.delta
    if t_end >= 0.0:
        raise CflViolation(f"t_end must be negative, got {t_end}")
    dr = delta / points_per_delta
    r_max = data.r_grid[-1] + pad
    n = int(np.ceil((r_max - r_min) / dr))
    r = r_min + dr * np.arange(n + 1)
    y = np.stack((data.phi_at(r), data.dtphi_at(r)))
    live = np.flatnonzero(np.any(y != 0.0, axis=0))
    front = live[0] if live.size else r.size

    if sample_dt is None:
        sample_dt = delta / 20.0
    sample_times = np.arange(-2.0, t_end + 1e-12, sample_dt)
    if sample_times[-1] < t_end - 1e-12:
        sample_times = np.append(sample_times, t_end)

    times = np.empty(len(sample_times))
    snaps_p = np.empty((len(sample_times), r.size))
    snaps_q = np.empty_like(snaps_p)
    t, times[0], snaps_p[0], snaps_q[0] = -2.0, -2.0, y[0], y[1]
    status, stored, message = "Completed", 1, ""
    try:
        c0 = float(np.sqrt(eos.eta_sq(0.0)))
        while t < t_end - 1e-12:
            j0 = max(0, int(front - c0 * (t + 2.0) / dr) - _MARGIN)
            fld = RadialField(t, r[j0:], y[0, j0:], y[1, j0:])
            speed = fld._first_stage(a, eos)[2]
            dt = min(cfl * (r[1] - r[0]) / speed, sample_times[stored] - t)
            fld = advance(fld, dt, a, eos)
            t, y[0, j0:], y[1, j0:] = fld.t, fld.phi, fld.dtphi
            if t >= sample_times[stored] - 1e-12:
                times[stored], snaps_p[stored], snaps_q[stored] = t, y[0], y[1]
                stored += 1
    except OutOfDomain as exc:
        status, message = "EosDomain", str(exc)
    except NonFiniteField as exc:
        status, message = "NonFinite", str(exc)

    # the EOS as the config record eos_from_config reads back
    meta = {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in vars(eos).items() if v is not None}
    return RunHistory(
        r_grid=r, times=times[:stored], phi=snaps_p[:stored],
        dtphi=snaps_q[:stored], a=a, delta=delta, status=status,
        last_good_time=float(times[stored - 1]), eos_meta=meta, message=message)
