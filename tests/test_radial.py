"""Radial solver tests: RHS oracles, propagation, convergence, breakdown."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charshock import radial
from charshock.eos import make_chaplygin, make_custom, make_polytropic
from charshock.errors import ConfigInvalid, InvalidParameter, NonFiniteField, OutOfDomain
from charshock.foliation import trace_rays
from charshock.radial import (
    _D1_HI,
    _D1_LO,
    _D2_HI,
    _D2_LO,
    _MARGIN,
    _N_PIN,
    _TRAIL,
    _CFL,
    _fields,
    _stage,
    RunHistory,
    advance,
    d1,
    d2,
    energy_functional,
    run_until,
)
from charshock.shortpulse import build_annulus_data, bump_seeds

EOS = make_polytropic(2.0)


def _rhs(r, y, a, eos):
    """(d phi/dt, d dtphi/dt) of the stacked state y = (phi, dtphi) on the
    grid r, from the solver stage."""
    return _stage(-2.0, r, y, a, eos)[0]


def _snapshot(hist, k):
    """Snapshot k of a history as (r, y): the grid points it stores and the
    stacked state (phi, dtphi) on them."""
    start = hist.start[k]
    return (hist.r_grid[start:start + hist.phi.shape[1]],
            np.stack((hist.phi[k], hist.dtphi[k])))


@pytest.fixture(scope="module")
def pulse_run():
    """Small reference run shared by several tests."""
    data = build_annulus_data(bump_seeds(c=1.0, delta=0.05), r_grid_n=512)
    return run_until(data, a=0.0, eos=EOS, t_end=-1.7, r_min=1.35,
                     sample_dt=0.0025)


def test_zero_field_is_stationary():
    r = np.linspace(0.5, 3.0, 400)
    rhs_phi, rhs_dtphi = _rhs(r, np.zeros((2, r.size)), 0.3, EOS)
    assert np.all(rhs_phi == 0.0)
    assert np.all(rhs_dtphi == 0.0)


def test_harmonic_profile_rhs_quadratic_in_amplitude():
    """phi = eps/r is harmonic: the static RHS is O(eps^2)."""
    r = np.linspace(1.0, 3.0, 2001)
    sups = []
    for eps in (1e-2, 1e-3):
        _, rhs_dtphi = _rhs(r, np.stack((eps / r, np.zeros_like(r))), 0.0, EOS)
        sups.append(np.max(np.abs(rhs_dtphi[5:-5])))
    assert sups[0] / sups[1] >= 50.0    # quadratic would give 100
    assert sups[1] <= 1e-5


def test_rhs_matches_cartesian_contraction():
    """The radial reduction equals the 3D contraction of the metric.

    For smooth radial (phi, dtphi) the solved-for d2phi/dt2 must satisfy
    g^{ab} d_a d_b phi = (a/eta^2)(dtphi - |grad phi|^2) with the spatial
    part of the contraction evaluated by 3D Cartesian finite differences.
    """
    a_damp = 0.3

    def phi_f(r):
        return 0.03 * np.exp(-((r - 2.0) / 0.3) ** 2)

    def dtphi_f(r):
        return 0.02 * np.exp(-((r - 2.1) / 0.25) ** 2)

    r = np.linspace(1.0, 3.2, 4401)
    _, dtt_radial = _rhs(r, np.stack((phi_f(r), dtphi_f(r))), a_damp, EOS)

    rng = np.random.default_rng(3)
    residuals = {}
    for hs in (2e-3, 1e-3):
        res = []
        for _ in range(12):
            x = rng.normal(size=3)
            x *= rng.uniform(1.7, 2.4) / np.linalg.norm(x)
            rr = np.linalg.norm(x)
            # spatial Hessian and gradients by central differences
            eye = np.eye(3)
            grad = np.array([
                (phi_f(np.linalg.norm(x + hs * eye[i]))
                 - phi_f(np.linalg.norm(x - hs * eye[i]))) / (2 * hs)
                for i in range(3)])
            grad_dt = np.array([
                (dtphi_f(np.linalg.norm(x + hs * eye[i]))
                 - dtphi_f(np.linalg.norm(x - hs * eye[i]))) / (2 * hs)
                for i in range(3)])
            hess = np.empty((3, 3))
            for i in range(3):
                for j in range(3):
                    hess[i, j] = (
                        phi_f(np.linalg.norm(x + hs * (eye[i] + eye[j])))
                        - phi_f(np.linalg.norm(x + hs * (eye[i] - eye[j])))
                        - phi_f(np.linalg.norm(x - hs * (eye[i] - eye[j])))
                        + phi_f(np.linalg.norm(x - hs * (eye[i] + eye[j])))
                    ) / (4 * hs * hs)
            dtphi_val = dtphi_f(rr)
            h = dtphi_val - 0.5 * grad @ grad + a_damp * phi_f(rr)
            eta_sq = EOS.eta_sq(h)
            v = -grad
            dtt = np.interp(rr, r, dtt_radial)
            contraction = (-dtt / eta_sq
                           - 2.0 * (v @ grad_dt) / eta_sq
                           + np.trace(hess)
                           - (v @ hess @ v) / eta_sq)
            source = a_damp * (dtphi_val - grad @ grad) / eta_sq
            res.append(abs(contraction - source))
        residuals[hs] = max(res)
    # residual is FD truncation error: second order in the stencil width
    assert residuals[2e-3] / residuals[1e-3] >= 3.0
    assert residuals[1e-3] <= 1e-4


def test_eos_domain_breakdown():
    r = np.linspace(1.0, 3.0, 500)
    y = np.stack((np.zeros_like(r), np.full_like(r, 0.6)))
    with pytest.raises(OutOfDomain):
        _rhs(r, y, 0.0, make_chaplygin())   # h = 0.6 >= 1/2


@pytest.mark.parametrize("t_end, n", [(-2.001, 200), (-2.0, 200), (float("nan"), 200),
                                      (float("inf"), 200), (-1.9, 7), (-1.9, 6)],
                         ids=["negative", "zero", "nan", "inf", "7-points", "6-points"])
def test_advance_rejects_bad_inputs(t_end, n):
    """advance needs a finite t_end after the state's t (a positive span) and
    the stencils' 8 grid points, as run_until."""
    r = np.linspace(1.0, 3.0, n)
    with pytest.raises(InvalidParameter):
        advance(-2.0, r, np.zeros((2, n)), a=0.0, eos=EOS, t_end=t_end)


def test_advance_rejects_a_step_that_would_never_reach_t_end():
    """A steep Chaplygin state, phi = 1e7 r, has a CFL step so small that more
    than errors.MAX_VALUES steps would be needed: InvalidParameter at its
    first step (errors.check_steps) instead of a loop that never ends."""
    r = 1.0 + 0.01 * np.arange(40)
    y = np.stack((1e7 * r, np.zeros_like(r)))
    with pytest.raises(InvalidParameter, match="would not reach t_end"):
        advance(-2.0, r, y, a=0.0, eos=make_chaplygin(), t_end=-1.9)


def test_advance_lands_on_t_end():
    """Repeated advance reaches t_end exactly, in the ceil(span / CFL step) steps
    of a constant speed (1 on the zero field)."""
    r = np.linspace(1.0, 3.0, 200)
    t, y = -2.0, np.zeros((2, r.size))
    t_end, steps = -1.9, 0
    while t < t_end:
        t, y = advance(t, r, y, a=0.0, eos=EOS, t_end=t_end)
        steps += 1
    assert t == t_end
    assert steps == math.ceil(0.1 / (_CFL * (r[1] - r[0])))


_BAD_INPUTS = [
    ({"t_end": 0.0}, InvalidParameter),
    ({"t_end": -2.0}, InvalidParameter),
    ({"t_end": -3.0}, InvalidParameter),
    ({"points_per_delta": 0}, InvalidParameter),
    ({"sample_dt": 0.0}, InvalidParameter),
    ({"sample_dt": -1.0}, InvalidParameter),
    ({"r_min": 5.0}, InvalidParameter),
    ({"r_min": 3.0, "pad": -0.1}, InvalidParameter),
    ({"a": float("nan")}, InvalidParameter),
    ({"points_per_delta": 10**12}, InvalidParameter),
    ({"sample_dt": 1e-300}, InvalidParameter),
    ({"r_min": 0.0}, InvalidParameter),
    ({"r_min": -0.5}, InvalidParameter),
]


@pytest.mark.parametrize("kwargs, error", _BAD_INPUTS, ids=[
    ",".join(f"{k}={v}" for k, v in kw.items()) for kw, _ in _BAD_INPUTS])
def test_run_until_rejects_bad_inputs(kwargs, error):
    """Bad solver inputs raise on entry, or at the first step, instead of
    hanging, stepping backward in time, failing inside the step loop or asking
    for a grid, a snapshot store or a step count beyond errors.MAX_VALUES."""
    data = build_annulus_data(bump_seeds(c=1.0, delta=0.1), r_grid_n=256)
    args = {"a": 0.0, "t_end": -1.9, "points_per_delta": 16, "r_min": 1.6, **kwargs}
    with pytest.raises(error):
        run_until(data, eos=EOS, **args)


def test_run_until_records_breakdown(tmp_path):
    """Data outside the EOS domain terminates with status, message and last
    time; save/load keep the message, files without one load with "", and a
    stored last_good_time key of an older file is ignored."""
    data = build_annulus_data(bump_seeds(c=-60.0, delta=0.2), r_grid_n=512)
    hist = run_until(data, a=0.0, eos=EOS, t_end=-1.9, points_per_delta=16,
                     r_min=1.5)
    assert hist.status == "EosDomain"
    assert hist.last_good_time == -2.0
    assert hist.message.startswith("enthalpy outside") and hist.message.endswith("t=-2.000000")
    hist.save(tmp_path / "broke.npz")
    assert RunHistory.load(tmp_path / "broke.npz").message == hist.message
    with np.load(tmp_path / "broke.npz") as z:
        assert "last_good_time" not in z.files
        older = {k: z[k] for k in z.files if k != "message"}
    np.savez(tmp_path / "older.npz", last_good_time=-1.0, **older)
    again = RunHistory.load(tmp_path / "older.npz")
    assert again.message == "" and again.last_good_time == -2.0


def _history_file(path, **keys):
    """A two-snapshot zero history file holding the given eos_* keys, its
    other fields replaced by any others given."""
    r = np.linspace(1.0, 3.0, 64)
    z = np.zeros((2, r.size))
    fields = dict(r_grid=r, times=np.array([-2.0, -1.9]), phi=z, dtphi=z,
                  start=np.zeros(2, dtype=int), a=0.0, delta=0.1, status="Completed",
                  message="")
    np.savez_compressed(path, **{**fields, **keys})


_POLYTROPIC = dict(eos_family="polytropic", eos_gamma=2.0)
# history files whose fields disagree, by the field and the check that fails
_INCONSISTENT = {
    "short_phi": dict(phi=np.zeros((1, 64))),
    "one_d_dtphi": dict(dtphi=np.zeros(64)),
    "seven_points": dict(phi=np.zeros((2, 7)), dtphi=np.zeros((2, 7))),
    "no_snapshots": dict(times=np.zeros(0), phi=np.zeros((0, 64)), dtphi=np.zeros((0, 64)),
                         start=np.zeros(0, dtype=int)),
    "nan_time": dict(times=np.array([-2.0, np.nan])),
    "descending_times": dict(times=np.array([-1.9, -2.0])),
    "repeated_time": dict(times=np.array([-2.0, -2.0])),
    "float_start": dict(start=np.zeros(2)),
    "short_start": dict(start=np.zeros(1, dtype=int)),
    "negative_start": dict(start=np.array([0, -1])),
    "start_past_grid": dict(start=np.array([0, 1])),
    "wider_than_grid": dict(r_grid=np.linspace(1.0, 3.0, 32)),
    "uneven_grid": dict(r_grid=np.linspace(1.0, 3.0, 64) + np.where(np.arange(64) < 3, 0.0, 1e-3)),
    "nan_grid": dict(r_grid=np.where(np.arange(64) == 5, np.nan, np.linspace(1.0, 3.0, 64))),
    "descending_grid": dict(r_grid=np.linspace(3.0, 1.0, 64)),
    "two_d_grid": dict(r_grid=np.linspace(1.0, 3.0, 128).reshape(2, 64)),
    "nan_a": dict(a=np.nan),
    "zero_delta": dict(delta=0.0),
    "delta_one": dict(delta=1.0),
}


def test_history_load_rejects_other_files(tmp_path):
    """Other files, history files whose EOS record is invalid (a polytropic
    run without a finite gamma, an unknown family) and history files whose
    fields disagree (_INCONSISTENT) are ConfigInvalid."""
    np.savez(tmp_path / "partial.npz", r_grid=np.linspace(1.0, 2.0, 8))
    (tmp_path / "run.json").write_text("{}")
    _history_file(tmp_path / "no_gamma.npz", eos_family="polytropic", eos_gamma=np.nan)
    _history_file(tmp_path / "no_family.npz", eos_family="ideal", eos_gamma=2.0)
    for name, keys in _INCONSISTENT.items():
        _history_file(tmp_path / f"{name}.npz", **_POLYTROPIC, **keys)
    _history_file(tmp_path / "consistent.npz", **_POLYTROPIC)
    assert RunHistory.load(tmp_path / "consistent.npz").phi.shape == (2, 64)
    for name in ("partial.npz", "run.json", "no_gamma.npz", "no_family.npz",
                 *(f"{name}.npz" for name in _INCONSISTENT)):
        with pytest.raises(ConfigInvalid, match=name):
            RunHistory.load(tmp_path / name)


def test_history_rejects_fields_that_disagree():
    """A RunHistory built from the fields of _INCONSISTENT is InvalidParameter,
    on construction, not at its first trace."""
    fields = dict(r_grid=np.linspace(1.0, 3.0, 64), times=np.array([-2.0, -1.9]),
                  phi=np.zeros((2, 64)), dtphi=np.zeros((2, 64)), a=0.0, delta=0.1,
                  status="Completed", eos=EOS)
    RunHistory(**fields)
    for keys in [*_INCONSISTENT.values(), dict(delta=-0.1)]:
        with pytest.raises(InvalidParameter):
            RunHistory(**{**fields, "start": np.zeros(2, dtype=int), **keys})


def test_run_until_keeps_snapshots_up_to_breakdown():
    data = build_annulus_data(bump_seeds(c=-20.0, delta=0.2), r_grid_n=256)
    hist = run_until(data, a=0.0, eos=EOS, t_end=-1.5, points_per_delta=16,
                     r_min=1.5)
    assert hist.status == "EosDomain"
    assert -2.0 < hist.last_good_time == hist.times[-1] < -1.5
    assert hist.phi.shape == hist.dtphi.shape
    assert hist.phi.shape[:1] == hist.start.shape == hist.times.shape
    assert np.all(np.isfinite(hist.phi)) and np.all(np.isfinite(hist.dtphi))


def test_breakdown_keeps_the_last_state_reached(monkeypatch):
    """A run that breaks down between snapshots stores the state after its last
    good step, so last_good_time is the time reached, not the snapshot before."""
    reached, step = [], radial.advance

    def recording(t, r, y, *args):
        out = step(t, r, y, *args)
        reached.append((out[0], r, out[1][0]))
        return out

    monkeypatch.setattr(radial, "advance", recording)
    data = build_annulus_data(bump_seeds(c=-20.0, delta=0.2), r_grid_n=256)
    hist = run_until(data, a=0.0, eos=EOS, t_end=-1.5, points_per_delta=16,
                     r_min=1.5)
    t, r_step, phi = reached[-1]
    assert hist.status == "EosDomain"
    assert hist.times[-2] < hist.last_good_time == t
    assert hist.last_good_time == pytest.approx(-1.91681, abs=1e-5)
    # the last snapshot is that step's state where both hold the grid point
    g0, s, w = np.searchsorted(hist.r_grid, r_step[0]), hist.start[-1], hist.phi.shape[1]
    lo, hi = max(g0, s), min(g0 + r_step.size, s + w)
    assert hi > lo and np.array_equal(hist.phi[-1, lo - s:hi - s], phi[lo - g0:hi - g0])


def test_front_speed(pulse_run):
    """The pulse front moves inward at the rest-state sound speed 1."""
    hist = pulse_run
    dr = hist.r_grid[1] - hist.r_grid[0]
    r, (_, dtphi) = _snapshot(hist, -1)
    idx = np.where(np.abs(dtphi) > 1e-8)[0]
    front = r[idx[0]]
    # the inner support edge of the seed sits at 2 + 0.1 delta
    edge = 2.0 + 0.1 * hist.delta - (hist.times[-1] + 2.0)
    assert edge - 8.0 * dr <= front <= edge + dr


def test_domain_of_dependence(pulse_run):
    """Interior of the backward light cone stays identically trivial."""
    hist = pulse_run
    dr = hist.r_grid[1] - hist.r_grid[0]
    for k in range(0, len(hist.times), len(hist.times) // 8):
        r, (phi, _) = _snapshot(hist, k)
        mask = r < 2.0 - (hist.times[k] + 2.0) - 3.0 * dr
        assert np.any(mask)
        assert np.max(np.abs(phi[mask])) <= 1e-10


def test_energy_functional_nearly_nonincreasing(pulse_run):
    hist = pulse_run
    e0 = energy_functional(*_snapshot(hist, 0), EOS, 0.0)
    e1 = energy_functional(*_snapshot(hist, -1), EOS, 0.0)
    assert e1 <= e0 * (1.0 + 1e-3)


def test_damped_energy_decays_at_rate_a():
    """Under damping a the energy decays like e^{-a(t+2)}, so a pulse's
    amplitude decays at rate a/2: along a delta = 0.05 pulse, the energy of
    each stored window over its value at t = -2 follows e^{-a(t+2)} to 2e-3
    (8.6e-4 at most), while rate a/2 misses it by at least 2e-2."""
    data = build_annulus_data(bump_seeds(c=1.0, delta=0.05))
    for a in (0.25, 0.5, 1.0):
        hist = run_until(data, a=a, eos=EOS, t_end=-1.6, points_per_delta=32, r_min=1.4)
        energy = np.array([energy_functional(*_snapshot(hist, k), EOS, a)
                           for k in range(len(hist.times))])
        decay = energy / energy[0]
        assert np.max(np.abs(decay * np.exp(a * (hist.times + 2.0)) - 1.0)) <= 2e-3
        assert np.max(np.abs(decay * np.exp(0.5 * a * (hist.times + 2.0)) - 1.0)) >= 2e-2


def test_run_until_ends_non_finite_when_its_first_right_hand_side_overflows():
    """A Chaplygin pulse of c = 1e150 overflows the first right-hand side:
    _stage raises NonFiniteField, and run_until ends NonFinite with its
    message and the one snapshot at t = -2."""
    data = build_annulus_data(bump_seeds(c=1e150, delta=0.1), r_grid_n=256)
    hist = run_until(data, a=0.0, eos=make_chaplygin(), t_end=-1.9, points_per_delta=16,
                     r_min=1.6)
    assert hist.status == "NonFinite"
    assert hist.message == "non-finite right-hand side at t=-2.000000"
    assert len(hist.times) == 1 and hist.last_good_time == -2.0


def test_second_derivative_growth(pulse_run):
    """max |d2phi/dr2| increases monotonically while the pulse steepens."""
    hist = pulse_run
    dr = hist.r_grid[1] - hist.r_grid[0]
    n = len(hist.times)
    maxima = []
    for k in range(int(0.8 * n), n, 10):
        _, (phi, _) = _snapshot(hist, k)
        d2 = np.diff(phi, 2) / dr**2
        maxima.append(np.max(np.abs(d2)))
    assert all(b > a for a, b in zip(maxima, maxima[1:]))


def test_smallness_propagation():
    """sup |dtphi| and sup |phi| scale like delta at fixed pre-shock time."""
    sups = {}
    for delta in (0.1, 0.05):
        data = build_annulus_data(bump_seeds(c=0.5, delta=delta), r_grid_n=512)
        hist = run_until(data, a=0.0, eos=EOS, t_end=-1.8,
                         points_per_delta=32, r_min=1.6)
        _, (phi, dtphi) = _snapshot(hist, -1)       # at t_end = -1.8
        sups[delta] = (np.max(np.abs(dtphi)), np.max(np.abs(phi)))
    assert sups[0.05][0] / sups[0.1][0] == pytest.approx(0.5, abs=0.15)
    # phi carries an extra factor delta
    assert sups[0.05][1] / sups[0.1][1] == pytest.approx(0.25, abs=0.1)


def test_self_convergence():
    """Grid doubling shrinks the pre-shock error by >= 8x (>= 3rd order)."""
    data = build_annulus_data(bump_seeds(c=0.5, delta=0.1), r_grid_n=512)
    sols = {}
    for ppd in (16, 32, 64):
        hist = run_until(data, a=0.0, eos=EOS, t_end=-1.8,
                         points_per_delta=ppd, r_min=1.6)
        r, (phi, _) = _snapshot(hist, -1)       # at t_end = -1.8
        sols[ppd] = (r, phi)
    r_fine, phi_fine = sols[64]
    errs = []
    for ppd in (16, 32):
        r, phi = sols[ppd]
        inside = (r >= r_fine[0]) & (r <= r_fine[-1])     # the fine run's stored window
        errs.append(np.max(np.abs(phi - np.interp(r, r_fine, phi_fine))[inside]))
    assert errs[0] / errs[1] >= 8.0


# The stage as it was written before its in-place trims, kept verbatim as the
# reference they must reproduce bit for bit.
_REF_D1_CENTRAL = np.array([-1.0, 8.0, 0.0, -8.0, 1.0])
_REF_D2_CENTRAL = np.array([-1.0, 16.0, -30.0, 16.0, -1.0])


def _ref_central(f, stencil):
    return np.convolve(f.ravel(), stencil, "same").reshape(f.shape)


def _ref_d1(f, dx):
    out = _ref_central(f, _REF_D1_CENTRAL)
    out[..., :2] = f[..., :6] @ _D1_LO
    out[..., -2:] = f[..., -6:] @ _D1_HI
    out /= 12 * dx
    return out


def _ref_d2(f, dx):
    out = _ref_central(f, _REF_D2_CENTRAL)
    out /= 12 * dx**2
    out[..., :2] = f[..., :8] @ _D2_LO / dx**2
    out[..., -2:] = f[..., -8:] @ _D2_HI / dx**2
    return out


def _ref_fields(r, y, a, eos, dr=None):
    dr = r[1] - r[0] if dr is None else dr
    phi, dtphi = y
    dphi, ddtphi = _ref_d1(y, dr)
    d2phi = _ref_d2(phi, dr)
    h = dtphi - 0.5 * dphi**2 + a * phi
    eta_sq = eos.eta_sq(h)
    dtt = (2.0 * dphi * ddtphi + eta_sq * (d2phi + 2.0 * dphi / r)
           - dphi**2 * d2phi - a * (dtphi - dphi**2))
    return dphi, ddtphi, d2phi, h, eta_sq, dtt


def _ref_stage(t, r, y, a, eos):
    try:
        dphi, ddtphi, _, _, eta_sq, dtt = _ref_fields(r, y, a, eos)
    except OutOfDomain as exc:
        raise OutOfDomain(f"{exc} at t={t:.6f}") from None
    rhs = np.empty_like(y)
    rhs[0] = y[1]
    rhs[1] = dtt
    rhs[:, :_N_PIN] = 0.0
    lam = np.sqrt(eta_sq[-2:]) - dphi[-2:]
    rhs[1, -2:] = -lam * (ddtphi[-2:] + y[1, -2:] / r[-2:])
    if not np.isfinite(rhs).all():
        raise NonFiniteField(f"non-finite right-hand side at t={t:.6f}")
    return rhs, eta_sq, dphi


def _outcome(fn, *args):
    """The bytes of every returned array, or the error raised."""
    try:
        return [np.asarray(x).tobytes() for x in fn(*args)]
    except (OutOfDomain, NonFiniteField) as exc:
        return type(exc), str(exc)


_STAGE_EOS = [EOS, make_polytropic(1.4), make_chaplygin(),
              make_custom(np.linspace(-0.5, 0.5, 41), np.exp(np.linspace(-0.5, 0.5, 41)))]


@settings(deadline=None, max_examples=200)
@given(eos=st.sampled_from(_STAGE_EOS), a=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
       n=st.integers(8, 160), r0=st.floats(0.05, 2.0), width=st.floats(0.1, 3.0),
       amp=st.lists(st.floats(-0.2, 0.2), min_size=2, max_size=2),
       centre=st.floats(0.0, 1.0), cut=st.floats(0.0, 1.0), own_dr=st.booleans())
def test_stage_trims_match_reference_bytes(eos, a, n, r0, width, amp, centre, cut, own_dr):
    """_fields and _stage give the reference's bytes, sign of zero included,
    on smooth states that vanish identically ahead of a cut, as pulses do."""
    r = r0 + width / n * np.arange(n)
    s = (r - r0) / width
    bump = np.exp(-((s - centre) / 0.3) ** 2) * (s >= cut)
    y = np.stack((amp[0] * bump * s, amp[1] * bump * np.cos(5.0 * s)))
    dr = width / n if own_dr else None
    assert _outcome(_fields, r, y, a, eos, dr) == _outcome(_ref_fields, r, y, a, eos, dr)
    assert _outcome(_stage, -1.5, r, y, a, eos) == _outcome(_ref_stage, -1.5, r, y, a, eos)


def _ref_step(r, y, t, dt, a, eos):
    """One RK4 step from the reference stage, with its stages combined as
    y + dt/6 (k1 + 2 k2 + 2 k3 + k4) in fresh arrays."""
    def f(ts, ys):
        return _ref_stage(ts, r, ys, a, eos)[0]
    k1 = f(t, y)
    k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = f(t + dt, y + dt * k3)
    y_new = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    if not np.isfinite(y_new).all():
        raise NonFiniteField(f"non-finite field after step to t={t + dt:.6f}")
    return t + dt, y_new[0], y_new[1]


def _step_outcome(step, *args):
    try:
        return [np.asarray(x).tobytes() for x in step(*args)]
    except (OutOfDomain, NonFiniteField) as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=200)
@given(eos=st.sampled_from(_STAGE_EOS), a=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
       n=st.integers(8, 160), r0=st.floats(0.05, 2.0), width=st.floats(0.1, 3.0),
       amp=st.lists(st.floats(-0.2, 0.2), min_size=2, max_size=2),
       centre=st.floats(0.0, 1.0), cut=st.floats(0.0, 1.0), span=st.floats(0.05, 20.0),
       view=st.booleans())
def test_advance_matches_reference_step_bytes(eos, a, n, r0, width, amp, centre, cut, span,
                                              view):
    """advance gives the bytes of an RK4 step built from the reference stage and
    the plain stage combination, sign of zero included, or raises the same
    breakdown, on cut states as above, also when the state is a window view
    of a wider array, as run_until passes it, and leaves the state as it
    was.  Its dt follows from the reference's speed: the span to t_end (span
    CFL steps) over the fewest CFL steps that cover it, and a step that
    covers the span ends at t_end exactly."""
    r = r0 + width / n * np.arange(n)
    s = (r - r0) / width
    bump = np.exp(-((s - centre) / 0.3) ** 2) * (s >= cut)
    y = np.stack((amp[0] * bump * s, amp[1] * bump * np.cos(5.0 * s)))
    try:
        dphi, _, _, _, eta_sq, _ = _ref_fields(r, y, a, eos)
        speed = float(np.max(np.sqrt(eta_sq) + np.abs(dphi)))
    except OutOfDomain:
        speed = 1.0     # the first stage breaks down on both sides
    t, t_end = -1.5, -1.5 + span * _CFL * (r[1] - r[0]) / speed
    steps = math.ceil((t_end - t) / (_CFL * (r[1] - r[0]) / speed))
    state = np.zeros((2, n + 5))[:, 2:n + 2] if view else np.empty_like(y)
    state[...] = y

    def step(*_):
        t_new, y_new = advance(t, r, state, a, eos, t_end)
        return t_new, y_new[0], y_new[1]

    def ref_step(*_):
        t_new, phi, dtphi = _ref_step(r, y, t, (t_end - t) / steps, a, eos)
        return t_end if steps == 1 else t_new, phi, dtphi

    assert _step_outcome(step) == _step_outcome(ref_step)
    assert np.array_equal(state, y)


def _reference_run(data, a, eos, r, t_end, sample_dt):
    """Full-grid solve through the public advance: a step is stored when a
    multiple of sample_dt after -2 lies in it, or ends the run."""
    t, y = -2.0, np.stack((data.phi_at(r), data.dtphi_at(r)))
    multiples = np.arange(-2.0, t_end, sample_dt)
    times, ys = [t], [y]
    while t < t_end:
        t_prev = t
        t, y = advance(t, r, y, a, eos, t_end)
        if t == t_end or np.any((multiples > t_prev) & (multiples <= t)):
            times.append(t)
            ys.append(y)
    ys = np.array(ys)
    return np.array(times), ys[:, 0], ys[:, 1]


@pytest.fixture(scope="module")
def window_data():
    return build_annulus_data(bump_seeds(c=1.0, delta=0.05), r_grid_n=512)


@pytest.mark.parametrize("eos", [EOS, make_chaplygin()], ids=["polytropic", "chaplygin"])
@pytest.mark.parametrize("a", [0.0, 0.3])
def test_run_until_matches_full_grid_advance(window_data, eos, a):
    """The active-window solve agrees with full-grid RK4 steps to round-off."""
    hist = run_until(window_data, a=a, eos=eos, t_end=-1.7, points_per_delta=16,
                     r_min=1.2, sample_dt=0.01)
    times, phi, dtphi = _reference_run(window_data, a, eos, hist.r_grid, -1.7, 0.01)
    assert hist.status == "Completed"
    assert hist.times.shape == times.shape
    assert np.max(np.abs(hist.times - times)) <= 1e-12    # the solver's sample tolerance
    cols = hist.start[:, None] + np.arange(hist.phi.shape[1])     # the stored windows
    for got, want in ((hist.phi, phi), (hist.dtphi, dtphi)):
        assert np.max(np.abs(got - np.take_along_axis(want, cols, axis=1))) <= (
            1e-9 * np.max(np.abs(want)))


@pytest.mark.parametrize("sample_dt, t_end", [(0.01, -1.7), (1e-4, -1.9), (0.01, -1.9995)],
                         ids=["sparse", "below-step", "one-step"])
def test_run_until_step_rule(window_data, monkeypatch, sample_dt, t_end):
    """No step is longer than the CFL step, none shorter than half of it unless
    the run is shorter than one step; a snapshot is the first step at or after
    each multiple of sample_dt after -2, at most one per step, and the last
    one is at t_end exactly.  The CFL step is _CFL dr / max(eta + |v_r|), from
    the pointwise fields of the state each step starts from."""
    recorded, step = [], radial.advance

    def recording(t, r, y, a, eos, t_end):
        dphi, _, _, _, eta_sq, _ = _fields(r, y, a, eos)
        out = step(t, r, y, a, eos, t_end)
        recorded.append((t, out[0], _CFL * (r[1] - r[0]) / np.max(np.sqrt(eta_sq)
                                                                  + np.abs(dphi))))
        return out

    monkeypatch.setattr(radial, "advance", recording)
    hist = run_until(window_data, a=0.3, eos=EOS, t_end=t_end, points_per_delta=16,
                     r_min=1.2, sample_dt=sample_dt)
    start, end, limit = map(np.array, zip(*recorded))
    # dt read back as end - start carries the rounding of end, half an ulp
    dt, ulp = end - start, np.abs(np.spacing(end))
    assert hist.status == "Completed"
    assert start[0] == -2.0 and np.array_equal(start[1:], end[:-1]) and end[-1] == t_end
    assert np.all(dt <= limit + ulp)
    if len(dt) > 1:
        assert np.all(dt >= 0.5 * limit - ulp)
    else:
        assert t_end + 2.0 < limit[0]

    times = hist.times
    assert times[0] == -2.0 and times[-1] == t_end and np.all(np.diff(times) > 0.0)
    multiples = np.arange(-2.0, t_end, sample_dt)
    due = [b == t_end or np.any((multiples > a) & (multiples <= b)) for a, b in zip(start, end)]
    assert np.array_equal(times[1:], end[due])
    if sample_dt < dt.min():
        assert len(times) == len(dt) + 1


def test_points_ahead_of_window_stay_zero(window_data):
    """The stored window reaches from _MARGIN points ahead of the incoming front,
    every stored point ahead of that being exactly zero, to _TRAIL points
    behind the trailing characteristic or the grid's end."""
    hist = run_until(window_data, a=0.3, eos=EOS, t_end=-1.7, points_per_delta=16,
                     r_min=1.2, sample_dt=0.01)
    r = hist.r_grid
    dr = r[1] - r[0]
    live = (window_data.phi_at(r) != 0.0) | (window_data.dtphi_at(r) != 0.0)
    front, back = np.flatnonzero(live)[0], np.searchsorted(r, window_data.r_grid[-1])
    width = hist.phi.shape[1]
    assert width == back - front + _MARGIN + _TRAIL < r.size
    for t, first, phi, dtphi in zip(hist.times, hist.start, hist.phi, hist.dtphi):
        # the front moves inward at the rest-state sound speed 1
        shift = (t + 2.0) / dr
        assert first <= front - shift - _MARGIN
        assert first + width >= min(r.size, back - shift + _TRAIL - 1)
        ahead = first + np.arange(width) < front - shift - _MARGIN
        assert np.all(phi[ahead] == 0.0) and np.all(dtphi[ahead] == 0.0)


_TABLE_H = np.linspace(-0.5, 0.5, 101)


@pytest.mark.parametrize(
    "eos", [EOS, make_chaplygin(), make_custom(_TABLE_H, 1.0 + _TABLE_H)],
    ids=["polytropic", "chaplygin", "custom"])
def test_history_save_load_round_trip(tmp_path, eos):
    data = build_annulus_data(bump_seeds(c=1.0, delta=0.1), r_grid_n=256)
    hist = run_until(data, a=0.0, eos=eos, t_end=-1.9, points_per_delta=16,
                     r_min=1.6)
    path = tmp_path / "run.npz"
    hist.save(path)
    with np.load(path) as z:     # one eos_<field> key per field of the record
        assert {k for k in z.files if k.startswith("eos_")} == {
            f"eos_{k}" for k in eos.record()}
    loaded = RunHistory.load(path)
    assert np.array_equal(loaded.phi, hist.phi)
    assert np.array_equal(loaded.dtphi, hist.dtphi)
    assert np.array_equal(loaded.times, hist.times)
    assert loaded.status == hist.status
    assert loaded.message == hist.message == ""
    assert loaded.eos.record() == hist.eos.record() == eos.record()
    assert loaded.delta == hist.delta
    # the reloaded EOS record rebuilds the same equation of state
    bundle = trace_rays(loaded, ray_count=33)
    reference = trace_rays(hist, ray_count=33, eos=eos)
    assert len(bundle.times) == len(hist.times)
    assert np.array_equal(bundle.mu_transport, reference.mu_transport)


@pytest.mark.parametrize(
    "eos", [EOS, make_chaplygin(), make_custom(_TABLE_H, 1.0 + _TABLE_H)],
    ids=["polytropic", "chaplygin", "custom"])
def test_history_file_in_the_older_eos_layout_loads(tmp_path, eos):
    """Files written before a history carried its EOS hold eos_family, an
    eos_gamma that is NaN for Chaplygin and custom runs, and a custom run's
    eos_h_table and eos_eta_sq_table; they load with the same EOS record."""
    tables = {f"eos_{k}": getattr(eos, k) for k in ("h_table", "eta_sq_table")
              if getattr(eos, k) is not None}
    gamma = np.nan if eos.gamma is None else eos.gamma
    _history_file(tmp_path / "older.npz", eos_family=eos.family, eos_gamma=gamma, **tables)
    assert RunHistory.load(tmp_path / "older.npz").eos.record() == eos.record()


_BUNDLE_FIELDS = ("times", "r", "mu_spacing", "mu_transport")


def _same_bundle(one, other):
    return all(np.array_equal(getattr(one, k), getattr(other, k)) for k in _BUNDLE_FIELDS)


def _uncut(run, *args, **kwargs):
    """run(*args, **kwargs) with the trailing cut past the grid's end: the
    whole grid is evolved and stored, start 0, as before the cut."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(radial, "_TRAIL", 10**9)
        return run(*args, **kwargs)


@pytest.mark.parametrize(
    "eos", [EOS, make_chaplygin(), make_custom(_TABLE_H, 1.0 + _TABLE_H)],
    ids=["polytropic", "chaplygin", "custom"])
def test_windowed_history_round_trip(tmp_path, eos):
    """A history that stores only the window saves and loads back, start
    included, and traces the same bundle as before saving."""
    data = build_annulus_data(bump_seeds(c=1.0, delta=0.1), r_grid_n=256)
    hist = run_until(data, a=0.2, eos=eos, t_end=-1.2, points_per_delta=16, r_min=0.5)
    assert hist.phi.shape[1] < hist.r_grid.size and len(set(hist.start)) > 1
    hist.save(tmp_path / "run.npz")
    loaded = RunHistory.load(tmp_path / "run.npz")
    for name in ("r_grid", "times", "phi", "dtphi", "start"):
        assert np.array_equal(getattr(loaded, name), getattr(hist, name)), name
    assert loaded.eos.record() == hist.eos.record()
    assert _same_bundle(trace_rays(loaded, ray_count=33), trace_rays(hist, ray_count=33, eos=eos))


def test_whole_grid_history_file_loads_with_start_zero(tmp_path):
    """A history file in the whole-grid layout, with no start key, loads with
    start 0 and traces the bundle of the windowed solve bit for bit."""
    data = build_annulus_data(bump_seeds(c=1.0, delta=0.1), r_grid_n=256)
    args = dict(a=0.2, eos=EOS, t_end=-1.2, points_per_delta=16, r_min=0.5)
    full, windowed = _uncut(run_until, data, **args), run_until(data, **args)
    assert full.phi.shape[1] == full.r_grid.size > windowed.phi.shape[1]
    full.save(tmp_path / "full.npz")
    with np.load(tmp_path / "full.npz") as z:
        older = {k: z[k] for k in z.files if k != "start"}
    np.savez(tmp_path / "older.npz", **older)
    loaded = RunHistory.load(tmp_path / "older.npz")
    assert np.array_equal(loaded.start, np.zeros(len(loaded.times), dtype=int))
    assert np.array_equal(loaded.phi, full.phi)
    assert _same_bundle(trace_rays(loaded, ray_count=33), trace_rays(windowed, ray_count=33))


@settings(deadline=None, max_examples=8)
@given(eos=st.one_of(st.floats(1.2, 5.0).map(make_polytropic), st.just(make_chaplygin())),
       a=st.floats(-0.25, 0.5), c=st.floats(-1.0, 1.0).filter(lambda c: c != 0.0))
def test_cut_solve_traces_the_uncut_bundle(eos, a, c):
    """Behind the trailing characteristic nothing reaches the rays: the solve cut
    _TRAIL points behind it traces the uncut solve's bundle bit for bit."""
    data = build_annulus_data(bump_seeds(c=c, delta=0.1), r_grid_n=256)
    args = dict(a=a, eos=eos, t_end=-0.6, points_per_delta=16, r_min=0.2, sample_dt=0.01)
    cut = run_until(data, **args)
    full = _uncut(run_until, data, **args)
    assert cut.start[-1] + cut.phi.shape[1] < cut.r_grid.size     # the cut bites
    assert cut.status == full.status
    assert _same_bundle(trace_rays(cut, ray_count=33, eos=eos),
                        trace_rays(full, ray_count=33, eos=eos))


_QUARTIC = st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5)


@settings(deadline=None)
@given(p_coef=_QUARTIC, q_coef=_QUARTIC, log2_dx=st.integers(-7, -2),
       start=st.integers(-64, 64), n=st.integers(8, 48))
def test_stencils_are_exact_on_quartics(p_coef, q_coef, log2_dx, start, n):
    """d1 and d2 are exact to round-off on polynomials of degree <= 4 at every
    grid point, the one-sided edge rows included, on a stacked pair of rows."""
    dx = 2.0**log2_dx
    x = dx * (start + np.arange(n))           # exactly representable grid
    polys = [np.polynomial.Polynomial(c) for c in (p_coef, q_coef)]
    f = np.stack([p(x) for p in polys])
    # round-off scale: the largest term of the polynomials on the grid
    scale = max(1.0, float(np.max(np.abs(x)))) ** 4 * 5.0
    for k, deriv in ((1, d1), (2, d2)):
        exact = np.stack([p.deriv(k)(x) for p in polys])
        assert np.max(np.abs(deriv(f, dx) - exact)) <= 1e-12 * scale / dx**k
