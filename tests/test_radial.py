"""Radial solver tests: RHS oracles, propagation, convergence, breakdown."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charshock import radial
from charshock.eos import make_chaplygin, make_custom, make_polytropic
from charshock.errors import (CflViolation, ConfigInvalid, EosDomain, InvalidParameter,
                              NonFiniteField, OutOfDomain)
from charshock.foliation import trace_rays
from charshock.radial import (
    _D1_HI,
    _D1_LO,
    _D2_HI,
    _D2_LO,
    _MARGIN,
    _N_PIN,
    _TRAIL,
    _fields,
    _stage,
    _time_stencil,
    RadialField,
    RunHistory,
    advance,
    d1,
    d2,
    energy_functional,
    run_until,
)
from charshock.shortpulse import build_annulus_data, bump_seeds

EOS = make_polytropic(2.0)


def _rhs(fld, a, eos):
    """(d phi/dt, d dtphi/dt) of a field, from the solver stage."""
    return _stage(fld.t, fld.r_grid, np.stack((fld.phi, fld.dtphi)), a, eos)[0]


@pytest.fixture(scope="module")
def pulse_run():
    """Small reference run shared by several tests."""
    data = build_annulus_data(bump_seeds(c=1.0, delta=0.05), r_grid_n=512)
    return run_until(data, a=0.0, eos=EOS, t_end=-1.7, r_min=1.35,
                     sample_dt=0.0025)


def test_zero_field_is_stationary():
    r = np.linspace(0.5, 3.0, 400)
    fld = RadialField(t=-2.0, r_grid=r, phi=np.zeros_like(r),
                      dtphi=np.zeros_like(r))
    rhs_phi, rhs_dtphi = _rhs(fld, 0.3, EOS)
    assert np.all(rhs_phi == 0.0)
    assert np.all(rhs_dtphi == 0.0)


def test_harmonic_profile_rhs_quadratic_in_amplitude():
    """phi = eps/r is harmonic: the static RHS is O(eps^2)."""
    r = np.linspace(1.0, 3.0, 2001)
    sups = []
    for eps in (1e-2, 1e-3):
        fld = RadialField(t=-2.0, r_grid=r, phi=eps / r,
                          dtphi=np.zeros_like(r))
        _, rhs_dtphi = _rhs(fld, 0.0, EOS)
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
    fld = RadialField(t=-2.0, r_grid=r, phi=phi_f(r), dtphi=dtphi_f(r))
    _, dtt_radial = _rhs(fld, a_damp, EOS)

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
    fld = RadialField(t=-2.0, r_grid=r, phi=np.zeros_like(r),
                      dtphi=np.full_like(r, 0.6))
    with pytest.raises(EosDomain):
        _rhs(fld, 0.0, make_chaplygin())   # h = 0.6 >= 1/2


def test_cfl_violation():
    r = np.linspace(1.0, 3.0, 200)
    fld = RadialField(t=-2.0, r_grid=r, phi=np.zeros_like(r),
                      dtphi=np.zeros_like(r))
    with pytest.raises(CflViolation):
        advance(fld, dt=0.5, a=0.0, eos=EOS)



@pytest.mark.parametrize("dt, n", [(-1e-3, 200), (0.0, 200), (float("nan"), 200),
                                   (float("inf"), 200), (1e-4, 7), (1e-4, 6)],
                         ids=["negative", "zero", "nan", "inf", "7-points", "6-points"])
def test_advance_rejects_bad_inputs(dt, n):
    """advance needs a positive finite dt and the stencils' 8 grid points, as run_until."""
    r = np.linspace(1.0, 3.0, n)
    fld = RadialField(t=-2.0, r_grid=r, phi=np.zeros_like(r), dtphi=np.zeros_like(r))
    with pytest.raises(InvalidParameter):
        advance(fld, dt=dt, a=0.0, eos=EOS)

_BAD_INPUTS = [
    ({"cfl": 0.0}, CflViolation),
    ({"cfl": -1.0}, CflViolation),
    ({"cfl": 0.95}, CflViolation),
    ({"cfl": float("nan")}, CflViolation),
    ({"t_end": 0.0}, InvalidParameter),
    ({"t_end": -2.0}, InvalidParameter),
    ({"t_end": -3.0}, InvalidParameter),
    ({"points_per_delta": 0}, InvalidParameter),
    ({"sample_dt": 0.0}, InvalidParameter),
    ({"sample_dt": -1.0}, InvalidParameter),
    ({"r_min": 5.0}, InvalidParameter),
    ({"r_min": 3.0, "pad": -0.1}, InvalidParameter),
    ({"a": float("nan")}, InvalidParameter),
]


@pytest.mark.parametrize("kwargs, error", _BAD_INPUTS, ids=[
    ",".join(f"{k}={v}" for k, v in kw.items()) for kw, _ in _BAD_INPUTS])
def test_run_until_rejects_bad_inputs(kwargs, error):
    """Bad solver inputs raise on entry instead of hanging, stepping backward
    in time or failing inside the step loop."""
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


def test_history_load_rejects_other_files(tmp_path):
    np.savez(tmp_path / "partial.npz", r_grid=np.linspace(1.0, 2.0, 8))
    (tmp_path / "run.json").write_text("{}")
    for name in ("partial.npz", "run.json"):
        with pytest.raises(ConfigInvalid, match=name):
            RunHistory.load(tmp_path / name)


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

    def recording(fld, dt, a, eos):
        out = step(fld, dt, a, eos)
        reached.append((out.t, out.r_grid, out.phi))
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
    fld = hist.frame(hist.times[-1])
    idx = np.where(np.abs(fld.dtphi) > 1e-8)[0]
    front = fld.r_grid[idx[0]]
    # the inner support edge of the seed sits at 2 + 0.1 delta
    edge = 2.0 + 0.1 * hist.delta - (fld.t + 2.0)
    assert edge - 8.0 * dr <= front <= edge + dr


def test_domain_of_dependence(pulse_run):
    """Interior of the backward light cone stays identically trivial."""
    hist = pulse_run
    dr = hist.r_grid[1] - hist.r_grid[0]
    for t in hist.times[:: len(hist.times) // 8]:
        fld = hist.frame(float(t))
        mask = fld.r_grid < 2.0 - (t + 2.0) - 3.0 * dr
        assert np.any(mask)
        assert np.max(np.abs(fld.phi[mask])) <= 1e-10


def test_energy_functional_nearly_nonincreasing(pulse_run):
    hist = pulse_run
    e0 = energy_functional(hist.frame(-2.0), EOS, 0.0)
    e1 = energy_functional(hist.frame(float(hist.times[-1])), EOS, 0.0)
    assert e1 <= e0 * (1.0 + 1e-3)


def test_second_derivative_growth(pulse_run):
    """max |d2phi/dr2| increases monotonically while the pulse steepens."""
    hist = pulse_run
    dr = hist.r_grid[1] - hist.r_grid[0]
    n = len(hist.times)
    maxima = []
    for t in hist.times[int(0.8 * n):: 10]:
        fld = hist.frame(float(t))
        d2 = np.diff(fld.phi, 2) / dr**2
        maxima.append(np.max(np.abs(d2)))
    assert all(b > a for a, b in zip(maxima, maxima[1:]))


def test_smallness_propagation():
    """sup |dtphi| and sup |phi| scale like delta at fixed pre-shock time."""
    sups = {}
    for delta in (0.1, 0.05):
        data = build_annulus_data(bump_seeds(c=0.5, delta=delta), r_grid_n=512)
        hist = run_until(data, a=0.0, eos=EOS, t_end=-1.8,
                         points_per_delta=32, r_min=1.6)
        fld = hist.frame(-1.8)
        sups[delta] = (np.max(np.abs(fld.dtphi)), np.max(np.abs(fld.phi)))
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
        fld = hist.frame(-1.8)
        sols[ppd] = (fld.r_grid, fld.phi)
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
        raise EosDomain(f"{exc} at t={t:.6f}") from None
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
       centre=st.floats(0.0, 1.0), cut=st.floats(0.0, 1.0), frac=st.floats(0.05, 1.0))
def test_advance_matches_reference_step_bytes(eos, a, n, r0, width, amp, centre, cut, frac):
    """advance gives the bytes of an RK4 step built from the reference stage and
    the plain stage combination, sign of zero included, or raises the same
    breakdown; dt is a fraction of the CFL limit, on cut states as above."""
    r = r0 + width / n * np.arange(n)
    s = (r - r0) / width
    bump = np.exp(-((s - centre) / 0.3) ** 2) * (s >= cut)
    y = np.stack((amp[0] * bump * s, amp[1] * bump * np.cos(5.0 * s)))
    try:
        dphi, _, _, _, eta_sq, _ = _ref_fields(r, y, a, eos)
        dt = frac * 0.9 * (r[1] - r[0]) / np.max(np.sqrt(eta_sq) + np.abs(dphi))
    except OutOfDomain:
        dt = 1e-4       # the first stage breaks down on both sides
    fld = RadialField(-1.5, r, y[0].copy(), y[1].copy())

    def step(*_):
        new = advance(fld, dt, a, eos)
        return new.t, new.phi, new.dtphi

    assert _step_outcome(step) == _step_outcome(_ref_step, r, y, -1.5, dt, a, eos)
    assert np.array_equal(fld.phi, y[0]) and np.array_equal(fld.dtphi, y[1])


def _reference_run(data, a, eos, r, t_end, sample_dt, cfl=0.4):
    """Full-grid solve through the public advance, dt from the pointwise fields:
    each step is the remaining time over the fewest CFL steps that cover it, and
    a step is stored when a multiple of sample_dt after -2 lies in it, or ends
    the run."""
    fld = RadialField(-2.0, r, data.phi_at(r), data.dtphi_at(r))
    multiples = np.arange(-2.0, t_end, sample_dt)
    times, phis, dtphis = [fld.t], [fld.phi], [fld.dtphi]
    t = -2.0
    while t < t_end:
        dphi, _, _, _, eta_sq, _ = _fields(r, np.stack((fld.phi, fld.dtphi)), a, eos)
        speed = np.max(np.sqrt(eta_sq) + np.abs(dphi))
        steps = math.ceil((t_end - t) / (cfl * (r[1] - r[0]) / speed))
        fld = advance(fld, (t_end - t) / steps, a, eos)
        t_prev, t = t, (t_end if steps == 1 else fld.t)
        if t == t_end or np.any((multiples > t_prev) & (multiples <= t)):
            times.append(t)
            phis.append(fld.phi)
            dtphis.append(fld.dtphi)
    return np.array(times), np.array(phis), np.array(dtphis)


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
    one is at t_end exactly."""
    cfl, recorded = 0.4, []
    step = radial.advance

    def recording(fld, dt, a, eos):
        recorded.append((fld.t, dt, fld._first_stage(a, eos)[2]))
        return step(fld, dt, a, eos)

    monkeypatch.setattr(radial, "advance", recording)
    hist = run_until(window_data, a=0.3, eos=EOS, t_end=t_end, cfl=cfl,
                     points_per_delta=16, r_min=1.2, sample_dt=sample_dt)
    start, dt, speed = map(np.array, zip(*recorded))
    limit = cfl * (hist.r_grid[1] - hist.r_grid[0]) / speed
    end = np.append(start[1:], t_end)
    assert hist.status == "Completed"
    assert start[0] == -2.0 and np.array_equal(end[:-1], start[:-1] + dt[:-1])
    assert np.all(dt <= limit)
    if len(dt) > 1:
        assert np.all(dt >= 0.5 * limit)
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
    loaded = RunHistory.load(path)
    assert np.array_equal(loaded.phi, hist.phi)
    assert np.array_equal(loaded.dtphi, hist.dtphi)
    assert np.array_equal(loaded.times, hist.times)
    assert loaded.status == hist.status
    assert loaded.message == hist.message == ""
    assert loaded.eos_meta == hist.eos_meta
    assert loaded.eos_meta["family"] == eos.family
    assert loaded.delta == hist.delta
    # the reloaded EOS record rebuilds the same equation of state
    bundle = trace_rays(loaded, ray_count=33)
    reference = trace_rays(hist, ray_count=33, eos=eos)
    assert len(bundle.times) == len(hist.times)
    assert np.array_equal(bundle.mu_transport, reference.mu_transport)


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
    assert loaded.eos_meta == hist.eos_meta
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


@st.composite
def _snapshot_times(draw):
    """2 to 12 ascending snapshot times starting in [-2, -1]."""
    steps = draw(st.lists(st.floats(0.05, 0.5), min_size=1, max_size=11))
    return draw(st.floats(-2.0, -1.0)) + np.concatenate(([0.0], np.cumsum(steps)))


@settings(deadline=None)
@given(times=_snapshot_times(), frac=st.floats(0.0, 1.0),
       coef=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_time_stencil_reproduces_cubics(times, frac, coef):
    """Weights sum to 1 and interpolate cubics exactly (lines below 4 snapshots)."""
    t = times[0] + frac * (times[-1] - times[0])
    snaps, weights = _time_stencil(times, t)
    assert abs(sum(weights) - 1.0) <= 1e-12
    p = np.polynomial.Polynomial(coef if len(times) >= 4 else coef[:2])
    values = p(times[snaps])
    scale = max(1.0, float(np.max(np.abs(values))))
    assert abs(np.dot(weights, values) - p(t)) <= 1e-12 * scale


@settings(deadline=None)
@given(times=_snapshot_times(), data=st.data())
def test_frame_at_a_snapshot_time_is_that_snapshot(times, data):
    k = data.draw(st.integers(0, len(times) - 1))
    phi, dtphi = np.random.default_rng(k).standard_normal((2, len(times), 16))
    hist = RunHistory(r_grid=np.linspace(1.0, 2.0, 16), times=times, phi=phi,
                      dtphi=dtphi, a=0.0, delta=0.1, status="Completed")
    fld = hist.frame(float(times[k]))
    assert np.array_equal(fld.phi, phi[k])
    assert np.array_equal(fld.dtphi, dtphi[k])



@pytest.mark.parametrize("offset", [-5e-13, 0.0, 5e-13])
def test_frame_of_a_one_snapshot_history_is_that_snapshot(offset):
    """A history that broke down on its first step holds one snapshot; every
    time that frame's range check admits returns it, without a warning."""
    phi, dtphi = np.random.default_rng(0).standard_normal((2, 1, 16))
    hist = RunHistory(r_grid=np.linspace(1.0, 2.0, 16), times=np.array([-2.0]), phi=phi,
                      dtphi=dtphi, a=0.0, delta=0.1, status="EosDomain")
    fld = hist.frame(-2.0 + offset)
    assert np.array_equal(fld.phi, phi[0]) and np.array_equal(fld.dtphi, dtphi[0])

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
