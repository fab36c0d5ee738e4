"""Radial solver tests: RHS oracles, propagation, convergence, breakdown."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charshock.eos import make_chaplygin, make_custom, make_polytropic
from charshock.errors import CflViolation, ConfigInvalid, EosDomain
from charshock.foliation import trace_rays
from charshock.radial import (
    _MARGIN,
    _time_stencil,
    RadialField,
    RunHistory,
    advance,
    d1,
    d2,
    energy_functional,
    radial_rhs,
    run_until,
)
from charshock.shortpulse import build_annulus_data, bump_seeds

EOS = make_polytropic(2.0)


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
    rhs_phi, rhs_dtphi = radial_rhs(fld, a=0.3, eos=EOS)
    assert np.all(rhs_phi == 0.0)
    assert np.all(rhs_dtphi == 0.0)


def test_harmonic_profile_rhs_quadratic_in_amplitude():
    """phi = eps/r is harmonic: the static RHS is O(eps^2)."""
    r = np.linspace(1.0, 3.0, 2001)
    sups = []
    for eps in (1e-2, 1e-3):
        fld = RadialField(t=-2.0, r_grid=r, phi=eps / r,
                          dtphi=np.zeros_like(r))
        _, rhs_dtphi = radial_rhs(fld, a=0.0, eos=EOS)
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
    _, dtt_radial = radial_rhs(fld, a=a_damp, eos=EOS)

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
        radial_rhs(fld, a=0.0, eos=make_chaplygin())   # h = 0.6 >= 1/2


def test_cfl_violation():
    r = np.linspace(1.0, 3.0, 200)
    fld = RadialField(t=-2.0, r_grid=r, phi=np.zeros_like(r),
                      dtphi=np.zeros_like(r))
    with pytest.raises(CflViolation):
        advance(fld, dt=0.5, a=0.0, eos=EOS)


def test_run_until_records_breakdown(tmp_path):
    """Data outside the EOS domain terminates with status, message and last
    time; save/load keep the message, and files without one load with ""."""
    data = build_annulus_data(bump_seeds(c=-60.0, delta=0.2), r_grid_n=512)
    hist = run_until(data, a=0.0, eos=EOS, t_end=-1.9, points_per_delta=16,
                     r_min=1.5)
    assert hist.status == "EosDomain"
    assert hist.last_good_time == -2.0
    assert hist.message.startswith("enthalpy outside") and hist.message.endswith("t=-2.000000")
    hist.save(tmp_path / "broke.npz")
    assert RunHistory.load(tmp_path / "broke.npz").message == hist.message
    with np.load(tmp_path / "broke.npz") as z:
        older = {k: z[k] for k in z.files if k != "message"}
    np.savez(tmp_path / "older.npz", **older)
    assert RunHistory.load(tmp_path / "older.npz").message == ""


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
    assert hist.phi.shape == hist.dtphi.shape == (len(hist.times), hist.r_grid.size)
    assert np.all(np.isfinite(hist.phi)) and np.all(np.isfinite(hist.dtphi))


def test_front_speed(pulse_run):
    """The pulse front moves inward at the rest-state sound speed 1."""
    hist = pulse_run
    dr = hist.r_grid[1] - hist.r_grid[0]
    fld = hist.frame(hist.times[-1])
    idx = np.where(np.abs(fld.dtphi) > 1e-8)[0]
    front = hist.r_grid[idx[0]]
    # the inner support edge of the seed sits at 2 + 0.1 delta
    edge = 2.0 + 0.1 * hist.delta - (fld.t + 2.0)
    assert edge - 8.0 * dr <= front <= edge + dr


def test_domain_of_dependence(pulse_run):
    """Interior of the backward light cone stays identically trivial."""
    hist = pulse_run
    dr = hist.r_grid[1] - hist.r_grid[0]
    for t in hist.times[:: len(hist.times) // 8]:
        fld = hist.frame(float(t))
        mask = hist.r_grid < 2.0 - (t + 2.0) - 3.0 * dr
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
        sols[ppd] = (hist.r_grid, fld.phi)
    r_fine, phi_fine = sols[64]
    errs = []
    for ppd in (16, 32):
        r, phi = sols[ppd]
        errs.append(np.max(np.abs(phi - np.interp(r, r_fine, phi_fine))))
    assert errs[0] / errs[1] >= 8.0


def _reference_run(data, a, eos, r, t_end, sample_dt, cfl=0.4):
    """Full-grid solve through the public advance, dt from derived()."""
    fld = RadialField(-2.0, r, data.phi_at(r), data.dtphi_at(r))
    sample_times = np.arange(-2.0, t_end + 1e-12, sample_dt)
    if sample_times[-1] < t_end - 1e-12:
        sample_times = np.append(sample_times, t_end)
    times, phis, dtphis = [fld.t], [fld.phi], [fld.dtphi]
    while fld.t < t_end - 1e-12:
        der = fld.derived(eos, a)
        speed = np.max(np.sqrt(der["eta_sq"]) + np.abs(der["v_r"]))
        dt = min(cfl * (r[1] - r[0]) / speed, sample_times[len(times)] - fld.t)
        fld = advance(fld, dt, a, eos)
        if fld.t >= sample_times[len(times)] - 1e-12:
            times.append(fld.t)
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
    for got, want in ((hist.phi, phi), (hist.dtphi, dtphi)):
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_points_ahead_of_window_stay_zero(window_data):
    hist = run_until(window_data, a=0.3, eos=EOS, t_end=-1.7, points_per_delta=16,
                     r_min=1.2, sample_dt=0.01)
    r = hist.r_grid
    dr = r[1] - r[0]
    live = (window_data.phi_at(r) != 0.0) | (window_data.dtphi_at(r) != 0.0)
    front = np.flatnonzero(live)[0]
    for t, phi, dtphi in zip(hist.times, hist.phi, hist.dtphi):
        # the front moves inward at the rest-state sound speed 1
        ahead = np.arange(r.size) < front - (t + 2.0) / dr - _MARGIN
        assert np.any(ahead)
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
                      dtphi=dtphi, a=0.0, delta=0.1, status="Completed",
                      last_good_time=float(times[-1]))
    fld = hist.frame(float(times[k]))
    assert np.array_equal(fld.phi, phi[k])
    assert np.array_equal(fld.dtphi, dtphi[k])


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
