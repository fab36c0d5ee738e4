"""Foliation diagnostics: closed-form predictor, ray tracing, dual mu."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import expi

from charshock.eos import make_chaplygin, make_custom, make_polytropic
from charshock.errors import InvalidParameter, NoRootBeforeSigma
from charshock.foliation import (
    _ETA,
    _GROWTH,
    _MU_STOP,
    _RDOT,
    _block,
    _brentq,
    _ei,
    _sample,
    a1_integral,
    classify_largeness,
    lmu_initial,
    mu_from_spacing,
    predict_mu,
    shock_time_3d,
    trace_rays,
)
from charshock.radial import RunHistory, _fields, run_until
from charshock.shortpulse import build_annulus_data, bump_seeds

EOS = make_polytropic(2.0)


# ---------------------------------------------------------------------------
# closed-form predictor


def test_a1_integral_at_lower_limit():
    assert a1_integral(-2.0, 0.7) == 0.0


def test_a1_integral_undamped_log():
    assert a1_integral(-1.0, 0.0) == pytest.approx(np.log(2.0), abs=1e-10)
    assert a1_integral(-0.1, 0.0) == pytest.approx(np.log(20.0), abs=1e-10)


def test_a1_integral_vs_riemann_oracle():
    a, t = 1.0, -1.0
    tau = np.linspace(-2.0, t, 1_000_001)
    mid = 0.5 * (tau[1:] + tau[:-1])
    riemann = np.sum(np.exp(-a * (mid + 2.0)) / (-mid)) * (tau[1] - tau[0])
    assert a1_integral(t, a) == pytest.approx(riemann, abs=1e-10)


def test_a1_integral_singular_endpoint():
    with pytest.raises(InvalidParameter):
        a1_integral(0.0, 0.0)
    with pytest.raises(InvalidParameter):
        a1_integral(-2.5, 0.0)


@pytest.mark.parametrize("t, a", [(math.nan, 0.0), (-1.0, math.nan), (-1.0, math.inf)])
def test_a1_integral_rejects_non_finite(t, a):
    with pytest.raises(InvalidParameter):
        a1_integral(t, a)


def _a1_quad(t, a):
    """Quadrature reference for A1(t) = int_{-2}^t e^{-a(tau+2)} / (-tau) d tau."""
    return quad(lambda tau: np.exp(-a * (tau + 2.0)) / (-tau), -2.0, t,
                epsabs=1e-13, epsrel=1e-13, limit=500)[0]


@settings(deadline=None, max_examples=300)
@given(t=st.floats(-2.0, -1e-9, exclude_min=True), a=st.floats(-20.0, 20.0))
def test_a1_integral_matches_quadrature(t, a):
    ref = _a1_quad(t, a)
    assert abs(a1_integral(t, a) - ref) <= 1e-12 * max(1.0, abs(ref))


def _a1_series(t, a):
    """A1(t) for t + 2 <= 1e-3 and |a| <= 354, as the double power series of
    e^{-a s} / (2 - s) integrated over s = tau + 2 in [0, t + 2]: the terms
    fall by (t + 2)/2 <= 5e-4 in j and by |a| (t + 2)/k <= 0.354/k in k."""
    eps = t + 2.0
    return math.fsum((-a) ** k / math.factorial(k) / 2.0 ** (j + 1) * eps ** (j + k + 1)
                     / (j + k + 1) for j in range(6) for k in range(16))


@settings(deadline=None, max_examples=100)
@given(t=st.floats(-2.0, -2.0 + 1e-3, exclude_min=True), a=st.floats(-354.0, 354.0))
@example(t=-2.0 + 3e-6, a=1.0)      # the closed form was 9.5e-11 off here
def test_a1_integral_near_the_lower_limit(t, a):
    """Within 1e-3 of -2, where the closed form's two Ei values cancel, A1 keeps
    its digits: positive and within 1e-12 of its power series, down to one ulp."""
    ref = _a1_series(t, a)
    assert ref > 0.0 and abs(a1_integral(t, a) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("a", [400.0, -400.0])
@pytest.mark.parametrize("t", [-1.9, -1.5])
def test_a1_integral_falls_back_to_quadrature(t, a):
    """|a| > 354: e^{-2a} (Ei(2a) - Ei(-a t)) is not finite, quadrature answers."""
    with np.errstate(all="ignore"):
        closed = np.exp(-2.0 * a) * (expi(2.0 * a) - expi(-a * t))
    assert not math.isfinite(closed)
    assert a1_integral(t, a) == pytest.approx(_a1_quad(t, a), rel=1e-12)


@settings(deadline=None, max_examples=100)
@given(log_a=st.floats(math.log10(354.0), 300.0))
def test_a1_integral_meets_the_large_a_asymptote(log_a):
    """A1(-0.1) = 1/(2a) (1 + 1/(2a) + ...) for a from 354 to 1e300, to
    round-off: the quadrature sees the 1/a-wide spike of the integrand at
    tau = -2."""
    a = 10.0 ** log_a
    assert abs(2.0 * a * a1_integral(-0.1, a) - 1.0) <= 1.0 / a + 1e-15


@pytest.mark.parametrize("t, a, expected", [
    (-5e-324, 0.0, 745.1332191019412),       # log 2 - log(-t); 2/-t overflows
    (-1e-310, 1e-5, 714.4802562607919),      # -a t subnormal: Ei(x) = gamma + ln|x|
])
def test_a1_integral_near_the_singular_endpoint(t, a, expected):
    """References from 40-digit arithmetic."""
    assert a1_integral(t, a) == pytest.approx(expected, rel=1e-12)


@settings(deadline=None, max_examples=300)
@given(x=st.floats(-700.0, 708.0).filter(lambda x: x != 0.0)
       | st.floats(-1.0, 1.0).filter(lambda x: x != 0.0)
       | st.floats(0.3, 0.45) | st.floats(40.0, 42.0)
       | st.sampled_from([1.0, -1.0, 40.0, math.nextafter(40.0, 41.0), 5e-324, -5e-324]))
@example(x=0.37250741078136663)     # Ei's root
def test_ei_matches_scipy_expi(x):
    """_ei agrees with scipy's expi to 1e-14 relative, and to 1e-14 absolute
    for 0 < x where |Ei| < 1, around Ei's root at 0.3725 where
    gamma + ln x + Ein(x) cancels.  Above x = 40 expi's 20-term asymptotic
    series leaves out the terms from 21!/x^21 on, which sum to less than
    three times the first, so that much more is allowed there."""
    ref = float(expi(x))
    tol = 1e-14 * (max(abs(ref), 1.0) if x > 0.0 else abs(ref))
    if x > 40.0:
        tol += abs(ref) * 3.0 * math.factorial(21) / x**21
    assert abs(_ei(x) - ref) <= tol


@settings(deadline=None, max_examples=200)
@given(log_c=st.floats(math.log(0.05), math.log(50.0)), a=st.floats(-3.0, 3.0),
       sigma=st.floats(-1.99, -0.01))
def test_brentq_matches_scipy_bit_for_bit(log_c, a, sigma):
    """_brentq takes scipy's brentq steps: the same root bits for the same f,
    bracket and tolerances, and shock_time_3d returns them."""
    c = math.exp(log_c)

    def f(t):
        return c * (4.0 * a1_integral(t, a)) - 1.0

    f_sigma = f(sigma)
    if f_sigma < 0.0:
        with pytest.raises(NoRootBeforeSigma):
            shock_time_3d(c, a, sigma)
        return
    ref = brentq(f, -2.0, sigma, xtol=1e-13, rtol=8.9e-16)
    assert _brentq(f, -2.0, sigma, f(-2.0), f_sigma, xtol=1e-13, rtol=8.9e-16) == ref
    assert shock_time_3d(c, a, sigma) == ref


def test_predict_mu_trivial():
    assert predict_mu(-2.0, -1.3, 0.5) == 1.0
    assert predict_mu(-0.5, 0.0, 0.5) == 1.0


def test_shock_time_3d_undamped_closed_form():
    assert shock_time_3d(1.0, 0.0) == pytest.approx(-2.0 * np.exp(-0.25),
                                                    abs=1e-8)


def test_shock_time_3d_monotone_in_damping():
    ts = [shock_time_3d(1.0, a) for a in (-0.25, 0.0, 0.25)]
    assert ts[0] < ts[1] < ts[2]


def test_shock_time_3d_immediate_blowup_limit():
    assert shock_time_3d(1e6, 0.0) == pytest.approx(-2.0, abs=1e-3)
    assert shock_time_3d(1e6, 0.0) > -2.0


@pytest.mark.parametrize("a", [-0.5, 0.0, 0.5])
@pytest.mark.parametrize("c", [1e13, 1e16, 1e300, sys.float_info.max])
def test_shock_time_3d_answers_for_large_c(c, a):
    """Every finite c > 0 has its root in [-2, sigma]: the bracket starts at -2,
    where A1 = 0, and c (4 A1) does not overflow.  At a = 0 it is -2 e^{-1/(4c)}."""
    t_star = shock_time_3d(c, a)
    assert -2.0 <= t_star <= -0.1
    if a == 0.0:
        assert abs(t_star + 2.0 * math.exp(-0.25 / c)) <= 1e-15


def test_shock_time_3d_no_root():
    with pytest.raises(NoRootBeforeSigma):
        shock_time_3d(0.05, 0.0)          # below the shock threshold
    with pytest.raises(NoRootBeforeSigma):
        shock_time_3d(-1.0, 0.0)


def test_classify_largeness_thresholds():
    pred = classify_largeness(0.2, 0.0, sigma=-0.1)
    assert pred.a_star == pytest.approx(4.0 * np.log(0.05), abs=1e-7)
    assert pred.c_shock == pytest.approx(1.0 / (2.0 * np.log(20.0)), abs=1e-10)
    assert pred.classification == "ShockBefore"
    assert pred.t_star == pytest.approx(-2.0 * np.exp(-1.0 / 0.8), abs=1e-7)


def test_classify_largeness_branches():
    assert classify_largeness(0.05, 0.0).classification == "GlobalToSigma"
    assert classify_largeness(0.12, 0.0).classification == "Indeterminate"
    assert classify_largeness(0.0834, 0.0).classification == "GlobalToSigma"


def test_classify_largeness_rejects_an_overflowing_threshold():
    """At the largest double a, A1(sigma) is about 1/(2a), so c_shock = -2/a*
    = 1/(2 A1) overflows: InvalidParameter, not an infinite threshold."""
    with pytest.raises(InvalidParameter):
        classify_largeness(1.0, sys.float_info.max)
    assert math.isfinite(classify_largeness(1.0, 1e308).c_shock)


# ---------------------------------------------------------------------------
# ray tracing


def trivial_history(delta=0.1, times=np.linspace(-2.0, -1.2, 41), width=501, start=0):
    """A zero field on r = linspace(1, 3.5, 501), each snapshot storing width
    points from start: eta = 1 and the rays sit at 2 + u - (t + 2)."""
    r = np.linspace(1.0, 3.5, 501)
    z = np.zeros((len(times), width))
    return RunHistory(r_grid=r, times=times, phi=z, dtphi=z.copy(), a=0.0,
                      delta=delta, status="Completed", eos=EOS,
                      start=np.full(len(times), start))


def _steady_history(dphi, phi, r, times):
    """The field with this dphi and its integral phi on r at every time, and
    dtphi = dphi^2/2, so that h = 0 and eta = 1."""
    return RunHistory(r_grid=r, times=times, phi=np.tile(phi, (len(times), 1)),
                      dtphi=np.tile(0.5 * dphi**2, (len(times), 1)), a=0.0, delta=0.1,
                      status="Completed", eos=EOS)


def test_trace_rays_trivial_fields():
    hist = trivial_history()
    bundle = trace_rays(hist, ray_count=33)
    # dr/dt = -1 exactly: r(t) = 2 + u - (t + 2)
    for i, t in enumerate(bundle.times):
        expected = 2.0 + bundle.u - (t + 2.0)
        assert np.max(np.abs(bundle.r[i] - expected)) <= 1e-12
    assert np.max(np.abs(bundle.mu_spacing - 1.0)) <= 1e-12
    assert np.max(np.abs(bundle.mu_transport - 1.0)) <= 1e-12


def _dropped_row_bundle(hist, first_failing):
    """The bundle of hist, checked as stopped by a rule that drops its row:
    the rows up to the step first_failing, none at mu <= _MU_STOP."""
    bundle = trace_rays(hist, ray_count=33)
    assert len(bundle.times) == first_failing < len(hist.times)
    assert min(bundle.mu_spacing.min(), bundle.mu_transport.min()) > _MU_STOP
    return bundle


def test_trace_rays_stops_before_a_ray_leaves_the_window():
    """On the zero field whose snapshots store r_grid[150:350], the first step
    whose rays 2 + u - (t + 2) reach below r_grid[151], where the cubic's first
    tap leaves the window, is dropped: 25 of 51 rows."""
    hist = trivial_history(times=np.linspace(-2.0, -1.5, 51), width=200, start=150)
    first_failing = np.argmax(2.0 - (hist.times + 2.0) < hist.r_grid[151])
    bundle = _dropped_row_bundle(hist, first_failing)
    assert first_failing == 25
    assert np.allclose(bundle.r, 2.0 + bundle.u - (bundle.times[:, None] + 2.0), atol=1e-12)


def test_trace_rays_stops_before_a_ray_passes_the_inner_edge():
    """On the zero field over the whole grid, the first step whose rays pass
    r_lo = r_grid[0] + 2 dr is dropped: 199 of 221 rows, the last one's min r
    at r_lo."""
    hist = trivial_history(times=np.linspace(-2.0, -0.9, 221))
    r_lo = hist.r_grid[0] + 2.0 * (hist.r_grid[1] - hist.r_grid[0])
    bundle = _dropped_row_bundle(hist, np.argmax(2.0 - (hist.times + 2.0) < r_lo))
    assert len(bundle.times) == 199
    assert abs(bundle.r[-1].min() - r_lo) <= 1e-12


def test_trace_rays_stops_before_rays_cross():
    """The rays move at speed 1 + dphi with dphi = 0.45 (1 + tanh((r - 1.1)/0.02)):
    over one step of 0.5 the inner ones reach r = 1.1 and slow to 1 first, so
    the step's corrector crosses them.  Its samples lie on the window, and
    only mu_from_spacing stops the bundle: 1 of 2 rows."""
    r = np.linspace(0.5, 3.5, 3001)
    x = (r - 1.1) / 0.02
    hist = _steady_history(0.45 * (1.0 + np.tanh(x)),
                           0.45 * (r + 0.02 * (np.logaddexp(x, -x) - np.log(2.0))), r,
                           np.array([-2.0, -1.5]))
    _dropped_row_bundle(hist, 1)
    r0 = 2.0 + np.linspace(0.0, 0.1, 33)
    rdot0 = _sample(hist, 0, _block(hist, 0, EOS), r0)[_RDOT]
    r_pred = r0 + 0.5 * rdot0
    r1 = r0 + 0.25 * (rdot0 + _sample(hist, 1, _block(hist, 1, EOS), r_pred)[_RDOT])
    eta1 = _sample(hist, 1, _block(hist, 1, EOS), r1)[_ETA]
    assert r1.min() > r[2] and mu_from_spacing(eta1, r1, 0.1 / 32) is None


def test_trace_rays_keeps_the_row_that_reaches_the_mu_floor():
    """dphi = 10 (r - 1.5) with h = 0 draws the rays to r = 1.4 at the rate
    e^{-10 (t + 2)}, and the spacing mu with them: the bundle keeps the first
    row at which mu <= _MU_STOP, near t = -2 + ln(50)/10, and stops there."""
    r = np.linspace(0.5, 3.5, 3001)
    hist = _steady_history(10.0 * (r - 1.5), 5.0 * (r - 1.5) ** 2, r,
                           np.linspace(-2.0, -1.5, 101))
    bundle = trace_rays(hist, ray_count=33)
    mu_min = np.minimum(bundle.mu_spacing.min(axis=1), bundle.mu_transport.min(axis=1))
    assert mu_min[-1] <= _MU_STOP < mu_min[:-1].min()
    assert abs(bundle.times[-1] - (-2.0 + np.log(50.0) / 10.0)) <= 0.01


def test_trace_rays_requires_enough_rays():
    with pytest.raises(InvalidParameter):
        trace_rays(trivial_history(), ray_count=9)


def test_mu_from_spacing_detects_crossing():
    u = np.linspace(0.0, 1.0, 11)
    r = 2.0 - u                     # decreasing: crossed rays
    assert mu_from_spacing(np.ones_like(u), r, 0.1) is None


@settings(deadline=None)
@given(width=st.floats(1e-3, 0.5), n=st.integers(3, 600), data=st.data())
def test_mu_from_spacing_is_numpy_gradient(width, n, data):
    """On the label step du, the spacing mu is eta * np.gradient(r, du) bit
    for bit."""
    du = width / (n - 1)
    dr = data.draw(st.lists(st.floats(0.1, 2.0), min_size=n - 1, max_size=n - 1))
    r = 2.0 + np.concatenate(([0.0], np.cumsum(dr))) * (width / n)
    eta = 1.0 + 0.1 * np.sin(r)
    got = mu_from_spacing(eta, r, du)
    want = eta * np.gradient(r, du)
    assert got.tobytes() == want.tobytes()


def test_transport_trivial_fields_is_zero():
    hist = trivial_history()
    growth = _sample(hist, 10, _block(hist, 10, EOS), np.array([2.0, 2.05]))[_GROWTH]
    assert np.max(np.abs(growth)) <= 1e-12


@pytest.fixture(scope="module")
def pulse_bundle():
    data = build_annulus_data(bump_seeds(c=1.0, delta=0.05), r_grid_n=512)
    hist = run_until(data, a=0.0, eos=EOS, t_end=-1.7, r_min=1.35,
                     sample_dt=0.0025)
    return hist, trace_rays(hist, ray_count=65)


def test_initial_mu_equals_eta(pulse_bundle):
    hist, bundle = pulse_bundle
    eta = _sample(hist, 0, _block(hist, 0, EOS), bundle.r[0])[0]
    assert np.max(np.abs(bundle.mu_spacing[0] - eta)) <= 1e-8


def test_ray_speed_deviation_is_order_delta(pulse_bundle):
    hist, bundle = pulse_bundle
    dt = bundle.times[-1] - bundle.times[0]
    speeds = (bundle.r[-1] - bundle.r[0]) / dt
    assert np.max(np.abs(speeds + 1.0)) <= 5.0 * hist.delta
    assert np.max(np.abs(speeds + 1.0)) > 0.001   # but genuinely nonzero


def test_adjacent_rays_approach_monotonically(pulse_bundle):
    _, bundle = pulse_bundle
    spacing = np.min(np.diff(bundle.r, axis=1), axis=1)
    tail = spacing[int(0.6 * len(spacing)):]
    assert np.all(np.diff(tail) < 0.0)


def test_dual_mu_agreement(pulse_bundle):
    _, bundle = pulse_bundle
    sp, tr = bundle.mu_spacing, bundle.mu_transport
    mask = sp >= 0.1
    assert np.max((np.abs(sp - tr) / sp)[mask]) <= 0.02


def test_lmu_initial_matches_seed_slope(pulse_bundle):
    """Lmu(-2, u) ~ -(gamma+1)/2 * dphi1/ds for a polytropic gas."""
    hist, bundle = pulse_bundle
    lmu = lmu_initial(hist, bundle.u)
    assert lmu.min() == pytest.approx(-1.5, abs=0.1)    # gamma=2, c=1


@pytest.mark.parametrize("u", [np.nan, np.inf, -np.inf, 0.8])
def test_lmu_initial_names_a_label_off_the_stored_data(u):
    """A NaN or infinite label, or one whose cubic leaves the first window
    (r_grid[150:350], so r = 2.8 does), is InvalidParameter, on the whole grid
    too, where a NaN fails no comparison with the grid's ends and its index
    clamps to 1; so is a ray bundle whose first row leaves the window."""
    windowed = trivial_history(width=200, start=150)
    assert np.array_equal(lmu_initial(windowed, [0.05, 0.1]), [0.0, 0.0])
    for hist in [windowed] if np.isfinite(u) else [trivial_history(), windowed]:
        with pytest.raises(InvalidParameter):
            lmu_initial(hist, [0.05, u])
    with pytest.raises(InvalidParameter):
        trace_rays(trivial_history(delta=0.8, width=200, start=150), ray_count=33)


def test_chaplygin_mu_stays_near_one():
    data = build_annulus_data(bump_seeds(c=1.0, delta=0.05), r_grid_n=512)
    hist = run_until(data, a=0.0, eos=make_chaplygin(), t_end=-1.7,
                     r_min=1.35, sample_dt=0.0025)
    bundle = trace_rays(hist, ray_count=65)
    assert np.max(np.abs(bundle.mu_spacing - 1.0)) <= 3.0 * hist.delta


class _FullGridSampler:
    """Reference for _block and _sample: each snapshot's block (eta, dr/dt,
    growth) derived on the whole stored window (NaN elsewhere on the grid)
    from the transport law's m and e, and interpolated by the cubic's weights
    written out."""

    def __init__(self, history, eos):
        self.hist = history
        self.eos = eos
        self.r = history.r_grid
        self.dr = self.r[1] - self.r[0]

    def block(self, k):
        a, y = self.hist.a, np.stack((self.hist.phi[k], self.hist.dtphi[k]))
        window = slice(self.hist.start[k], self.hist.start[k] + y.shape[1])
        dphi, ddtphi, d2phi, h, eta_sq, dtt = _fields(self.r[window], y, a, self.eos, self.dr)
        eta, deta_sq_dh = np.sqrt(self.eos.eta_sq(h)), self.eos.deta_sq_dh(h)
        dH_dh = -2.0 - deta_sq_dh
        dh = ddtphi - dphi * d2phi + a * dphi
        dth = dtt - dphi * ddtphi + a * y[1]
        rdot = -(eta + dphi)
        m_over_mu = (0.5 * dH_dh * dh + a * dphi) / eta
        e = deta_sq_dh / (2.0 * eta_sq) * (dth + rdot * dh) + (ddtphi + rdot * d2phi) / eta
        out = np.full((3, len(self.r)), np.nan)
        out[:, window] = eta, rdot, m_over_mu + e
        return out

    def at(self, k, r_pos):
        r, dr = self.r, self.dr
        r_pos = np.asarray(r_pos, dtype=float)
        if np.min(r_pos) < r[0] or np.max(r_pos) > r[-1]:
            return None
        i = np.clip(((r_pos - r[0]) / dr).astype(int), 1, len(r) - 3)
        x = (r_pos - r[i]) / dr
        w0 = -x * (x - 1.0) * (x - 2.0) / 6.0
        w1 = (x + 1.0) * (x - 1.0) * (x - 2.0) / 2.0
        w2 = -(x + 1.0) * x * (x - 2.0) / 2.0
        w3 = (x + 1.0) * x * (x - 1.0) / 6.0
        g = self.block(k)[:, i + np.arange(-1, 3)[:, None]]
        return w0 * g[:, 0] + w1 * g[:, 1] + w2 * g[:, 2] + w3 * g[:, 3]


_SAMPLER_EOS = (EOS, make_polytropic(1.4), make_chaplygin(),
                make_custom(np.linspace(-0.5, 0.5, 9), 1.0 + 0.8 * np.linspace(-0.5, 0.5, 9)
                            + 0.3 * np.linspace(-0.5, 0.5, 9) ** 2))


@st.composite
def _sampled_histories(draw):
    """A random history (2 to 7 snapshots, 12 to 120 grid points, small noisy
    fields) and a few (snapshot, positions) to sample it at, the snapshots in
    any order and repeated; positions in a window of the grid, which may end
    at either end of the grid."""
    n_r, n_t = draw(st.integers(12, 120)), draw(st.integers(2, 7))
    dr = draw(st.floats(0.002, 0.05))
    r = draw(st.floats(0.5, 2.0)) + dr * np.arange(n_r)
    steps = draw(st.lists(st.floats(0.001, 0.05), min_size=n_t - 1, max_size=n_t - 1))
    times = -1.9 + np.concatenate(([0.0], np.cumsum(steps)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amp = draw(st.floats(1e-6, 1e-4))
    hist = RunHistory(r_grid=r, times=times, phi=amp * rng.standard_normal((n_t, n_r)),
                      dtphi=amp * rng.standard_normal((n_t, n_r)),
                      a=draw(st.floats(-0.5, 0.5)), delta=0.1, status="Completed", eos=EOS)
    samples = []
    for _ in range(draw(st.integers(1, 4))):
        # a window of the grid, often one that ends at r[0] or r[-1]
        lo, hi = sorted(draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
                        for _ in range(2))
        fracs = lo + (hi - lo) * np.array(draw(st.lists(
            st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=12)))
        samples.append((draw(st.integers(0, n_t - 1)),
                        np.minimum(r[0] + fracs * (r[-1] - r[0]), r[-1])))
    return hist, samples


@settings(deadline=None, max_examples=200)
@given(case=_sampled_histories(), eos=st.sampled_from(_SAMPLER_EOS))
def test_field_sampler_matches_full_grid_reference(case, eos):
    """_sample's cubic on _block's window gives the full grid's block bit for
    bit."""
    hist, samples = case
    reference = _FullGridSampler(hist, eos)
    for k, r_pos in samples:
        assert np.array_equal(_sample(hist, k, _block(hist, k, eos), r_pos),
                              reference.at(k, r_pos))


def test_field_sampler_reads_only_the_stored_window():
    """On a windowed history _sample gives the stored windows' block bit for
    bit (the reference holds NaN off the windows), and a ray whose taps leave
    a window gives None instead of reading off it."""
    rng = np.random.default_rng(3)
    r, times = 1.0 + 0.01 * np.arange(200), -1.9 + 0.01 * np.arange(5)
    phi, dtphi = 1e-4 * rng.standard_normal((2, 5, 60))
    hist = RunHistory(r_grid=r, times=times, phi=phi, dtphi=dtphi, a=0.2, delta=0.1,
                      status="Completed", eos=EOS, start=np.array([100, 99, 98, 97, 96]))
    reference = _FullGridSampler(hist, EOS)
    inside = np.linspace(r[101] + 0.001, r[150], 7)     # windows move in at speed 1
    for k in (0, 2, 3, 4):
        pos = inside - (times[k] - times[0])
        assert np.array_equal(_sample(hist, k, _block(hist, k, EOS), pos),
                              reference.at(k, pos))
    for pos in (r[96] - 0.004, r[156] + 0.004):
        assert _sample(hist, 4, _block(hist, 4, EOS), np.array([r[120], pos])) is None


def test_trace_rays_is_a_trapezoidal_loop_over_the_reference(pulse_bundle):
    """trace_rays is Heun's rule over the snapshot intervals, written out here on
    the reference sampler: r' = rdot, mu' = mu growth, every field read at a
    stored time, and the spacing mu on the label step; lmu_initial is
    eta growth on the first snapshot.  Equal bit for bit, every row."""
    hist, bundle = pulse_bundle
    ref = _FullGridSampler(hist, EOS)
    u = np.linspace(0.0, hist.delta, 65)

    def rate(k, r, mu):
        _, rdot, growth = ref.at(k, r)
        return rdot, mu * growth

    r = 2.0 + u
    eta, _, growth = ref.at(0, r)
    assert np.array_equal(lmu_initial(hist, u), eta * growth)
    mu = eta
    rows = [(r, mu)]
    for k in range(1, len(hist.times)):
        dt = hist.times[k] - hist.times[k - 1]
        r_rate, mu_rate = rate(k - 1, r, mu)
        r_p, mu_p = r + dt * r_rate, mu + dt * mu_rate
        r_rate_p, mu_rate_p = rate(k, r_p, mu_p)
        r, mu = r + 0.5 * dt * (r_rate + r_rate_p), mu + 0.5 * dt * (mu_rate + mu_rate_p)
        rows.append((r, mu))
    r_rows, mu_rows = map(np.array, zip(*rows))
    assert len(bundle.times) == len(hist.times)         # the bundle reaches t_end
    assert np.array_equal(bundle.r, r_rows)
    assert np.array_equal(bundle.mu_transport, mu_rows)
    eta = np.array([ref.at(k, r_k)[0] for k, r_k in enumerate(r_rows)])
    assert np.array_equal(bundle.mu_spacing,
                          eta * np.gradient(r_rows, hist.delta / 64, axis=1))


def test_snapshot_spacing_moves_the_trace_little(pulse_bundle):
    """The trace at delta/20 snapshots stays within 1e-3 of one on every solver
    step's snapshot, at the shared snapshot times: the run's steps do not
    depend on its snapshot clock, so the delta/20 times are dense ones."""
    hist, bundle = pulse_bundle
    sample_dt = hist.delta / 400
    data = build_annulus_data(bump_seeds(c=1.0, delta=hist.delta), r_grid_n=512)
    dense = run_until(data, a=0.0, eos=EOS, t_end=-1.7, r_min=1.35, sample_dt=sample_dt)
    assert np.min(np.diff(dense.times)) > sample_dt      # every step stored
    reference = trace_rays(dense, ray_count=65)
    assert len(reference.times) == len(dense.times)
    rows = np.searchsorted(reference.times, bundle.times)
    assert np.array_equal(reference.times[rows], bundle.times)
    for name in ("r", "mu_spacing", "mu_transport"):
        assert np.max(np.abs(getattr(bundle, name) - getattr(reference, name)[rows])) <= 1e-3
