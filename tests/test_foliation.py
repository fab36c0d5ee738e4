"""Foliation diagnostics: closed-form predictor, ray tracing, dual mu."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import expi

from charshock.eos import make_chaplygin, make_polytropic
from charshock.errors import (
    NonPositiveMu,
    NoRootBeforeSigma,
    ShockDetected,
    SingularEndpoint,
)
from charshock.foliation import (
    RayBundle,
    _FieldSampler,
    a1_integral,
    classify_largeness,
    lmu_initial,
    mu_from_spacing,
    mu_transport_step,
    predict_mu,
    shock_region_monitor,
    shock_time_3d,
    trace_rays,
)
from charshock.radial import RunHistory, run_until
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
    with pytest.raises(SingularEndpoint):
        a1_integral(0.0, 0.0)
    with pytest.raises(SingularEndpoint):
        a1_integral(-2.5, 0.0)


def _a1_quad(t, a):
    """Quadrature reference for A1(t) = int_{-2}^t e^{-a(tau+2)} / (-tau) d tau."""
    return quad(lambda tau: np.exp(-a * (tau + 2.0)) / (-tau), -2.0, t,
                epsabs=1e-13, epsrel=1e-13, limit=500)[0]


@settings(deadline=None, max_examples=300)
@given(t=st.floats(-2.0, -1e-9, exclude_min=True), a=st.floats(-20.0, 20.0))
def test_a1_integral_matches_quadrature(t, a):
    ref = _a1_quad(t, a)
    assert abs(a1_integral(t, a) - ref) <= 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("a", [400.0, -400.0])
@pytest.mark.parametrize("t", [-1.9, -1.5])
def test_a1_integral_falls_back_to_quadrature(t, a):
    """|a| > 354: e^{-2a} (Ei(2a) - Ei(-a t)) is not finite, quadrature answers."""
    with np.errstate(all="ignore"):
        closed = np.exp(-2.0 * a) * (expi(2.0 * a) - expi(-a * t))
    assert not math.isfinite(closed)
    assert a1_integral(t, a) == pytest.approx(_a1_quad(t, a), rel=1e-12)


@pytest.mark.parametrize("t, a, expected", [
    (-5e-324, 0.0, 745.1332191019412),       # log 2 - log(-t); 2/-t overflows
    (-1e-310, 1e-5, 714.4802562607919),      # -a t subnormal: Ei(x) = gamma + ln|x|
])
def test_a1_integral_near_the_singular_endpoint(t, a, expected):
    """References from 40-digit arithmetic."""
    assert a1_integral(t, a) == pytest.approx(expected, rel=1e-12)


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


# ---------------------------------------------------------------------------
# ray tracing


def trivial_history(delta=0.1):
    r = np.linspace(1.0, 3.5, 501)
    times = np.linspace(-2.0, -1.2, 41)
    z = np.zeros((len(times), len(r)))
    return RunHistory(r_grid=r, times=times, phi=z, dtphi=z.copy(), a=0.0,
                      delta=delta, status="Completed", last_good_time=-1.2,
                      eos_meta={"family": "polytropic", "gamma": 2.0})


def test_trace_rays_trivial_fields():
    hist = trivial_history()
    bundle = trace_rays(hist, ray_count=33)
    # dr/dt = -1 exactly: r(t) = 2 + u - (t + 2)
    for i, t in enumerate(bundle.times):
        expected = 2.0 + bundle.u - (t + 2.0)
        assert np.max(np.abs(bundle.r[i] - expected)) <= 1e-12
    assert np.max(np.abs(bundle.mu_spacing - 1.0)) <= 1e-12
    assert np.max(np.abs(bundle.mu_transport - 1.0)) <= 1e-12


def test_trace_rays_requires_enough_rays():
    with pytest.raises(ValueError):
        trace_rays(trivial_history(), ray_count=9)


def test_mu_from_spacing_detects_crossing():
    u = np.linspace(0.0, 1.0, 11)
    r = 2.0 - u                     # decreasing: crossed rays
    with pytest.raises(ShockDetected):
        mu_from_spacing(np.ones_like(u), r, u)


def test_transport_trivial_fields_is_zero():
    hist = trivial_history()
    sampler = _FieldSampler(hist, EOS)
    dmu = mu_transport_step(sampler, -1.8, np.array([2.0, 2.05]),
                            np.array([1.0, 1.0]))
    assert np.max(np.abs(dmu)) <= 1e-12


def test_transport_rejects_nonpositive_mu():
    hist = trivial_history()
    sampler = _FieldSampler(hist, EOS)
    with pytest.raises(NonPositiveMu):
        mu_transport_step(sampler, -1.8, np.array([2.0]), np.array([0.0]))


@pytest.fixture(scope="module")
def pulse_bundle():
    data = build_annulus_data(bump_seeds(c=1.0, delta=0.05), r_grid_n=512)
    hist = run_until(data, a=0.0, eos=EOS, t_end=-1.7, r_min=1.35,
                     sample_dt=0.0025)
    return hist, trace_rays(hist, ray_count=65)


def test_initial_mu_equals_eta(pulse_bundle):
    hist, bundle = pulse_bundle
    sampler = _FieldSampler(hist, EOS)
    eta = sampler.at(-2.0, bundle.r[0], ("eta",))["eta"]
    assert np.max(np.abs(bundle.mu_spacing[0] - eta)) <= 1e-8


def test_sampler_keys_at_once_equal_single_keys(pulse_bundle):
    hist, bundle = pulse_bundle
    sampler = _FieldSampler(hist, EOS)
    keys = ("eta", "dphi", "rdot", "m_factor", "e")
    r_pos = bundle.r[len(bundle.r) // 2]
    for t in (float(hist.times[40]), 0.5 * float(hist.times[40] + hist.times[41])):
        together = sampler.at(t, r_pos, keys)
        for k in keys:
            assert np.array_equal(together[k], sampler.at(t, r_pos, (k,))[k])


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


def test_chaplygin_mu_stays_near_one():
    data = build_annulus_data(bump_seeds(c=1.0, delta=0.05), r_grid_n=512)
    hist = run_until(data, a=0.0, eos=make_chaplygin(), t_end=-1.7,
                     r_min=1.35, sample_dt=0.0025)
    bundle = trace_rays(hist, ray_count=65)
    assert np.max(np.abs(bundle.mu_spacing - 1.0)) <= 3.0 * hist.delta


def test_shock_region_monitor_empty_when_mu_large(pulse_bundle):
    _, bundle = pulse_bundle
    assert shock_region_monitor(bundle) == []


def test_shock_region_monitor_flags():
    times = np.linspace(-1.6, -1.5, 6)
    u = np.linspace(0.0, 0.1, 34)
    mu = np.tile(np.linspace(0.09, 0.04, 6)[:, None], (1, 34))
    bundle = RayBundle(u=u, times=times, r=np.tile(2.0 + u, (6, 1)),
                       mu_spacing=mu, mu_transport=mu.copy(),
                       status=np.full(34, "Alive", dtype=object),
                       last_alive_index=5)
    report = shock_region_monitor(bundle)
    assert len(report) == 6 * 34
    assert all(not rec["violation"] for rec in report)
    rising = RayBundle(u=u, times=times, r=np.tile(2.0 + u, (6, 1)),
                       mu_spacing=mu[::-1], mu_transport=mu[::-1].copy(),
                       status=np.full(34, "Alive", dtype=object),
                       last_alive_index=5)
    assert all(rec["violation"] for rec in shock_region_monitor(rising))
