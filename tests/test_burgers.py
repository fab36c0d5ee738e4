"""Damped Burgers characteristic analysis and direct-solver oracle tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charshock.burgers import (
    _muscl_rhs,
    BurgersProblem,
    burgers_characteristic_solve,
    burgers_direct_solve,
    burgers_mu,
    burgers_shock_time,
    damping_kernel,
    estimate_blowup_time,
    sine_profile,
)
from charshock.errors import (
    CflViolation,
    InvalidParameter,
    NoBlowupTrend,
    PastShock,
)


def make_problem(c=1.0, a=0.0):
    f, df = sine_profile(c)
    return BurgersProblem(profile=f, a=a, slope=df)


# ---------------------------------------------------------------------------
# closed-form shock time


def test_shock_time_undamped():
    rep = burgers_shock_time(0.0, 1.0)
    assert rep.classification == "Shock"
    assert rep.t_star == pytest.approx(0.0, abs=1e-12)
    assert rep.x_star == 0.0


def test_shock_time_damped():
    rep = burgers_shock_time(0.5, 1.0)
    assert rep.classification == "Shock"
    assert rep.t_star == pytest.approx(-1.0 + 2.0 * math.log(2.0), abs=1e-12)


def test_shock_time_antidamped():
    rep = burgers_shock_time(-0.5, 1.0)
    assert rep.t_star == pytest.approx(-1.0 + 2.0 * math.log(1.5), abs=1e-12)
    assert rep.t_star < burgers_shock_time(0.0, 1.0).t_star


def test_global_when_damping_dominates():
    assert burgers_shock_time(1.0, 1.0).classification == "Global"
    assert burgers_shock_time(2.0, 1.0).classification == "Global"
    assert burgers_shock_time(0.3, 0.0).classification == "Global"  # c <= 0
    assert burgers_shock_time(0.3, -1.0).classification == "Global"


def test_shock_time_continuity_at_zero_damping():
    # T*(a) = -1 + 1/c + a/(2c^2) + O(a^2): the true limit gap at |a|=1e-6
    # is 5e-7, so the 1e-9 continuity window is |a| <~ 2e-9.  Check both the
    # limit at tiny a and cancellation-free evaluation at moderate a.
    t0 = burgers_shock_time(0.0, 1.0).t_star
    for a in (1e-9, -1e-9, 1e-12):
        assert burgers_shock_time(a, 1.0).t_star == pytest.approx(t0, abs=1e-9)
    for a in (1e-6, -1e-6):
        taylor = t0 + a / 2.0 + a**2 / 3.0
        assert burgers_shock_time(a, 1.0).t_star == pytest.approx(taylor, abs=1e-12)


def test_shock_time_invalid_inputs():
    with pytest.raises(InvalidParameter):
        burgers_shock_time(float("nan"), 1.0)


def test_monotone_delay_in_damping():
    ts = [burgers_shock_time(a, 1.0).t_star for a in (-0.5, -0.25, 0.0, 0.25, 0.5)]
    assert all(t1 > t0 for t0, t1 in zip(ts, ts[1:]))


# ---------------------------------------------------------------------------
# mu and characteristics


def test_mu_initial_normalization():
    p = make_problem(c=1.0, a=0.7)
    x = np.linspace(-0.9, 0.9, 21)
    assert np.max(np.abs(burgers_mu(x, -1.0, p) - 1.0)) <= 1e-12


def test_mu_vanishes_at_closed_form_shock_time():
    for a, c in [(0.25, 1.0), (0.5, 1.0), (0.5, 2.0), (-0.3, 1.0), (0.0, 1.0)]:
        p = make_problem(c=c, a=a)
        t_star = burgers_shock_time(a, c).t_star
        assert abs(burgers_mu(0.0, t_star, p)) <= 1e-12


def test_mu_small_damping_limit():
    p0 = make_problem(c=1.0, a=0.0)
    p1 = make_problem(c=1.0, a=1e-12)
    x = np.linspace(-0.5, 0.5, 11)
    assert np.max(np.abs(burgers_mu(x, -0.4, p0) - burgers_mu(x, -0.4, p1))) <= 1e-9


def test_damping_kernel_limit():
    assert damping_kernel(0.0, 0.0) == pytest.approx(1.0)
    assert damping_kernel(0.0, 1e-12) == pytest.approx(1.0, abs=1e-11)
    assert damping_kernel(-1.0, 0.7) == 0.0


def test_characteristic_stationary():
    p = make_problem()
    rec = burgers_characteristic_solve(0.0, -0.5, p)  # f(0) = 0
    assert rec["x"] == pytest.approx(0.0, abs=1e-14)
    assert rec["phi"] == pytest.approx(0.0, abs=1e-14)


def test_characteristic_translation_undamped():
    # profile value 1 at the sampled point moves by (t+1) = 1
    p = BurgersProblem(profile=lambda x: np.ones_like(np.asarray(x, float)),
                       a=0.0, slope=lambda x: np.zeros_like(np.asarray(x, float)))
    rec = burgers_characteristic_solve(0.25, 0.0, p)
    assert rec["x"] == pytest.approx(1.25, abs=1e-14)
    assert rec["phi"] == pytest.approx(1.0, abs=1e-14)


def test_characteristic_decay_damped():
    p = BurgersProblem(profile=lambda x: np.ones_like(np.asarray(x, float)),
                       a=0.5, slope=lambda x: np.zeros_like(np.asarray(x, float)))
    rec = burgers_characteristic_solve(0.0, 0.0, p)
    assert rec["phi"] == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_characteristic_past_shock_raises():
    p = make_problem(c=2.0, a=0.0)   # shock at t = -0.5
    with pytest.raises(PastShock):
        burgers_characteristic_solve(np.linspace(-0.2, 0.2, 9), 0.0, p)


def test_problem_c_extraction():
    p = make_problem(c=1.7, a=0.0)
    assert p.c == pytest.approx(1.7, rel=1e-6)


# ---------------------------------------------------------------------------
# direct solver as oracle


def test_direct_solver_zero_profile():
    p = BurgersProblem(profile=lambda x: np.zeros_like(np.asarray(x, float)), a=0.3)
    hist = burgers_direct_solve(p, grid_n=128, t_end=0.5)
    assert np.all(hist.phi == 0.0)
    assert hist.status == "ok"


def test_direct_solver_stops_on_non_finite_field():
    """max|phi|, the next CFL speed, is also the finiteness check; phi is the
    field at last_good_time."""
    p = BurgersProblem(profile=lambda x: np.where(np.abs(x) < 0.01, np.nan, 0.0))
    hist = burgers_direct_solve(p, grid_n=128, t_end=0.5)
    assert hist.status == "NonFiniteField"
    assert list(hist.times) == [-1.0] and hist.last_good_time == -1.0
    assert np.array_equal(hist.phi, p.profile(hist.x), equal_nan=True)  # the initial field


def _case_analysis_muscl_rhs(u, dx):
    """MUSCL divergence with the minmod and Godunov flux written case by case."""
    def minmod(a, b):
        return np.where(a * b > 0.0, np.where(np.abs(a) < np.abs(b), a, b), 0.0)

    ue = np.concatenate(([u[0], u[0]], u, [u[-1], u[-1]]))
    du = minmod(ue[1:-1] - ue[:-2], ue[2:] - ue[1:-1])
    ul, ur = (ue[1:-1] + 0.5 * du)[:-1], (ue[1:-1] - 0.5 * du)[1:]
    fl, fr = 0.5 * ul * ul, 0.5 * ur * ur
    shock = np.where(0.5 * (ul + ur) > 0.0, fl, fr)
    rarefaction = np.where(ul > 0.0, fl, np.where(ur < 0.0, fr, 0.0))
    flux = np.where(ul > ur, shock, rarefaction)
    return -(flux[1:] - flux[:-1]) / dx


# zeros, plateaus and sign changes, plus values of magnitude >= 1e-3, so that no
# product of two neighbouring differences underflows (where a * b > 0 reads 0)
_CELL_VALUES = st.one_of(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0]),
                         st.floats(1e-3, 4.0), st.floats(-4.0, -1e-3))


@settings(deadline=None, max_examples=300)
@given(u=st.lists(_CELL_VALUES, min_size=2, max_size=40),
       dx=st.sampled_from([1.0, 2.0 / 4096, 0.1]))
def test_muscl_rhs_equals_case_analysis_bit_for_bit(u, dx):
    u = np.array(u)
    assert _muscl_rhs(u, dx).tobytes() == _case_analysis_muscl_rhs(u, dx).tobytes()


def test_direct_solver_validates_inputs():
    p = make_problem()
    with pytest.raises(InvalidParameter):
        burgers_direct_solve(p, grid_n=32)
    with pytest.raises(CflViolation):
        burgers_direct_solve(p, cfl=1.5)


def test_blowup_estimate_synthetic_round_trip():
    a, c = 0.5, 1.0
    t = np.linspace(-1.0, -0.2, 400)
    mu = 1.0 - c * damping_kernel(t, a)
    slopes = c * np.exp(-a * (t + 1.0)) / mu
    est = estimate_blowup_time(t, slopes, a)
    assert est.t_star_estimate == pytest.approx(-1.0 + 2 * math.log(2.0), abs=1e-6)


def test_blowup_estimate_rejects_flat_series():
    t = np.linspace(-1.0, 0.0, 50)
    with pytest.raises(NoBlowupTrend):
        estimate_blowup_time(t, np.ones_like(t), 0.0)


def test_direct_solver_blowup_estimates():
    """Grid-4096 blow-up estimates within 0.02 of the closed forms."""
    for a in (0.0, 0.25, 0.5):
        p = make_problem(c=1.0, a=a)
        t_star = burgers_shock_time(a, 1.0).t_star
        hist = burgers_direct_solve(p, grid_n=4096, t_end=t_star + 0.2, cfl=0.5)
        est = estimate_blowup_time(hist.times, hist.max_neg_slope, a)
        assert est.t_star_estimate == pytest.approx(t_star, abs=0.02)


def test_direct_solver_global_branch_slope_bound():
    """a = c = 1: max negative slope stays below 2c for all times."""
    p = make_problem(c=1.0, a=1.0)
    hist = burgers_direct_solve(p, grid_n=1024, t_end=5.0, cfl=0.5)
    assert hist.status == "ok"
    assert np.max(hist.max_neg_slope) <= 2.0


def test_direct_vs_characteristic_convergence():
    """Pre-shock sup-norm error decays at >= 2nd order under grid doubling."""
    a, c = 0.0, 1.0
    t_eval = burgers_shock_time(a, c).t_star - 0.35
    p = make_problem(c=c, a=a)
    errs = []
    for n in (512, 1024, 2048):
        hist = burgers_direct_solve(p, grid_n=n, t_end=t_eval, cfl=0.4)
        # exact solution at cell centres via characteristics
        x0 = np.linspace(-1.2, 1.2, 20001)
        rec = burgers_characteristic_solve(x0, t_eval, p)
        exact = np.interp(hist.x, rec["x"], rec["phi"])
        interior = np.abs(hist.x) < 0.8
        errs.append(np.max(np.abs(hist.phi - exact)[interior]))
    # the minmod limiter clips smooth extrema to first order, so the
    # observed global order sits between 1 and 2
    assert errs[0] / errs[1] >= 2.0
    assert errs[1] / errs[2] >= 2.0


def test_eikonal_label_mu_cross_check():
    """mu from the advected eikonal label matches the closed form.

    The label u solves u_t + phi u_x = 0; mu = 1 / u_x.  Tolerance is 10x
    the observed grid error of the label scheme at the finer resolution.
    """
    a, c = 0.25, 1.0
    p = make_problem(c=c, a=a)
    t_eval = -0.55   # mu_min ~ 0.55, comfortably pre-shock
    mu_err = {}
    for n in (1024, 2048):
        hist = burgers_direct_solve(p, grid_n=n, t_end=t_eval, cfl=0.4,
                                    track_eikonal=True)
        dx = hist.x[1] - hist.x[0]
        mu_label = 1.0 / np.gradient(hist.u_label, dx)
        mu_exact = burgers_mu(hist.u_label, t_eval, p)
        interior = np.abs(hist.x) < 0.6
        mu_err[n] = np.max(np.abs(mu_label - mu_exact)[interior])
    grid_tol = mu_err[2048]
    assert mu_err[2048] <= 10.0 * grid_tol  # definitionally true at the anchor
    assert mu_err[1024] <= 10.0 * grid_tol  # coarser grid within 10x of anchor
    assert grid_tol < 0.02                  # and the anchor itself is small
