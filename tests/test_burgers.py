"""Damped Burgers characteristic analysis and direct-solver oracle tests."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import charshock
from charshock.cli import main
from charshock.burgers import (
    DOMAIN,
    _CFL,
    _muscl_rhs,
    BurgersProblem,
    ShockReport,
    burgers_characteristic_solve,
    burgers_direct_solve,
    burgers_mu,
    burgers_shock_time,
    damping_kernel,
    estimate_blowup_time,
    sine_profile,
)
from charshock.errors import (
    InvalidParameter,
    NoBlowupTrend,
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


def test_shock_time_at_subnormal_compression():
    """At a < 0 the root ln(1 - a/c)/-a - 1 stays finite where -a/c overflows:
    ln(1e310) - 1 at a = -1, c = 1e-310.  At a = 0 the root 1/c - 1 is beyond
    the float range below c of about 5.6e-309, and reads Global."""
    rep = burgers_shock_time(-1.0, 1e-310)
    assert rep.classification == "Shock"
    assert rep.t_star == pytest.approx(310.0 * math.log(10.0) - 1.0, rel=1e-15)
    assert burgers_shock_time(0.0, 1e-310) == ShockReport(classification="Global")
    assert burgers_shock_time(0.0, 5.6e-309).t_star == pytest.approx(1.0 / 5.6e-309)


def _no_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_burgers_command_at_subnormal_compression_prints_strict_json(capsys):
    """The report line parses as strict JSON: no Infinity for a root beyond
    the float range."""
    assert main(["burgers", "--c", "1e-310", "--grid", "64", "--t-end", "0.5"]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1], parse_constant=_no_constant)
    assert report["classification"] == "Global" and report["t_star"] is None


@pytest.mark.parametrize("argv, direct, window", [
    # a half-window refit without a root, left out of the window
    (["--a=1.228924469238259", "--c=1.9333184129176029", "--t-end=0.1"],
     0.5958467759302881, [0.18233543552267895, 0.5958467759302881]),
    # a whole fit without a root: NoBlowupTrend
    (["--a=-1.3212938256759614", "--c=6.97874101668442e-37", "--t-end=0.5"], None, None),
])
def test_burgers_fit_without_a_root_prints_strict_json(argv, direct, window, capsys):
    """A fit without a root reads t_star_direct null and no window; a refit
    without one is left out of the window; the report is strict JSON."""
    assert main(["burgers", *argv, "--grid=64"]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1], parse_constant=_no_constant)
    if direct is None:
        assert report["t_star_direct"] is None and "confidence_window" not in report
    else:
        assert report["t_star_direct"] == pytest.approx(direct, rel=1e-9)
        assert report["confidence_window"] == pytest.approx(window, rel=1e-9)


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


@pytest.mark.parametrize("a", [5e-324, 1e-320, 1e-310, -5e-324, -1e-310])
def test_damping_kernel_at_subnormal_damping_is_t_plus_one(a):
    """Where a (t+1) is below the smallest normal double, (1 - e^{-a(t+1)}) / a
    has lost its digits (0.0 at a = 5e-324, 0.29990 for t = -0.7 at
    a = 1e-320); E is t + 1 there, as at a = 0."""
    t = np.array([-1.0, -0.7, 0.0, 0.5, 2.0])
    assert np.array_equal(damping_kernel(t, a), t + 1.0)
    assert np.array_equal(burgers_mu(t, 0.0, make_problem(a=a)),
                          burgers_mu(t, 0.0, make_problem(a=0.0)))


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
    with pytest.raises(InvalidParameter):
        burgers_characteristic_solve(np.linspace(-0.2, 0.2, 9), 0.0, p)


def test_problem_c_extraction():
    p = make_problem(c=1.7, a=0.0)
    assert p.c == pytest.approx(1.7, rel=1e-6)


# ---------------------------------------------------------------------------
# direct solver as oracle


def test_direct_solver_zero_profile():
    zero = lambda x: np.zeros_like(np.asarray(x, float))
    p = BurgersProblem(profile=zero, slope=zero, a=0.3)
    hist = burgers_direct_solve(p, grid_n=128, t_end=0.5)
    assert np.all(hist.phi == 0.0)
    assert hist.status == "Completed"


def test_direct_solver_stops_on_non_finite_field():
    """max|phi|, the next CFL speed, is also the finiteness check; phi is the
    field at last_good_time."""
    spike = lambda x: np.where(np.abs(x) < 0.01, np.nan, 0.0)
    p = BurgersProblem(profile=spike, slope=spike)
    hist = burgers_direct_solve(p, grid_n=128, t_end=0.5)
    assert hist.status == "NonFinite"
    assert list(hist.times) == [-1.0] and hist.last_good_time == -1.0
    assert np.array_equal(hist.phi, p.profile(hist.x), equal_nan=True)  # the initial field


def test_history_phi_is_its_own_array():
    """A history's phi is a copy of the solver's buffer: a second solve leaves
    the first history as it was."""
    p = make_problem(c=1.0, a=0.25)
    first = burgers_direct_solve(p, grid_n=128, t_end=0.5)
    before = first.phi.tobytes()
    burgers_direct_solve(make_problem(c=2.0, a=-0.5), grid_n=128, t_end=0.5)
    assert first.phi.flags.owndata and first.phi.shape == (128,)
    assert first.phi.tobytes() == before


def test_non_finite_stop_keeps_the_last_good_field():
    """A field 1e-300 sin(pi x) grown by e^{1e4 (t+1)}: the second step
    leaves it near 1e212, and the third step's squared face states overflow.
    phi is the field after the second step, at last_good_time."""
    f, df = sine_profile(1e-300 * math.pi)
    p = BurgersProblem(profile=f, slope=df, a=-1e4)
    with np.errstate(over="ignore", invalid="ignore"):
        hist = burgers_direct_solve(p, grid_n=64, t_end=2.0)
        reference = _reference_direct_solve(p, 64, 2.0)
    assert hist.status == "NonFinite" and len(hist.times) == 3
    assert np.all(np.isfinite(hist.phi)) and np.max(np.abs(hist.phi)) > 1e200
    _assert_same_bytes(hist, reference)


@pytest.mark.parametrize("t_end", [float("nan"), -1.0, -1.5, float("-inf")])
def test_direct_solver_rejects_t_end_not_above_start(t_end):
    with pytest.raises(InvalidParameter):
        burgers_direct_solve(make_problem(), grid_n=64, t_end=t_end)


def test_burgers_command_rejects_infinite_t_end(tmp_path):
    """An infinite t_end is refused on entry; unchecked, the solve never ends,
    so the command runs in a child process under a timeout."""
    src = os.path.dirname(os.path.dirname(charshock.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "charshock.cli", "burgers", "--grid", "64", "--t-end", "inf",
         "--out", str(tmp_path / "out.csv")],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])})
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: InvalidParameter: ")


@settings(deadline=None, max_examples=5)
@example(a=-1.0, c=1.0)
@example(a=1e-300, c=0.7)
@given(a=st.floats(-1.0, 0.9), c=st.floats(0.5, 5.0))
def test_burgers_command_meets_the_closed_form(a, c):
    """Wherever the closed form has its shock before the default t_end = 2,
    the burgers command's fitted t_star_direct lies within 1e-2 of it, for
    damping of either sign."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["burgers", f"--a={a!r}", f"--c={c!r}"]) == 0
    report = json.loads(out.getvalue().splitlines()[-1])
    if report["classification"] == "Shock" and report["t_star"] < 2.0:
        assert abs(report["t_star_direct"] - report["t_star"]) <= 1e-2


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
    ue = np.pad(u, 2, constant_values=np.nan)        # the kernel fills the ghost cells
    work, out = np.full((4, u.size + 3), np.nan), np.empty(u.size)
    work[3] = 0.0
    _muscl_rhs(ue, dx, work, out)
    assert out.tobytes() == _case_analysis_muscl_rhs(u, dx).tobytes()


def _reference_muscl_rhs(u, dx):
    """The allocating MUSCL divergence, with the Godunov flux as
    max(f(max(ul, 0)), f(min(ur, 0))) and the face difference over dx."""
    ue = np.concatenate(([u[0], u[0]], u, [u[-1], u[-1]]))
    d = ue[1:] - ue[:-1]
    lo, hi = d[:-1], d[1:]
    half = 0.5 * np.maximum(np.minimum(lo, hi), np.minimum(np.maximum(lo, hi), 0.0))
    ul = np.maximum(ue[1:-2] + half[:-1], 0.0)
    ur = np.minimum(ue[2:-1] - half[1:], 0.0)
    flux = np.maximum(0.5 * ul * ul, 0.5 * ur * ur)
    return -(flux[1:] - flux[:-1]) / dx


def _reference_direct_solve(problem, grid_n, t_end):
    """burgers_direct_solve's steps written with a new array per operation."""
    a = problem.a
    x_lo, x_hi = DOMAIN
    dx = (x_hi - x_lo) / grid_n
    x = x_lo + dx * (np.arange(grid_n) + 0.5)
    phi = problem.profile(x).astype(float)

    t = -1.0
    times, slopes = [t], [max(0.0, float(np.max(phi[:-1] - phi[1:])) / dx)]
    speed = float(np.max(np.abs(phi)))
    status = "Completed"
    while t < t_end - 1e-14:
        dt = min(_CFL * dx / max(speed, 1e-12), 0.05, t_end - t)
        decay = math.exp(-a * dt / 2.0)

        phi0 = phi * decay
        phi1 = phi0 + dt * _reference_muscl_rhs(phi0, dx)
        phi_next = 0.5 * (phi0 + phi1 + dt * _reference_muscl_rhs(phi1, dx)) * decay

        speed = float(np.max(np.abs(phi_next)))
        if not math.isfinite(speed):
            status = "NonFinite"
            break
        phi = phi_next
        t += dt
        times.append(t)
        slopes.append(max(0.0, float(np.max(phi[:-1] - phi[1:])) / dx))
    return np.asarray(times), np.asarray(slopes), phi, status


def _assert_same_bytes(hist, reference):
    times, slopes, phi, status = reference
    assert hist.times.tobytes() == times.tobytes()
    assert hist.max_neg_slope.tobytes() == slopes.tobytes()
    assert hist.phi.tobytes() == phi.tobytes()
    assert hist.status == status


_STEPS = 800        # about the most steps one drawn solve of the next test takes


@settings(deadline=None, max_examples=20)
@example(a=-1.0, c=1.0, grid_n=777, t_end=2.0)
@example(a=1.0, c=0.5, grid_n=100, t_end=2.0)       # a >= c: no shock
@example(a=2.0, c=1.0, grid_n=64, t_end=2.0)
@given(a=st.floats(-1.0, 0.9), c=st.floats(0.5, 5.0),
       grid_n=st.sampled_from([64, 100, 777, 1024]),
       t_end=st.floats(-1.0, 2.0, exclude_min=True))
def test_direct_solve_matches_the_allocating_steps_byte_for_byte(a, c, grid_n, t_end):
    """The in-place solve returns the bytes of the allocating one, before and
    past the shock.  t_end is cut where the sup norm c/pi, growing at most as
    e^{-a(t+1)}, would take more than _STEPS CFL steps: the damping kernel
    E(t_end) is kept below _STEPS _CFL dx pi / c, and burgers_shock_time(a, 1/E)
    is the t where the kernel reaches E."""
    reach = _STEPS * _CFL * (2.0 / grid_n) * math.pi / c
    cut = burgers_shock_time(a, 1.0 / reach)
    if cut.classification == "Shock":
        t_end = min(t_end, cut.t_star)
    p = make_problem(c=c, a=a)
    hist = burgers_direct_solve(p, grid_n=grid_n, t_end=t_end)
    _assert_same_bytes(hist, _reference_direct_solve(p, grid_n, t_end))


def test_direct_solver_validates_inputs():
    p = make_problem()
    with pytest.raises(InvalidParameter):
        burgers_direct_solve(p, grid_n=32)


@pytest.mark.parametrize("c, t_end", [
    (1.0, 1e300),           # 2e301 steps of at most 0.05
    (1e100, 2.0),           # a step of 5e-102, below half an ulp of t
    (5e17, -1.0 + 1e-13),   # about 1e6 steps to t_end, none of which moves t
])
def test_direct_solver_rejects_steps_that_never_reach_t_end(c, t_end):
    """A run that would take more than errors.MAX_VALUES steps, or whose step
    leaves t where it is, raises instead of looping for ever."""
    with pytest.raises(InvalidParameter, match="would not reach t_end"):
        burgers_direct_solve(make_problem(c=c), grid_n=64, t_end=t_end)


@pytest.mark.parametrize("a", [-20.0, -40.0])
def test_antidamped_run_that_would_never_end_raises_before_its_first_step(a):
    """For a < 0 the CFL step shrinks like e^{a(t+1)}: reaching t_end = 0.5 on
    64 cells takes about 1.1e13 steps at a = -20 and 5.8e25 at a = -40, so the
    run raises at once instead of stepping for ever."""
    with pytest.raises(InvalidParameter, match="would not reach t_end"):
        burgers_direct_solve(make_problem(a=a), grid_n=64, t_end=0.5)


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


def test_blowup_estimate_without_a_decreasing_fit_has_no_root():
    """An r = 1/slope that falls to 0.3, rises to 0.65 and then drops to its
    least value in one sample fits an increasing line: the compression
    -beta/alpha is negative, burgers_shock_time reads Global and the fit has
    no root (the line's own zero lies before t = -1)."""
    t = np.linspace(-1.0, 0.0, 100)
    r = np.concatenate((np.linspace(1.0, 0.3, 10), np.linspace(0.3, 0.65, 89), [0.01]))
    with pytest.raises(NoBlowupTrend, match="no root"):
        estimate_blowup_time(t, 1.0 / r, 0.0)


def _sine_fit(a):
    hist = burgers_direct_solve(make_problem(c=1.0, a=a), grid_n=512, t_end=0.5)
    return estimate_blowup_time(hist.times, hist.max_neg_slope, a)


def test_blowup_estimate_follows_the_closed_form_shift_at_small_damping():
    """The fitted t*(a) - t*(0) is the closed form's shift, which is about a/2
    here, to 1 %, down to |a| = 1e-9: the fit's column is damping_kernel and
    its root burgers_shock_time's at every a, so no small-|a| switch cuts in."""
    t0, fit0 = burgers_shock_time(0.0, 1.0).t_star, _sine_fit(0.0).t_star_estimate
    for a in (-1e-8, 1e-9, 2e-9, 1e-8, 1e-7):
        shift = burgers_shock_time(a, 1.0).t_star - t0
        assert (_sine_fit(a).t_star_estimate - fit0) / shift == pytest.approx(1.0, abs=1e-2)


def test_blowup_estimate_at_subnormal_damping_is_the_undamped_fit():
    assert _sine_fit(5e-324) == _sine_fit(0.0)


def test_direct_solver_blowup_estimates():
    """Grid-4096 blow-up estimates within 0.02 of the closed forms."""
    for a in (0.0, 0.25, 0.5):
        p = make_problem(c=1.0, a=a)
        t_star = burgers_shock_time(a, 1.0).t_star
        hist = burgers_direct_solve(p, grid_n=4096, t_end=t_star + 0.2)
        est = estimate_blowup_time(hist.times, hist.max_neg_slope, a)
        assert est.t_star_estimate == pytest.approx(t_star, abs=0.02)


def test_direct_solver_global_branch_slope_bound():
    """a = c = 1: max negative slope stays below 2c for all times."""
    p = make_problem(c=1.0, a=1.0)
    hist = burgers_direct_solve(p, grid_n=1024, t_end=5.0)
    assert hist.status == "Completed"
    assert np.max(hist.max_neg_slope) <= 2.0


def test_direct_vs_characteristic_convergence():
    """Pre-shock sup-norm error decays at >= 2nd order under grid doubling."""
    a, c = 0.0, 1.0
    t_eval = burgers_shock_time(a, c).t_star - 0.35
    p = make_problem(c=c, a=a)
    errs = []
    for n in (512, 1024, 2048):
        hist = burgers_direct_solve(p, grid_n=n, t_end=t_eval)
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
