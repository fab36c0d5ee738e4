"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

These are end-to-end checks at pinned tolerances; the per-module unit
tests live in the other files. Criteria 7-9 run the radial solver at
production resolution and take a few minutes total.
"""

import numpy as np
import pytest

from charshock.burgers import (
    BurgersProblem,
    burgers_direct_solve,
    burgers_shock_time,
    estimate_blowup_time,
    sine_profile,
)
from charshock.eos import make_chaplygin, make_polytropic
from charshock.foliation import (
    a1_integral,
    classify_largeness,
    lmu_initial,
    shock_time_3d,
    trace_rays,
)
from charshock.geometry import assemble_metric, build_frames, random_subsonic_states
from charshock.radial import run_until
from charshock.shortpulse import (
    build_annulus_data,
    bump_seeds,
    null_derivative_ratio,
)

EOS2 = make_polytropic(2.0)


def _report(number, description, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number}: {verdict} - {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared expensive runs


def _pulse_run(c, delta, eos, t_end, r_min, points_per_delta, ray_count,
               sample_dt):
    data = build_annulus_data(bump_seeds(c=c, delta=delta), r_grid_n=2048)
    hist = run_until(data, a=0.0, eos=eos, t_end=t_end, r_min=r_min, pad=0.3,
                     points_per_delta=points_per_delta, sample_dt=sample_dt)
    bundle = trace_rays(hist, ray_count=ray_count, eos=eos)
    return hist, bundle


@pytest.fixture(scope="module")
def deep_runs():
    """Polytropic gamma=2, c=1 pulses traced into the focusing regime."""
    out = {}
    for delta in (0.02, 0.01):
        out[delta] = _pulse_run(c=1.0, delta=delta, eos=EOS2, t_end=-1.48,
                                r_min=1.2, points_per_delta=128,
                                ray_count=257, sample_dt=delta / 40.0)
    return out


# ---------------------------------------------------------------------------
# criteria


def test_acceptance_1_burgers_closed_form():
    ok = True
    details = []
    for c in (0.5, 1.0, 2.0):
        err = abs(burgers_shock_time(0.0, c).t_star - (-1.0 + 1.0 / c))
        ok &= err <= 1e-12
    for a, c in ((0.5, 1.0), (-0.5, 1.0), (0.25, 2.0)):
        exact = -np.log(1.0 - a / c) / a - 1.0
        err = abs(burgers_shock_time(a, c).t_star - exact)
        ok &= err <= 1e-12
    t0 = burgers_shock_time(0.0, 1.0).t_star
    cont = max(abs(burgers_shock_time(a, 1.0).t_star - t0)
               for a in (1e-9, -1e-9))
    ok &= cont <= 1e-9
    details.append(f"a->0 residual {cont:.2e}")
    _report(1, "Burgers closed-form shock times", ok, "; ".join(details))


def test_acceptance_2_burgers_oracle_agreement():
    ok = True
    details = []
    for a in (0.0, 0.25, 0.5):
        f, df = sine_profile(1.0)
        problem = BurgersProblem(profile=f, a=a, slope=df)
        exact = burgers_shock_time(a, problem.c).t_star
        hist = burgers_direct_solve(problem, grid_n=4096, t_end=exact + 0.3)
        est = estimate_blowup_time(hist.times, hist.max_neg_slope, a)
        err = abs(est.t_star_estimate - exact)
        details.append(f"a={a}: |err|={err:.4f}")
        ok &= err <= 0.02
    f, df = sine_profile(1.0)
    problem = BurgersProblem(profile=f, a=1.0, slope=df)
    hist = burgers_direct_solve(problem, grid_n=1024, t_end=10.0)
    peak = float(np.max(hist.max_neg_slope))
    details.append(f"a=c=1 peak slope {peak:.3f}")
    ok &= peak <= 2.0 * problem.c
    _report(2, "direct solver matches closed form within 0.02", ok,
            "; ".join(details))


def test_acceptance_3_shock_delay_monotone():
    a_values = (-0.5, -0.25, 0.0, 0.25, 0.5)
    burgers = [burgers_shock_time(a, 1.0).t_star for a in a_values]
    quad = [shock_time_3d(1.0, a) for a in a_values]
    ok = (all(b > a for a, b in zip(burgers, burgers[1:]))
          and all(b > a for a, b in zip(quad, quad[1:])))
    _report(3, "shock delay strictly increasing in damping", ok,
            f"burgers {burgers[0]:.3f}..{burgers[-1]:.3f}, "
            f"3d {quad[0]:.3f}..{quad[-1]:.3f}")


def test_acceptance_4_predictor_analytics():
    err_t = abs(shock_time_3d(1.0, 0.0) - (-2.0 * np.exp(-0.25)))
    err_a1 = abs(a1_integral(-1.0, 0.0) - np.log(2.0))
    ok = err_t <= 1e-8 and err_a1 <= 1e-10
    _report(4, "quadrature predictor analytic values", ok,
            f"t* err {err_t:.2e}, A1 err {err_a1:.2e}")


def test_acceptance_5_frame_metric_identities():
    rng = np.random.default_rng(20240817)
    states = random_subsonic_states(10_000, rng)
    worst = 0.0
    for state in states:
        g, g_inv = assemble_metric(state)
        worst = max(worst, float(np.max(np.abs(g @ g_inv - np.eye(4)))))
        fr = build_frames(state)
        L, Lb, N, T = fr.L, fr.Lbar, fr.N, fr.T
        mu, kappa = state.mu, fr.kappa
        scale = max(1.0, kappa) ** 2
        for val, want in ((L @ g @ L, 0.0), (Lb @ g @ Lb, 0.0),
                          (L @ g @ T, -mu), (T @ g @ T, kappa ** 2),
                          (L @ g @ Lb, -2.0 * mu),
                          (N @ g @ N, -state.eta ** 2)):
            worst = max(worst, abs(float(val) - want) / scale)
    ok = worst <= 1e-12
    _report(5, "10^4 random frames satisfy metric identities", ok,
            f"worst residual {worst:.2e}")


def test_acceptance_6_short_pulse_delta_law():
    ratios = []
    for delta in (0.2, 0.1, 0.05, 0.025):
        data = build_annulus_data(bump_seeds(c=1.0, delta=delta),
                                  r_grid_n=1024)
        ratios.append(null_derivative_ratio(data)["ratio"])
    spread = max(ratios) / min(ratios)
    ok = spread <= 2.0
    _report(6, "second null derivative scales like delta", ok,
            f"sup/delta in [{min(ratios):.3f}, {max(ratios):.3f}], "
            f"spread {spread:.3f}")


def test_acceptance_7_dual_mu_and_predictor_convergence(deep_runs):
    ok = True
    details = []
    gaps = {}
    for delta, (hist, bundle) in deep_runs.items():
        sp, tr = bundle.mu_spacing, bundle.mu_transport
        mask = sp >= 0.1
        dual = float(np.max((np.abs(sp - tr) / sp)[mask]))
        details.append(f"d={delta}: dual {dual:.4f}")
        ok &= dual <= 0.02
        lmu0 = lmu_initial(hist, bundle.u)
        it = int(np.argmin(np.abs(bundle.times + 1.8)))
        a1 = a1_integral(float(bundle.times[it]), 0.0)
        gaps[delta] = float(np.max(np.abs(1.0 + 2.0 * a1 * lmu0
                                          - bundle.mu_spacing[it])))
    ratio = gaps[0.02] / gaps[0.01]
    details.append(f"gap ratio {ratio:.2f}")
    ok &= 1.5 <= ratio <= 3.0
    _report(7, "dual-mu <=2% and predictor gap halves with delta", ok,
            "; ".join(details))


def test_acceptance_8_dichotomy_map():
    ok = True
    details = []
    # shock branch: min mu falls below 0.5 before sigma = -0.1
    _, bundle = _pulse_run(c=0.2, delta=0.02, eos=EOS2, t_end=-0.75,
                           r_min=0.6, points_per_delta=64, ray_count=65,
                           sample_dt=5e-4)
    min_mu = float(np.min(bundle.mu_spacing))
    pred = classify_largeness(0.2, 0.0, sigma=-0.1).classification
    details.append(f"c=0.2: min mu {min_mu:.3f}, {pred}")
    ok &= min_mu < 0.5 and bundle.times[-1] < -0.1
    ok &= pred == "ShockBefore"
    # global branch: min mu stays >= 0.5 all the way to sigma
    _, bundle = _pulse_run(c=0.05, delta=0.02, eos=EOS2, t_end=-0.1,
                           r_min=0.05, points_per_delta=64, ray_count=65,
                           sample_dt=5e-4)
    mu_sigma = float(np.min(bundle.mu_spacing[-1]))
    pred = classify_largeness(0.05, 0.0, sigma=-0.1).classification
    details.append(f"c=0.05: mu at sigma {mu_sigma:.3f}, {pred}")
    ok &= bundle.times[-1] == pytest.approx(-0.1, abs=5e-3)
    ok &= mu_sigma >= 0.5
    ok &= pred == "GlobalToSigma"
    _report(8, "shock/global dichotomy matches simulation", ok,
            "; ".join(details))


def test_acceptance_9_chaplygin_control():
    chap = make_chaplygin()
    _, bundle = _pulse_run(c=0.2, delta=0.02, eos=chap, t_end=-0.1,
                           r_min=0.05, points_per_delta=64, ray_count=65,
                           sample_dt=5e-4)
    min_mu = float(np.min(bundle.mu_spacing))
    ok = bundle.times[-1] == pytest.approx(-0.1, abs=5e-3) and min_mu >= 0.9
    _report(9, "Chaplygin background never focuses", ok,
            f"min mu {min_mu:.3f}")
