"""Command-line interface.

Subcommands:
  burgers      damped Burgers run from a JSON problem spec
  seed-data    short-pulse annulus data as CSV
  euler-radial radial solver run: CSV snapshots + JSON summary
  predict      closed-form shock-time predictor as JSON
  foliate      per-ray mu time series from a stored run history
  sweep        parameter sweep driven by a JSON config
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .burgers import (
    BurgersProblem,
    burgers_direct_solve,
    burgers_mu,
    burgers_shock_time,
    estimate_blowup_time,
    sine_profile,
)
from .eos import make_chaplygin, make_polytropic
from .errors import CharshockError, ConfigInvalid, NoBlowupTrend, NoRootBeforeSigma
from .foliation import (
    classify_largeness,
    lmu_initial,
    predict_mu,
    shock_time_3d,
    trace_rays,
)
from .harness import SweepConfig, emit_outputs, run_sweep
from .radial import RunHistory, run_until
from .shortpulse import build_annulus_data, bump_seeds


def _out(args):
    return open(args.out, "w") if args.out else sys.stdout


def _f(v):
    return repr(float(v))


def _is_number(v, kind=(int, float)):
    return isinstance(v, kind) and not isinstance(v, bool)


def _problem_spec(path):
    """The burgers --problem JSON object: grid_n an integer, domain a pair of
    numbers, a, c, wavelength, t_end and cfl numbers."""
    with open(path) as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"problem spec is not valid JSON: {exc}") from None
    if not isinstance(spec, dict):
        raise ConfigInvalid(f"problem spec must be a JSON object, got {type(spec).__name__}")
    bad = [k for k in ("a", "c", "wavelength", "t_end", "cfl", "grid_n") if k in spec
           and not _is_number(spec[k], int if k == "grid_n" else (int, float))]
    domain = spec.get("domain", [-1.0, 1.0])
    if not (isinstance(domain, list) and len(domain) == 2 and all(map(_is_number, domain))):
        bad.append("domain")
    if bad:
        raise ConfigInvalid(f"problem spec fields of the wrong type: {', '.join(bad)}")
    return spec


def cmd_burgers(args):
    spec = _problem_spec(args.problem) if args.problem else {}
    a = spec.get("a", args.a)
    c = spec.get("c", args.c)
    f, df = sine_profile(c, wavelength=spec.get("wavelength", 2.0))
    problem = BurgersProblem(profile=f, a=a, slope=df,
                             domain=tuple(spec.get("domain", (-1.0, 1.0))))
    report = burgers_shock_time(a, problem.c).to_dict()
    hist = burgers_direct_solve(problem, grid_n=spec.get("grid_n", args.grid),
                                t_end=spec.get("t_end", args.t_end),
                                cfl=spec.get("cfl", 0.5))
    try:
        est = estimate_blowup_time(hist.times, hist.max_neg_slope, a)
        report["t_star_direct"] = est.t_star_estimate
        report["confidence_window"] = list(est.confidence_window)
    except NoBlowupTrend:
        report["t_star_direct"] = None
    with _out(args) as fh:
        fh.write("t,max_neg_slope,r_of_t,min_mu_closed_form\n")
        x = np.linspace(problem.domain[0], problem.domain[1], 1025)
        for t, s in zip(hist.times, hist.max_neg_slope):
            r_of_t = 1.0 / s if s > 0 else float("inf")
            min_mu = float(np.min(burgers_mu(x, t, problem)))
            fh.write(f"{_f(t)},{_f(s)},{_f(r_of_t)},{_f(min_mu)}\n")
        fh.write(json.dumps(report) + "\n")
    return 0


def _eos_from_args(args):
    if args.chaplygin:
        return make_chaplygin()
    return make_polytropic(args.gamma)


def cmd_seed_data(args):
    seeds = bump_seeds(c=args.c, delta=args.delta)
    data = build_annulus_data(seeds, r_grid_n=args.grid,
                              width_mode=args.width_mode)
    with _out(args) as fh:
        fh.write("r,phi,dtphi\n")
        for r, p, q in zip(data.r_grid, data.phi_at_minus2, data.dtphi_at_minus2):
            fh.write(f"{_f(r)},{_f(p)},{_f(q)}\n")
        fh.write("s,phi0\n")
        for s, p0 in zip(data.s_grid, data.phi0_profile):
            fh.write(f"{_f(s)},{_f(p0)}\n")
    return 0


def cmd_euler_radial(args):
    eos = _eos_from_args(args)
    data = build_annulus_data(bump_seeds(c=args.c, delta=args.delta),
                              r_grid_n=512)
    hist = run_until(data, a=args.a, eos=eos, t_end=args.t_end, cfl=args.cfl,
                     points_per_delta=args.points_per_delta,
                     r_min=args.r_min, sample_dt=args.sample_dt)
    if args.history:
        hist.save(args.history)
    dr = hist.r_grid[1] - hist.r_grid[0]
    max_grad = float(np.max(np.abs(np.gradient(hist.phi[-1], dr))))
    summary = {
        "status": hist.status,
        "message": hist.message,
        "last_good_time": hist.last_good_time,
        "n_snapshots": int(len(hist.times)),
        "max_dphi_dr_final": max_grad,
        "eos": hist.eos_meta,
        "a": hist.a,
        "delta": hist.delta,
        "version": __version__,
    }
    with _out(args) as fh:
        fh.write("t,r,phi,dtphi\n")
        for i in range(0, len(hist.times), max(1, args.snapshot_stride)):
            t = hist.times[i]
            for j in range(0, len(hist.r_grid), max(1, args.r_stride)):
                fh.write(f"{_f(t)},{_f(hist.r_grid[j])},"
                         f"{_f(hist.phi[i, j])},{_f(hist.dtphi[i, j])}\n")
        fh.write(json.dumps(summary) + "\n")
    return 0


def cmd_predict(args):
    pred = classify_largeness(args.c, args.a, sigma=args.sigma,
                              delta=args.delta).to_dict()
    # alternative single-c normalization of the shock-time integral
    try:
        pred["t_star_single_c"] = shock_time_3d(args.c, args.a,
                                                sigma=args.sigma,
                                                coefficient=1.0)
    except NoRootBeforeSigma:
        pred["t_star_single_c"] = None
    with _out(args) as fh:
        fh.write(json.dumps(pred, indent=2) + "\n")
    return 0


def cmd_foliate(args):
    hist = RunHistory.load(args.history)
    bundle = trace_rays(hist, ray_count=args.rays)
    lmu = lmu_initial(hist, bundle.u)
    with _out(args) as fh:
        fh.write("t,u,r,mu_spacing,mu_transport,mu_predicted\n")
        for i, t in enumerate(bundle.times):
            mu_hat = predict_mu(float(t), lmu, hist.a)
            for j, u in enumerate(bundle.u):
                fh.write(f"{_f(t)},{_f(u)},{_f(bundle.r[i, j])},"
                         f"{_f(bundle.mu_spacing[i, j])},"
                         f"{_f(bundle.mu_transport[i, j])},{_f(mu_hat[j])}\n")
    return 0


def cmd_sweep(args):
    with open(args.config) as fh:
        cfg = SweepConfig.from_json(fh.read())
    result = run_sweep(cfg, workers=args.workers)
    emit_outputs(result, args.out)
    return 2 if result.n_failed else 0


def build_parser():
    p = argparse.ArgumentParser(prog="charshock",
                                description=__doc__.strip().splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("burgers", help="damped Burgers run")
    b.add_argument("--problem", help="JSON problem spec file")
    b.add_argument("--a", type=float, default=0.0)
    b.add_argument("--c", type=float, default=1.0)
    b.add_argument("--grid", type=int, default=2048)
    b.add_argument("--t-end", type=float, default=2.0)
    b.add_argument("--out")
    b.set_defaults(func=cmd_burgers)

    s = sub.add_parser("seed-data", help="short-pulse annulus data")
    s.add_argument("--c", type=float, default=1.0)
    s.add_argument("--delta", type=float, default=0.1)
    s.add_argument("--grid", type=int, default=512)
    s.add_argument("--width-mode", choices=("delta", "delta_squared"),
                   default="delta")
    s.add_argument("--out")
    s.set_defaults(func=cmd_seed_data)

    e = sub.add_parser("euler-radial", help="radial solver run")
    e.add_argument("--delta", type=float, default=0.02)
    e.add_argument("--a", type=float, default=0.0)
    e.add_argument("--c", type=float, default=0.2)
    e.add_argument("--gamma", type=float, default=2.0)
    e.add_argument("--chaplygin", action="store_true")
    e.add_argument("--t-end", type=float, default=-1.5)
    e.add_argument("--cfl", type=float, default=0.4)
    e.add_argument("--points-per-delta", type=int, default=64)
    e.add_argument("--r-min", type=float, default=0.05)
    e.add_argument("--sample-dt", type=float, default=None)
    e.add_argument("--snapshot-stride", type=int, default=10)
    e.add_argument("--r-stride", type=int, default=8)
    e.add_argument("--history", help="save the full history as .npz")
    e.add_argument("--out")
    e.set_defaults(func=cmd_euler_radial)

    pr = sub.add_parser("predict", help="closed-form shock-time predictor")
    pr.add_argument("--c", type=float, required=True)
    pr.add_argument("--a", type=float, default=0.0)
    pr.add_argument("--sigma", type=float, default=-0.1)
    pr.add_argument("--delta", type=float, default=0.0)
    pr.add_argument("--out")
    pr.set_defaults(func=cmd_predict)

    f = sub.add_parser("foliate", help="per-ray mu series from a history")
    f.add_argument("--history", required=True)
    f.add_argument("--rays", type=int, default=65)
    f.add_argument("--out")
    f.set_defaults(func=cmd_foliate)

    w = sub.add_parser("sweep", help="parameter sweep")
    w.add_argument("--config", required=True)
    w.add_argument("--out", required=True)
    w.add_argument("--workers", type=int, default=None)
    w.set_defaults(func=cmd_sweep)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CharshockError, OSError) as exc:  # user errors, incl. unreadable files
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
