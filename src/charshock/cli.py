"""Command-line interface.

Subcommands:
  burgers      damped Burgers run of a sine profile on (-1, 1)
  seed-data    short-pulse annulus data as CSV
  euler-radial radial solver run: CSV snapshots + JSON summary
  predict      closed-form shock-time predictor as JSON
  foliate      per-ray mu time series from a stored run history
  sweep        parameter sweep driven by a JSON config
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .burgers import (
    DOMAIN,
    BurgersProblem,
    burgers_direct_solve,
    burgers_mu,
    burgers_shock_time,
    estimate_blowup_time,
    sine_profile,
)
from .eos import make_chaplygin, make_polytropic
from .errors import CharshockError, InvalidParameter, NoBlowupTrend
from .foliation import classify_largeness, lmu_initial, predict_mu, trace_rays
from .harness import SweepConfig, emit_outputs, run_sweep
from .radial import RunHistory, d1, run_until
from .shortpulse import build_annulus_data, bump_seeds


def _out(args):
    """The --out file, or stdout, which leaving the with block must not close."""
    return open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)


def _f(v):
    return repr(float(v))


def cmd_burgers(args):
    f, df = sine_profile(args.c)
    problem = BurgersProblem(profile=f, a=args.a, slope=df)
    report = asdict(burgers_shock_time(args.a, problem.c))
    hist = burgers_direct_solve(problem, grid_n=args.grid, t_end=args.t_end)
    report["status"] = hist.status
    try:
        est = estimate_blowup_time(hist.times, hist.max_neg_slope, args.a)
        report["t_star_direct"] = est.t_star_estimate
        report["confidence_window"] = list(est.confidence_window)
    except NoBlowupTrend:
        report["t_star_direct"] = None
    with _out(args) as fh:
        fh.write("t,max_neg_slope,r_of_t,min_mu_closed_form\n")
        x = np.linspace(*DOMAIN, 1025)
        for t, s in zip(hist.times, hist.max_neg_slope):
            r_of_t = 1.0 / float(s) if s > 0 else float("inf")    # inf past 1/s's range
            min_mu = float(np.min(burgers_mu(x, t, problem)))
            fh.write(f"{_f(t)},{_f(s)},{_f(r_of_t)},{_f(min_mu)}\n")
        fh.write(json.dumps(report) + "\n")
    return 0


def cmd_seed_data(args):
    seeds = bump_seeds(c=args.c, delta=args.delta)
    data = build_annulus_data(seeds, r_grid_n=args.grid)
    r_grid = data.r_grid
    with _out(args) as fh:
        fh.write("r,phi,dtphi\n")
        for r, p, q in zip(r_grid, data.phi_at(r_grid), data.dtphi_at(r_grid)):
            fh.write(f"{_f(r)},{_f(p)},{_f(q)}\n")
        fh.write("s,phi0\n")
        for s, p0 in zip(data.s_grid, data.phi0_profile):
            fh.write(f"{_f(s)},{_f(p0)}\n")
    return 0


def cmd_euler_radial(args):
    if min(args.snapshot_stride, args.r_stride) < 1:
        raise InvalidParameter(
            f"strides must be at least 1, got --snapshot-stride {args.snapshot_stride}"
            f" and --r-stride {args.r_stride}")
    eos = make_chaplygin() if args.chaplygin else make_polytropic(args.gamma)
    data = build_annulus_data(bump_seeds(c=args.c, delta=args.delta))
    hist = run_until(data, a=args.a, eos=eos, t_end=args.t_end,
                     points_per_delta=args.points_per_delta,
                     r_min=args.r_min, sample_dt=args.sample_dt)
    if args.history:
        hist.save(args.history)
    dr = hist.r_grid[1] - hist.r_grid[0]
    max_grad = float(np.max(np.abs(d1(hist.phi[-1], dr))))
    summary = {
        "status": hist.status,
        "message": hist.message,
        "last_good_time": hist.last_good_time,
        "n_snapshots": int(len(hist.times)),
        "window_points": int(hist.phi.shape[1]),
        "snapshot_bytes": int(hist.phi.nbytes + hist.dtphi.nbytes),
        "max_dphi_dr_final": max_grad,
        "eos": hist.eos.record(),
        "a": hist.a,
        "delta": hist.delta,
        "version": __version__,
    }
    with _out(args) as fh:
        fh.write("t,r,phi,dtphi\n")
        for i in range(0, len(hist.times), args.snapshot_stride):
            t, first = hist.times[i], hist.start[i]
            for j in range(0, hist.phi.shape[1], args.r_stride):
                fh.write(f"{_f(t)},{_f(hist.r_grid[first + j])},"
                         f"{_f(hist.phi[i, j])},{_f(hist.dtphi[i, j])}\n")
        fh.write(json.dumps(summary) + "\n")
    return 0


def cmd_predict(args):
    pred = asdict(classify_largeness(args.c, args.a, sigma=args.sigma))
    if pred["classification"] != "ShockBefore":
        pred["t_star"] = None           # no shock time: null, as burgers writes it
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
    s.add_argument("--out")
    s.set_defaults(func=cmd_seed_data)

    e = sub.add_parser("euler-radial", help="radial solver run")
    e.add_argument("--delta", type=float, default=0.02)
    e.add_argument("--a", type=float, default=0.0)
    e.add_argument("--c", type=float, default=0.2)
    e.add_argument("--gamma", type=float, default=2.0)
    e.add_argument("--chaplygin", action="store_true")
    e.add_argument("--t-end", type=float, default=-1.5)
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
    w.add_argument("--workers", type=int, default=1)
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
