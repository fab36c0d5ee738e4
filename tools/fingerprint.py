"""Print one "name sha256" line per artefact that charshock computes, so that
two source trees can be compared for bit identity.

    python tools/fingerprint.py [--src DIR] [--save DIR] [--against DIR]

--src is the tree's src/ directory (default: the one next to this file);
run the script once against each tree and diff the two outputs.  --save also
writes each artefact's bytes to DIR/<name>.  --against reads the artefacts
that another run saved in DIR and, under each artefact whose sha256 differs,
prints how far each of its arrays moved: the largest absolute difference and
the largest relative one (over the entries that are nonzero in DIR's), on
the leading rows both hold when their row counts differ.  A text artefact
reports how many of its lines differ.  With --against the exit status is 1
when any artefact differs from DIR's or is missing there, else 0, so the
bit-identity check of a change is this one command.

The artefacts:
  * focus.*, reach_sigma.*: run_until's arrays, the trace_rays bundle and
    lmu_initial on the pulse inputs of the benchmark's focus and
    reach_sigma workloads, with c exact, and <pulse>.reloaded, the bundle
    and lmu_initial of that history after a save and load, traced with
    eos=None so that the EOS comes from the file;
  * damped_table.*: the same on a damped pulse (a = 0.5) through the
    custom table eta^2 = 1 + 0.8 h + 0.3 h^2, the one run whose mu
    transport reads the damping term a dphi/dr and a table's d eta^2/dh;
  * radial.nonfinite: run_until's arrays, status and message of a Chaplygin
    run of bump_seeds(c=1e150, delta=0.1) on r_grid_n = 256 at 16 points
    per delta from r_min = 1.6 to t_end = -1.9, whose first right-hand side
    is not finite, so it ends NonFinite at t = -2 with one snapshot;
  * trace.stops: the trace_rays bundles (gamma = 2, 33 rays) of the three
    histories of _stop_histories, one for each rule that drops a step's row;
  * burgers.a*_c*: the six Burgers cells of the calibrate workload, their
    solve and fitted blow-up time, and burgers.a-1_c1_grid777, a solve on
    777 cells up to t = 2, past its shock at t = -1 + ln 2, where dx = 2/777
    is not a power of two, and burgers.small_a, the fitted blow-up time and
    window of the c = 1 sine run on 512 cells up to t = 0.5 at
    a in {-1e-8, 1e-9, 2e-9, 5e-324}, where the shift from a = 0 is tiny;
  * predict.t_star: classify_largeness's t* over a 41 x 60 (a, c) grid;
  * predict.a1_fallbacks: a1_integral at t in {-1.9, -1.5, -0.1} and
    |a| > 354, where the closed form overflows and quadrature answers, and
    classify_largeness(1, a) at a = 400 and -360;
  * shortpulse.null_ratio: null_derivative_ratio's two numbers, as JSON, for
    the four delta of acceptance 6 at r_grid_n = 1024;
  * cli.*: the stdout of small burgers, predict, seed-data and euler-radial
    runs; in both seed-data runs the outer edge r = 2 + delta has
    s = (r - 2)/delta one ulp past 1, the seed grid's last node;
  * sweep.*: the sweep.csv and series.csv that the sweep command writes for
    a small burgers sweep with the finite-volume oracle (its a = 0.5,
    c = 0.5 cell is Global, and its blow-up fit fails with NoBlowupTrend
    after the solve), an 8 x 8 predict
    sweep and four euler cells at delta = 0.1 (summary.json holds runtimes
    and is left out): c = 1 reaches sigma with its min mu, c = 10 and -30
    trace a simulated shock time, and c = 100 breaks down (EosDomain), so
    each column of an euler row is pinned.

It takes about 10 s on a 2-core machine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

_H_TABLE = np.linspace(-0.5, 0.5, 9)
PULSES = {
    "focus": dict(eos={"family": "polytropic", "gamma": 2.0}, a=0.0, c=1.0, delta=0.02,
                  points_per_delta=64, r_min=1.2, t_end=-1.48, samples_per_delta=40,
                  rays=257),
    "reach_sigma": dict(eos={"family": "chaplygin"}, a=0.0, c=0.2, delta=0.04,
                        points_per_delta=32, r_min=0.05, t_end=-0.1,
                        samples_per_delta=10, rays=65),
    "damped_table": dict(eos={"family": "custom", "h_table": _H_TABLE.tolist(),
                              "eta_sq_table": (1.0 + 0.8 * _H_TABLE
                                               + 0.3 * _H_TABLE**2).tolist()},
                         a=0.5, c=1.0, delta=0.05, points_per_delta=32, r_min=1.5,
                         t_end=-1.7, samples_per_delta=20, rays=65),
}
CLI_RUNS = {
    "burgers": ["burgers", "--a", "0.25", "--grid", "512", "--t-end", "0.5"],
    "predict": ["predict", "--c", "0.5", "--a", "0.25"],
    "predict_below": ["predict", "--c", "0.1"],
    "seed_data": ["seed-data", "--c", "1.0", "--delta", "0.1", "--grid", "64"],
    "seed_data_wide": ["seed-data", "--c", "-0.7", "--delta", "0.78", "--grid", "64"],
    "euler_radial": ["euler-radial", "--delta", "0.1", "--c", "1.0", "--t-end", "-1.8",
                     "--r-min", "1.6", "--points-per-delta", "16", "--r-stride", "4"],
}
SWEEPS = {
    "burgers": {"mode": "burgers", "a_values": [0.0, 0.5], "c_values": [0.5, 1.0],
                "solver": {"simulate": True, "grid_n": 512, "t_end": 0.5}},
    "predict": {"mode": "predict", "a_values": np.linspace(-0.5, 0.5, 8).tolist(),
                "c_values": np.geomspace(0.05, 2.0, 8).tolist()},
    "euler": {"mode": "euler", "a_values": [0.25], "c_values": [-30.0, 1.0, 10.0, 100.0],
              "delta_values": [0.1], "sigma": -1.8,
              "solver": {"points_per_delta": 16, "r_min": 1.6, "ray_count": 33}},
}


def _stop_histories(radial, law):
    """Three histories whose rays stop by a rule that drops the step's row: on
    a zero field over r = linspace(1, 3.5, 501), where the rays sit at
    2 + u - (t + 2), one leaves the window of 200 points stored from index 150
    (25 of 51 rows kept) and one passes r_grid[0] + 2 dr (199 of 221 rows);
    on dphi = 0.45 (1 + tanh((r - 1.1)/0.02)) with dtphi = dphi^2/2, so that
    eta = 1, the rays slow from speed 1.9 to 1 as they pass r = 1.1 and cross
    at the first step (1 of 2 rows)."""
    def zero(times, width, start):
        z = np.zeros((len(times), width))
        return radial.RunHistory(r_grid=np.linspace(1.0, 3.5, 501), times=times, phi=z,
                                 dtphi=z, a=0.0, delta=0.1, status="Completed", eos=law,
                                 start=np.full(len(times), start))

    r = np.linspace(0.5, 3.5, 3001)
    x = (r - 1.1) / 0.02
    phi = 0.45 * (r + 0.02 * (np.logaddexp(x, -x) - np.log(2.0)))     # int dphi dr
    dtphi = 0.5 * (0.45 * (1.0 + np.tanh(x))) ** 2
    crossing = radial.RunHistory(r_grid=r, times=np.array([-2.0, -1.5]),
                                 phi=np.stack((phi, phi)), dtphi=np.stack((dtphi, dtphi)),
                                 a=0.0, delta=0.1, status="Completed", eos=law)
    return [zero(np.linspace(-2.0, -1.5, 51), 200, 150),
            zero(np.linspace(-2.0, -0.9, 221), 501, 0), crossing]


def _blob(*arrays):
    """The bytes of the arrays, each with its dtype and shape."""
    out = io.BytesIO()
    for x in map(np.asarray, arrays):
        out.write(f"{x.dtype.str}{x.shape}".encode())
        out.write(np.ascontiguousarray(x).tobytes())
    return out.getvalue()


_HEADER = re.compile(rb"([<>|=][a-zA-Z]\d+)\(([\d, ]*)\)")


def _unblob(blob):
    """(arrays, text): the arrays _blob wrote, in order, and the bytes after them."""
    arrays, pos = [], 0
    while m := _HEADER.match(blob, pos):
        dtype = np.dtype(m[1].decode())
        shape = tuple(int(n) for n in m[2].split(b",") if n.strip())
        size = dtype.itemsize * int(np.prod(shape))
        arrays.append(np.frombuffer(blob, dtype, int(np.prod(shape)), m.end()).reshape(shape))
        pos = m.end() + size
    return arrays, blob[pos:]


def _moved(new, old):
    """Lines saying how far each array of the blob new moved from the blob old."""
    (a_new, t_new), (a_old, t_old) = _unblob(new), _unblob(old)
    out = []
    for j, (x, y) in enumerate(zip(a_new, a_old)):
        note = "" if x.shape == y.shape else f" (shape {y.shape} -> {x.shape})"
        if x.shape[1:] != y.shape[1:] or x.dtype.kind not in "fiu":
            out.append(f"  array {j}: not comparable{note}")
            continue
        x, y = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, y))   # a scalar: one row
        rows = min(len(x), len(y))
        x, y = x[:rows], y[:rows]
        diff, both_nan = np.abs(x - y), np.isnan(x) & np.isnan(y)
        diff[both_nan] = 0.0
        nonzero = (y != 0.0) & ~both_nan
        rel = np.max(diff[nonzero] / np.abs(y[nonzero]), initial=0.0)
        out.append(f"  array {j}: max abs {np.max(diff, initial=0.0):.3g}, "
                   f"max rel {rel:.3g}{note}")
    if len(a_new) != len(a_old):
        out.append(f"  {len(a_old)} arrays -> {len(a_new)}")
    if t_new != t_old:
        l_new, l_old = t_new.splitlines(), t_old.splitlines()
        changed = sum(p != q for p, q in zip(l_new, l_old)) + abs(len(l_new) - len(l_old))
        out.append(f"  text: {changed} of {len(l_old)} lines differ")
    return out


def artefacts():
    """Yield (name, bytes) for every artefact, in a fixed order."""
    from charshock import burgers, cli, eos, foliation, radial, shortpulse

    for name, p in PULSES.items():
        law = eos.eos_from_config(p["eos"])
        data = shortpulse.build_annulus_data(
            shortpulse.bump_seeds(c=p["c"], delta=p["delta"]), r_grid_n=2048)
        hist = radial.run_until(data, a=p["a"], eos=law, t_end=p["t_end"],
                                points_per_delta=p["points_per_delta"], r_min=p["r_min"],
                                pad=0.3, sample_dt=p["delta"] / p["samples_per_delta"])
        bundle = foliation.trace_rays(hist, ray_count=p["rays"], eos=law)
        yield f"{name}.run_until", _blob(hist.r_grid, hist.times, hist.phi, hist.dtphi,
                                         hist.start) + f"{hist.status}:{hist.message}".encode()
        yield f"{name}.trace_rays", _blob(bundle.u, bundle.times, bundle.r,
                                          bundle.mu_spacing, bundle.mu_transport)
        yield f"{name}.lmu_initial", _blob(foliation.lmu_initial(hist, bundle.u, law))
        with tempfile.TemporaryDirectory() as tmp:
            hist.save(Path(tmp) / "run.npz")
            loaded = radial.RunHistory.load(Path(tmp) / "run.npz")
        again = foliation.trace_rays(loaded, ray_count=p["rays"])
        yield f"{name}.reloaded", _blob(again.u, again.times, again.r, again.mu_spacing,
                                        again.mu_transport,
                                        foliation.lmu_initial(loaded, again.u))

    law = eos.eos_from_config({"family": "chaplygin"})
    data = shortpulse.build_annulus_data(shortpulse.bump_seeds(c=1e150, delta=0.1),
                                         r_grid_n=256)
    hist = radial.run_until(data, a=0.0, eos=law, t_end=-1.9, points_per_delta=16, r_min=1.6)
    yield "radial.nonfinite", _blob(hist.r_grid, hist.times, hist.phi, hist.dtphi,
                                    hist.start) + f"{hist.status}:{hist.message}".encode()

    stops = [foliation.trace_rays(hist, ray_count=33)
             for hist in _stop_histories(radial, eos.make_polytropic(2.0))]
    yield "trace.stops", _blob(*(getattr(b, f) for b in stops
                                 for f in ("times", "r", "mu_spacing", "mu_transport")))

    for a in (0.0, 0.25, 0.5):
        for c in (1.0, 1.5):
            f, df = burgers.sine_profile(c)
            hist = burgers.burgers_direct_solve(
                burgers.BurgersProblem(profile=f, a=a, slope=df), grid_n=4096, t_end=0.6)
            est = burgers.estimate_blowup_time(hist.times, hist.max_neg_slope, a)
            yield f"burgers.a{a}_c{c}", _blob(hist.times, hist.max_neg_slope, hist.phi,
                                              est.t_star_estimate, est.confidence_window)
    f, df = burgers.sine_profile(1.0)
    hist = burgers.burgers_direct_solve(
        burgers.BurgersProblem(profile=f, a=-1.0, slope=df), grid_n=777, t_end=2.0)
    yield "burgers.a-1_c1_grid777", _blob(hist.times, hist.max_neg_slope, hist.phi) \
        + hist.status.encode()
    fits = []
    for a in (-1e-8, 1e-9, 2e-9, 5e-324):
        hist = burgers.burgers_direct_solve(
            burgers.BurgersProblem(profile=f, a=a, slope=df), grid_n=512, t_end=0.5)
        est = burgers.estimate_blowup_time(hist.times, hist.max_neg_slope, a)
        fits.append((est.t_star_estimate, *est.confidence_window))
    yield "burgers.small_a", _blob(np.array(fits))

    t_star = [[foliation.classify_largeness(c, a).t_star for c in np.geomspace(0.05, 1e4, 60)]
              for a in np.linspace(-0.5, 0.5, 41)]
    yield "predict.t_star", _blob(np.array(t_star))
    a1 = [[foliation.a1_integral(t, a) for a in (400.0, 1e5, 1e300, -360.0)]
          for t in (-1.9, -1.5, -0.1)]
    preds = [foliation.classify_largeness(1.0, a) for a in (400.0, -360.0)]
    yield "predict.a1_fallbacks", _blob(np.array(a1), np.array(
        [(p.a_star, p.c_shock, p.c_global, p.t_star) for p in preds]))

    ratios = [shortpulse.null_derivative_ratio(shortpulse.build_annulus_data(
        shortpulse.bump_seeds(c=1.0, delta=delta), r_grid_n=1024))
        for delta in (0.2, 0.1, 0.05, 0.025)]
    yield "shortpulse.null_ratio", json.dumps(ratios).encode()

    for name, argv in CLI_RUNS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        yield f"cli.{name}", f"exit {code}\n{out.getvalue()}".encode()

    for name, cfg in SWEEPS.items():
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps(cfg))
            code = cli.main(["sweep", "--config", str(config), "--out", tmp])
            for table in ("sweep", "series"):
                yield f"sweep.{name}.{table}", \
                    f"exit {code}\n".encode() + (Path(tmp) / f"{table}.csv").read_bytes()


def main(argv=None):
    root = Path(__file__).resolve().parents[1]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=str(root / "src"), help="the src/ directory to import")
    p.add_argument("--save", help="also write each artefact's bytes to this directory")
    p.add_argument("--against", help="a --save directory to report the differences from")
    args = p.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    if args.save:
        Path(args.save).mkdir(parents=True, exist_ok=True)
    moved = 0                       # artefacts that differ from, or are missing in, --against
    for name, blob in artefacts():
        print(name, hashlib.sha256(blob).hexdigest(), flush=True)
        if args.save:
            (Path(args.save) / name).write_bytes(blob)
        if args.against:
            old = Path(args.against) / name
            if not old.exists():
                print(f"  not in {args.against}")
                moved += 1
            elif old.read_bytes() != blob:
                print("\n".join(_moved(blob, old.read_bytes())), flush=True)
                moved += 1
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
