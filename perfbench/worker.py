"""One benchmark run of one workload, in the fresh process run.py starts.

Sets up the workload's inputs from the seed, repeats its timed pass until
the next pass would overrun ``--seconds`` (at least one pass), checks every
pass's outputs and prints one JSON object on stdout. With ``--trace 1`` the
passes alternate untraced and traced, and the traced ones give the
per-layer figures. With ``--setup-only`` it stops after set-up, so run.py can
time set-up in several fresh processes.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from layers import layer_figures, layer_totals  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import KEEP, WORKLOADS  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload](smoke=args.smoke)
    rng = np.random.default_rng(args.seed)
    setup_rec = Recorder(trace=bool(args.trace))
    with setup_rec.installed():
        inp = workload.setup(rng, args.workdir)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_tab = setup_rec.table()

    walls, overheads, layers, totals, pass_figures = [], [], [], [], []
    checks = {}
    begin = time.perf_counter()
    modes = (False, True) if args.trace else (False,)
    while True:
        for traced in modes:
            rec = Recorder(trace=traced, keep=KEEP)
            with rec.installed():
                t0 = time.perf_counter()
                out = workload.run(inp)
                wall = time.perf_counter() - t0
            pass_checks, figs = workload.check(inp, out, rec.kept)
            for c in pass_checks:
                agg = checks.setdefault(c.name, {"kind": c.kind, "attempted": 0,
                                                 "failed": 0, "detail": c.detail})
                agg["attempted"] += c.attempted
                agg["failed"] += c.failed
            if traced:
                tab = rec.table()
                layers.append(layer_figures(tab, rec.kept, setup_tab, wall))
                totals.append(layer_totals(tab))
                overheads.append(wall - walls[-1])
            else:
                walls.append(wall)
                pass_figures.append(figs)
            del out, rec
        elapsed = time.perf_counter() - begin
        if elapsed * (len(walls) + 1) / len(walls) > args.seconds:
            break

    figures = {k: statistics.median(f[k] for f in pass_figures) for k in pass_figures[0]}
    attempted = sum(c["attempted"] for c in checks.values())
    failed = sum(c["failed"] for c in checks.values())
    result = {
        "setup_s": setup_s,
        "walls": walls,
        "correct": all(c["failed"] == 0 for c in checks.values() if c["kind"] == "result"),
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "figures": figures,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if args.trace:
        result["layers"], result["layer_totals"] = (
            {name: statistics.median(f[name] for f in samples) for name in samples[0]}
            for samples in (layers, totals))
        result["layers"]["bench.trace_overhead_s"] = statistics.median(overheads)
        for name in ("mu_dual_gap", "predictor_gap", "t_star_err"):
            result["layers"][f"result.{name}"] = figures.get(name, 0.0)
        result["layers"]["result.failed_frac"] = failed / attempted
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
