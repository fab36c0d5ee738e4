"""The benchmark's workloads: inputs drawn from a seed, one timed pass, checks.

Every workload is a single-process closed loop: one pass runs to completion
before the next starts, and sweeps run with one harness worker. A workload's
``run`` is the timed region; ``setup`` (before timing) and ``check`` (after
timing) are not in it. The program is reached only through module
attributes (``radial.run_until``), so the spans that ``spans.Recorder``
installs see every call.

A check counts one attempted operation per output it inspects. Checks of
kind ``result`` test numbers the program computed against the acceptance
thresholds and decide ``correct``; checks of kind ``artefact`` test that a
file the program wrote loads back, and count in ``failed`` only.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from charshock import cli, eos, foliation, geometry, radial, shortpulse

# Return values the checks and the per-layer figures read.
KEEP = ("radial.run_until", "foliation.trace_rays", "burgers.burgers_direct_solve",
        "harness.run_sweep", "harness.emit_outputs")


@dataclass
class Check:
    name: str
    kind: str          # 'result' or 'artefact'
    attempted: int
    failed: int
    detail: str = ""


def _count(name, kind, oks, detail=""):
    oks = list(oks)
    return Check(name, kind, len(oks), sum(1 for ok in oks if not ok), detail)


def mu_dual_gap(bundle):
    """max |mu_spacing - mu_transport| / mu_spacing where mu_spacing >= 0.1."""
    sp, tr = bundle.mu_spacing, bundle.mu_transport
    mask = sp >= 0.1
    return float(np.max((np.abs(sp - tr) / sp)[mask]))


class Pulse:
    """Short-pulse data, radial solve and ray bundle; the shared pulse pass."""

    full: dict
    smoke: dict

    def __init__(self, smoke=False):
        self.p = self.smoke if smoke else self.full

    def setup(self, rng, workdir):
        p = self.p
        c = p["c"] * (1.0 + rng.uniform(-0.02, 0.02))
        seeds = shortpulse.bump_seeds(c=c, delta=p["delta"])
        return {"c": c, "eos": eos.eos_from_config(p["eos"]),
                "data": shortpulse.build_annulus_data(seeds, r_grid_n=2048)}

    def run(self, inp):
        p = self.p
        hist = radial.run_until(
            inp["data"], a=0.0, eos=inp["eos"], t_end=p["t_end"],
            points_per_delta=p["points_per_delta"], r_min=p["r_min"],
            pad=0.3, sample_dt=p["delta"] / p["samples_per_delta"])
        bundle = foliation.trace_rays(hist, ray_count=p["rays"], eos=inp["eos"])
        return {"hist": hist, "bundle": bundle}


class Focus(Pulse):
    """Polytropic gamma=2 pulse traced into the focusing regime."""

    full = {"eos": {"family": "polytropic", "gamma": 2.0}, "c": 1.0,
            "delta": 0.02, "points_per_delta": 64, "r_min": 1.2,
            "t_end": -1.48, "samples_per_delta": 40, "rays": 257,
            "gap_time": -1.8}
    smoke = dict(full, delta=0.05, points_per_delta=32, r_min=1.7,
                 t_end=-1.75, samples_per_delta=20, rays=65, gap_time=-1.85)

    def run(self, inp):
        out = super().run(inp)
        hist, bundle = out["hist"], out["bundle"]
        lmu0 = foliation.lmu_initial(hist, bundle.u, inp["eos"])
        it = int(np.argmin(np.abs(bundle.times - self.p["gap_time"])))
        mu_hat = foliation.predict_mu(float(bundle.times[it]), lmu0, hist.a)
        out["predictor_gap"] = float(np.max(np.abs(mu_hat - bundle.mu_spacing[it])))
        return out

    def check(self, inp, out, kept):
        gap = mu_dual_gap(out["bundle"])
        checks = [
            _count("status_completed", "result", [out["hist"].status == "Completed"],
                   out["hist"].status),
            _count("mu_dual_gap<=0.02", "result", [gap <= 0.02], f"{gap:.5f}"),
        ]
        return checks, {"mu_dual_gap": gap, "predictor_gap": out["predictor_gap"]}


class ReachSigma(Pulse):
    """Chaplygin pulse over the whole annulus-to-origin grid up to sigma."""

    full = {"eos": {"family": "chaplygin"}, "c": 0.2, "delta": 0.04,
            "points_per_delta": 32, "r_min": 0.05, "t_end": -0.1,
            "samples_per_delta": 10, "rays": 65}
    smoke = dict(full, delta=0.1, points_per_delta=16, r_min=0.5, t_end=-1.0,
                 samples_per_delta=5)

    def check(self, inp, out, kept):
        bundle = out["bundle"]
        t_last = float(bundle.times[-1])
        min_mu = float(np.min(bundle.mu_spacing))
        checks = [
            _count("reaches_t_end", "result",
                   [abs(t_last - self.p["t_end"]) <= 5e-3], f"t={t_last:.5f}"),
            _count("min_mu>=0.9", "result", [min_mu >= 0.9], f"{min_mu:.5f}"),
        ]
        return checks, {"mu_dual_gap": mu_dual_gap(bundle), "min_mu": min_mu}


def _jittered(rng, lo, hi, n):
    """n sorted points of an even grid on [lo, hi], each moved by up to 1/4 step."""
    grid = np.linspace(lo, hi, n)
    step = (hi - lo) / (n - 1)
    return np.clip(grid + rng.uniform(-0.25, 0.25, n) * step, lo, hi)


def _burgers_t_star(a, c):
    """Closed-form damped-Burgers shock time for the sine profile of slope c."""
    return -1.0 + 1.0 / c if a == 0.0 else -math.log1p(-a / c) / a - 1.0


def _frame_residual(state, metric, frames):
    """Worst residual of the metric and null-frame identities (acceptance 5)."""
    g, g_inv = metric
    worst = float(np.max(np.abs(g @ g_inv - np.eye(4))))
    L, Lb, N, T = frames.L, frames.Lbar, frames.N, frames.T
    mu, kappa = state.mu, frames.kappa
    scale = max(1.0, kappa) ** 2
    for val, want in ((L @ g @ L, 0.0), (Lb @ g @ Lb, 0.0), (L @ g @ T, -mu),
                      (T @ g @ T, kappa ** 2), (L @ g @ Lb, -2.0 * mu),
                      (N @ g @ N, -state.eta ** 2)):
        worst = max(worst, abs(float(val) - want) / scale)
    return worst


def _csv_bad_rows(path):
    """Rows of a CSV file whose field count differs from its header's."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return sum(1 for row in reader if len(row) != len(header))


class Calibrate:
    """Predictor map, Burgers calibration sweep and random frames; no PDE."""

    full = {"map_n": 64, "burgers_a": (0.0, 0.25, 0.5), "burgers_c": (1.0, 1.5),
            "grid_n": 4096, "t_end": 0.6, "frames": 10_000}
    smoke = dict(full, map_n=8, burgers_a=(0.0, 0.5), burgers_c=(1.0,),
                 grid_n=1024, frames=200)
    sigma = -0.1

    def __init__(self, smoke=False):
        self.p = self.smoke if smoke else self.full

    def setup(self, rng, workdir):
        p, n = self.p, self.p["map_n"]
        a_values = _jittered(rng, -0.5, 0.5, n)
        a_values[np.argmin(np.abs(a_values))] = 0.0
        c_values = _jittered(rng, 0.05, 2.0, n)
        polytropic = [{"family": "polytropic", "gamma": 2.0}]
        configs = {
            "map": {"mode": "predict", "a_values": a_values.tolist(),
                    "c_values": c_values.tolist(), "eos_values": polytropic,
                    "sigma": self.sigma},
            "burgers": {"mode": "burgers", "a_values": list(p["burgers_a"]),
                        "c_values": list(p["burgers_c"]), "eos_values": polytropic,
                        "solver": {"simulate": True, "grid_n": p["grid_n"],
                                   "t_end": p["t_end"]}},
        }
        argv = {}
        for name, cfg in configs.items():
            path = os.path.join(workdir, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            argv[name] = ["sweep", "--config", path, "--out",
                          os.path.join(workdir, name), "--workers", "1"]

        k = p["frames"]
        eta = rng.uniform(0.2, 2.0, k)
        direction = rng.normal(size=(k, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        v = rng.uniform(0.0, 0.9, k)[:, None] * eta[:, None] * direction
        that = rng.normal(size=(k, 3))
        that /= np.linalg.norm(that, axis=1, keepdims=True)
        mu = rng.uniform(0.0, 1.5, k)
        states = [geometry.FluidPointState(v=v[i], eta=float(eta[i]),
                                           mu=float(mu[i]), that=that[i])
                  for i in range(k)]
        return {"argv": argv, "states": states, "map_cells": n * n,
                "outdirs": {name: args[4] for name, args in argv.items()}}

    def run(self, inp):
        t0 = time.perf_counter()
        cli.main(inp["argv"]["map"])
        map_s = time.perf_counter() - t0
        cli.main(inp["argv"]["burgers"])
        frames = [(geometry.assemble_metric(s), geometry.build_frames(s))
                  for s in inp["states"]]
        return {"map_s": map_s, "frames": frames}

    def check(self, inp, out, kept):
        map_result, burgers_result = kept["harness.run_sweep"]
        c_shock = 1.0 / (2.0 * math.log(2.0 / -self.sigma))   # a* closed form at a=0
        column = [r for r in map_result.rows if r["a"] == 0.0]
        predictor = []
        for r in column:
            if r["c"] >= c_shock:
                closed = -2.0 * math.exp(-1.0 / (4.0 * r["c"]))
                predictor.append(r["classification"] == "ShockBefore"
                                 and abs(r["t_star_predicted"] - closed) <= 1e-8)
            else:
                predictor.append(r["classification"] != "ShockBefore")
        errs = [abs(r["t_star_simulated"] - _burgers_t_star(r["a"], r["c"]))
                for r in burgers_result.rows]
        t_star_err = max(errs)
        residuals = [_frame_residual(s, *f) for s, f in zip(inp["states"], out["frames"])]
        bad_rows = {name: _csv_bad_rows(os.path.join(d, "sweep.csv"))
                    for name, d in inp["outdirs"].items()}
        rows = map_result.rows + burgers_result.rows
        checks = [
            _count("sweep_cells_ok", "result", [r["status"] == "ok" for r in rows]),
            _count("predict_a0_closed_form", "result", predictor),
            _count("burgers_t_star<=0.02", "result", [e <= 0.02 for e in errs],
                   f"max {t_star_err:.5f}"),
            _count("frame_residual<=1e-12", "result", [x <= 1e-12 for x in residuals],
                   f"max {max(residuals):.2e}"),
            _count("sweep_csv_loads", "artefact", [n == 0 for n in bad_rows.values()],
                   ", ".join(f"{k}: {n} rows off the header's column count"
                             for k, n in bad_rows.items())),
        ]
        figures = {"cells_per_s": inp["map_cells"] / out["map_s"],
                   "t_star_err": t_star_err, "csv_bad_rows": sum(bad_rows.values())}
        return checks, figures


WORKLOADS = {"focus": Focus, "reach_sigma": ReachSigma, "calibrate": Calibrate}
