"""Parameter-sweep orchestration and tabular output.

A sweep enumerates the product of the (a, c, delta, eos) axes, evaluates
each cell in one of three modes — 'burgers' (closed form + optional
finite-volume oracle), 'predict' (closed-form shock-time predictor),
'euler' (radial simulation + ray tracing) — and emits a deterministic CSV
table, a long-format series file for plotting, and a JSON summary.  Cells
that fail are recorded with their error kind; the sweep itself never
aborts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .burgers import BurgersProblem, burgers_direct_solve, burgers_shock_time, \
    estimate_blowup_time, sine_profile
from .eos import eos_from_config
from .errors import CharshockError, ConfigInvalid
from .foliation import classify_largeness, trace_rays
from .radial import run_until
from .shortpulse import build_annulus_data, bump_seeds

__all__ = ["SweepConfig", "SweepResult", "run_sweep", "emit_outputs"]


@dataclass(frozen=True)
class SweepConfig:
    a_values: tuple
    c_values: tuple
    mode: str = "predict"
    delta_values: tuple = (0.0,)
    eos_values: tuple = ({"family": "polytropic", "gamma": 2.0},)
    sigma: float = -0.1
    solver: dict = field(default_factory=dict)
    seed: int = 0

    def validate(self):
        if self.mode not in _MODES:
            raise ConfigInvalid(f"mode must be one of {_MODES}, got {self.mode!r}")
        for name in ("a_values", "c_values", "delta_values", "eos_values"):
            vals = getattr(self, name)
            if len(vals) == 0:
                raise ConfigInvalid(f"axis {name} is empty")
        if not -2.0 < self.sigma < 0.0:
            raise ConfigInvalid(f"sigma must lie in (-2, 0), got {self.sigma}")
        if self.mode == "euler" and any(not 0.0 < d < 1.0 for d in self.delta_values):
            raise ConfigInvalid("euler mode needs delta values in (0, 1)")

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True, indent=2)  # tuples as lists

    @classmethod
    def from_json(cls, text):
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"config is not valid JSON: {exc}") from exc
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
        for key in ("a_values", "c_values", "delta_values", "eos_values"):
            if key in d:
                d[key] = tuple(d[key])
        cfg = cls(**d)
        cfg.validate()
        return cfg

    def config_hash(self):
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]


@dataclass
class SweepResult:
    config: SweepConfig
    rows: list                      # dicts, sorted by (a, c, delta, eos)
    config_hash: str
    version: str = __version__

    @property
    def n_failed(self):
        return sum(1 for r in self.rows if r["status"] != "ok")


def _cell_burgers(cell):
    a, c = cell["a"], cell["c"]
    report = burgers_shock_time(a, c)
    row = {
        "t_star_predicted": report.t_star if report.t_star is not None else float("nan"),
        "classification": report.classification,
        "t_star_simulated": float("nan"),
        "min_mu_at_sigma": float("nan"),
    }
    solver = cell["solver"]
    if solver.get("simulate", False):
        f, df = sine_profile(c)
        problem = BurgersProblem(profile=f, a=a, slope=df)
        hist = burgers_direct_solve(
            problem, grid_n=solver.get("grid_n", 2048),
            t_end=solver.get("t_end", 2.0), cfl=solver.get("cfl", 0.5))
        est = estimate_blowup_time(hist.times, hist.max_neg_slope, a)
        row["t_star_simulated"] = est.t_star_estimate
    return row


def _cell_predict(cell):
    pred = classify_largeness(cell["c"], cell["a"], sigma=cell["sigma"],
                              delta=cell["delta"])
    return {
        "t_star_predicted": pred.t_star,
        "classification": pred.classification,
        "t_star_simulated": float("nan"),
        "min_mu_at_sigma": float("nan"),
    }


def _cell_euler(cell):
    row = _cell_predict(cell)
    solver = cell["solver"]
    eos = eos_from_config(cell["eos"])
    data = build_annulus_data(bump_seeds(c=cell["c"], delta=cell["delta"]),
                              r_grid_n=solver.get("r_grid_n", 512))
    hist = run_until(
        data, a=cell["a"], eos=eos,
        t_end=solver.get("t_end", cell["sigma"]),
        cfl=solver.get("cfl", 0.4),
        points_per_delta=solver.get("points_per_delta", 64),
        r_min=solver.get("r_min", 0.05),
        sample_dt=solver.get("sample_dt"))
    bundle = trace_rays(hist, ray_count=solver.get("ray_count", 65), eos=eos)
    min_mu = np.min(bundle.mu_spacing, axis=1)
    row["min_mu_at_sigma"] = float(min_mu[-1])
    below = np.where(min_mu <= 0.1)[0]
    if below.size:
        i = below[0]
        if i > 0:
            t0, t1 = bundle.times[i - 1], bundle.times[i]
            m0, m1 = min_mu[i - 1], min_mu[i]
            row["t_star_simulated"] = float(t0 + (m0 - 0.1) / (m0 - m1) * (t1 - t0))
        else:
            row["t_star_simulated"] = float(bundle.times[i])
    row["run_status"] = hist.status
    return row


_CELL_FUNCS = {"burgers": _cell_burgers, "predict": _cell_predict,
               "euler": _cell_euler}
_MODES = tuple(_CELL_FUNCS)


def _run_cell(cell):
    """Evaluate one sweep cell; never raises (crash isolation)."""
    t0 = time.perf_counter()
    base = {
        "a": cell["a"], "c": cell["c"], "delta": cell["delta"],
        "eos": json.dumps(cell["eos"], sort_keys=True),
        "t_star_predicted": float("nan"), "t_star_simulated": float("nan"),
        "classification": "", "min_mu_at_sigma": float("nan"),
        "status": "ok", "error": "",
    }
    try:
        base.update(_CELL_FUNCS[cell["mode"]](cell))
    except CharshockError as exc:
        base["status"] = type(exc).__name__
        base["error"] = str(exc)
    except Exception as exc:  # noqa: BLE001 - sweep must never abort
        base["status"] = "Error"
        base["error"] = f"{type(exc).__name__}: {exc}"
    base["runtime"] = time.perf_counter() - t0
    return base


def _worker_count(workers=None):
    env = os.environ.get("CHARSHOCK_WORKERS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigInvalid(
                f"CHARSHOCK_WORKERS must be an integer, got {env!r}") from None
    if workers is not None:
        return max(1, workers)
    return 1


def run_sweep(config: SweepConfig, workers=None) -> SweepResult:
    """Evaluate every cell of the sweep; failed cells become status rows."""
    config.validate()
    cells = [
        {"a": a, "c": c, "delta": d, "eos": e, "mode": config.mode,
         "sigma": config.sigma, "solver": dict(config.solver)}
        for a in config.a_values for c in config.c_values
        for d in config.delta_values for e in config.eos_values
    ]
    n_workers = _worker_count(workers)
    if n_workers > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            rows = list(pool.map(_run_cell, cells))
    else:
        rows = [_run_cell(c) for c in cells]
    rows.sort(key=lambda r: (r["a"], r["c"], r["delta"], r["eos"]))
    h = config.config_hash()
    for row in rows:
        row["config_hash"] = h
        row["version"] = __version__
    return SweepResult(config=config, rows=rows, config_hash=h)


_CSV_COLUMNS = ("a", "c", "delta", "eos", "classification",
                "t_star_predicted", "t_star_simulated", "min_mu_at_sigma",
                "status", "config_hash", "version")


def _fmt(v):
    return repr(v) if isinstance(v, float) else str(v)


def emit_outputs(result: SweepResult, out_dir):
    """Write sweep.csv, series.csv (long format) and summary.json."""
    if not result.rows:
        raise ConfigInvalid("empty sweep result")
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "sweep.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        writer.writerows([_fmt(row[c]) for c in _CSV_COLUMNS] for row in result.rows)

    series_path = os.path.join(out_dir, "series.csv")
    with open(series_path, "w") as fh:
        fh.write("series,x,y\n")
        for row in result.rows:
            if np.isfinite(row["t_star_predicted"]):
                name = f"t_star_vs_a_c={_fmt(row['c'])}"
                fh.write(f"{name},{_fmt(row['a'])},{_fmt(row['t_star_predicted'])}\n")

    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w") as fh:
        json.dump({
            "config_hash": result.config_hash,
            "version": result.version,
            "n_cells": len(result.rows),
            "n_failed": result.n_failed,
            "runtimes": {f"{r['a']}|{r['c']}|{r['delta']}|{r['eos']}": r["runtime"]
                         for r in result.rows},
            "config": json.loads(result.config.to_json()),
        }, fh, indent=2, sort_keys=True)
    return {"sweep": csv_path, "series": series_path, "summary": summary_path}
