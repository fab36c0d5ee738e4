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
from .eos import _eos_record, _is_number, eos_from_config
from .errors import CharshockError, ConfigInvalid, InvalidParameter
from .foliation import classify_largeness, trace_rays
from .radial import run_until
from .shortpulse import build_annulus_data, bump_seeds

__all__ = ["SweepConfig", "SweepResult", "run_sweep", "emit_outputs"]


_AXES = ("a_values", "c_values", "delta_values", "eos_values")
_NUMBER = (int, float)
# each mode's solver entries and their JSON types; each goes unchanged to the
# library function that takes it, so an unset one keeps that default (euler:
# ray_count to trace_rays, the rest to run_until, whose t_end is sigma)
_SOLVER_ENTRIES = {
    "burgers": {"simulate": bool, "grid_n": int, "t_end": _NUMBER},
    "predict": {},
    "euler": {"ray_count": int, "points_per_delta": _NUMBER, "r_min": _NUMBER,
              "sample_dt": (*_NUMBER, type(None))},
}


@dataclass(frozen=True)
class SweepConfig:
    a_values: tuple
    c_values: tuple
    mode: str = "predict"
    delta_values: tuple = (0.0,)
    eos_values: tuple = ({"family": "polytropic", "gamma": 2.0},)
    sigma: float = -0.1
    solver: dict = field(default_factory=dict)

    def validate(self):
        """ConfigInvalid unless every field is well formed: numeric axis values,
        known solver entries of the right JSON type, EOS records of known
        families with fields of the right type, and every number convertible
        to a finite float.  A value out of range (gamma <= 1, r_min = 0) fails
        its own cells only."""
        if self.mode not in _MODES:
            raise ConfigInvalid(f"mode must be one of {_MODES}, got {self.mode!r}")
        for name in _AXES:
            vals = getattr(self, name)
            if not isinstance(vals, (tuple, list)) or len(vals) == 0:
                raise ConfigInvalid(f"axis {name} must be a non-empty list, got {vals!r}")
            if name != "eos_values" and not all(map(_is_number, vals)):
                raise ConfigInvalid(f"axis {name} must hold finite numbers, got {vals!r}")
        for record in self.eos_values:
            try:
                _eos_record(record)
            except InvalidParameter as exc:
                raise ConfigInvalid(f"eos_values: {exc}") from None
        if not _is_number(self.sigma) or not -2.0 < self.sigma < 0.0:
            raise ConfigInvalid(f"sigma must lie in (-2, 0), got {self.sigma!r}")
        if not isinstance(self.solver, dict):
            raise ConfigInvalid(f"solver must be an object, got {self.solver!r}")
        entries = _SOLVER_ENTRIES[self.mode]
        for key, v in self.solver.items():
            if key not in entries:
                raise ConfigInvalid(f"unknown {self.mode} solver entry {key!r}; "
                                    f"known: {sorted(entries)}")
            kind = entries[key]
            if not (isinstance(v, kind) if kind is bool or v is None else _is_number(v, kind)):
                raise ConfigInvalid(
                    f"solver entry {key!r} has the wrong type or is not finite: {v!r}")
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
        if not isinstance(d, dict):
            raise ConfigInvalid(f"config must be a JSON object, got {d!r}")
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
        missing = {"a_values", "c_values"} - set(d)
        if missing:
            raise ConfigInvalid(f"missing config keys: {sorted(missing)}")
        for key in _AXES:
            if isinstance(d.get(key), list):
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


def _cell_burgers(cell, row):
    """The sine profile's cell, classified by its measured compression as cmd_burgers does."""
    a = cell["a"]
    f, df = sine_profile(cell["c"])
    problem = BurgersProblem(profile=f, a=a, slope=df)
    report = burgers_shock_time(a, problem.c)
    t_star = report.t_star if report.t_star is not None else float("nan")
    row["t_star_predicted"], row["classification"] = t_star, report.classification
    entries = dict(cell["solver"])
    if entries.pop("simulate", False):
        hist = burgers_direct_solve(problem, **entries)
        row["run_status"] = hist.status
        est = estimate_blowup_time(hist.times, hist.max_neg_slope, a)
        row["t_star_simulated"] = est.t_star_estimate


def _cell_predict(cell, row):
    pred = classify_largeness(cell["c"], cell["a"], sigma=cell["sigma"])
    row["t_star_predicted"], row["classification"] = pred.t_star, pred.classification


def _cell_euler(cell, row):
    _cell_predict({**cell, "c": abs(cell["c"])}, row)   # |c| is the seed's max phi1' (bump_seeds)
    entries = dict(cell["solver"])
    rays = {"ray_count": entries.pop("ray_count")} if "ray_count" in entries else {}
    eos = eos_from_config(cell["eos"])
    data = build_annulus_data(bump_seeds(c=cell["c"], delta=cell["delta"]))
    hist = run_until(data, a=cell["a"], eos=eos, t_end=cell["sigma"], **entries)
    row["run_status"], row["error"] = hist.status, hist.message  # why the run stopped
    if len(hist.times) < 2:     # broke down at its first step: no ray to trace
        return
    bundle = trace_rays(hist, **rays)
    min_mu = np.min(bundle.mu_spacing, axis=1)
    if bundle.times[-1] >= cell["sigma"] - 1e-12:    # else the bundle stopped short of sigma
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


_CELL_FUNCS = {"burgers": _cell_burgers, "predict": _cell_predict,
               "euler": _cell_euler}
_MODES = tuple(_CELL_FUNCS)


def _run_cell(cell):
    """Evaluate one sweep cell; never raises (crash isolation).  Its cell
    function fills the row as it goes, so a failed cell keeps what it filled."""
    t0 = time.perf_counter()
    row = {
        "a": cell["a"], "c": cell["c"], "delta": cell["delta"],
        "eos": json.dumps(cell["eos"], sort_keys=True),
        "t_star_predicted": float("nan"), "t_star_simulated": float("nan"),
        "classification": "", "min_mu_at_sigma": float("nan"),
        "run_status": "", "status": "ok", "error": "",
    }
    try:
        _CELL_FUNCS[cell["mode"]](cell, row)
    except CharshockError as exc:
        row["status"] = type(exc).__name__
        row["error"] = str(exc)
    except Exception as exc:  # noqa: BLE001 - sweep must never abort
        row["status"] = "Error"
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["runtime"] = time.perf_counter() - t0
    return row


def run_sweep(config: SweepConfig, workers=1) -> SweepResult:
    """Evaluate every cell of the sweep; failed cells become status rows.

    The cells run in at most workers processes, in the calling process when
    one suffices; ConfigInvalid for fewer than 1 worker.
    """
    config.validate()
    if workers < 1:
        raise ConfigInvalid(f"workers must be at least 1, got {workers}")
    cells = [
        {"a": a, "c": c, "delta": d, "eos": e, "mode": config.mode,
         "sigma": config.sigma, "solver": dict(config.solver)}
        for a in config.a_values for c in config.c_values
        for d in config.delta_values for e in config.eos_values
    ]
    n_workers = min(workers, len(cells))  # the pool forks all up front
    if n_workers > 1:
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
                "status", "config_hash", "version", "run_status", "error")


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
