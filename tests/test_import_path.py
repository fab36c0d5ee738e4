"""No run path of charshock imports scipy: a child process in which scipy
cannot be imported runs the pulse pipeline, the closed-form predictor, the
predict command and a predict sweep."""

import csv
import json
import math
import os
import subprocess
import sys

from scipy.integrate import quad
from scipy.special import expi

import charshock

_CHILD = r"""
import contextlib, csv, io, json, os, sys, tempfile
sys.modules["scipy"] = None          # from here on, importing scipy raises ImportError
import numpy as np
import charshock.cli
from charshock import foliation
from charshock.eos import make_polytropic
from charshock.radial import run_until
from charshock.shortpulse import build_annulus_data, bump_seeds

eos = make_polytropic(2.0)
data = build_annulus_data(bump_seeds(c=1.0, delta=0.1), r_grid_n=64)
hist = run_until(data, a=0.0, eos=eos, t_end=-1.9, points_per_delta=16,
                 r_min=1.5, pad=0.3)
bundle = foliation.trace_rays(hist, ray_count=33, eos=eos)
lmu = foliation.lmu_initial(hist, bundle.u, eos)
mu_hat = foliation.predict_mu(float(bundle.times[-1]), lmu, 0.0)

pred = foliation.classify_largeness(1.0, 0.25)
with contextlib.redirect_stdout(io.StringIO()) as out:
    predict_code = charshock.cli.main(["predict", "--c", "0.5", "--a", "0.25"])
with tempfile.TemporaryDirectory() as tmp:
    config = os.path.join(tmp, "config.json")
    with open(config, "w") as fh:
        json.dump({"mode": "predict", "a_values": [-0.5, 0.0, 0.25, 400.0],
                   "c_values": [0.1, 1.0, 1e4]}, fh)
    sweep_code = charshock.cli.main(["sweep", "--config", config, "--out", tmp])
    with open(os.path.join(tmp, "sweep.csv"), newline="") as fh:
        sweep_status = sorted({row["status"] for row in csv.DictReader(fh)})
print(json.dumps({
    "leaked": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                     and sys.modules[m] is not None),
    "rows": len(bundle.times), "mu_hat_finite": bool(np.all(np.isfinite(mu_hat))),
    "classification": pred.classification, "t_star": pred.t_star,
    "predict_code": predict_code, "predict_t_star": json.loads(out.getvalue())["t_star"],
    "sweep_code": sweep_code, "sweep_status": sweep_status,
    "t_star_large_c": foliation.shock_time_3d(1e4, 0.0),
    "a1": foliation.a1_integral(-0.5, 0.3),
    "a1_large_a": foliation.a1_integral(-0.1, 1e3)}))
"""


def test_no_run_path_imports_scipy():
    """A child process that cannot import scipy imports the CLI, runs a
    smoke-size pulse pipeline at a = 0, classifies a damped seed, runs
    predict and a predict sweep, and evaluates the predictor at large c and
    large a; its answers match scipy's quadrature and expi, taken here."""
    src = os.path.dirname(os.path.dirname(charshock.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])})
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["leaked"] == []
    assert out["rows"] > 1 and out["mu_hat_finite"]
    assert out["predict_code"] == 0 and -2.0 < out["predict_t_star"] <= -0.1
    assert out["sweep_code"] == 0 and out["sweep_status"] == ["ok"]

    assert out["classification"] == "ShockBefore" and -2.0 < out["t_star"] <= -0.1
    residual = 4.0 * math.exp(-0.5) * (expi(0.5) - expi(-0.25 * out["t_star"])) - 1.0
    assert abs(residual) <= 1e-12
    assert abs(out["t_star_large_c"] + 2.0 * math.exp(-0.25 / 1e4)) <= 1e-13    # xtol

    a1_quad = quad(lambda tau: math.exp(-0.3 * (tau + 2.0)) / -tau, -2.0, -0.5,
                   epsabs=1e-13, epsrel=1e-13)[0]
    assert abs(out["a1"] - a1_quad) <= 1e-12
    # s = a (tau + 2): the integrand's 1e-3-wide spike at tau = -2 spread over [0, 1900]
    a1_large_a = quad(lambda s: math.exp(-s) / (2.0 - s / 1e3), 0.0, 700.0,
                      epsabs=0.0, epsrel=1e-13, limit=200)[0] / 1e3
    assert abs(out["a1_large_a"] - a1_large_a) <= 1e-14 * a1_large_a
