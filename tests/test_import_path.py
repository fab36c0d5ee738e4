"""scipy stays off the import path of everything but the closed-form predictor."""

import json
import os
import subprocess
import sys

import charshock

_CHILD = r"""
import json, math, sys
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
leaked = sorted(m for m in sys.modules
                if m in ("scipy.integrate", "scipy.optimize", "scipy.special",
                         "scipy.interpolate"))

a1 = foliation.a1_integral(-0.5, 0.3)
t_star = foliation.shock_time_3d(1.0, 0.25)
from scipy.integrate import quad
from scipy.special import expi
a1_quad = quad(lambda tau: math.exp(-0.3 * (tau + 2.0)) / -tau, -2.0, -0.5,
               epsabs=1e-13, epsrel=1e-13)[0]
residual = 4.0 * math.exp(-0.5) * (expi(0.5) - expi(-0.25 * t_star)) - 1.0
print(json.dumps({"leaked": leaked, "rows": len(bundle.times),
                  "mu_hat_finite": bool(np.all(np.isfinite(mu_hat))),
                  "a1": a1, "a1_quad": a1_quad, "t_star": t_star,
                  "residual": residual}))
"""


def test_pulse_pipeline_loads_no_scipy_submodule():
    """A child process imports the CLI and runs a smoke-size pulse pipeline
    at a = 0 without loading scipy's integrate, optimize, special or
    interpolate; the closed-form predictor then loads them on first use and
    answers as quadrature and the closed form do."""
    src = os.path.dirname(os.path.dirname(charshock.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])})
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["leaked"] == []
    assert out["rows"] > 1 and out["mu_hat_finite"]
    assert abs(out["a1"] - out["a1_quad"]) <= 1e-12
    assert -2.0 < out["t_star"] <= -0.1
    assert abs(out["residual"]) <= 1e-12
