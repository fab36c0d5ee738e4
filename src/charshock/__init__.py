"""charshock: a numerical laboratory for geometric shock formation in
damped conservation laws.

Submodules:
  eos        -- equations of state (polytropic, Chaplygin, tabulated)
  burgers    -- damped Burgers characteristic analysis + finite-volume oracle
  geometry   -- acoustical metric, null frames
  shortpulse -- short-pulse initial data on the annulus at t = -2
  radial     -- method-of-lines radial solver for the potential equation
  foliation  -- null-ray tracing, dual mu diagnostics, shock-time predictor
  harness    -- parameter sweeps and tabular output
"""

__version__ = "0.1.0"
