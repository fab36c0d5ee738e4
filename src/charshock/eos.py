"""Equation-of-state families for the isentropic potential flow.

Every family is normalised so that at the reference enthalpy h = 0 the
density and sound speed are both 1.  The defining thermodynamic relation
is d(rho)/dh = rho / eta^2, which fixes rho(h) once eta^2(h) is chosen.
The polytropic and Chaplygin families are one linear law,

    eta^2 = 1 + k h,   k = gamma - 1 (polytropic, gamma > 1) or k = -2 (Chaplygin),

so d eta^2/dh = k, rho = (eta^2)^(1/k), and a state is admissible iff
eta^2 > 0.  The custom family interpolates a table of eta^2(h) and admits
h strictly inside the table.

The genuine-nonlinearity coefficient is H = -2 h - eta^2; its derivative
dH/dh = -2 - d eta^2/dh is the constant -(gamma + 1) for polytropic gases
and identically 0 for the Chaplygin gas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import InvalidParameter, OutOfDomain

__all__ = [
    "EosState",
    "EquationOfState",
    "make_polytropic",
    "make_chaplygin",
    "make_custom",
    "eos_from_config",
]


@dataclass(frozen=True)
class EosState:
    """Pointwise thermodynamic state derived from the enthalpy."""

    rho: Any
    eta: Any
    eta_sq: Any
    H: Any
    dH_dh: Any
    deta_sq_dh: Any


@dataclass(frozen=True)
class EquationOfState:
    family: str
    gamma: float | None = None
    h_table: np.ndarray | None = field(default=None, repr=False)
    eta_sq_table: np.ndarray | None = field(default=None, repr=False)

    @property
    def _k(self):
        """Slope k of the linear law eta^2 = 1 + k h; None for a table."""
        if self.family == "custom":
            return None
        return -2.0 if self.family == "chaplygin" else self.gamma - 1.0

    def h_bounds(self):
        """Open admissible interval for h (sound speed stays positive)."""
        k = self._k
        if k is None:
            return (float(self.h_table[0]), float(self.h_table[-1]))
        return (-1.0 / k, np.inf) if k > 0.0 else (-np.inf, -1.0 / k)

    def eta_sq(self, h):
        """eta^2(h); OutOfDomain unless eta^2 > 0 (linear law) or h lies inside the table.

        NaN entries are ignored, as a non-finite state is not a domain exit: the
        extremes are NaN-skipping reductions (fmin, fmax), not min and max, which
        return NaN when any entry is NaN.
        """
        k = self._k
        if k is None:
            eta_sq = np.interp(h, self.h_table, self.eta_sq_table)
            bad = (np.fmin.reduce(h, axis=None, initial=np.inf) <= self.h_table[0]
                   or np.fmax.reduce(h, axis=None, initial=-np.inf) >= self.h_table[-1])
        else:
            eta_sq = 1.0 + k * np.asarray(h, dtype=float)
            bad = np.fmin.reduce(eta_sq, axis=None, initial=np.inf) <= 0.0
        if bad:
            lo, hi = self.h_bounds()
            raise OutOfDomain(
                f"enthalpy outside admissible interval ({lo}, {hi}) for {self.family} EOS")
        return eta_sq

    def eval(self, h):
        """Return rho, eta, eta^2, H = -2h - eta^2 and dH/dh at h."""
        h = np.asarray(h, dtype=float)
        eta_sq = self.eta_sq(h)
        k = self._k
        if k is None:  # tabulated: rho = exp(int dh / eta^2) on the table grid
            ht, et = self.h_table, self.eta_sq_table
            log_rho = np.concatenate(([0.0], np.cumsum(np.diff(ht) * 0.5 * (1.0 / et[1:] + 1.0 / et[:-1]))))
            log_rho -= np.interp(0.0, ht, log_rho)
            rho = np.exp(np.interp(h, ht, log_rho))
            deta_sq = np.interp(h, ht, np.gradient(et, ht))
        else:
            rho = np.exp(np.log1p(k * h) / k)   # (eta^2)^(1/k), accurate as k -> 0
            deta_sq = np.full_like(h, k)
        return EosState(rho=rho, eta=np.sqrt(eta_sq), eta_sq=eta_sq, H=-2.0 * h - eta_sq,
                        dH_dh=-2.0 - deta_sq, deta_sq_dh=deta_sq)


def make_polytropic(gamma: float) -> EquationOfState:
    if not np.isfinite(gamma) or gamma <= 1.0:
        raise InvalidParameter(f"polytropic gamma must be > 1, got {gamma}")
    return EquationOfState(family="polytropic", gamma=float(gamma))


def make_chaplygin() -> EquationOfState:
    return EquationOfState(family="chaplygin")


def make_custom(h_table, eta_sq_table) -> EquationOfState:
    h_table = np.asarray(h_table, dtype=float)
    eta_sq_table = np.asarray(eta_sq_table, dtype=float)
    if h_table.ndim != 1 or h_table.shape != eta_sq_table.shape or h_table.size < 4:
        raise InvalidParameter("custom EOS needs matching 1-d tables with >= 4 samples")
    if np.any(np.diff(h_table) <= 0):
        raise InvalidParameter("custom EOS h samples must be strictly increasing")
    if np.any(eta_sq_table <= 0):
        raise InvalidParameter("custom EOS eta^2 samples must be positive")
    return EquationOfState(family="custom", h_table=h_table, eta_sq_table=eta_sq_table)


def _is_number(v, kind=(int, float)):
    """Whether v is a JSON value of the given kind that converts to a finite
    float; a bool is not a number."""
    try:
        return isinstance(v, kind) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:                     # an int beyond the float range
        return False


def _is_number_list(v):
    return isinstance(v, list) and all(map(_is_number, v))


# each family's constructor and the record fields it takes, in order, with
# the check of each field's JSON type
_RECORDS = {"polytropic": (make_polytropic, {"gamma": _is_number}),
            "chaplygin": (make_chaplygin, {}),
            "custom": (make_custom, {"h_table": _is_number_list,
                                     "eta_sq_table": _is_number_list})}


def _eos_record(cfg):
    """(constructor, arguments) of a config record; InvalidParameter if the
    record is not an object, names no known family, lacks a field or has
    one of the wrong type (gamma a number, the tables lists of numbers)."""
    if not isinstance(cfg, dict):
        raise InvalidParameter(f"EOS record must be an object, got {cfg!r}")
    family = cfg.get("family")
    if not isinstance(family, str) or family not in _RECORDS:
        raise InvalidParameter(f"unknown EOS family {family!r}")
    make, checks = _RECORDS[family]
    missing = [k for k in checks if k not in cfg]
    if missing:
        raise InvalidParameter(f"{family} EOS record has no {missing[0]!r}")
    bad = [k for k, ok in checks.items() if not ok(cfg[k])]
    if bad:
        raise InvalidParameter(f"{family} EOS record field {bad[0]!r} has the wrong type")
    return make, [cfg[k] for k in checks]


def eos_from_config(cfg: dict) -> EquationOfState:
    """Build an EOS from a run-config record like {"family": "polytropic", "gamma": 2.0}."""
    make, args = _eos_record(cfg)
    return make(*args)
