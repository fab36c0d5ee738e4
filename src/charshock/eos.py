"""Equation-of-state families for the isentropic potential flow.

Every family is normalised so that at the reference enthalpy h = 0 the
density and sound speed are both 1.  The defining thermodynamic relation
is d(rho)/dh = rho / eta^2, which fixes rho(h) once eta^2(h) is chosen:

* polytropic (adiabatic index gamma > 1):  eta^2 = 1 + (gamma - 1) h,
  rho = eta^2 ** (1 / (gamma - 1));
* Chaplygin:  eta^2 = 1 - 2 h,  rho = eta^2 ** (-1/2).

The genuine-nonlinearity coefficient is H = -2 h - eta^2; its derivative
dH/dh is the constant -(gamma + 1) for polytropic gases and identically 0
for the Chaplygin gas.
"""

from __future__ import annotations

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

    def h_bounds(self):
        """Open admissible interval for h (sound speed stays positive)."""
        if self.family == "polytropic":
            return (-1.0 / (self.gamma - 1.0), np.inf)
        if self.family == "chaplygin":
            return (-np.inf, 0.5)
        return (float(self.h_table[0]), float(self.h_table[-1]))

    def check_admissible(self, h):
        lo, hi = self.h_bounds()
        h = np.asarray(h)
        if np.any(h <= lo) or np.any(h >= hi):
            raise OutOfDomain(
                f"enthalpy outside admissible interval ({lo}, {hi}) for {self.family} EOS"
            )

    def eta_sq(self, h):
        self.check_admissible(h)
        if self.family == "polytropic":
            return 1.0 + (self.gamma - 1.0) * np.asarray(h, dtype=float)
        if self.family == "chaplygin":
            return 1.0 - 2.0 * np.asarray(h, dtype=float)
        return np.interp(h, self.h_table, self.eta_sq_table)

    def eval(self, h):
        """Return rho, eta, eta^2, H = -2h - eta^2 and dH/dh at h."""
        h = np.asarray(h, dtype=float)
        eta_sq = self.eta_sq(h)
        eta = np.sqrt(eta_sq)
        if self.family == "polytropic":
            g = self.gamma
            rho = eta_sq ** (1.0 / (g - 1.0))
            dH_dh = np.full_like(h, -(g + 1.0))
            deta_sq = np.full_like(h, g - 1.0)
        elif self.family == "chaplygin":
            rho = eta_sq ** (-0.5)
            dH_dh = np.zeros_like(h)
            deta_sq = np.full_like(h, -2.0)
        else:  # tabulated: rho = exp(int dh / eta^2) on the table grid
            ht, et = self.h_table, self.eta_sq_table
            log_rho = np.concatenate(([0.0], np.cumsum(np.diff(ht) * 0.5 * (1.0 / et[1:] + 1.0 / et[:-1]))))
            log_rho -= np.interp(0.0, ht, log_rho)
            rho = np.exp(np.interp(h, ht, log_rho))
            deta_sq = np.interp(h, ht, np.gradient(et, ht))
            dH_dh = -2.0 - deta_sq
        H = -2.0 * h - eta_sq
        return EosState(rho=rho, eta=eta, eta_sq=eta_sq, H=H, dH_dh=dH_dh, deta_sq_dh=deta_sq)


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


def eos_from_config(cfg: dict) -> EquationOfState:
    """Build an EOS from a run-config record like {"family": "polytropic", "gamma": 2.0}."""
    family = cfg.get("family")
    try:
        if family == "polytropic":
            return make_polytropic(cfg["gamma"])
        if family == "chaplygin":
            return make_chaplygin()
        if family == "custom":
            return make_custom(cfg["h_table"], cfg["eta_sq_table"])
    except KeyError as exc:
        raise InvalidParameter(
            f"{family} EOS record has no {exc.args[0]!r}") from None
    raise InvalidParameter(f"unknown EOS family {family!r}")
