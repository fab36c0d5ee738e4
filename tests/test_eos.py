"""Equation-of-state tests."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from charshock.eos import (
    eos_from_config,
    make_chaplygin,
    make_custom,
    make_polytropic,
)
from charshock.errors import InvalidParameter, OutOfDomain


def test_polytropic_reference_state():
    eos = make_polytropic(2.0)
    st = eos.eval(0.0)
    assert st.rho == pytest.approx(1.0, abs=1e-15)
    assert st.eta == pytest.approx(1.0, abs=1e-15)
    assert st.H == pytest.approx(-1.0, abs=1e-15)
    assert st.dH_dh == pytest.approx(-3.0, abs=1e-15)


def test_polytropic_sound_speed():
    eos = make_polytropic(2.0)
    assert eos.eta_sq(0.1) == pytest.approx(1.1, abs=1e-15)
    st = eos.eval(0.1)
    assert st.rho == pytest.approx(1.1, abs=1e-14)  # rho = eta^2 for gamma=2


def test_polytropic_gamma3_density():
    eos = make_polytropic(3.0)
    st = eos.eval(0.12)
    assert st.eta_sq == pytest.approx(1.24, abs=1e-15)
    assert st.rho == pytest.approx(np.sqrt(1.24), rel=1e-14)
    assert st.dH_dh == pytest.approx(-4.0, abs=1e-15)


def test_density_derivative_relation():
    """d(rho)/dh = rho / eta^2 for every family, by finite differences."""
    cases = [make_polytropic(1.4), make_polytropic(2.0), make_chaplygin()]
    hh = np.linspace(-0.3, 0.3, 25)
    eps = 1e-6
    for eos in cases:
        st = eos.eval(hh)
        drho = (eos.eval(hh + eps).rho - eos.eval(hh - eps).rho) / (2 * eps)
        assert np.max(np.abs(drho - st.rho / st.eta_sq)) <= 1e-8


def test_chaplygin_no_genuine_nonlinearity():
    eos = make_chaplygin()
    hh = np.linspace(-1.0, 0.4, 50)
    st = eos.eval(hh)
    assert np.all(st.dH_dh == 0.0)
    assert np.max(np.abs(st.H + 1.0)) <= 1e-14  # H identically -1
    assert st.eta_sq[0] == pytest.approx(1.0 - 2 * hh[0], abs=1e-15)


def test_admissibility_boundaries():
    poly = make_polytropic(2.0)
    with pytest.raises(OutOfDomain):
        poly.eta_sq(-1.0)       # 1 + (gamma-1) h = 0
    chap = make_chaplygin()
    with pytest.raises(OutOfDomain):
        chap.eta_sq(0.5)
    assert poly.h_bounds() == (-1.0, np.inf)
    assert chap.h_bounds() == (-np.inf, 0.5)


def test_invalid_gamma():
    with pytest.raises(InvalidParameter):
        make_polytropic(1.0)
    with pytest.raises(InvalidParameter):
        make_polytropic(0.5)


def test_custom_table_matches_polytropic():
    """A tabulated eta^2 reproducing gamma=2 matches the closed form."""
    h = np.linspace(-0.5, 0.5, 2001)
    eos_tab = make_custom(h, 1.0 + h)
    eos_ref = make_polytropic(2.0)
    hh = np.linspace(-0.4, 0.4, 17)
    st_t, st_r = eos_tab.eval(hh), eos_ref.eval(hh)
    assert np.max(np.abs(st_t.eta_sq - st_r.eta_sq)) <= 1e-12
    assert np.max(np.abs(st_t.rho - st_r.rho)) <= 1e-6
    assert np.max(np.abs(st_t.dH_dh - st_r.dH_dh)) <= 1e-6


def test_custom_table_validation():
    with pytest.raises(InvalidParameter):
        make_custom([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(InvalidParameter):
        make_custom([0.0, 1.0, 0.5, 2.0], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(InvalidParameter):
        make_custom([0.0, 1.0, 2.0, 3.0], [1.0, -1.0, 1.0, 1.0])


def test_config_round_trip():
    assert eos_from_config({"family": "polytropic", "gamma": 2.0}).gamma == 2.0
    assert eos_from_config({"family": "chaplygin"}).family == "chaplygin"
    with pytest.raises(InvalidParameter):
        eos_from_config({"family": "nope"})


@pytest.mark.parametrize("cfg, missing", [
    ({"family": "polytropic"}, "gamma"),
    ({"family": "custom", "h_table": [0.0, 1.0, 2.0, 3.0]}, "eta_sq_table"),
])
def test_config_missing_key_is_named(cfg, missing):
    with pytest.raises(InvalidParameter, match=missing):
        eos_from_config(cfg)


# the linear law eta^2 = 1 + k h: polytropic gamma in (1, 6] (k = gamma - 1), Chaplygin (k = -2)
_LINEAR_LAWS = st.one_of(st.floats(1.0, 6.0, exclude_min=True).map(make_polytropic),
                         st.just(make_chaplygin()))


def _slope(eos):
    return eos.gamma - 1.0 if eos.family == "polytropic" else -2.0


@settings(deadline=None, max_examples=300)
@given(eos=_LINEAR_LAWS, h=st.floats(-5.0, 5.0))
def test_linear_law_thermodynamics(eos, h):
    """d(rho)/dh = rho / eta^2 by central differences, and dH/dh = -2 - d eta^2/dh."""
    k = _slope(eos)
    assume(1.0 + k * h >= 0.05)
    step = 1e-6 * (1.0 + k * h) / max(1.0, abs(k))   # well inside the scale of rho
    hp, hm = h + step, h - step
    st_ = eos.eval(h)
    drho = (eos.eval(hp).rho - eos.eval(hm).rho) / (hp - hm)
    assert drho == pytest.approx(st_.rho / st_.eta_sq, rel=1e-7)
    assert st_.deta_sq_dh == k
    assert st_.dH_dh == -2.0 - st_.deta_sq_dh


@settings(deadline=None, max_examples=300)
@given(eos=_LINEAR_LAWS, h=st.floats(-10.0, 10.0), at_bound=st.booleans())
def test_linear_law_domain(eos, h, at_bound):
    """OutOfDomain exactly when 1 + k h <= 0, also at the bound h = -1/k itself."""
    k = _slope(eos)
    if at_bound:
        h = -1.0 / k
    if 1.0 + k * h <= 0.0:
        with pytest.raises(OutOfDomain):
            eos.eta_sq(h)
    else:
        assert eos.eta_sq(h) == 1.0 + k * h


_TABLE = make_custom(np.linspace(-0.5, 0.5, 41), np.exp(np.linspace(-0.5, 0.5, 41)))


@pytest.mark.parametrize("eos, bad", [(make_polytropic(2.0), -2.0), (make_chaplygin(), 0.6),
                                      (_TABLE, 0.7), (_TABLE, -0.7)],
                         ids=["polytropic", "chaplygin", "table-above", "table-below"])
def test_domain_check_skips_nan(eos, bad):
    """A NaN next to an inadmissible enthalpy still raises OutOfDomain, with the
    message the inadmissible value alone gives; an all-NaN array is no domain
    exit (a non-finite state is reported as such further on), and a scalar h
    is accepted."""
    with pytest.raises(OutOfDomain) as alone:
        eos.eta_sq(np.array([bad]))
    for h in ([np.nan, bad], [bad, np.nan], [[0.0, np.nan], [np.nan, bad]]):
        with pytest.raises(OutOfDomain) as exc:
            eos.eta_sq(np.array(h))
        assert str(exc.value) == str(alone.value)
    assert np.isnan(eos.eta_sq(np.full(3, np.nan))).all()
    assert eos.eta_sq(0.0) == 1.0
    with pytest.raises(OutOfDomain):
        eos.eta_sq(bad)
