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
    assert np.sqrt(eos.eta_sq(0.0)) == pytest.approx(1.0, abs=1e-15)
    assert -2.0 - eos.deta_sq_dh(0.0) == pytest.approx(-3.0, abs=1e-15)     # dH/dh


def test_polytropic_sound_speed():
    eos = make_polytropic(2.0)
    assert eos.eta_sq(0.1) == pytest.approx(1.1, abs=1e-15)


def test_polytropic_gamma3_density():
    eos = make_polytropic(3.0)
    assert eos.eta_sq(0.12) == pytest.approx(1.24, abs=1e-15)
    assert -2.0 - eos.deta_sq_dh(0.12) == pytest.approx(-4.0, abs=1e-15)


def test_chaplygin_no_genuine_nonlinearity():
    eos = make_chaplygin()
    hh = np.linspace(-1.0, 0.4, 50)
    assert np.all(-2.0 - eos.deta_sq_dh(hh) == 0.0)
    assert eos.eta_sq(hh)[0] == pytest.approx(1.0 - 2 * hh[0], abs=1e-15)


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
    assert np.max(np.abs(eos_tab.eta_sq(hh) - eos_ref.eta_sq(hh))) <= 1e-12
    assert np.max(np.abs(eos_tab.deta_sq_dh(hh) - eos_ref.deta_sq_dh(hh))) <= 1e-6


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
    """d eta^2/dh = k, the slope of eta^2 between h and h + 0.01."""
    k = _slope(eos)
    assume(1.0 + k * h >= 0.05 and 1.0 + k * (h + 0.01) >= 0.05)
    assert eos.deta_sq_dh(h) == k
    assert (eos.eta_sq(h + 0.01) - eos.eta_sq(h)) / 0.01 == pytest.approx(k, abs=1e-9)


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
