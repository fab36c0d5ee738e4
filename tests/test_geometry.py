"""Metric assembly and frame-identity tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charshock.errors import InvalidParameter
from charshock.geometry import (
    FluidPointState,
    assemble_metric,
    build_frames,
    random_subsonic_states,
)


def test_rest_state_metric_is_minkowski():
    g, g_inv = assemble_metric(FluidPointState(v=np.zeros(3), eta=1.0))
    assert np.array_equal(g, np.diag([-1.0, 1.0, 1.0, 1.0]))
    assert np.array_equal(g_inv, np.diag([-1.0, 1.0, 1.0, 1.0]))


def test_moving_state_metric_entries():
    g, _ = assemble_metric(FluidPointState(v=np.array([0.3, 0.0, 0.0]), eta=1.0))
    assert g[0, 0] == pytest.approx(-0.91, abs=1e-15)
    assert g[0, 1] == pytest.approx(-0.3, abs=1e-15)
    assert g[1, 0] == g[0, 1]


def test_metric_inverse_random_states():
    for state in random_subsonic_states(200, rng=7):
        g, g_inv = assemble_metric(state)
        assert np.max(np.abs(g @ g_inv - np.eye(4))) <= 1e-12
        # closed form vs numeric inversion
        assert np.max(np.abs(g_inv - np.linalg.inv(g))) <= 1e-12


def test_degenerate_sound_speed_raises():
    with pytest.raises(InvalidParameter):
        assemble_metric(FluidPointState(v=np.zeros(3), eta=0.0))


def test_rest_state_frames_hand_values():
    state = FluidPointState(v=np.zeros(3), eta=1.0, mu=1.0, that=np.array([1.0, 0.0, 0.0]))
    fr = build_frames(state)
    assert np.array_equal(fr.L, [1.0, -1.0, 0.0, 0.0])
    assert np.array_equal(fr.N, [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(fr.T, [0.0, 1.0, 0.0, 0.0])
    g, _ = assemble_metric(state)
    assert fr.L @ g @ fr.T == pytest.approx(-1.0, abs=1e-15)


def test_mu_zero_frames_degenerate():
    state = FluidPointState(v=np.array([0.1, 0.0, 0.0]), eta=1.2, mu=0.0,
                            that=np.array([0.0, 1.0, 0.0]))
    fr = build_frames(state)
    g, _ = assemble_metric(state)
    assert abs(fr.L @ g @ fr.Lbar) <= 1e-15


def test_frame_identity_suite():
    """All algebraic frame identities over many random admissible states."""
    for state in random_subsonic_states(10_000, rng=42):
        g, _ = assemble_metric(state)
        fr = build_frames(state)
        scale = max(1.0, np.max(np.abs(fr.L)), np.max(np.abs(fr.Lbar)))
        tol = 1e-12 * scale**2
        assert abs(fr.L @ g @ fr.L) <= tol
        assert abs(fr.Lbar @ g @ fr.Lbar) <= tol
        assert abs(fr.L @ g @ fr.T + state.mu) <= tol
        assert abs(fr.T @ g @ fr.T - fr.kappa**2) <= tol
        assert abs(fr.L @ g @ fr.Lbar + 2.0 * state.mu) <= tol
        assert abs(fr.N @ g @ fr.N + state.eta**2) <= tol
        assert fr.N[0] == 1.0 and fr.L[0] == 1.0
        assert np.max(np.abs(fr.L - (fr.N - state.eta * np.concatenate(([0.0], state.that))))) <= tol


def _unit(polar, azimuth):
    return np.array([math.sin(polar) * math.cos(azimuth),
                     math.sin(polar) * math.sin(azimuth), math.cos(polar)])


_DIRECTION = st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))


@settings(deadline=None, max_examples=300)
@given(eta=st.floats(0.2, 2.0), mach=st.floats(0.0, 0.9), v_dir=_DIRECTION,
       t_dir=_DIRECTION, mu=st.floats(0.0, 1.5))
def test_frame_metric_identities_property(eta, mach, v_dir, t_dir, mu):
    """Acceptance 5's identities and residual bound for every admissible state:
    eta in [0.2, 2], |v| up to 0.9 eta, mu in [0, 1.5]."""
    state = FluidPointState(v=mach * eta * _unit(*v_dir), eta=eta, mu=mu,
                            that=_unit(*t_dir))
    g, g_inv = assemble_metric(state)
    assert np.max(np.abs(g @ g_inv - np.eye(4))) <= 1e-12
    fr = build_frames(state)
    L, Lb, N, T = fr.L, fr.Lbar, fr.N, fr.T
    scale = max(1.0, fr.kappa) ** 2
    for val, want in ((L @ g @ L, 0.0), (Lb @ g @ Lb, 0.0), (L @ g @ T, -mu),
                      (T @ g @ T, fr.kappa ** 2), (L @ g @ Lb, -2.0 * mu),
                      (N @ g @ N, -eta ** 2)):
        assert abs(float(val) - want) <= 1e-12 * scale
