import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from workreal import (
    EnergySpectrum,
    InvalidParameterError,
    UnitaryPropagator,
    build_thermal_state,
    compose_propagators,
    thermodynamic_potentials,
    validate_unitary,
)
from workreal.two_level import TlsAngles, tls_propagator

from conftest import random_unitary

TWO_LEVEL = EnergySpectrum(np.array([0.0, 1.0]))

# frozen with 40-digit arithmetic: 1/(1+e^-1) and its complement
P0_BETA1 = 0.73105857863000488
P1_BETA1 = 0.26894142136999512


def test_ground_state_limit():
    state = build_thermal_state(TWO_LEVEL, math.inf)
    assert state.populations.tolist() == [1.0, 0.0]


def test_degenerate_ground_levels_split_evenly():
    state = build_thermal_state(EnergySpectrum(np.array([0.0, 0.0, 1.0])), math.inf)
    np.testing.assert_allclose(state.populations, [0.5, 0.5, 0.0])


def test_infinite_temperature_approach():
    state = build_thermal_state(TWO_LEVEL, 1e-9)
    np.testing.assert_allclose(state.populations, [0.5, 0.5], atol=1e-9)


def test_gibbs_ratio_beta_one():
    state = build_thermal_state(TWO_LEVEL, 1.0)
    np.testing.assert_allclose(state.populations, [P0_BETA1, P1_BETA1], rtol=1e-15)


@pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, -math.inf])
def test_invalid_beta_rejected(beta):
    with pytest.raises(InvalidParameterError):
        build_thermal_state(TWO_LEVEL, beta)


def test_max_shift_prevents_overflow():
    spectrum = EnergySpectrum(np.array([-500.0, 0.0, 700.0]))
    state = build_thermal_state(spectrum, 50.0)
    assert np.all(np.isfinite(state.populations))
    assert state.populations[0] == pytest.approx(1.0)


def test_potentials_single_level():
    pot = thermodynamic_potentials(EnergySpectrum(np.array([0.0])), 2.0)
    assert pot.partition_function == pytest.approx(1.0)
    assert pot.free_energy == pytest.approx(0.0)


def test_potentials_two_level_closed_form():
    pot = thermodynamic_potentials(TWO_LEVEL, 1.0)
    assert pot.partition_function == pytest.approx(1.3678794411714423, rel=1e-15)
    assert pot.free_energy == pytest.approx(-0.31326168751822283, rel=1e-15)


@given(shift=st.floats(-50.0, 50.0), beta=st.floats(0.05, 20.0))
def test_gauge_shift_moves_free_energy(shift, beta):
    base = thermodynamic_potentials(TWO_LEVEL, beta)
    moved = thermodynamic_potentials(EnergySpectrum(TWO_LEVEL.levels + shift), beta)
    assert moved.free_energy - base.free_energy == pytest.approx(shift, abs=1e-9)


@given(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=6),
       st.floats(0.1, 10.0))
@settings(max_examples=80)
def test_thermal_populations_decrease_up_the_spectrum(levels, beta):
    spectrum = EnergySpectrum(np.sort(np.asarray(levels)))
    state = build_thermal_state(spectrum, beta)
    gaps = np.diff(spectrum.levels)
    pop_steps = np.diff(state.populations)
    # strict decrease is only resolvable when the Boltzmann factor moves by
    # more than one ulp
    resolvable = beta * gaps > 1e-12
    assert np.all(pop_steps[resolvable] < 0)
    assert np.all(pop_steps <= 0)


@given(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=8),
       st.floats(0.2, 5.0))
@settings(max_examples=60)
def test_mean_energy_matches_log_z_derivative(levels, beta):
    """<E> must equal -d(ln Z)/d(beta), probed by a centered difference."""
    spectrum = EnergySpectrum(np.sort(np.asarray(levels)))
    state = build_thermal_state(spectrum, beta)
    mean_energy = float(state.populations @ spectrum.levels)
    step = 1e-4 * beta
    log_z = {}
    for b in (beta - step, beta + step):
        pot = thermodynamic_potentials(spectrum, b)
        log_z[b] = -b * pot.free_energy
    derivative = (log_z[beta + step] - log_z[beta - step]) / (2 * step)
    assert mean_energy == pytest.approx(-derivative, abs=1e-6)


def test_identity_compose_is_identity():
    u = tls_propagator(TlsAngles(0.7, 0.3, 0.1))
    iden = UnitaryPropagator(np.eye(2, dtype=complex))
    np.testing.assert_allclose(compose_propagators(iden, u).matrix, u.matrix)


def test_rotations_compose_by_angle_addition():
    u = compose_propagators(tls_propagator(TlsAngles(0.4)), tls_propagator(TlsAngles(0.4)))
    np.testing.assert_allclose(u.matrix, tls_propagator(TlsAngles(0.8)).matrix,
                               atol=1e-15)


def test_compose_is_associative(rng):
    for dim in (2, 3, 5, 8):
        a, b, c = (UnitaryPropagator(random_unitary(rng, dim)) for _ in range(3))
        left = compose_propagators(compose_propagators(a, b), c)
        right = compose_propagators(a, compose_propagators(b, c))
        np.testing.assert_allclose(left.matrix, right.matrix, atol=1e-13)


def test_dimension_mismatch_rejected(rng):
    with pytest.raises(InvalidParameterError):
        compose_propagators(UnitaryPropagator(random_unitary(rng, 2)),
                            UnitaryPropagator(random_unitary(rng, 3)))


def test_validate_unitary_identity():
    assert validate_unitary(np.eye(4)) == 0.0


def test_validate_unitary_rotations():
    rng = np.random.default_rng(7)
    for theta in rng.uniform(0, 2 * math.pi, size=50):
        assert validate_unitary(tls_propagator(TlsAngles(theta)).matrix) < 1e-15


def test_non_unitary_matrix_rejected():
    with pytest.raises(InvalidParameterError):
        UnitaryPropagator(np.array([[1.0, 0.0], [0.0, 0.5]], dtype=complex))


def test_spectrum_must_be_sorted_and_finite():
    with pytest.raises(InvalidParameterError):
        EnergySpectrum(np.array([1.0, 0.0]))
    with pytest.raises(InvalidParameterError):
        EnergySpectrum(np.array([0.0, math.inf]))
    with pytest.raises(InvalidParameterError):
        EnergySpectrum(np.array([]))


def test_hand_built_thermal_density_is_checked():
    from workreal import DiagonalDensity
    with pytest.raises(InvalidParameterError):
        DiagonalDensity(np.array([0.5, 0.5]), TWO_LEVEL, beta=1.0)
