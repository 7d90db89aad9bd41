import math

import numpy as np
import pytest

from workreal import (
    EnergySpectrum,
    GROUND_EXCITED,
    CorrelatorSet,
    DichotomicMapping,
    InvalidParameterError,
    JointDistribution3,
    build_thermal_state,
    correlator_set,
    dichotomic_correlator,
    k3_correlator,
    k3_correlator_flipped,
    k3_correlator_swapped,
    k3_entropic,
    shannon_entropy,
    two_time_joint,
    work_distribution,
    work_entropy,
)
from workreal.two_level import TlsAngles, tls_propagator, tls_spectrum

from conftest import conditional_entropy, entropic_k3_from_protocol, random_stochastic_columns


def thermal(beta=1.0):
    return build_thermal_state(tls_spectrum(0), beta)


def rotation(theta):
    return tls_propagator(TlsAngles(theta))


class TestCorrelators:
    def test_identity_dynamics_gives_plus_one(self):
        joint = two_time_joint(thermal(), rotation(0.0))
        assert dichotomic_correlator(joint, GROUND_EXCITED) == pytest.approx(1.0)

    def test_full_flip_gives_minus_one(self):
        joint = two_time_joint(thermal(), rotation(math.pi))
        assert dichotomic_correlator(joint, GROUND_EXCITED) == pytest.approx(-1.0)

    def test_rotation_correlator_is_cos_theta_for_any_state(self):
        """The two-level flip probability is the same from either eigenstate, so
        the correlator cannot depend on the input populations."""
        rng = np.random.default_rng(5)
        for theta in rng.uniform(0, 2 * math.pi, 25):
            for beta in (0.1, 1.0, 10.0, math.inf):
                joint = two_time_joint(build_thermal_state(tls_spectrum(0), beta),
                                       rotation(theta))
                assert dichotomic_correlator(joint, GROUND_EXCITED) == pytest.approx(
                    math.cos(theta), abs=1e-12)

    def test_unmapped_dimension_rejected(self):
        from workreal import UnitaryPropagator
        rho = build_thermal_state(EnergySpectrum(np.array([0.0, 1.0, 2.0])), 1.0)
        joint = two_time_joint(rho, UnitaryPropagator(np.eye(3)))
        with pytest.raises(InvalidParameterError):
            dichotomic_correlator(joint, GROUND_EXCITED)

    def test_mapping_validation(self):
        with pytest.raises(InvalidParameterError):
            DichotomicMapping((1, 0))


class TestK3Correlator:
    def test_identity_dynamics(self):
        c = CorrelatorSet(1.0, 1.0, 1.0)
        assert k3_correlator(c) == 0.0
        assert k3_correlator_flipped(c) == 1.0

    def test_pi_over_three_reaches_the_two_level_floor(self):
        c = correlator_set(thermal(), rotation(math.pi / 3), rotation(math.pi / 3))
        assert c.c01 == pytest.approx(0.5, abs=1e-14)
        assert c.c12 == pytest.approx(0.5, abs=1e-14)
        assert c.c02 == pytest.approx(-0.5, abs=1e-14)
        assert k3_correlator(c) == pytest.approx(-0.125, abs=1e-14)

    def test_pi_over_two_sits_on_the_boundary(self):
        c = correlator_set(thermal(), rotation(math.pi / 2), rotation(math.pi / 2))
        assert k3_correlator(c) == pytest.approx(0.0, abs=1e-14)

    def test_flipped_form_at_two_pi_over_three(self):
        c = correlator_set(thermal(), rotation(2 * math.pi / 3),
                           rotation(2 * math.pi / 3))
        assert k3_correlator_flipped(c) == pytest.approx(-0.125, abs=1e-14)

    def test_flipped_form_at_pi(self):
        c = correlator_set(thermal(), rotation(math.pi), rotation(math.pi))
        assert k3_correlator_flipped(c) == pytest.approx(0.0, abs=1e-14)

    def test_swapped_index_variant_never_signals_for_rotations(self):
        """The index-swapped combination reduces to sin(theta)^2 / 2, which is why
        it is kept only as a diagnostic."""
        for theta in np.linspace(0, 2 * math.pi, 73):
            c = correlator_set(thermal(), rotation(theta), rotation(theta))
            value = k3_correlator_swapped(c)
            assert value == pytest.approx(0.5 * math.sin(theta) ** 2, abs=1e-12)
            assert value >= -1e-12

    def test_closed_form_on_a_grid(self):
        for theta in np.linspace(0, 2 * math.pi, 181):
            c = correlator_set(thermal(), rotation(theta), rotation(theta))
            expected = 0.5 * math.cos(theta) * (math.cos(theta) - 1.0)
            assert k3_correlator(c) == pytest.approx(expected, abs=1e-12)


class TestK3Entropic:
    def test_adiabatic_dynamics_sits_at_zero(self):
        assert entropic_k3_from_protocol(thermal(), rotation(0.0),
                                         rotation(0.0)) == pytest.approx(0.0, abs=1e-14)

    def test_direct_formula_agrees_with_conditional_form(self):
        """Dual-path evaluation at theta = pi/2: the work-entropy form and the
        conditional-entropy form must coincide."""
        from workreal import three_time_joint, two_time_joint_skipping_middle
        rho = thermal()
        u = rotation(math.pi / 2)
        direct = entropic_k3_from_protocol(rho, u, u)
        joint3 = three_time_joint(rho, u, u)
        no_middle = two_time_joint_skipping_middle(rho, u, u)
        conditional_form = 0.5 * (
            conditional_entropy(joint3.marginal_t2_t1()).value
            + conditional_entropy(joint3.marginal_t1_t0()).value
            - conditional_entropy(no_middle).value)
        assert direct == pytest.approx(conditional_form, abs=1e-10)

    def test_oscillator_landmark_point_is_negative(self):
        from workreal import entropic_k3_oscillator
        value, _ = entropic_k3_oscillator(0.1, 0.02, 0.02)
        assert value < 0.0


class TestTwoLevelInvariants:
    def test_beta_independence(self):
        """Both parameters are temperature independent for the two-level model;
        for the entropic one this is verified numerically, not assumed."""
        reference = None
        for beta in (0.1, 1.0, 10.0):
            rho = thermal(beta)
            c = correlator_set(rho, rotation(1.1), rotation(1.1))
            values = (k3_correlator(c), k3_correlator_flipped(c),
                      entropic_k3_from_protocol(rho, rotation(1.1), rotation(1.1)))
            if reference is None:
                reference = values
            else:
                np.testing.assert_allclose(values, reference, atol=1e-12)

    def test_pi_periodicity_and_reflection(self):
        for theta in (0.3, 1.0, 2.2):
            base = correlator_set(thermal(), rotation(theta), rotation(theta))
            for other in (2 * math.pi - theta, -theta % (2 * math.pi)):
                c = correlator_set(thermal(), rotation(other), rotation(other))
                assert k3_correlator(c) == pytest.approx(k3_correlator(base), abs=1e-12)
                assert k3_correlator_flipped(c) == pytest.approx(
                    k3_correlator_flipped(base), abs=1e-12)

    def test_violation_everywhere_off_the_half_pi_lattice(self):
        for theta in np.arange(1e-3, math.pi, 1e-3 * math.pi):
            distance = min(theta % (math.pi / 2), math.pi / 2 - theta % (math.pi / 2))
            if distance < 1e-3:
                continue
            c = correlator_set(thermal(), rotation(theta), rotation(theta))
            assert min(k3_correlator(c), k3_correlator_flipped(c)) < 0


class TestClassicalSurrogate:
    def test_both_parameters_non_negative_for_hidden_variable_dynamics(self, rng):
        """A Markov chain over outcomes, where skipping the middle measurement
        changes nothing, can never push either parameter negative."""
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            levels = tuple(np.sort(rng.uniform(0, 2, dim)))
            spectra = tuple(EnergySpectrum(np.array(levels), label=k) for k in range(3))
            populations = rng.dirichlet(np.ones(dim))
            s1 = random_stochastic_columns(rng, dim)
            s2 = random_stochastic_columns(rng, dim)
            joint3 = JointDistribution3(s2, s1, populations, spectra)
            no_middle = joint3.marginal_t2_t0()
            mapping = DichotomicMapping(tuple(int(q) for q in
                                              rng.choice([-1, 1], size=dim)))
            c = CorrelatorSet(
                dichotomic_correlator(joint3.marginal_t1_t0(), mapping),
                dichotomic_correlator(joint3.marginal_t2_t1(), mapping),
                dichotomic_correlator(no_middle, mapping))
            assert k3_correlator(c) >= -1e-12
            assert k3_correlator_flipped(c) >= -1e-12
            h_w10 = work_entropy(work_distribution(joint3.marginal_t1_t0(), view="fine"))
            h_w21 = work_entropy(work_distribution(joint3.marginal_t2_t1(), view="fine"))
            h_w20 = work_entropy(work_distribution(no_middle, view="fine"))
            h_e1 = shannon_entropy(joint3.marginal_t1())
            assert k3_entropic(h_w21.value, h_w10.value, h_w20.value, h_e1.value) >= -1e-12


def test_correlator_set_range_validated():
    with pytest.raises(InvalidParameterError):
        CorrelatorSet(1.2, 0.0, 0.0)
