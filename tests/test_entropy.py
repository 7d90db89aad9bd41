import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from workreal import (
    InvalidParameterError,
    JointDistribution,
    build_thermal_state,
    conditional_entropy,
    grouped_entropy,
    joint_entropy,
    marginal_entropy,
    shannon_entropy,
    two_time_joint,
    work_distribution,
    work_entropy,
)
from workreal.two_level import TlsAngles, incommensurate_tls_spectra, tls_propagator, tls_spectrum

# frozen with 40-digit arithmetic
H_QUARTER = 0.56233514461880835          # H({1/4, 3/4})
H_THERMAL_BETA1 = 0.58220310888821795    # H({1/(1+1/e), ...})
H_JOINT_PI3 = 1.1445382535070263         # conditional + marginal at theta = pi/3

distributions = st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=8).map(
    lambda w: np.asarray(w) / np.sum(w))


def tls_joint(theta, beta=1.0):
    rho = build_thermal_state(tls_spectrum(0), beta)
    return two_time_joint(rho, tls_propagator(TlsAngles(theta)))


def test_point_mass_has_zero_entropy():
    assert shannon_entropy([1.0, 0.0]).value == 0.0


def test_uniform_two_outcomes():
    assert shannon_entropy([0.5, 0.5]).value == pytest.approx(math.log(2), rel=1e-15)


def test_quarter_three_quarter():
    report = shannon_entropy([0.25, 0.75])
    assert report.value == pytest.approx(H_QUARTER, rel=1e-14)
    assert report.support_size == 2


def test_negative_probability_rejected():
    with pytest.raises(InvalidParameterError):
        shannon_entropy([1.1, -0.1])


def test_badly_normalized_rejected_but_near_misses_renormalize():
    with pytest.raises(InvalidParameterError):
        shannon_entropy([0.7, 0.2])
    with pytest.warns(UserWarning):
        value = shannon_entropy([0.5, 0.5 + 3e-9]).value
    assert value == pytest.approx(math.log(2), abs=1e-8)


@given(distributions)
def test_permutation_invariance(probs):
    rng = np.random.default_rng(0)
    assert shannon_entropy(rng.permutation(probs)).value == pytest.approx(
        shannon_entropy(probs).value, abs=1e-12)


class TestConditionalEntropy:
    def test_identity_propagator_gives_zero(self):
        assert conditional_entropy(tls_joint(0.0)).value == pytest.approx(0.0, abs=1e-15)

    def test_independent_joint_gives_later_entropy(self):
        probs = np.outer([0.25, 0.75], [0.4, 0.6])
        joint = JointDistribution(probs, tls_spectrum(0), tls_spectrum(1))
        assert conditional_entropy(joint).value == pytest.approx(H_QUARTER, rel=1e-12)

    def test_two_level_pi_over_three(self):
        """Conditionals are {3/4, 1/4} for either earlier outcome."""
        assert conditional_entropy(tls_joint(math.pi / 3)).value == pytest.approx(
            H_QUARTER, rel=1e-12)

    def test_conditioning_never_exceeds_later_marginal_entropy(self, rng):
        for _ in range(100):
            probs = rng.dirichlet(np.ones(9)).reshape(3, 3)
            joint = JointDistribution(probs, tls_spectrum(0, (0, 1, 2)),
                                      tls_spectrum(1, (0, 1, 2)))
            h_cond = conditional_entropy(joint).value
            h_later = marginal_entropy(joint, "later").value
            assert -1e-10 <= h_cond <= h_later + 1e-10


class TestJointEntropy:
    def test_identity_reduces_to_thermal_marginal(self):
        assert joint_entropy(tls_joint(0.0)).value == pytest.approx(
            H_THERMAL_BETA1, rel=1e-12)

    def test_uniform_two_by_two(self):
        probs = np.full((2, 2), 0.25)
        joint = JointDistribution(probs, tls_spectrum(0), tls_spectrum(1))
        assert joint_entropy(joint).value == pytest.approx(math.log(4), rel=1e-15)

    def test_pi_over_three_chain_value(self):
        assert joint_entropy(tls_joint(math.pi / 3)).value == pytest.approx(
            H_JOINT_PI3, rel=1e-12)

    def test_chain_identity_on_random_joints(self, rng):
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            probs = rng.dirichlet(np.ones(dim * dim)).reshape(dim, dim)
            joint = JointDistribution(probs, tls_spectrum(0, tuple(range(dim))),
                                      tls_spectrum(1, tuple(range(dim))))
            lhs = joint_entropy(joint).value
            rhs = conditional_entropy(joint).value + marginal_entropy(joint).value
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestGrouping:
    def test_singleton_groups_change_nothing(self):
        probs = [0.2, 0.3, 0.5]
        report, within = grouped_entropy(probs, [[0], [1], [2]])
        assert report.value == pytest.approx(shannon_entropy(probs).value, rel=1e-14)
        assert within == pytest.approx(0.0, abs=1e-15)

    def test_single_group_moves_everything_within(self):
        probs = [0.2, 0.3, 0.5]
        report, within = grouped_entropy(probs, [[0, 1, 2]])
        assert report.value == 0.0
        assert within == pytest.approx(shannon_entropy(probs).value, rel=1e-14)

    def test_worked_example(self):
        report, within = grouped_entropy([0.5, 0.25, 0.25], [[0], [1, 2]])
        assert report.value == pytest.approx(math.log(2), rel=1e-14)
        assert within == pytest.approx(0.5 * math.log(2), rel=1e-14)

    def test_non_partition_rejected(self):
        with pytest.raises(InvalidParameterError):
            grouped_entropy([0.5, 0.5], [[0, 0], [1]])
        with pytest.raises(InvalidParameterError):
            grouped_entropy([0.5, 0.5], [[0]])

    @given(st.integers(2, 64), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_grouping_identity_random(self, dim, seed):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(dim))
        n_groups = int(rng.integers(1, dim + 1))
        assignment = rng.integers(0, n_groups, dim)
        grouping = [np.nonzero(assignment == g)[0].tolist() for g in range(n_groups)]
        grouping = [g for g in grouping if g]
        report, within = grouped_entropy(probs, grouping)
        assert report.value + within == pytest.approx(
            shannon_entropy(probs).value, abs=1e-12)


class TestWorkEntropy:
    def test_identity_equal_spectra(self):
        joint = tls_joint(0.0)
        grouped = work_entropy(work_distribution(joint, view="grouped"))
        fine = work_entropy(work_distribution(joint, view="fine"))
        assert grouped.value == 0.0
        assert fine.value == pytest.approx(H_THERMAL_BETA1, rel=1e-12)

    def test_incommensurate_spectra_remove_degeneracy(self):
        s0, s1, _ = incommensurate_tls_spectra()
        rho = build_thermal_state(s0, 1.0)
        joint = two_time_joint(rho, tls_propagator(TlsAngles(math.pi / 2)),
                               spectrum_later=s1)
        fine = work_entropy(work_distribution(joint, view="fine"))
        grouped = work_entropy(work_distribution(joint, view="grouped"))
        assert len(set(np.round(work_distribution(joint, view="fine").works, 9))) == 4
        assert fine.value == pytest.approx(grouped.value, abs=1e-14)

    def test_degenerate_case_differs_by_within_group_entropy(self):
        """Equal spectra at theta = pi/2: four index pairs but three work values;
        the entropy gap is exactly the within-group term of the grouping identity."""
        joint = tls_joint(math.pi / 2)
        fine_dist = work_distribution(joint, view="fine")
        fine = work_entropy(fine_dist)
        grouped = work_entropy(fine_dist.grouped())
        assert len(work_distribution(joint, view="grouped").works) == 3
        assert len(fine_dist.works) == 4
        groups = {}
        for idx, w in enumerate(np.round(fine_dist.works, 9)):
            groups.setdefault(w, []).append(idx)
        _, within = grouped_entropy(fine_dist.probabilities, list(groups.values()))
        assert fine.value - grouped.value == pytest.approx(within, abs=1e-10)

    def test_fine_equals_joint_entropy(self):
        joint = tls_joint(1.234)
        fine = work_entropy(work_distribution(joint, view="fine"))
        assert fine.value == pytest.approx(joint_entropy(joint).value, abs=1e-12)


def test_entropy_report_bound_is_validated():
    from workreal import EntropyReport
    with pytest.raises(InvalidParameterError):
        EntropyReport(value=1.0, support_size=2)


def test_no_library_function_takes_a_logarithm_base():
    """Entropies and K_en are in nats throughout the library; only the CLI
    converts units, at output."""
    import dataclasses
    import inspect

    import workreal.entropy
    import workreal.leggett_garg
    import workreal.squeezing
    import workreal.two_level
    from workreal import EntropyReport
    for module in (workreal.entropy, workreal.leggett_garg, workreal.two_level,
                   workreal.squeezing):
        for name, function in inspect.getmembers(module, inspect.isfunction):
            assert "base" not in inspect.signature(function).parameters, \
                f"{module.__name__}.{name}"
    assert [field.name for field in dataclasses.fields(EntropyReport)] == \
        ["value", "support_size"]
