import math
import os

import numpy as np
import pytest

from workreal import (
    EnergySpectrum,
    InvalidParameterError,
    UnitaryPropagator,
    build_thermal_state,
    empirical_chi_squared_pvalue,
    jarzynski_deviation,
    sample_trajectories,
    three_time_joint,
    total_work_distribution,
    two_time_joint,
    two_time_joint_skipping_middle,
    work_distribution,
)
from workreal.protocol import WORK_DEGENERACY_TOL
from workreal.squeezing import oscillator_three_time
from workreal.two_level import TlsAngles, tls_propagator, tls_spectrum

from conftest import (free_energy_difference, marginal_earlier, random_unitary,
                      sandwich_joint2, sandwich_joint3, total_variation_distance,
                      work_pair_distribution)

P0_BETA1 = 0.73105857863000488
P1_BETA1 = 0.26894142136999512


def thermal(beta=1.0):
    return build_thermal_state(tls_spectrum(0), beta)


def ground():
    return build_thermal_state(tls_spectrum(0), math.inf)


def rotation(theta):
    return tls_propagator(TlsAngles(theta))


class TestTwoTimeJoint:
    def test_identity_propagator_is_diagonal(self):
        joint = two_time_joint(thermal(), rotation(0.0))
        np.testing.assert_allclose(joint.probs, np.diag([P0_BETA1, P1_BETA1]))

    def test_full_flip_is_antidiagonal(self):
        joint = two_time_joint(thermal(), rotation(math.pi))
        np.testing.assert_allclose(joint.probs,
                                   [[0.0, P1_BETA1], [P0_BETA1, 0.0]], atol=1e-30)

    def test_half_rotation_from_ground_state(self):
        joint = two_time_joint(ground(), rotation(math.pi / 2))
        np.testing.assert_allclose(joint.probs, [[0.5, 0.0], [0.5, 0.0]])

    def test_matches_projector_sandwich_oracle(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            levels = np.sort(rng.uniform(-1, 1, dim))
            rho = build_thermal_state(EnergySpectrum(levels), float(rng.uniform(0.2, 5)))
            u = UnitaryPropagator(random_unitary(rng, dim))
            joint = two_time_joint(rho, u)
            np.testing.assert_allclose(
                joint.probs, sandwich_joint2(rho.populations, u.matrix), atol=1e-14)

    def test_column_sums_are_earlier_marginal(self, rng):
        rho = thermal(0.7)
        joint = two_time_joint(rho, UnitaryPropagator(random_unitary(rng, 2)))
        np.testing.assert_allclose(marginal_earlier(joint), rho.populations,
                                   atol=1e-14)


class TestThreeTimeJoint:
    def test_identity_propagators(self):
        joint3 = three_time_joint(thermal(), rotation(0.0), rotation(0.0))
        cube = joint3.probs
        np.testing.assert_allclose(np.diagonal(np.diagonal(cube)), [P0_BETA1, P1_BETA1])
        assert cube.sum() == pytest.approx(1.0)

    def test_double_half_rotation_from_ground(self):
        """Eight paths by hand: every reachable (k1, k2) pair carries 1/4."""
        cube = three_time_joint(ground(), rotation(math.pi / 2),
                                rotation(math.pi / 2)).probs
        np.testing.assert_allclose(cube[:, :, 0], 0.25)
        np.testing.assert_allclose(cube[:, :, 1], 0.0)

    def test_uniform_input_gives_product_marginal(self):
        rho = build_thermal_state(tls_spectrum(0), 1e-12)
        joint3 = three_time_joint(rho, rotation(0.9), rotation(0.9))
        marginal = joint3.marginal_t2_t1().probs
        expected = np.abs(rotation(0.9).matrix) ** 2 * 0.5
        np.testing.assert_allclose(marginal, expected, atol=1e-12)

    def test_matches_projector_sandwich_oracle(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 4))
            levels = np.sort(rng.uniform(-1, 1, dim))
            rho = build_thermal_state(EnergySpectrum(levels), float(rng.uniform(0.2, 5)))
            u10 = UnitaryPropagator(random_unitary(rng, dim))
            u21 = UnitaryPropagator(random_unitary(rng, dim))
            cube = three_time_joint(rho, u10, u21).probs
            np.testing.assert_allclose(
                cube, sandwich_joint3(rho.populations, u10.matrix, u21.matrix),
                atol=1e-14)

    def test_k2_marginal_recovers_first_leg(self, rng):
        rho = thermal()
        u10 = UnitaryPropagator(random_unitary(rng, 2))
        u21 = UnitaryPropagator(random_unitary(rng, 2))
        joint3 = three_time_joint(rho, u10, u21)
        leg1 = two_time_joint(rho, u10)
        np.testing.assert_allclose(joint3.marginal_t1_t0().probs, leg1.probs,
                                   atol=1e-15)
        cube_marginal = joint3.probs.sum(axis=0)
        np.testing.assert_allclose(cube_marginal, leg1.probs, atol=5e-16)

    @pytest.mark.parametrize("case", ["two-level", "oscillator"])
    def test_reading_the_cube_leaves_marginals_on_the_factors(self, case):
        """A factorized joint keeps taking its marginals and mass from the
        factors after `.probs` has been read, so they keep their bits."""
        if case == "two-level":
            joint3 = three_time_joint(thermal(), rotation(0.9), rotation(0.9))
        else:
            joint3 = oscillator_three_time(1.0, 0.15, 0.2, n_max=32).joint3

        def snapshot():
            return [joint3.marginal_t1_t0().probs, joint3.marginal_t2_t1().probs,
                    joint3.marginal_t2_t0().probs, joint3.marginal_t1(),
                    joint3.total_mass()]

        before = snapshot()
        assert joint3.probs.ndim == 3
        for old, new in zip(before, snapshot()):
            np.testing.assert_array_equal(new, old)


class TestNoMiddleBranch:
    def test_identity_propagators_stay_diagonal(self):
        joint = two_time_joint_skipping_middle(thermal(), rotation(0.0), rotation(0.0))
        np.testing.assert_allclose(joint.probs, np.diag([P0_BETA1, P1_BETA1]))

    def test_quarter_rotations_compose(self):
        composed = two_time_joint_skipping_middle(thermal(), rotation(math.pi / 4),
                                                  rotation(math.pi / 4))
        direct = two_time_joint(thermal(), rotation(math.pi / 2))
        np.testing.assert_allclose(composed.probs, direct.probs, atol=1e-15)

    def test_differs_from_measured_marginal(self):
        """Two pi/2 rotations from the ground state: skipping the middle
        measurement flips deterministically, measuring it splits 50/50."""
        no_middle = two_time_joint_skipping_middle(ground(), rotation(math.pi / 2),
                                                   rotation(math.pi / 2))
        np.testing.assert_allclose(no_middle.probs, [[0.0, 0.0], [1.0, 0.0]],
                                   atol=1e-30)
        measured = three_time_joint(ground(), rotation(math.pi / 2),
                                    rotation(math.pi / 2)).marginal_t2_t0()
        np.testing.assert_allclose(measured.probs, [[0.5, 0.0], [0.5, 0.0]])
        assert total_variation_distance(no_middle, measured) == pytest.approx(0.5)

    def test_invasiveness_vanishes_only_at_diagonal_propagators(self):
        for theta in np.linspace(0.05, 2 * math.pi - 0.05, 40):
            joint3 = three_time_joint(thermal(), rotation(theta), rotation(theta))
            no_middle = two_time_joint_skipping_middle(thermal(), rotation(theta),
                                                       rotation(theta))
            tv = total_variation_distance(joint3.marginal_t2_t0(), no_middle)
            near_multiple_of_pi = min(abs(theta % math.pi), math.pi - theta % math.pi) < 1e-6
            assert (tv < 1e-12) == near_multiple_of_pi or tv > 1e-6
        for theta in (0.0, math.pi):
            joint3 = three_time_joint(thermal(), rotation(theta), rotation(theta))
            no_middle = two_time_joint_skipping_middle(thermal(), rotation(theta),
                                                       rotation(theta))
            assert total_variation_distance(joint3.marginal_t2_t0(), no_middle) < 1e-15


class TestWorkDistribution:
    def test_identity_collapses_to_zero_work(self):
        dist = work_distribution(two_time_joint(thermal(), rotation(0.0)))
        assert dist.works.tolist() == [0.0]
        assert dist.probabilities.tolist() == [1.0]

    def test_half_rotation_grouped_values(self):
        """Four index pairs, two merging at w = 0."""
        dist = work_distribution(two_time_joint(thermal(), rotation(math.pi / 2)))
        np.testing.assert_allclose(dist.works, [-1.0, 0.0, 1.0])
        np.testing.assert_allclose(dist.probabilities,
                                   [0.13447071068499756, 0.5, 0.36552928931500244],
                                   rtol=1e-14)

    def test_fine_view_keeps_index_pairs(self):
        dist = work_distribution(two_time_joint(thermal(), rotation(math.pi / 2)),
                                 view="fine")
        assert len(dist.works) == 4
        grouped = dist.grouped()
        assert len(grouped.works) == 3

    def test_grouping_a_grouped_view_returns_it(self):
        dist = work_distribution(two_time_joint(thermal(), rotation(math.pi / 2)))
        assert dist.view == "grouped"
        assert dist.grouped() is dist

    def test_total_work_identity(self):
        joint3 = three_time_joint(thermal(), rotation(0.0), rotation(0.0))
        dist = total_work_distribution(joint3)
        assert dist.works.tolist() == [0.0]

    def test_total_work_consistent_with_pair_convolution(self):
        joint3 = three_time_joint(thermal(), rotation(math.pi / 3), rotation(math.pi / 3))
        total = total_work_distribution(joint3)
        pairs = work_pair_distribution(joint3)
        convolved = {}
        for w1, w2, p in pairs:
            key = round(w1 + w2, 9)
            convolved[key] = convolved.get(key, 0.0) + p
        for w, p in zip(total.works, total.probabilities):
            assert p == pytest.approx(convolved[round(w, 9)], abs=1e-14)

    def test_pair_marginal_matches_first_leg_work(self):
        joint3 = three_time_joint(thermal(), rotation(math.pi / 3), rotation(math.pi / 3))
        pairs = work_pair_distribution(joint3)
        marginal = {}
        for w1, _, p in pairs:
            marginal[round(w1, 9)] = marginal.get(round(w1, 9), 0.0) + p
        leg1 = work_distribution(joint3.marginal_t1_t0())
        for w, p in zip(leg1.works, leg1.probabilities):
            assert marginal[round(w, 9)] == pytest.approx(p, abs=1e-14)


def _former_work_distribution(joint, view):
    """The former `work_distribution`: (works, probabilities, sources), with the
    sources built as one tuple of index pairs per entry and concatenated per group."""
    later, earlier = np.nonzero(joint.probs)
    works = joint.spectrum_later.levels[later] - joint.spectrum_earlier.levels[earlier]
    probs = joint.probs[later, earlier]
    order = np.lexsort((earlier, later, works))
    works, probs = works[order], probs[order]
    sources = tuple(((int(later[k]), int(earlier[k])),) for k in order)
    if view == "fine":
        return works, probs, sources
    boundaries = np.flatnonzero(np.diff(works) >= 1e-9) + 1
    merged_w, merged_p, merged_src = [], [], []
    for chunk in np.split(np.arange(works.size), boundaries):
        p = probs[chunk].sum()
        merged_w.append(float(np.dot(works[chunk], probs[chunk]) / p))
        merged_p.append(float(p))
        merged_src.append(tuple(pair for k in chunk for pair in sources[k]))
    return np.array(merged_w), np.array(merged_p), tuple(merged_src)


@pytest.mark.parametrize("view", ["fine", "grouped"])
def test_index_pairs_equal_former_tuples(view):
    from workreal import oscillator_three_time
    oscillator = oscillator_three_time(1.0, 0.15, 0.15, n_max=32)
    joints = [two_time_joint(thermal(), rotation(math.pi / 2)),  # w = 0 from two pairs
              two_time_joint(thermal(0.3), rotation(1.1)),
              oscillator.joint3.marginal_t1_t0(), oscillator.joint3.marginal_t2_t0(),
              oscillator.no_middle]
    for joint in joints:
        dist = work_distribution(joint, view=view)
        works, probs, sources = _former_work_distribution(joint, view)
        assert np.array_equal(dist.works, works)
        assert np.array_equal(dist.probabilities, probs)
    if view == "grouped":  # the oscillator's equally spaced levels merge many pairs
        assert len(sources) == 33 and max(map(len, sources)) > 1


def test_frozen_work_distribution():
    """Values recorded when the sources were still built as per-entry tuples."""
    from workreal import JointDistribution
    levels = np.array([0.0, 0.3, 0.7])
    joint = JointDistribution(np.array([[0.1, 0.0, 0.05], [0.2, 0.15, 0.0],
                                        [0.05, 0.25, 0.2]]),
                              EnergySpectrum(levels, label=0), EnergySpectrum(levels, label=1))
    fine = work_distribution(joint, view="fine")
    assert np.array_equal(fine.works, [-0.7, 0.0, 0.0, 0.0, 0.3, 0.39999999999999997, 0.7])
    assert np.array_equal(fine.probabilities, [0.05, 0.1, 0.15, 0.2, 0.2, 0.25, 0.05])
    grouped = fine.grouped()
    assert np.array_equal(grouped.works, [-0.6999999999999998, 0.0, 0.3,
                                          0.39999999999999997, 0.6999999999999998])
    assert np.array_equal(grouped.probabilities, [0.05, 0.45, 0.2, 0.25, 0.05])


@pytest.mark.parametrize("zero_fraction", [0.0, 0.3])
def test_work_rows_equal_np_unique_grouping(zero_fraction):
    """A (7201, 2, 2) stack of two-level joints, with and without exact zeros: the
    entropy of each grouped row of the sweep's work rows is that of the joint's own
    grouped distribution, also where a whole group is absent and stays in its row
    as a zero."""
    from workreal import JointDistribution, work_entropy
    from workreal.entropy import entropy_rows
    from workreal.two_level import _work_rows
    rng = np.random.default_rng(7201)
    flip = rng.random(7201)
    cut = rng.random(7201)
    flip[cut < zero_fraction / 2] = 0.0
    flip[cut > 1 - zero_fraction / 2] = 1.0
    trans = np.stack([np.stack([1 - flip, flip], axis=1),
                      np.stack([flip, 1 - flip], axis=1)], axis=1)
    joints = trans * np.array([P0_BETA1, P1_BETA1])
    assert (np.count_nonzero(joints == 0) > 0) == (zero_fraction > 0)
    s0, s1 = tls_spectrum(0), tls_spectrum(1)
    rows = _work_rows(joints, "grouped")
    expected = [work_entropy(work_distribution(JointDistribution(joint, s0, s1),
                                               "grouped")).value for joint in joints]
    assert np.array_equal(entropy_rows(rows), expected)



def _former_grouped(fine):
    """The former `WorkDistribution.grouped`: a stable argsort of the works, both
    gathers, then one `np.split` of an index array into the runs."""
    order = np.argsort(fine.works, kind="stable")
    works = fine.works[order]
    probs = fine.probabilities[order]
    boundaries = np.flatnonzero(np.diff(works) >= WORK_DEGENERACY_TOL) + 1
    merged_w, merged_p = [], []
    for chunk in np.split(np.arange(works.size), boundaries):
        p = probs[chunk].sum()
        merged_w.append(float(np.dot(works[chunk], probs[chunk]) / p))
        merged_p.append(float(p))
    return np.array(merged_w), np.array(merged_p)


def _straddling_joints():
    """Random joints over levels spaced so that their work gaps fall just below,
    at and just above WORK_DEGENERACY_TOL."""
    from workreal import JointDistribution
    rng = np.random.default_rng(25)
    spacings = [0.0, 1e-12, 0.5e-9, 0.999999e-9, 1e-9, 1.000001e-9, 2e-9, 0.3]
    joints = []
    for _ in range(80):
        n = int(rng.integers(2, 8))
        earlier = np.cumsum(rng.choice(spacings, size=n))
        later = np.sort(earlier + rng.choice([0.0, 0.4e-9, 1e-9], size=n))
        probs = rng.random((n, n)) * (rng.random((n, n)) > 0.25)
        probs[0, -1] += 0.1
        joints.append(JointDistribution(probs / probs.sum(), EnergySpectrum(earlier, 0),
                                        EnergySpectrum(later, 1)))
    return joints


def test_grouped_by_slices_equals_the_former_argsort_oracle():
    """The grouped view merges the fine view's runs by slices, bit for bit as the
    former argsort and split did: on the total work of jarzynski-check's beta 0.5
    oscillator row, on its no-middle joint, and on work gaps straddling the
    degeneracy tolerance."""
    oscillator = oscillator_three_time(0.5, 0.3, 0.3)
    joints = [oscillator.joint3.marginal_t2_t0(), oscillator.no_middle,
              two_time_joint(thermal(), rotation(math.pi / 2)), *_straddling_joints()]
    gaps = []
    for joint in joints:
        fine = work_distribution(joint, "fine")
        grouped = fine.grouped()
        works, probs = _former_grouped(fine)
        assert np.array_equal(grouped.works, works)
        assert np.array_equal(np.signbit(grouped.works), np.signbit(works))
        assert np.array_equal(grouped.probabilities, probs)
        gaps.append(np.diff(fine.works))
    gaps = np.concatenate(gaps)
    tol = WORK_DEGENERACY_TOL
    assert np.any((0.999 * tol < gaps) & (gaps < tol))
    assert np.any((tol <= gaps) & (gaps < 1.001 * tol))
    assert len(work_distribution(joints[0], "grouped").works) > 200


def test_fine_view_must_be_ordered_by_work():
    """Non-decreasing works are an invariant of the fine view, which the grouped
    view's merge by slices relies on."""
    from workreal.protocol import WorkDistribution
    ties = WorkDistribution(np.array([-1.0, 0.0, 0.0, 1.0]), np.full(4, 0.25), "fine")
    assert ties.grouped().works.tolist() == [-1.0, 0.0, 1.0]
    with pytest.raises(InvalidParameterError, match="non-decreasing"):
        WorkDistribution(np.array([0.0, -1.0, 1.0]), np.array([0.5, 0.25, 0.25]), "fine")
    with pytest.raises(InvalidParameterError, match="strictly increasing"):
        WorkDistribution(np.array([0.0, 0.0]), np.array([0.5, 0.5]), "grouped")


def test_stable_work_sort_equals_the_three_key_lexsort():
    """work_distribution orders the pairs by one stable sort of the works.  That
    equals the former lexsort by (work, later, earlier) because np.nonzero lists
    the pairs in (later, earlier) order; checked on random joints over integer
    levels, where most works tie, with zero entries dropped by np.nonzero."""
    from workreal import JointDistribution
    rng = np.random.default_rng(26)
    ties = 0
    for _ in range(200):
        d_later, d_earlier = rng.integers(1, 9, size=2)
        probs = rng.random((d_later, d_earlier)) * (rng.random((d_later, d_earlier)) > 0.3)
        probs[0, 0] += 0.1
        levels_earlier = np.sort(rng.integers(-3, 4, size=d_earlier)).astype(float)
        levels_later = np.sort(rng.integers(-3, 4, size=d_later)).astype(float)
        joint = JointDistribution(probs / probs.sum(), EnergySpectrum(levels_earlier, 0),
                                  EnergySpectrum(levels_later, 1))
        later, earlier = np.nonzero(joint.probs)
        works = levels_later[later] - levels_earlier[earlier]
        fine = work_distribution(joint, "fine")
        order = np.lexsort((earlier, later, works))
        assert np.array_equal(np.argsort(works, kind="stable"), order)
        assert np.array_equal(fine.works, works[order])
        assert np.array_equal(fine.probabilities, joint.probs[later, earlier][order])
        ties += works.size - np.unique(works).size
    assert ties > 1000


class TestJarzynski:
    def test_equal_spectra_any_unitary(self, rng):
        for _ in range(20):
            u = UnitaryPropagator(random_unitary(rng, 3))
            levels = np.sort(rng.uniform(0, 2, 3))
            rho = build_thermal_state(EnergySpectrum(levels), 1.2)
            dist = work_distribution(two_time_joint(rho, u))
            assert jarzynski_deviation(dist, 1.2, 0.0) < 1e-10

    def test_shifted_spectrum_with_free_energy_difference(self):
        s0 = tls_spectrum(0, (0.0, 1.0))
        s1 = tls_spectrum(1, (0.0, 2.0))
        rho = build_thermal_state(s0, 1.0)
        joint = two_time_joint(rho, rotation(math.pi / 3), spectrum_later=s1)
        delta_f = free_energy_difference(s0, s1, 1.0)
        assert jarzynski_deviation(work_distribution(joint), 1.0, delta_f) < 1e-10

    def test_hundred_random_two_level_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            beta = float(np.exp(rng.uniform(math.log(0.1), math.log(10))))
            angles = TlsAngles(*rng.uniform(0, 2 * math.pi, 3))
            s0 = tls_spectrum(0, (0.0, float(rng.uniform(0.2, 3.0))))
            s1 = tls_spectrum(1, (0.0, float(rng.uniform(0.2, 3.0))))
            rho = build_thermal_state(s0, beta)
            joint = two_time_joint(rho, tls_propagator(angles), spectrum_later=s1)
            deviation = jarzynski_deviation(work_distribution(joint), beta,
                                            free_energy_difference(s0, s1, beta))
            assert deviation < 1e-10

    def test_w2_marginal_need_not_satisfy_the_identity(self):
        """The system is not thermal at t1, so the second-leg work marginal is
        allowed to break the identity; verified for a strong oscillator squeeze."""
        from workreal import oscillator_three_time
        protocol = oscillator_three_time(1.0, 0.5, 0.5, n_max=128)
        pairs = work_pair_distribution(protocol.joint3)
        marginal = {}
        for _, w2, p in pairs:
            marginal[round(w2, 9)] = marginal.get(round(w2, 9), 0.0) + p
        works = np.array(sorted(marginal))
        probs = np.array([marginal[w] for w in works])
        lhs = float(probs @ np.exp(-1.0 * works))
        assert abs(lhs - 1.0) > 1e-3


class TestSampler:
    def test_identity_ground_state_is_deterministic(self):
        empirical = sample_trajectories(ground(), rotation(0.0), rotation(0.0),
                                        n_samples=500, seed=3)
        assert empirical[0, 0, 0] == 1.0

    def test_seed_reproducibility(self):
        a = sample_trajectories(thermal(), rotation(1.1), rotation(0.4),
                                n_samples=2000, seed=42)
        b = sample_trajectories(thermal(), rotation(1.1), rotation(0.4),
                                n_samples=2000, seed=42)
        assert np.array_equal(a, b)

    def test_frequencies_within_four_sigma(self):
        n = 1_000_000
        exact = three_time_joint(ground(), rotation(math.pi / 2), rotation(math.pi / 2))
        empirical = sample_trajectories(ground(), rotation(math.pi / 2),
                                        rotation(math.pi / 2), n_samples=n, seed=9)
        p = exact.probs
        sigma = np.sqrt(np.maximum(p * (1 - p) / n, 1e-30))
        mask = p > 0
        assert np.all(np.abs(empirical - p)[mask] < 4 * sigma[mask])
        assert np.all(empirical[~mask] == 0)

    def test_chi_squared_agreement_over_twenty_seeds(self):
        exact = three_time_joint(thermal(), rotation(0.8), rotation(1.9))
        for seed in range(20):
            empirical = sample_trajectories(thermal(), rotation(0.8), rotation(1.9),
                                            n_samples=100_000, seed=seed)
            assert empirical_chi_squared_pvalue(empirical, 100_000, exact) > 0.001

    def test_rejects_empty_request(self):
        with pytest.raises(InvalidParameterError):
            sample_trajectories(thermal(), rotation(0.3), rotation(0.3),
                                n_samples=0, seed=0)

    def test_frozen_counts(self):
        """The count cube of one seeded call, recorded when each stage still
        inverted its conditioning columns one at a time; a change in how the
        random stream is consumed moves it."""
        empirical = sample_trajectories(thermal(), rotation(1.1), rotation(0.4),
                                        n_samples=10_000, seed=2024)
        counts = [[[5134, 689], [74, 71]], [[217, 22], [1862, 1931]]]
        assert np.array_equal(empirical * 10_000, counts)


def _per_column_oracle(columns, conditions, u):
    """The sampler's former stage draw: one searchsorted per conditioning column."""
    cdf = np.cumsum(columns, axis=0)
    cdf /= cdf[-1, :]
    out = np.empty(conditions.size, dtype=int)
    for col in np.unique(conditions):
        idx = np.nonzero(conditions == col)[0]
        out[idx] = np.searchsorted(cdf[:, col], u[idx], side="right")
    return np.minimum(out, columns.shape[0] - 1)


def _stochastic_columns(rng, dim, n_cols, zero_fraction):
    columns = rng.random((dim, n_cols))
    columns[rng.random((dim, n_cols)) < zero_fraction] = 0.0
    columns[(np.arange(n_cols) + 1) % dim, np.arange(n_cols)] += 0.1
    return columns / columns.sum(axis=0)


def _mask_stage(cdf, conditions, u):
    """`_stage_masks` behind the oracle's interface: the conditioning columns in as
    one mask per column (None for the scalar column 0), the outcomes out as
    indices, and -1 where a sample lies in no mask or in more than one."""
    from workreal.protocol import _stage_masks
    previous = (None if np.isscalar(conditions)
                else [conditions == c for c in range(cdf.shape[1])])
    masks = np.array(_stage_masks(cdf, previous, u))
    return np.where(masks.sum(axis=0) == 1, masks.argmax(axis=0), -1)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dim", [1, 2, 3, 5])
@pytest.mark.parametrize("zero_fraction", [0.0, 0.4])
def test_stage_draw_equals_per_column_oracle(dim, zero_fraction, seed):
    from workreal.protocol import _column_cdfs
    gen = np.random.default_rng([dim, seed])
    columns = _stochastic_columns(gen, dim, dim, zero_fraction)
    if zero_fraction and dim > 1:  # a zero first row in one column, a zero last row in another
        columns[0, 0] = columns[-1, -1] = 0.0
        columns /= columns.sum(axis=0)
    cdf = _column_cdfs(columns)
    conditions = gen.integers(dim, size=20_000)
    u = np.random.default_rng(seed).random(conditions.size)
    assert np.array_equal(_mask_stage(cdf, conditions, u),
                          _per_column_oracle(columns, conditions, u))

    single = _stochastic_columns(gen, dim, 1, zero_fraction)
    assert np.array_equal(_mask_stage(_column_cdfs(single), 0, u),
                          _per_column_oracle(single, np.zeros(u.size, dtype=int), u))

    # uniforms that land exactly on CDF entries, where `<` and `<=` part ways
    conditions = np.repeat(np.arange(dim), dim)
    u = np.concatenate([np.append(cdf[:-1, col], 0.0) for col in range(dim)])
    assert np.array_equal(_mask_stage(cdf, conditions, u),
                          _per_column_oracle(columns, conditions, u))


def _one_shot_counts(rho0, u10, u21, n, seed):
    """The sampler's former draw: all uniforms of each stage at once from
    `default_rng(seed)`, then one flat index for all samples."""
    rng = np.random.default_rng(seed)
    k0 = _per_column_oracle(rho0.populations[:, None], np.zeros(n, dtype=int), rng.random(n))
    k1 = _per_column_oracle(abs(u10.matrix) ** 2, k0, rng.random(n))
    k2 = _per_column_oracle(abs(u21.matrix) ** 2, k1, rng.random(n))
    dims = (u21.dim, u10.dim, rho0.dim)
    flat = np.ravel_multi_index((k2, k1, k0), dims)
    return np.bincount(flat, minlength=int(np.prod(dims))).reshape(dims)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_chunked_draw_equals_one_shot_oracle(dim):
    from workreal.protocol import _CHUNK
    gen = np.random.default_rng(dim)
    rho0 = build_thermal_state(EnergySpectrum(np.sort(gen.uniform(0, 2, dim))), 0.7)
    u10 = UnitaryPropagator(random_unitary(gen, dim))
    u21 = UnitaryPropagator(random_unitary(gen, dim))
    for n in (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5):
        for seed in (0, 7, 2024):
            empirical = sample_trajectories(rho0, u10, u21, n, seed)
            counts = _one_shot_counts(rho0, u10, u21, n, seed)
            assert np.array_equal(empirical, counts / n)
    n = 3 * _CHUNK + 5
    unseeded = sample_trajectories(rho0, u10, u21, n, None)
    assert np.rint(unseeded * n).sum() == n


FROZEN_SPANNING_COUNTS = {
    2: [[[2788, 32798], [12142, 922]], [[1002, 11429], [34516, 2712]]],
    3: [[[286, 8403, 578], [6883, 2789, 6230], [3997, 121, 533]],
        [[38, 969, 66], [1933, 734, 1687], [26100, 801, 3358]],
        [[755, 21615, 1456], [2625, 1055, 2373], [2522, 95, 307]]],
}


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("dim", [2, 3])
def test_frozen_counts_across_chunks_and_blocks(monkeypatch, dim, cpus):
    """The count cubes of 3 * _CHUNK + 5 samples, recorded when each stage still
    drew an integer outcome per sample: four chunks, in one block or in two."""
    from workreal import protocol
    gen = np.random.default_rng(dim)
    rho0 = build_thermal_state(EnergySpectrum(np.sort(gen.uniform(0, 2, dim))), 0.7)
    u10 = UnitaryPropagator(random_unitary(gen, dim))
    u21 = UnitaryPropagator(random_unitary(gen, dim))
    n = 3 * protocol._CHUNK + 5
    monkeypatch.setattr(protocol, "_usable_cpus", lambda: cpus)
    empirical = sample_trajectories(rho0, u10, u21, n, 11)
    assert np.array_equal(empirical, np.array(FROZEN_SPANNING_COUNTS[dim]) / n)


def _block_inputs(dim, n):
    """`_count_block`'s leading arguments for a random dim-level protocol."""
    from workreal.protocol import _column_cdfs
    gen = np.random.default_rng(dim)
    rho0 = build_thermal_state(EnergySpectrum(np.sort(gen.uniform(0, 2, dim))), 0.7)
    u10, u21 = (UnitaryPropagator(random_unitary(gen, dim)) for _ in range(2))
    cdfs = tuple(_column_cdfs(c) for c in (rho0.populations[:, None],
                                            abs(u10.matrix) ** 2, abs(u21.matrix) ** 2))
    return cdfs, (dim, dim, dim), np.random.SeedSequence(2024), n


@pytest.mark.parametrize("dim", [2, 3])
def test_blocks_sum_to_one_block(dim):
    """Any split of the samples into contiguous blocks, at points that are not
    multiples of _CHUNK, counts what one block over all of them counts."""
    from workreal.protocol import _CHUNK, _count_block
    n = 3 * _CHUNK + 5
    inputs = _block_inputs(dim, n)
    whole = _count_block(*inputs, 0, n)
    assert whole.sum() == n
    for points in ([1], [n - 1], [1, n - 1], [7, _CHUNK + 3, 2 * _CHUNK - 1],
                   [n // 3, 2 * n // 3]):
        bounds = [0, *points, n]
        parts = [_count_block(*inputs, a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        assert np.array_equal(sum(parts), whole)


@pytest.mark.parametrize("cpus, n_blocks", [(1, 1), (2, 2), (64, 3)])
def test_one_block_per_cpu_and_never_more_than_chunks(monkeypatch, cpus, n_blocks):
    """2 * _CHUNK + 1 samples span three chunks: the blocks cover [0, n) in order,
    one per usable CPU but never more than the chunks, a single block runs on
    the calling thread, and the counts do not depend on the split."""
    import threading

    from workreal import protocol
    n = 2 * protocol._CHUNK + 1
    calls = []
    count_block = protocol._count_block

    def recording(*args):
        calls.append((args[-2], args[-1], threading.get_ident()))
        return count_block(*args)

    monkeypatch.setattr(protocol, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(protocol, "_count_block", recording)
    empirical = sample_trajectories(thermal(), rotation(1.1), rotation(0.4), n, 2024)
    monkeypatch.undo()
    reference = sample_trajectories(thermal(), rotation(1.1), rotation(0.4), n, 2024)
    assert np.array_equal(empirical, reference)
    blocks = sorted(call[:2] for call in calls)
    assert len(blocks) == n_blocks
    assert [start for start, _ in blocks] == [0] + [stop for _, stop in blocks[:-1]]
    assert blocks[-1][1] == n
    if n_blocks == 1:
        assert calls[0][2] == threading.get_ident()


def test_worker_block_error_reaches_the_caller(monkeypatch):
    """An exception in a block that runs on a worker thread is raised by
    sample_trajectories itself, not turned into a normalization error."""
    from workreal import protocol
    count_block = protocol._count_block

    def failing(*args):
        if args[-2] > 0:
            raise RuntimeError("block failed")
        return count_block(*args)

    monkeypatch.setattr(protocol, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(protocol, "_count_block", failing)
    with pytest.raises(RuntimeError, match="block failed"):
        sample_trajectories(thermal(), rotation(1.1), rotation(0.4), 4 * protocol._CHUNK, 1)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_counts_do_not_depend_on_the_cpu_count():
    """10^6 samples give the same counts in a process pinned to one CPU as in one
    that may use them all."""
    import subprocess
    import sys
    from pathlib import Path

    import workreal
    src = str(Path(workreal.__file__).resolve().parents[1])
    code = (
        "import math, os, sys\n"
        "if sys.argv[1] == 'one':\n"
        "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from workreal import (TlsAngles, build_thermal_state, sample_trajectories,\n"
        "                      tls_propagator, tls_spectrum)\n"
        "from workreal.protocol import _usable_cpus\n"
        "u = tls_propagator(TlsAngles(math.pi / 3))\n"
        "rho0 = build_thermal_state(tls_spectrum(0), 1.0)\n"
        "empirical = sample_trajectories(rho0, u, u, 1_000_000, 3)\n"
        "print(_usable_cpus(), (empirical * 1_000_000).astype(int).ravel().tolist())\n"
    )
    runs = {}
    for cpus in ("one", "all"):
        result = subprocess.run([sys.executable, "-c", code, cpus], capture_output=True,
                                text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert result.returncode == 0, result.stderr
        runs[cpus] = result.stdout.split(" ", 1)
    assert runs["one"][0] == "1"
    assert runs["one"][1] == runs["all"][1]


def test_sampler_memory_does_not_grow_with_sample_count():
    import subprocess
    import sys
    from pathlib import Path

    import workreal
    src = str(Path(workreal.__file__).resolve().parents[1])
    code = (
        "import math, resource\n"
        "from workreal import (TlsAngles, build_thermal_state, sample_trajectories,\n"
        "                      tls_propagator, tls_spectrum)\n"
        "u = tls_propagator(TlsAngles(math.pi / 3))\n"
        "rho0 = build_thermal_state(tls_spectrum(0), 1.0)\n"
        "sample_trajectories(rho0, u, u, 1000, 1)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "sample_trajectories(rho0, u, u, 4_000_000, 1)\n"
        "print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert result.returncode == 0, result.stderr
    assert float(result.stdout) < 16.0  # MiB; the one-shot draw grew by about 156


def test_measured_marginal_product_runs_on_one_blas_thread(monkeypatch):
    """Both OpenBLAS pools read one thread inside the transition product of the
    measured (t2, t0) marginal and are back at their former counts after it."""
    from workreal.hilbert import _blas_pools
    pools = _blas_pools()
    assert len(pools) == 2

    def counts():
        return [get() for get, _ in pools]

    joint3 = oscillator_three_time(1.0, 0.3, 0.3, n_max=64).joint3
    former = counts()
    inside = []
    matmul = np.matmul

    def recording(*args):
        inside.append(counts())
        return matmul(*args)

    monkeypatch.setattr(np, "matmul", recording)
    try:
        for _, put in pools:
            put(2)
        joint3.marginal_t2_t0()
        assert inside == [[1, 1]]
        assert counts() == [2, 2]
    finally:
        for (_, put), count in zip(pools, former):
            put(count)
    assert counts() == former


def test_pvalue_equals_scipy_stats_chi2():
    from scipy.stats import chi2
    for theta, beta, seed in ((0.8, 1.0, 0), (1.9, 0.3, 1), (math.pi / 3, 2.0, 5)):
        exact = three_time_joint(thermal(beta), rotation(theta), rotation(theta))
        empirical = sample_trajectories(thermal(beta), rotation(theta), rotation(theta),
                                        n_samples=5_000, seed=seed)
        observed = empirical * 5_000
        expected = exact.probs * 5_000
        support = expected > 0
        statistic = float(((observed[support] - expected[support]) ** 2
                           / expected[support]).sum())
        reference = float(chi2.sf(statistic, int(support.sum()) - 1))
        assert empirical_chi_squared_pvalue(empirical, 5_000, exact) == reference


def test_normalization_tolerance_enforced():
    from workreal import JointDistribution
    bad = np.array([[0.5, 0.0], [0.0, 0.6]])
    with pytest.raises(InvalidParameterError):
        JointDistribution(bad, tls_spectrum(0), tls_spectrum(1))


def test_impossible_sampled_outcome_gives_zero_pvalue():
    exact = three_time_joint(ground(), rotation(0.0), rotation(0.0))
    cube = np.zeros((2, 2, 2))
    cube[0, 0, 0] = 0.5
    cube[1, 1, 1] = 0.5  # unreachable under the exact dynamics
    assert empirical_chi_squared_pvalue(cube, 100, exact) == 0.0


def test_one_supported_cell_gives_pvalue_one():
    """From the ground state with identity propagators only (0, 0, 0) can occur:
    a chi-squared statistic has no degree of freedom left, and the fit is exact."""
    exact = three_time_joint(ground(), rotation(0.0), rotation(0.0))
    assert np.count_nonzero(exact.probs) == 1
    cube = np.zeros((2, 2, 2))
    cube[0, 0, 0] = 1.0
    assert empirical_chi_squared_pvalue(cube, 100, exact) == 1.0


def test_factor_dimension_mismatch_rejected():
    from workreal import JointDistribution3
    spectra = (tls_spectrum(0), tls_spectrum(1), tls_spectrum(2))
    with pytest.raises(InvalidParameterError):
        JointDistribution3(np.eye(2), np.eye(3), np.array([1.0, 0.0]), spectra)
    with pytest.raises(InvalidParameterError):
        JointDistribution3(np.eye(2), np.eye(2), np.array([1.0, 0.0]), spectra[:2])
