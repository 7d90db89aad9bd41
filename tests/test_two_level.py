import math

import numpy as np
import pytest

from workreal import validate_unitary
from workreal.two_level import (
    TlsAngles,
    tls_jarzynski_deviations,
    tls_lg_parameters,
    tls_propagator,
    tls_spectrum,
    tls_theta_sweep,
)

from conftest import entropic_k3_from_protocol, jarzynski_check_draws, object_jarzynski_deviation


def binary_entropy(x):
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log(x) - (1 - x) * math.log(1 - x)


def k_en_closed_form(theta):
    """Independent reduction: both legs contribute the conditional entropy of a
    theta rotation, the skipped-middle branch that of a 2*theta rotation."""
    return binary_entropy(math.cos(theta / 2) ** 2) - 0.5 * binary_entropy(
        math.cos(theta) ** 2)


def test_zero_angle_is_identity():
    np.testing.assert_allclose(tls_propagator(TlsAngles(0.0)).matrix, np.eye(2))


def test_pi_fully_transfers():
    matrix = tls_propagator(TlsAngles(math.pi)).matrix
    np.testing.assert_allclose(np.abs(matrix), [[0.0, 1.0], [1.0, 0.0]], atol=1e-16)


def test_real_rotation_at_zero_phases():
    matrix = tls_propagator(TlsAngles(0.7)).matrix
    assert np.abs(matrix.imag).max() == 0.0
    c, s = math.cos(0.35), math.sin(0.35)
    np.testing.assert_allclose(matrix.real, [[c, s], [-s, c]])


def test_unitary_for_a_thousand_random_angle_triples():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        angles = TlsAngles(*rng.uniform(0, 2 * math.pi, 3))
        worst = max(worst, validate_unitary(tls_propagator(angles).matrix))
    assert worst < 1e-15


def test_theta_canonicalized():
    assert TlsAngles(2 * math.pi + 0.5).theta == pytest.approx(0.5)


def test_angles_must_be_finite():
    import pytest as _pytest
    from workreal import InvalidParameterError
    with _pytest.raises(InvalidParameterError):
        TlsAngles(math.nan)


@pytest.fixture(scope="module")
def table():
    return tls_theta_sweep(beta=1.0, theta_grid=np.linspace(0.0, 2 * math.pi, 181))


class TestSweep:
    def test_columns(self, table):
        assert table.columns == ["theta", "k_cor", "k_cor_flipped",
                                 "k_en_fine", "k_en_grouped"]

    def test_adiabatic_row(self, table):
        row = table.rows[0]
        assert row[1] == pytest.approx(0.0, abs=1e-14)
        assert row[2] == pytest.approx(1.0, abs=1e-14)
        assert row[3] == pytest.approx(0.0, abs=1e-14)

    def test_correlator_closed_form_on_grid(self, table):
        thetas = table.column("theta")
        expected = 0.5 * np.cos(thetas) * (np.cos(thetas) - 1.0)
        np.testing.assert_allclose(table.column("k_cor"), expected, atol=1e-12)

    def test_entropic_closed_form_on_grid(self, table):
        for theta, value in zip(table.column("theta"), table.column("k_en_fine")):
            assert value == pytest.approx(k_en_closed_form(theta), abs=1e-12)

    def test_pi_over_three_row(self):
        table = tls_theta_sweep(beta=1.0, theta_grid=np.array([math.pi / 3]))
        assert table.rows[0, 1] == pytest.approx(-0.125, abs=1e-13)

    def test_half_pi_lattice_boundary(self):
        table = tls_theta_sweep(
            beta=1.0, theta_grid=np.array([0.0, math.pi / 2, math.pi,
                                           3 * math.pi / 2]))
        k_min = np.minimum(table.column("k_cor"), table.column("k_cor_flipped"))
        np.testing.assert_allclose(k_min, 0.0, atol=1e-10)

    def test_correlators_blind_to_energy_values(self):
        """Dichotomic parameters see only outcome indices, so swapping in
        incommensurate spectra cannot move them at all."""
        for theta in np.linspace(0.0, 2 * math.pi, 91):
            default = tls_lg_parameters(1.0, TlsAngles(theta))
            incommensurate = tls_lg_parameters(1.0, TlsAngles(theta),
                                               spectra=INCOMMENSURATE)
            assert incommensurate["k_cor"] == default["k_cor"]
            assert incommensurate["k_cor_flipped"] == default["k_cor_flipped"]

    def test_incommensurate_spectra_merge_fine_and_grouped(self):
        for theta in np.linspace(0.0, 2 * math.pi, 61):
            values = tls_lg_parameters(1.0, TlsAngles(theta),
                                       spectra=INCOMMENSURATE)
            assert values["k_en_fine"] == pytest.approx(values["k_en_grouped"], abs=1e-12)


def test_parameters_dict_contract():
    values = tls_lg_parameters(1.0, TlsAngles(math.pi / 3))
    assert set(values) == {"k_cor", "k_cor_flipped", "k_en_fine", "k_en_grouped"}
    assert values["k_cor"] == pytest.approx(-0.125, abs=1e-14)


# angles where the off-diagonal transition probabilities are exactly 0 (0, 2 pi and
# 1e-170, whose sin(theta/2)^2 underflows), plus a negative and two special angles
EDGE_GRID = np.array([0.0, 1e-170, 2 * math.pi, -0.5, math.pi / 2, math.pi])
# splittings 1, sqrt2, sqrt3: no two work values coincide, so the grouped and
# fine-grained conventions agree
INCOMMENSURATE = tuple(tls_spectrum(k, (0.0, math.sqrt(k + 1.0))) for k in range(3))
# levels 0.6e-9 apart: work values chain into groups under the 1e-9 gap rule
NEAR_DEGENERATE = tuple(tls_spectrum(k, (0.0, 0.6e-9 * (k + 1))) for k in range(3))


def per_angle_rows(beta, grid):
    rows = []
    for theta in grid:
        values = tls_lg_parameters(beta, TlsAngles(theta))
        rows.append((theta, values["k_cor"], values["k_cor_flipped"],
                     values["k_en_fine"], values["k_en_grouped"]))
    return np.array(rows)


@pytest.mark.parametrize("beta, grid", [
    (1.0, np.linspace(0.0, 2 * math.pi, 721)),
    (0.1, np.linspace(0.0, 2 * math.pi, 7201)),
    (5.0, np.linspace(0.0, 2 * math.pi, 7201)),
    # the CLI grid -7:20:999: angles outside [0, 2 pi), and at beta 800 an
    # excited population that underflows to zero
    (800.0, np.linspace(-7.0, 20.0, 999)),
    (1.0, EDGE_GRID),
    # ground-state start: the excited column of every joint is empty, so whole
    # work groups are absent and stay in the grouped rows as zeros
    (math.inf, np.concatenate([EDGE_GRID, np.linspace(0.0, 2 * math.pi, 181)])),
], ids=["base-e", "beta-0.1", "beta-5", "beta-800", "zero-transitions", "ground-state"])
def test_array_sweep_equals_per_angle_oracle(beta, grid):
    rows = tls_theta_sweep(beta=beta, theta_grid=grid).rows
    expected = per_angle_rows(beta, grid)
    assert np.array_equal(rows, expected)
    assert np.array_equal(np.signbit(rows), np.signbit(expected))


def test_oracle_cases_reach_their_edges():
    """The edge rows really have empty transitions, and the per-angle API
    evaluates near-degenerate spectra, whose work values chain into groups, with
    a grouped view that differs from the fine one."""
    for theta in EDGE_GRID[:3]:
        matrix = tls_propagator(TlsAngles(theta)).matrix
        assert np.abs(matrix[0, 1]) ** 2 == 0.0
    values = tls_lg_parameters(math.inf, TlsAngles(1.0), spectra=NEAR_DEGENERATE)
    assert values["k_en_grouped"] != values["k_en_fine"]


def test_sweep_rejects_bad_grids():
    from workreal import InvalidParameterError
    for grid in (np.array([]), np.array([0.0, math.nan]), np.zeros((2, 2))):
        with pytest.raises(InvalidParameterError):
            tls_theta_sweep(1.0, grid)


def test_one_three_time_joint_and_one_no_middle_joint_per_angle(monkeypatch):
    """Both correlator parameters and both entropy views come from one three-time
    joint and one no-middle joint: each is built once per call, wherever the
    pipeline reaches for it."""
    from workreal import leggett_garg, protocol, two_level
    built = {"three_time_joint": 0, "two_time_joint_skipping_middle": 0}
    for name in built:
        original = getattr(protocol, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            built[_name] += 1
            return _original(*args, **kwargs)

        for module in (protocol, leggett_garg, two_level):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    for spectra in (None, INCOMMENSURATE, NEAR_DEGENERATE):
        for key in built:
            built[key] = 0
        tls_lg_parameters(1.0, TlsAngles(1.1, 0.4, 2.3), spectra=spectra)
        assert built == {"three_time_joint": 1, "two_time_joint_skipping_middle": 1}


# (beta, angles, incommensurate spectra?) -> values recorded when every angle built
# its joints three times, once for the correlators and once per entropy view
RECORDED = [
    (1.0, TlsAngles(1.1), True,
     (-0.12392334002662515, 0.3296727813989521, 0.3322824811496782, 0.3322824811496782)),
    (0.1, TlsAngles(2.5), True,
     (0.7214873541392733, -0.07965626140766026, -0.002353920260311171,
      -0.002353920260311171)),
    (math.inf, TlsAngles(4.0), True,
     (0.5404468019796526, -0.11319681888395938, 0.119627828123474, 0.119627828123474)),
    (0.7, TlsAngles(1.1, 0.4, 2.3), False,
     (0.2541542505894851, 0.7077503720150624, 0.5054960252606474, 0.3325533621287202)),
    (5.0, TlsAngles(5.9, 3.0, -1.2), False,
     (0.009254635299516117, 0.9367330660435523, 0.05079101850879407,
      -0.034235203517549176)),
    (math.inf, TlsAngles(0.8, 1.0, 1.0), False,
     (0.07653397071144508, 0.7732406800586106, 0.21400486940993735, 0.03349446559075259)),
]


@pytest.mark.parametrize("beta, angles, incommensurate, expected", RECORDED, ids=[
    "incommensurate-beta-1", "incommensurate-beta-0.1", "incommensurate-ground-state",
    "phases-beta-0.7", "phases-beta-5", "phases-ground-state"])
def test_per_angle_values_are_frozen(beta, angles, incommensurate, expected):
    spectra = INCOMMENSURATE if incommensurate else None
    values = tls_lg_parameters(beta, angles, spectra=spectra)
    assert tuple(values.values()) == expected


@pytest.mark.parametrize("beta", [0.1, 1.0, 5.0, math.inf])
def test_per_angle_values_equal_the_public_pipeline(beta):
    """tls_lg_parameters against correlator_set and entropic_k3_from_protocol
    called per view, each building its own joints: equal bits on random angles
    with nonzero phases, and with incommensurate or near-degenerate spectra."""
    from workreal import build_thermal_state, correlator_set
    from workreal.leggett_garg import k3_correlator, k3_correlator_flipped
    rng = np.random.default_rng(17)
    for spectra in (None, INCOMMENSURATE, NEAR_DEGENERATE):
        levels = spectra or (tls_spectrum(0), tls_spectrum(1), tls_spectrum(2))
        rho0 = build_thermal_state(levels[0], beta)
        for theta, alpha, beta_angle in rng.uniform(-7.0, 14.0, size=(40, 3)):
            angles = TlsAngles(theta, alpha, beta_angle)
            u = tls_propagator(angles)
            c = correlator_set(rho0, u, u)
            expected = [k3_correlator(c), k3_correlator_flipped(c)] + [
                entropic_k3_from_protocol(rho0, u, u, spectrum_1=levels[1],
                                          spectrum_2=levels[2], degeneracy=view)
                for view in ("fine", "grouped")]
            values = list(tls_lg_parameters(beta, angles, spectra=spectra).values())
            assert np.array_equal(np.array(values), np.array(expected))
            assert np.array_equal(np.signbit(values), np.signbit(expected))


# rows (beta, theta, alpha, beta_angle, gap0, gap1) at the edges of the stacked
# Jarzynski rows.  Theta 0 and 1e-170 (whose sin^2 underflows) empty the two
# off-diagonal pairs, and at beta 800 the excited population underflows to 0;
# at theta pi the diagonal pairs keep probabilities near 1e-33.  Equal gaps and
# gaps 0.5e-9 apart merge the middle works 0 and gap1 - gap0; 2e-9 apart they
# stay apart.
JARZYNSKI_EDGES = np.array([
    (beta, theta, 0.7, -2.1, gap0, gap1)
    for beta in (0.1, 10.0, 800.0)
    for theta in (0.0, 1e-170, math.pi, 1.0)
    for gap0, gap1 in ((1.3, 1.3), (1.3, 1.3 + 0.5e-9), (1.3 + 0.5e-9, 1.3),
                       (1.3, 1.3 + 2e-9), (1.3 + 2e-9, 1.3), (0.2, 3.0))])


def test_stacked_jarzynski_rows_equal_the_object_path():
    """Every row of tls_jarzynski_deviations equals the per-row object pipeline bit
    for bit: on jarzynski-check's draws for seeds 1 to 40, and on the edge rows."""
    for rows in [jarzynski_check_draws(seed) for seed in range(1, 41)] + [JARZYNSKI_EDGES]:
        expected = np.array([object_jarzynski_deviation(*row) for row in rows])
        assert np.array_equal(tls_jarzynski_deviations(*rows.T), expected)


def test_jarzynski_edge_rows_reach_their_edges():
    """In the object path the edge rows keep one, two or all four pairs, and with
    all four the middle works merge exactly where the gaps differ by under 1e-9."""
    from workreal import build_thermal_state, two_time_joint, work_distribution
    present = []
    for beta, theta, alpha, beta_angle, gap0, gap1 in JARZYNSKI_EDGES:
        s0, s1 = tls_spectrum(0, (0.0, gap0)), tls_spectrum(1, (0.0, gap1))
        joint = two_time_joint(build_thermal_state(s0, beta),
                               tls_propagator(TlsAngles(theta, alpha, beta_angle)),
                               spectrum_later=s1)
        fine = work_distribution(joint, "fine")
        present.append(fine.works.size)
        if fine.works.size == 4:
            merged = abs(gap1 - gap0) < 1e-9
            assert fine.grouped().works.size == (3 if merged else 4)
    assert sorted(set(present)) == [1, 2, 4]


@pytest.mark.parametrize("column, value", [
    (0, 0.0), (0, math.inf), (1, math.nan), (4, 0.0), (5, -1.0), (5, math.inf),
    (4, 1e-10)])
def test_stacked_jarzynski_rows_refuse_bad_parameters(column, value):
    """A non-positive or non-finite beta or gap, a non-finite angle, and a gap so
    small that an outer work would merge with a middle one are refused."""
    from workreal import InvalidParameterError
    rows = jarzynski_check_draws(3)
    rows[5, column] = value
    with pytest.raises(InvalidParameterError):
        tls_jarzynski_deviations(*rows.T)
