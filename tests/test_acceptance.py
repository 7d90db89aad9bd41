"""Acceptance suite: one test per reproduction target, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines;
plain `pytest -v` reports the same pass/fail through the test names.
"""

import math
import time

import numpy as np
import pytest

from workreal import (
    CorrelatorSet,
    DichotomicMapping,
    JointDistribution3,
    build_thermal_state,
    contour_points,
    dichotomic_correlator,
    empirical_chi_squared_pvalue,
    entropic_k3_oscillator,
    free_energy_difference,
    jarzynski_deviation,
    joint_entropy,
    k3_correlator,
    k3_correlator_flipped,
    k3_entropic,
    marginal_entropy,
    oscillator_three_time,
    sample_trajectories,
    select_n_max,
    shannon_entropy,
    squeeze_matrix_closed_form,
    three_time_joint,
    total_work_distribution,
    two_time_joint,
    work_distribution,
    work_entropy,
)
from workreal.entropy import conditional_entropy, grouped_entropy
from workreal.protocol import JointDistribution
from workreal.squeezing import beta_sweep_min_k, diagonal_scan, golden_section_minimum
from workreal.two_level import TlsAngles, tls_propagator, tls_spectrum, tls_theta_sweep

from conftest import (random_stochastic_columns, sandwich_joint2, sandwich_joint3,
                      squeeze_matrix_exponential_oracle)


def verdict(number, ok, message):
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {message}")
    assert ok, message


@pytest.fixture(scope="module")
def theta_sweep():
    started = time.perf_counter()
    table = tls_theta_sweep(beta=1.0)
    table.meta["elapsed_s"] = time.perf_counter() - started
    return table


@pytest.fixture(scope="module")
def oscillator_diagonal():
    started = time.perf_counter()
    scan = diagonal_scan(0.1, np.linspace(0.0, 0.1, 51))
    r_values = scan.column("r")
    k_values = scan.column("k_en")
    i0 = int(np.argmin(k_values))
    lo, hi = r_values[max(0, i0 - 1)], r_values[min(r_values.size - 1, i0 + 1)]
    n_max = select_n_max(0.1, 2.0 * hi)
    argmin_r, min_k = golden_section_minimum(
        lambda r: entropic_k3_oscillator(0.1, r, r, n_max=n_max)[0], lo, hi, 1e-4)
    scan.meta.update(argmin_r=argmin_r, min_k=min_k,
                     elapsed_s=time.perf_counter() - started)
    return scan


@pytest.fixture(scope="module")
def beta_trend():
    return beta_sweep_min_k([0.1, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0])


def test_criterion_01_two_level_boundary_structure(theta_sweep):
    """Strict violation everywhere off the half-pi lattice, exact zeros on it."""
    thetas = theta_sweep.column("theta")
    k_min = np.minimum(theta_sweep.column("k_cor"), theta_sweep.column("k_cor_flipped"))
    distance = np.abs(thetas - np.round(thetas / (math.pi / 2)) * (math.pi / 2))
    off_lattice = distance > 1e-3
    ok = bool(np.all(k_min[off_lattice] < 0.0))
    for lattice_theta in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi):
        row = tls_theta_sweep(beta=1.0, theta_grid=np.array([lattice_theta])).rows[0]
        ok &= min(row[1], row[2]) == pytest.approx(0.0, abs=1e-10)
    ok &= theta_sweep.meta["elapsed_s"] < 1.0
    verdict(1, ok,
            f"min(k_cor, k_cor') < 0 at all {off_lattice.sum()} off-lattice angles, "
            f"0 within 1e-10 on the lattice, sweep in {theta_sweep.meta['elapsed_s']:.2f} s")


def test_criterion_02_maximal_correlator_violation():
    """k_cor(pi/3) = -1/8, checked against the projector-sandwich oracle."""
    started = time.perf_counter()
    rho = build_thermal_state(tls_spectrum(0), 1.0)
    u = tls_propagator(TlsAngles(math.pi / 3))
    cube = sandwich_joint3(rho.populations, u.matrix, u.matrix)
    composed = u.matrix @ u.matrix
    no_middle = sandwich_joint2(rho.populations, composed)
    q = np.array([1.0, -1.0])
    oracle_value = 0.25 * (1.0
                           - q @ cube.sum(axis=0) @ q
                           - q @ cube.sum(axis=2) @ q
                           + q @ no_middle @ q)
    from workreal import correlator_set
    library_value = k3_correlator(correlator_set(rho, u, u))
    elapsed = time.perf_counter() - started
    ok = (abs(library_value + 0.125) < 1e-12
          and abs(library_value - oracle_value) < 1e-12 and elapsed < 1.0)
    verdict(2, ok, f"k_cor(pi/3) = {library_value:.15f} (oracle {oracle_value:.15f}), "
                   f"{elapsed:.2f} s")


def test_criterion_03_entropic_and_dichotomic_disagree_somewhere(theta_sweep):
    k_min = np.minimum(theta_sweep.column("k_cor"), theta_sweep.column("k_cor_flipped"))
    disagree = (k_min < 0.0) & (theta_sweep.column("k_en_fine") >= 0.0)
    verdict(3, bool(disagree.any()),
            f"{disagree.sum()} grid angles violate the dichotomic bound while the "
            f"entropic parameter stays non-negative")


def test_criterion_04_two_level_temperature_independence():
    betas = (0.1, 1.0, 10.0)
    from workreal import correlator_set
    u = tls_propagator(TlsAngles(1.1))
    k_cor, k_en = [], []
    for beta in betas:
        rho = build_thermal_state(tls_spectrum(0), beta)
        k_cor.append(k3_correlator(correlator_set(rho, u, u)))
        from workreal import entropic_k3_from_protocol
        k_en.append(entropic_k3_from_protocol(rho, u, u))
    spread_cor = max(k_cor) - min(k_cor)
    spread_en = max(k_en) - min(k_en)
    ok = spread_cor < 1e-12
    verdict(4, ok, f"k_cor spread over beta {betas} is {spread_cor:.2e}; "
                   f"k_en values {['%.12f' % v for v in k_en]} (spread {spread_en:.2e})")


def test_criterion_05_squeeze_matrix_gate():
    started = time.perf_counter()
    worst = 0.0
    for r in (0.02, 0.2, 1.0):
        closed = squeeze_matrix_closed_form(r, 240)
        oracle = squeeze_matrix_exponential_oracle(r, 240)
        worst = max(worst, float(np.abs(closed.g[:21, :21] - oracle.g[:21, :21]).max()))
        m, n = np.indices(closed.g.shape)
        assert np.all(closed.g[(m + n) % 2 == 1] == 0.0)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-8 and elapsed < 30.0
    verdict(5, ok, f"closed form vs exponential oracle: worst {worst:.2e} over "
                   f"m,n <= 20 and r in (0.02, 0.2, 1.0); parity zeros exact; "
                   f"{elapsed:.1f} s")


def test_criterion_06_oscillator_violation_landmark(oscillator_diagonal):
    scan = oscillator_diagonal
    ok = scan.meta["min_k"] < 0.0
    ok &= 0.008 <= scan.meta["argmin_r"] <= 0.05
    ok &= bool(scan.meta["sign_change_bracketed"])
    ok &= scan.column("k_en")[1] < 0.0  # violation already at the smallest grid r
    ok &= scan.meta["elapsed_s"] < 300.0
    verdict(6, ok, f"beta = 0.1 diagonal: min k_en = {scan.meta['min_k']:.6f} at "
                   f"r = {scan.meta['argmin_r']:.4f}, sign change bracketed, "
                   f"{scan.meta['elapsed_s']:.0f} s")


def test_criterion_07_grid_negative_region_and_asymmetry():
    from workreal import squeeze_grid_sweep
    grid = np.linspace(0.0, 0.1, 41)
    table = squeeze_grid_sweep(beta=0.1, r1_grid=grid, r2_grid=grid)
    z = table.column("k_en").reshape(41, 41)
    landmark_cell = z[8, 8]  # r1 = r2 = 0.02
    negative_region = int((z < 0).sum())
    contour = contour_points(grid, grid, z, 0.0)
    n_max = select_n_max(0.1, 0.35)
    k_ab = entropic_k3_oscillator(0.1, 0.05, 0.3, n_max=n_max)[0]
    k_ba = entropic_k3_oscillator(0.1, 0.3, 0.05, n_max=n_max)[0]
    ok = (landmark_cell < 0.0 and negative_region > 0 and len(contour) > 0
          and abs(k_ab - k_ba) > 1e-3)
    verdict(7, ok, f"k_en(0.02, 0.02) = {landmark_cell:.4f}, {negative_region} "
                   f"negative cells, |K(0.05,0.3) - K(0.3,0.05)| = {abs(k_ab - k_ba):.4f}")


def test_criterion_08_temperature_trend(beta_trend):
    betas = beta_trend.column("beta")
    depth = beta_trend.column("min_k_en")
    argmin_r = beta_trend.column("argmin_r")
    shallower = depth[betas == 10.0][0] > depth[betas == 0.1][0]
    peak = int(np.argmax(argmin_r))
    interior = 0 < peak < betas.size - 1
    prominent = (argmin_r[peak] > argmin_r[0] + 5e-4
                 and argmin_r[peak] > argmin_r[-1] + 5e-4)
    in_window = 0.3 <= betas[peak] <= 3.0
    ok = bool(shallower and interior and prominent and in_window)
    verdict(8, ok, f"min k_en: {depth[betas == 0.1][0]:.4f} at beta 0.1 vs "
                   f"{depth[betas == 10.0][0]:.4f} at beta 10; argmin-r peaks at "
                   f"beta = {betas[peak]:g} (r = {argmin_r[peak]:.4f}, "
                   f"ends {argmin_r[0]:.4f} / {argmin_r[-1]:.4f})")


def test_criterion_09_jarzynski_identity():
    rng = np.random.default_rng(11)
    worst_tls = 0.0
    for _ in range(100):
        beta = float(np.exp(rng.uniform(math.log(0.1), math.log(10))))
        angles = TlsAngles(*rng.uniform(0, 2 * math.pi, 3))
        s0 = tls_spectrum(0, (0.0, float(rng.uniform(0.2, 3.0))))
        s1 = tls_spectrum(1, (0.0, float(rng.uniform(0.2, 3.0))))
        rho = build_thermal_state(s0, beta)
        joint = two_time_joint(rho, tls_propagator(angles), spectrum_later=s1)
        deviation = jarzynski_deviation(work_distribution(joint), beta,
                                        free_energy_difference(s0, s1, beta))
        worst_tls = max(worst_tls, deviation)
    oscillator = []
    for beta in (0.5, 1.0):
        protocol = oscillator_three_time(beta, 0.3, 0.3)
        deviation = jarzynski_deviation(total_work_distribution(protocol.joint3),
                                        beta, 0.0)
        oscillator.append((deviation, protocol.truncation_budget))
    ok = worst_tls < 1e-10 and all(d < b for d, b in oscillator)
    verdict(9, ok, f"two-level worst deviation {worst_tls:.2e} over 100 draws; "
                   f"oscillator total-work deviations "
                   + ", ".join(f"{d:.2e} < {b:.2e}" for d, b in oscillator))


def test_criterion_10_property_suites(rng):
    checks = []
    # entropy chain identity and grouping formula on random instances
    for _ in range(50):
        dim = int(rng.integers(2, 6))
        probs = rng.dirichlet(np.ones(dim * dim)).reshape(dim, dim)
        joint = JointDistribution(probs, tls_spectrum(0, tuple(range(dim))),
                                  tls_spectrum(1, tuple(range(dim))))
        chain = abs(joint_entropy(joint).value - conditional_entropy(joint).value
                    - marginal_entropy(joint).value)
        checks.append(chain < 1e-10)
        flat = probs.ravel()
        n_groups = int(rng.integers(1, flat.size + 1))
        assignment = rng.integers(0, n_groups, flat.size)
        grouping = [np.nonzero(assignment == g)[0].tolist() for g in range(n_groups)]
        grouping = [g for g in grouping if g]
        report, within = grouped_entropy(flat, grouping)
        checks.append(abs(report.value + within - shannon_entropy(flat).value) < 1e-12)
    # normalization and marginalization consistency of the measured protocol
    rho = build_thermal_state(tls_spectrum(0), 1.0)
    u = tls_propagator(TlsAngles(0.9))
    joint3 = three_time_joint(rho, u, u)
    checks.append(abs(joint3.total_mass() - 1.0) < 1e-10)
    checks.append(np.abs(joint3.probs.sum(axis=0)
                         - two_time_joint(rho, u).probs).max() < 1e-15)
    # Monte Carlo agreement
    empirical = sample_trajectories(rho, u, u, n_samples=100_000, seed=5)
    checks.append(empirical_chi_squared_pvalue(empirical, 100_000, joint3) > 0.001)
    # classical surrogates cannot violate either bound
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        spectra = tuple(tls_spectrum(k, tuple(np.sort(rng.uniform(0, 2, dim))))
                        for k in range(3))
        surrogate = JointDistribution3(
            random_stochastic_columns(rng, dim), random_stochastic_columns(rng, dim),
            rng.dirichlet(np.ones(dim)), spectra)
        no_middle = surrogate.marginal_t2_t0()
        mapping = DichotomicMapping(tuple(int(q) for q in rng.choice([-1, 1], dim)))
        c = CorrelatorSet(dichotomic_correlator(surrogate.marginal_t1_t0(), mapping),
                          dichotomic_correlator(surrogate.marginal_t2_t1(), mapping),
                          dichotomic_correlator(no_middle, mapping))
        checks.append(k3_correlator(c) >= -1e-12)
        checks.append(k3_correlator_flipped(c) >= -1e-12)
        h_w10 = work_entropy(work_distribution(surrogate.marginal_t1_t0(), view="fine"))
        h_w21 = work_entropy(work_distribution(surrogate.marginal_t2_t1(), view="fine"))
        h_w20 = work_entropy(work_distribution(no_middle, view="fine"))
        h_e1 = shannon_entropy(surrogate.marginal_t1())
        checks.append(k3_entropic(h_w21, h_w10, h_w20, h_e1) >= -1e-12)
    verdict(10, all(checks), f"{len(checks)} property checks green "
                             f"(chain identity, grouping, normalization, "
                             f"marginalization, Monte Carlo, classical surrogates)")
