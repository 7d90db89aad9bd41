"""Driven two-level system in the adiabatic basis and its angle sweep.

The propagator between measurement bases is the standard SU(2) matrix

    [[ exp(i(alpha+beta)/2) cos(theta/2),  exp(i(alpha-beta)/2) sin(theta/2)],
     [-exp(-i(alpha-beta)/2) sin(theta/2), exp(-i(alpha+beta)/2) cos(theta/2)]]

which reduces to a real rotation for alpha = beta = 0.  theta controls how much
population transfers between the instantaneous eigenstates; theta = 0 is the
adiabatic limit.  Both evolution intervals use the same matrix in the sweep.

`tls_lg_parameters` is the per-angle public API: it runs one angle, with any
phases and spectra, through the object pipeline (propagators, joints, work
distributions, entropy reports).  `tls_theta_sweep` is array code for the one
protocol the experiment runs: zero phases and the unit-gap spectrum (0, 1) at
all three times.  It builds the propagators of every angle as one (N, 2, 2)
stack, evaluates all angles at once and applies every check of the object
pipeline to the whole stack.  The tests use `tls_lg_parameters` as the sweep's
oracle and require equal bits.

`tls_jarzynski_deviations` does the same for jarzynski-check's two-level rows:
each row has its own temperature, angles and spectra (0, gap0) and (0, gap1),
and all rows run as one (N, 2, 2) stack.  Their oracle is the object pipeline
two_time_joint -> work_distribution -> jarzynski_deviation, run row by row;
the tests require equal bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .entropy import entropy_rows, shannon_entropy_rows
from .errors import InvalidParameterError
from .hilbert import (
    EnergySpectrum,
    UnitaryPropagator,
    build_thermal_state,
    composed_unitarity_tol,
    require_unitary,
)
from .leggett_garg import (
    GROUND_EXCITED,
    _check_correlator,
    _correlators,
    _entropy_reports,
    _joints,
    _k_cor,
    _k_cor_flipped,
    _k_en,
    k3_correlator,
    k3_correlator_flipped,
    k3_entropic,
)
from .protocol import JOINT_NORM_TOL, WORK_DEGENERACY_TOL, _require_normalized, check_joint_probs
from .tables import SweepTable

TWO_PI = 2.0 * math.pi
TLS_UNITARITY_TOL = 1e-14


def _require_finite(**angles) -> None:
    for name, value in angles.items():
        if not np.all(np.isfinite(value)):
            raise InvalidParameterError(f"{name} must be finite")


@dataclass(frozen=True)
class TlsAngles:
    theta: float
    alpha: float = 0.0
    beta_angle: float = 0.0

    def __post_init__(self):
        _require_finite(theta=self.theta, alpha=self.alpha, beta_angle=self.beta_angle)
        object.__setattr__(self, "theta", self.theta % TWO_PI)


def _su2_matrices(theta, alpha, beta_angle) -> np.ndarray:
    """The propagator matrix for each canonical theta, shape theta.shape + (2, 2).
    The phases are scalars, shared by every theta, or arrays of theta's shape."""
    theta = np.asarray(theta, dtype=float)
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    plus = 0.5 * (alpha + beta_angle)
    minus = 0.5 * (alpha - beta_angle)
    matrices = np.empty(theta.shape + (2, 2), dtype=complex)
    matrices[..., 0, 0] = np.exp(1j * plus) * c
    matrices[..., 0, 1] = np.exp(1j * minus) * s
    matrices[..., 1, 0] = -np.exp(-1j * minus) * s
    matrices[..., 1, 1] = np.exp(-1j * plus) * c
    return matrices


def tls_propagator(angles: TlsAngles) -> UnitaryPropagator:
    """The 2x2 adiabatic-basis propagator for the given angles."""
    return UnitaryPropagator(_su2_matrices(angles.theta, angles.alpha, angles.beta_angle),
                             unitarity_tol=TLS_UNITARITY_TOL)


def tls_spectrum(label: int = 0, levels=(0.0, 1.0)) -> EnergySpectrum:
    """Ground/excited spectrum with unit splitting unless overridden."""
    return EnergySpectrum(np.asarray(levels, dtype=float), label=label)


def incommensurate_tls_spectra() -> tuple[EnergySpectrum, EnergySpectrum, EnergySpectrum]:
    """Splittings 1, sqrt2, sqrt3: no two work values coincide, so the grouped and
    fine-grained conventions agree."""
    return (tls_spectrum(0, (0.0, 1.0)),
            tls_spectrum(1, (0.0, math.sqrt(2.0))),
            tls_spectrum(2, (0.0, math.sqrt(3.0))))


def default_theta_grid(n_points: int = 721) -> np.ndarray:
    return np.linspace(0.0, TWO_PI, n_points)


def tls_lg_parameters(beta: float, angles: TlsAngles,
                      spectra: tuple[EnergySpectrum, EnergySpectrum, EnergySpectrum] | None = None
                      ) -> dict[str, float]:
    """All macrorealism parameters for one angle setting (both intervals equal),
    through the object pipeline: k_cor, k_cor_flipped, k_en_fine and k_en_grouped
    (nats), all from one three-time joint and one no-middle joint."""
    if spectra is None:
        spectra = (tls_spectrum(0), tls_spectrum(1), tls_spectrum(2))
    u = tls_propagator(angles)
    joints = _joints(build_thermal_state(spectra[0], beta), u, u, *spectra[1:])
    leg10, leg21, _, no_middle = joints
    correlators = _correlators(leg10, leg21, no_middle, GROUND_EXCITED)
    return {"k_cor": k3_correlator(correlators),
            "k_cor_flipped": k3_correlator_flipped(correlators),
            **{f"k_en_{view}": k3_entropic(*reports)
               for view, reports in _entropy_reports(*joints).items()}}


def _work_rows(joints: np.ndarray, view: str) -> np.ndarray:
    """`work_distribution(joint, view).probabilities` for each joint of an (N, 2, 2)
    stack of unit-gap joints.  The fine row lists the pairs (later, earlier) at work
    -1, 0, 0 and +1 in the fine view's order; the grouped row merges the two at
    work 0.  Pairs of zero probability stay in place as zeros, which change no sum
    and no entropy."""
    rows = joints[:, (0, 0, 1, 1), (1, 0, 1, 0)]
    if view == "grouped":
        rows = np.stack([rows[:, 0], rows[:, 1] + rows[:, 2], rows[:, 3]], axis=1)
    _require_normalized(rows.sum(axis=1), JOINT_NORM_TOL, "work distribution")
    return rows


def tls_theta_sweep(beta: float = 1.0, theta_grid: np.ndarray | None = None) -> SweepTable:
    """Macrorealism parameters on a theta grid at fixed inverse temperature, with
    zero phases and the spectrum (0, 1) at all three times.

    Row k equals tls_lg_parameters(beta, TlsAngles(theta_grid[k])) bit for bit;
    all angles are computed at once.  Every check of the object pipeline is
    applied to the whole stack: joint non-negativity and normalization, the
    correlator bound, work-distribution normalization, the middle-marginal sum
    check with its renormalization warning and the entropy range.
    """
    if theta_grid is None:
        theta_grid = default_theta_grid()
    theta_grid = np.asarray(theta_grid, dtype=float)
    if theta_grid.ndim != 1 or theta_grid.size == 0:
        raise InvalidParameterError("theta grid must be a non-empty 1-d array")
    _require_finite(theta=theta_grid)
    u = _su2_matrices(np.mod(theta_grid, TWO_PI), 0.0, 0.0)
    require_unitary(u, TLS_UNITARITY_TOL)
    u20 = u @ u
    require_unitary(u20, composed_unitarity_tol(TLS_UNITARITY_TOL, TLS_UNITARITY_TOL, 2))
    trans = np.abs(u) ** 2
    populations = build_thermal_state(tls_spectrum(0), beta).populations
    p1 = trans @ populations
    joints = {"c01": trans * populations, "c12": trans * p1[:, None, :],
              "c02": np.abs(u20) ** 2 * populations}
    q = GROUND_EXCITED.values
    correlators = []
    for name, joint in joints.items():
        check_joint_probs(joint)
        correlators.append(q @ joint @ q)
        _check_correlator(name, correlators[-1])
    values = {"k_cor": _k_cor(*correlators), "k_cor_flipped": _k_cor_flipped(*correlators)}
    h_e1 = shannon_entropy_rows(p1)
    for view in ("fine", "grouped"):
        h_w10, h_w21, h_w20 = (entropy_rows(_work_rows(joint, view))
                               for joint in joints.values())
        values[f"k_en_{view}"] = _k_en(h_w21, h_w10, h_w20, h_e1)
    columns = ["theta", "k_cor", "k_cor_flipped", "k_en_fine", "k_en_grouped"]
    rows = np.column_stack([theta_grid] + [values[name] for name in columns[1:]])
    return SweepTable(columns, rows, meta={"experiment": "tls-theta", "beta": beta,
                                           "theta_points": theta_grid.size})


def tls_jarzynski_deviations(beta, theta, alpha, beta_angle, gap0, gap1) -> np.ndarray:
    """|<exp(-beta w)> - exp(-beta dF)| of the two-time work for each row (1-d
    arrays of one length): a thermal start on the spectrum s0 = (0, gap0), the
    propagator of the angles (theta, alpha, beta_angle), a measurement on
    s1 = (0, gap1).

    Row k equals, bit for bit, jarzynski_deviation(work_distribution(joint), beta,
    free_energy_difference(s0, s1, beta)) of that row's two_time_joint; all rows
    are computed at once, with that path's unitarity and joint checks applied to
    the whole stack.  Of the works -gap0, 0, gap1 - gap0 and gap1 only the middle
    two may merge under WORK_DEGENERACY_TOL; rows where an outer one would are
    refused.
    """
    beta, theta, alpha, beta_angle, gap0, gap1 = (
        np.asarray(x, dtype=float) for x in (beta, theta, alpha, beta_angle, gap0, gap1))
    _require_finite(theta=theta, alpha=alpha, beta_angle=beta_angle)
    for name, value in (("beta", beta), ("gap0", gap0), ("gap1", gap1)):
        if not np.all((value > 0) & np.isfinite(value)):
            raise InvalidParameterError(f"{name} must be positive and finite")
    u = _su2_matrices(np.mod(theta, TWO_PI), alpha, beta_angle)
    require_unitary(u, TLS_UNITARITY_TOL)
    # the Gibbs weights (1, exp(-beta gap)) and their sums, as build_thermal_state
    # and thermodynamic_potentials form them for the spectrum (0, gap)
    excited0, excited1 = np.exp(-beta * gap0), np.exp(-beta * gap1)
    z0, z1 = 1.0 + excited0, 1.0 + excited1
    joints = np.abs(u) ** 2 * np.stack([1.0 / z0, excited0 / z0], axis=-1)[:, None, :]
    check_joint_probs(joints)
    # the works of the pairs (later, earlier) = (0, 0), (0, 1), (1, 0), (1, 1), in
    # np.nonzero's order, sorted by work as work_distribution sorts them
    works = np.stack([np.zeros_like(gap0), -gap0, gap1, gap1 - gap0], axis=-1)
    order = np.argsort(works, axis=-1, kind="stable")
    works = np.take_along_axis(works, order, axis=-1)
    probs = np.take_along_axis(joints.reshape(-1, 4), order, axis=-1)
    # WorkDistribution.grouped: each run's probability sum and works @ probs.  The
    # outer works stay alone; a merged middle run holds the work 0 exactly, so its
    # dot product is the other term whatever the summation.  An empty slot (a pair
    # of zero probability, or the second of a merged run) enters logsumexp as an
    # exact 0 term.  Such a row keeps at most two terms besides the largest, so the
    # zeros leave its sum as the object path forms it without them.
    cuts = np.diff(works, axis=-1) >= WORK_DEGENERACY_TOL
    if not np.all(cuts[:, [0, 2]]):
        raise InvalidParameterError("gaps so small that an outer work merges")
    weighted = works * probs
    merged = ~cuts[:, 1]
    for column in (probs, weighted):
        column[merged, 1] += column[merged, 2]
        column[merged, 2] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        exponents = np.where(probs > 0, np.log(probs) - beta[:, None] * (weighted / probs),
                             -np.inf)
    lse = logsumexp(exponents, axis=-1)
    deviations = []
    for b, log_mean, z_earlier, z_later in zip(beta.tolist(), lse.tolist(), z0.tolist(),
                                               z1.tolist()):
        delta_f = math.log(z_earlier) / b - math.log(z_later) / b  # F = -log(Z) / beta
        deviations.append(abs(math.exp(-b * delta_f) * math.expm1(log_mean + b * delta_f)))
    return np.array(deviations)
