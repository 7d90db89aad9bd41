"""Shared test oracles.

The protocol oracle here is deliberately different from the library path: it
builds projectors as explicit matrices and evaluates the measure/evolve/measure
chain as literal operator sandwiches with traces, instead of multiplying
transition probabilities.  The squeeze oracle exponentiates the truncated
generator by scaling and squaring (scipy's `expm`), independent of the library's
eigenbasis kernel.

The rest are library functions that no experiment runs, kept here with their
arithmetic unchanged: the joint, conditional, marginal and grouped entropies of
the entropy identities; the free energy that gives the fluctuation relation its
dF; the per-protocol entropic parameter; the squeeze propagator with its
unitarity certificate; and the CSV reader.

The report header names numpy, scipy and the core each OpenBLAS library picked
(`fingerprint` of scripts/smoke.py): some tests pin bits recorded on SkylakeX.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from workreal.entropy import EntropyReport, _checked_probs, _nats, shannon_entropy
from workreal.errors import InvalidParameterError
from workreal.hilbert import (
    DiagonalDensity,
    EnergySpectrum,
    UnitaryPropagator,
    build_thermal_state,
)
from workreal.leggett_garg import _entropy_reports, _joints, k3_entropic
from workreal.protocol import (
    JointDistribution,
    JointDistribution3,
    jarzynski_deviation,
    two_time_joint,
    work_distribution,
)
from workreal.squeezing import SqueezeMatrix, _validate_squeeze_args
from workreal.tables import SweepTable
from workreal.two_level import TlsAngles, tls_propagator, tls_spectrum


def projector(dim: int, k: int) -> np.ndarray:
    p = np.zeros((dim, dim), dtype=complex)
    p[k, k] = 1.0
    return p


def sandwich_joint2(populations, u_matrix) -> np.ndarray:
    """p(k1, k0) by tracing projector sandwiches around the evolved state."""
    dim = len(populations)
    rho = np.diag(np.asarray(populations, dtype=complex))
    out = np.zeros((dim, dim))
    for k0 in range(dim):
        conditioned = projector(dim, k0) @ rho @ projector(dim, k0)
        evolved = u_matrix @ conditioned @ u_matrix.conj().T
        for k1 in range(dim):
            out[k1, k0] = np.trace(projector(dim, k1) @ evolved).real
    return out


def sandwich_joint3(populations, u10_matrix, u21_matrix) -> np.ndarray:
    """p(k2, k1, k0) via the same literal-sandwich route, middle collapse included."""
    dim = len(populations)
    rho = np.diag(np.asarray(populations, dtype=complex))
    out = np.zeros((dim, dim, dim))
    for k0 in range(dim):
        conditioned = projector(dim, k0) @ rho @ projector(dim, k0)
        evolved1 = u10_matrix @ conditioned @ u10_matrix.conj().T
        for k1 in range(dim):
            collapsed = projector(dim, k1) @ evolved1 @ projector(dim, k1)
            evolved2 = u21_matrix @ collapsed @ u21_matrix.conj().T
            for k2 in range(dim):
                out[k2, k1, k0] = np.trace(projector(dim, k2) @ evolved2).real
    return out


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary from the QR decomposition of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_stochastic_columns(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Column-stochastic matrix with Dirichlet columns (a classical channel)."""
    return rng.dirichlet(np.ones(dim), size=dim).T


def work_pair_distribution(joint3: JointDistribution3) -> list[tuple[float, float, float]]:
    """(w1, w2, probability) triples, one per outcome path with nonzero probability.

    Materializes the cube; intended for modest dimensions.
    """
    cube = joint3.probs
    s0, s1, s2 = joint3.spectra
    k2, k1, k0 = np.nonzero(cube)
    w1 = s1.levels[k1] - s0.levels[k0]
    w2 = s2.levels[k2] - s1.levels[k1]
    order = np.lexsort((k0, k1, k2))
    return [(float(w1[k]), float(w2[k]), float(cube[k2[k], k1[k], k0[k]])) for k in order]


def total_variation_distance(a: JointDistribution, b: JointDistribution) -> float:
    if a.probs.shape != b.probs.shape:
        raise InvalidParameterError("distributions must share a shape")
    return 0.5 * float(np.abs(a.probs - b.probs).sum())


def squeeze_matrix_exponential_oracle(r: float, n_max: int) -> SqueezeMatrix:
    """Ground truth by scaling-and-squaring: expm of (r/2)(adag^2 - a^2).

    The generator itself is truncated here, so `column_defects` is |1 - column
    norm| of this matrix, not a leak past n_max."""
    _validate_squeeze_args(r, n_max)
    size = n_max + 1
    g = np.eye(size)
    if r != 0.0:
        raising_sq = np.zeros((size, size))
        for m in range(size - 2):
            raising_sq[m + 2, m] = math.sqrt((m + 1.0) * (m + 2.0))
        g = expm(0.5 * r * (raising_sq - raising_sq.T))
    return SqueezeMatrix(g, np.abs(1.0 - (g * g).sum(axis=0)))


def jarzynski_check_draws(seed: int) -> np.ndarray:
    """jarzynski-check's two-level parameters drawn one call at a time, as its
    former per-row loop drew them: rows (beta, theta, alpha, beta_angle, gap0, gap1)."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(100):
        beta = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        angles = rng.uniform(0.0, 2.0 * math.pi, size=3)
        rows.append((beta, *angles, float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 3.0))))
    return np.array(rows)


def object_jarzynski_deviation(beta, theta, alpha, beta_angle, gap0, gap1) -> float:
    """One two-level Jarzynski row through the object pipeline."""
    s0, s1 = tls_spectrum(0, (0.0, gap0)), tls_spectrum(1, (0.0, gap1))
    u = tls_propagator(TlsAngles(theta, alpha, beta_angle))
    joint = two_time_joint(build_thermal_state(s0, beta), u, spectrum_later=s1)
    return jarzynski_deviation(work_distribution(joint), beta,
                               free_energy_difference(s0, s1, beta))


def marginal_earlier(joint: JointDistribution) -> np.ndarray:
    return joint.probs.sum(axis=0)


def marginal_later(joint: JointDistribution) -> np.ndarray:
    return joint.probs.sum(axis=1)


def conditional_entropy(joint: JointDistribution) -> EntropyReport:
    """Mean entropy of the later outcome given the earlier one.

    Computed directly from the conditionals p(k_j | k_i); columns with zero
    marginal contribute nothing.
    """
    probs = joint.probs
    marginal = marginal_earlier(joint)
    value = 0.0
    for i in np.nonzero(marginal > 0)[0]:
        value += marginal[i] * _nats(probs[:, i] / marginal[i])
    return EntropyReport(value, int((probs > 0).sum()))


def joint_entropy(joint: JointDistribution) -> EntropyReport:
    """-sum p(k_j, k_i) log p(k_j, k_i) over the joint support."""
    return EntropyReport(_nats(joint.probs.ravel()), int((joint.probs > 0).sum()))


def marginal_entropy(joint: JointDistribution, which: str = "earlier") -> EntropyReport:
    if which not in ("earlier", "later"):
        raise InvalidParameterError(f"unknown marginal {which!r}")
    marginal = marginal_earlier(joint) if which == "earlier" else marginal_later(joint)
    return shannon_entropy(marginal)


def grouped_entropy(probs, grouping) -> tuple[EntropyReport, float]:
    """Entropy of the coarse-grained distribution plus the within-group remainder.

    `grouping` is a partition of the support of `probs` into index subsets I_j;
    the coarse distribution is q_j = sum_{i in I_j} p_i.  Returns (H(q), Hbar)
    with Hbar the q-weighted mean entropy of the within-group conditionals, so
    that H(q) = H(p) - Hbar.
    """
    probs = _checked_probs(probs)
    seen: set[int] = set()
    for group in grouping:
        for i in group:
            if i in seen:
                raise InvalidParameterError(f"index {i} appears in two groups")
            if not 0 <= i < probs.size:
                raise InvalidParameterError(f"index {i} outside the distribution")
            seen.add(i)
    missing = set(np.nonzero(probs > 0)[0].tolist()) - seen
    if missing:
        raise InvalidParameterError(f"support indices {sorted(missing)} not covered")
    q = np.array([probs[list(group)].sum() for group in grouping])
    within = 0.0
    for group, qj in zip(grouping, q):
        if qj > 0:
            within += qj * _nats(probs[list(group)] / qj)
    return EntropyReport(_nats(q), int((q > 0).sum())), within


def free_energy(spectrum: EnergySpectrum, beta: float) -> float:
    """F = -ln(Z)/beta, with Z summed under the same max-shift as the thermal state."""
    if not (beta > 0 and math.isfinite(beta)):
        raise InvalidParameterError(f"beta must be positive and finite, got {beta}")
    e_min = spectrum.levels.min()
    log_z = math.log(np.exp(-beta * (spectrum.levels - e_min)).sum()) - beta * e_min
    free = float(-log_z / beta)
    if not math.isfinite(free):
        raise InvalidParameterError("free energy must be finite")
    return free


def free_energy_difference(earlier: EnergySpectrum, later: EnergySpectrum, beta: float) -> float:
    """F(later) - F(earlier) at a common inverse temperature."""
    return free_energy(later, beta) - free_energy(earlier, beta)


def entropic_k3_from_protocol(rho0: DiagonalDensity, u10: UnitaryPropagator,
                              u21: UnitaryPropagator,
                              spectrum_1: EnergySpectrum | None = None,
                              spectrum_2: EnergySpectrum | None = None,
                              degeneracy: str = "fine") -> float:
    """Run the full pipeline and evaluate the entropic parameter.

    `degeneracy` picks the work-entropy convention: "fine" keeps one entry per
    outcome pair (the convention under which the derivation of the bound is exact),
    "grouped" merges equal work values first.
    """
    if degeneracy not in ("fine", "grouped"):
        raise InvalidParameterError(f"unknown degeneracy convention {degeneracy!r}")
    joints = _joints(rho0, u10, u21, spectrum_1, spectrum_2)
    return k3_entropic(*_entropy_reports(*joints)[degeneracy])


def squeeze_transition_probabilities(sq: SqueezeMatrix) -> np.ndarray:
    """|G|^2 of a squeeze matrix, entry by entry."""
    return sq.g * sq.g


def squeeze_propagator(sq: SqueezeMatrix) -> UnitaryPropagator:
    """Wrap a truncated squeeze matrix as a propagator.

    G is the top-left block of an orthogonal matrix whose remaining rows carry
    the leak d = `column_defects`, so G^T G - 1 = -L^T L and, by Cauchy-Schwarz
    on the leak rows L, |(G^T G - 1)[m, n]| <= sqrt(d_m d_n).  Raises
    InvalidParameterError where an entry exceeds that bound by more than 1e-12;
    the largest defect (plus 1e-12) is then the propagator's unitarity tolerance.
    """
    g, defects = sq.g, sq.column_defects
    excess = np.abs(g.T @ g - np.eye(g.shape[1])) - np.sqrt(np.outer(defects, defects))
    if excess.max() > 1e-12:
        raise InvalidParameterError(
            f"squeeze matrix on {g.shape[0]} levels is not a block of an "
            f"orthogonal matrix: G^T G - 1 exceeds its leak bound by {excess.max():.3e}")
    return UnitaryPropagator(g.astype(complex), unitarity_tol=float(defects.max()) + 1e-12)


def read_table_csv(path: str | Path) -> SweepTable:
    meta: dict = {}
    columns: list[str] | None = None
    rows: list[list[float]] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif columns is None:
            columns = [c.strip() for c in line.split(",")]
        else:
            rows.append([float(x) for x in line.split(",")])
    if columns is None:
        raise InvalidParameterError(f"{path} contains no header row")
    data = np.array(rows) if rows else np.empty((0, len(columns)))
    return SweepTable(columns, data, meta)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def load_module(path: Path, name: str):
    """The module of the Python file at `path`, loaded under `name`."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pytest_report_header(config):
    smoke = load_module(Path(__file__).resolve().parents[1] / "scripts" / "smoke.py", "smoke")
    return smoke.fingerprint().splitlines()
