"""Shared test oracles.

The protocol oracle here is deliberately different from the library path: it
builds projectors as explicit matrices and evaluates the measure/evolve/measure
chain as literal operator sandwiches with traces, instead of multiplying
transition probabilities.  The squeeze oracle exponentiates the truncated
generator by scaling and squaring (scipy's `expm`), independent of the library's
eigenbasis kernel.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from workreal.errors import InvalidParameterError
from workreal.hilbert import build_thermal_state, free_energy_difference
from workreal.protocol import (
    JointDistribution,
    JointDistribution3,
    jarzynski_deviation,
    two_time_joint,
    work_distribution,
)
from workreal.squeezing import SqueezeMatrix, _validate_squeeze_args
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
    return SqueezeMatrix(g, r, n_max, np.abs(1.0 - (g * g).sum(axis=0)))


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
