"""Joint statistics of sequential projective energy measurements and derived work laws.

The first measurement acts on a diagonal (thermal) state, and conditioning on any
outcome leaves a pure eigenstate, so every joint distribution factorizes into
transition probabilities:

    p(k1, k0)     = |U10_{k1,k0}|^2 p(k0)
    p(k2, k1, k0) = |U21_{k2,k1}|^2 |U10_{k1,k0}|^2 p(k0)

Skipping the middle measurement is NOT the same as marginalizing over k1: the
no-middle branch composes the propagators first and is kept separate throughout.
"""

from __future__ import annotations

import math
import os
from concurrent import futures
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import chdtrc, logsumexp

from .errors import InvalidParameterError
from .hilbert import (
    DiagonalDensity,
    EnergySpectrum,
    UnitaryPropagator,
    _on_one_blas_thread,
    compose_propagators,
    transition_probabilities,
)

JOINT_NORM_TOL = 1e-10
WORK_DEGENERACY_TOL = 1e-9
_CHUNK = 1 << 15  # samples drawn and counted at a time by sample_trajectories


def _relabel(spectrum: EnergySpectrum, label: int) -> EnergySpectrum:
    return EnergySpectrum(spectrum.levels, label=label)


def _require_normalized(totals, norm_tol: float, what: str) -> None:
    deviation = np.asarray(totals, dtype=float) - 1.0
    worst = float(deviation.flat[np.argmax(np.abs(deviation))])
    if abs(worst) > norm_tol:
        raise InvalidParameterError(
            f"{what} not normalized: sum deviates by {worst:.3e} (tol {norm_tol:.1e})"
        )


def check_joint_probs(probs: np.ndarray, norm_tol: float = JOINT_NORM_TOL) -> None:
    """The JointDistribution checks, for one joint (d_later, d_earlier) or a stack of them."""
    if np.any(probs < 0):
        raise InvalidParameterError("joint probabilities must be non-negative")
    _require_normalized(probs.sum(axis=(-2, -1)), norm_tol, "joint")


@dataclass(frozen=True)
class JointDistribution:
    """p(k_later, k_earlier) for two sequential energy measurements.

    `probs[j, i]` is the probability of outcome j at the later time and i at the
    earlier one, so column sums give the earlier-time marginal.
    """

    probs: np.ndarray
    spectrum_earlier: EnergySpectrum
    spectrum_later: EnergySpectrum
    norm_tol: float = JOINT_NORM_TOL

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (self.spectrum_later.dim, self.spectrum_earlier.dim):
            raise InvalidParameterError("joint shape must match the two spectra")
        check_joint_probs(probs, self.norm_tol)
        object.__setattr__(self, "probs", probs)

    def marginal_earlier(self) -> np.ndarray:
        return self.probs.sum(axis=0)

    def marginal_later(self) -> np.ndarray:
        return self.probs.sum(axis=1)


@dataclass(frozen=True)
class JointDistribution3:
    """p(k2, k1, k0) for three sequential energy measurements, in factorized form:
    two transition matrices plus the initial populations.  The full cube is
    materialized only on demand, so large truncated-oscillator protocols stay
    cheap.  The trajectory sampler returns a plain frequency array, not this.
    """

    trans21: np.ndarray
    trans10: np.ndarray
    populations: np.ndarray
    spectra: tuple[EnergySpectrum, EnergySpectrum, EnergySpectrum]  # (t0, t1, t2)
    norm_tol: float = JOINT_NORM_TOL

    def __post_init__(self):
        for name in ("trans21", "trans10", "populations"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "spectra", tuple(self.spectra))
        if len(self.spectra) != 3:
            raise InvalidParameterError("three spectra are required")
        if (self.trans10.shape[1] != self.populations.size
                or self.trans21.shape[1] != self.trans10.shape[0]):
            raise InvalidParameterError("factor dimensions are inconsistent")
        if abs(self.total_mass() - 1.0) > self.norm_tol:
            raise InvalidParameterError(
                f"three-time joint not normalized: off by {self.total_mass() - 1.0:.3e}"
            )

    @property
    def probs(self) -> np.ndarray:
        """The full cube p[k2, k1, k0], formed afresh on each read; the marginals
        come from the factors."""
        leg1 = self.trans10 * self.populations[None, :]
        return self.trans21[:, :, None] * leg1[None, :, :]

    def total_mass(self) -> float:
        return float(self.trans21.sum(axis=0) @ self.marginal_t1())

    def marginal_t1_t0(self) -> JointDistribution:
        """Sum over k2: the first-leg joint itself, because the k2 transition
        columns each sum to one up to the declared normalization tolerance."""
        return JointDistribution(self.trans10 * self.populations[None, :],
                                 self.spectra[0], self.spectra[1], norm_tol=self.norm_tol)

    def marginal_t2_t1(self) -> JointDistribution:
        return JointDistribution(self.trans21 * self.marginal_t1()[None, :],
                                 self.spectra[1], self.spectra[2], norm_tol=self.norm_tol)

    def marginal_t2_t0(self) -> JointDistribution:
        """Sum over the middle outcome.  This is the *measured* (t2, t0) marginal;
        it differs from the no-middle-measurement joint whenever the middle
        measurement is invasive."""
        probs = (_composed_transitions(self.trans21, self.trans10)
                 * self.populations[None, :])
        return JointDistribution(probs, self.spectra[0], self.spectra[2],
                                 norm_tol=self.norm_tol)

    def marginal_t1(self) -> np.ndarray:
        return self.trans10 @ self.populations


@_on_one_blas_thread
def _composed_transitions(trans21: np.ndarray, trans10: np.ndarray) -> np.ndarray:
    """trans21 @ trans10, the transitions from k0 to k2 summed over k1, on one BLAS
    thread: at the oscillator's 257 levels an unpinned product wakes OpenBLAS's
    pool, which costs more than the product."""
    return np.matmul(trans21, trans10)


def two_time_joint(rho0: DiagonalDensity, u: UnitaryPropagator,
                   spectrum_later: EnergySpectrum | None = None,
                   norm_tol: float = JOINT_NORM_TOL) -> JointDistribution:
    """Joint outcome distribution for measure / evolve / measure."""
    if u.dim != rho0.dim:
        raise InvalidParameterError("propagator and state dimensions differ")
    if spectrum_later is None:
        spectrum_later = _relabel(rho0.spectrum, rho0.spectrum.label + 1)
    probs = transition_probabilities(u) * rho0.populations[None, :]
    return JointDistribution(probs, rho0.spectrum, spectrum_later, norm_tol=norm_tol)


def three_time_joint(rho0: DiagonalDensity, u10: UnitaryPropagator, u21: UnitaryPropagator,
                     spectrum_1: EnergySpectrum | None = None,
                     spectrum_2: EnergySpectrum | None = None) -> JointDistribution3:
    """Joint outcome distribution with a projective measurement at all three times."""
    if u10.dim != rho0.dim or u21.dim != u10.dim:
        raise InvalidParameterError("propagator and state dimensions differ")
    s0 = rho0.spectrum
    s1 = spectrum_1 if spectrum_1 is not None else _relabel(s0, s0.label + 1)
    s2 = spectrum_2 if spectrum_2 is not None else _relabel(s0, s0.label + 2)
    return JointDistribution3(transition_probabilities(u21), transition_probabilities(u10),
                              rho0.populations, (s0, s1, s2))


def two_time_joint_skipping_middle(rho0: DiagonalDensity, u10: UnitaryPropagator,
                                   u21: UnitaryPropagator,
                                   spectrum_later: EnergySpectrum | None = None,
                                   norm_tol: float = JOINT_NORM_TOL) -> JointDistribution:
    """(t2, t0) joint when no measurement happens at t1: compose first, then measure."""
    if spectrum_later is None:
        spectrum_later = _relabel(rho0.spectrum, rho0.spectrum.label + 2)
    return two_time_joint(rho0, compose_propagators(u10, u21),
                          spectrum_later=spectrum_later, norm_tol=norm_tol)


@dataclass(frozen=True)
class WorkDistribution:
    """Discrete work values with probabilities.

    `view` is "fine" (one entry per index pair of nonzero probability, works
    non-decreasing, ties ordered by later, then earlier index) or "grouped" (entries
    within `WORK_DEGENERACY_TOL` of each other merged, works strictly increasing).
    """

    works: np.ndarray
    probabilities: np.ndarray
    view: str
    norm_tol: float = JOINT_NORM_TOL

    def __post_init__(self):
        works = np.asarray(self.works, dtype=float)
        probs = np.asarray(self.probabilities, dtype=float)
        if works.shape != probs.shape or works.ndim != 1:
            raise InvalidParameterError("works and probabilities must be 1-d and aligned")
        if self.view not in ("fine", "grouped"):
            raise InvalidParameterError(f"unknown view {self.view!r}")
        _require_normalized(probs.sum(), self.norm_tol, "work distribution")
        if self.view == "grouped" and np.any(np.diff(works) <= 0):
            raise InvalidParameterError("grouped work values must be strictly increasing")
        if np.any(np.diff(works) < 0):
            raise InvalidParameterError("fine work values must be non-decreasing")
        object.__setattr__(self, "works", works)
        object.__setattr__(self, "probabilities", probs)

    def grouped(self) -> "WorkDistribution":
        """Merge the runs of adjacent entries whose gaps are below WORK_DEGENERACY_TOL
        (adjacent-gap clustering of the already ordered works)."""
        if self.view == "grouped":
            return self
        cuts = [0, *(np.flatnonzero(np.diff(self.works) >= WORK_DEGENERACY_TOL) + 1), None]
        runs = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
        probs = np.array([self.probabilities[run].sum() for run in runs])
        works = np.array([np.dot(self.works[run], self.probabilities[run]) for run in runs]) / probs
        return WorkDistribution(works, probs, "grouped", norm_tol=self.norm_tol)


def work_distribution(joint: JointDistribution, view: str = "grouped") -> WorkDistribution:
    """Distribution of w = E_later(k_j) - E_earlier(k_i) under `joint`."""
    later, earlier = np.nonzero(joint.probs)
    works = joint.spectrum_later.levels[later] - joint.spectrum_earlier.levels[earlier]
    probs = joint.probs[later, earlier]
    # by work, then later, then earlier index: np.nonzero lists the pairs in
    # (later, earlier) order already, and a stable sort keeps that order among ties
    order = np.argsort(works, kind="stable")
    fine = WorkDistribution(works[order], probs[order], "fine", norm_tol=joint.norm_tol)
    if view == "fine":
        return fine
    if view == "grouped":
        return fine.grouped()
    raise InvalidParameterError(f"unknown view {view!r}")


def total_work_distribution(joint3: JointDistribution3,
                            view: str = "grouped") -> WorkDistribution:
    """Distribution of w1 + w2; depends only on the first and last outcomes."""
    return work_distribution(joint3.marginal_t2_t0(), view=view)


def jarzynski_deviation(workdist: WorkDistribution, beta: float, delta_f: float) -> float:
    """|<exp(-beta w)> - exp(-beta dF)|, accumulated in log space to avoid overflow."""
    if not (beta > 0 and math.isfinite(beta)):
        raise InvalidParameterError("beta must be positive and finite")
    mask = workdist.probabilities > 0
    lse = logsumexp(np.log(workdist.probabilities[mask]) - beta * workdist.works[mask])
    return abs(math.exp(-beta * delta_f) * math.expm1(lse + beta * delta_f))


def sample_trajectories(rho0: DiagonalDensity, u10: UnitaryPropagator,
                        u21: UnitaryPropagator, n_samples: int,
                        seed: int | None) -> np.ndarray:
    """Monte Carlo frequencies of the (k0, k1, k2) outcome triples: the array
    `freq[k2, k1, k0]` of counts divided by `n_samples`.

    Each stage (k0, then k1, then k2) draws one uniform u per sample and takes as
    the outcome the count of CDF entries <= u in the sample's conditioning column,
    bit-identical to per-column inversion.  The uniforms are those of three
    successive `default_rng(seed).random(n_samples)` calls: one PCG64 stream, of
    which stage s reads its n_samples draws from position s * n_samples on.  The
    samples are split into contiguous blocks, one per usable CPU and never more
    than there are `_CHUNK`s; each block reaches its stretch of every stage by
    jump-ahead (`_count_block`), so the blocks run side by side on threads and
    their integer counts are summed.  Every sample reads the same three stream
    positions whatever the split, so equal seeds give bit-identical tables for
    any CPU count.  With one block it runs on the calling thread.  Memory does
    not grow with `n_samples`.
    """
    if n_samples < 1:
        raise InvalidParameterError("n_samples must be at least 1")
    seeds = np.random.SeedSequence(seed)
    cdfs = (_column_cdfs(rho0.populations[:, None]),
            _column_cdfs(transition_probabilities(u10)),
            _column_cdfs(transition_probabilities(u21)))
    dims = (u21.dim, u10.dim, rho0.dim)
    count = partial(_count_block, cdfs, dims, seeds, n_samples)
    n_blocks = min(_usable_cpus(), -(-n_samples // _CHUNK))
    if n_blocks == 1:
        counts = count(0, n_samples)
    else:
        bounds = [n_samples * k // n_blocks for k in range(n_blocks + 1)]
        with futures.ThreadPoolExecutor(n_blocks) as pool:
            counts = sum(pool.map(count, bounds[:-1], bounds[1:]))
    return counts.reshape(dims) / n_samples


def _usable_cpus() -> int:
    """The CPUs this process may run on, or all of the machine's where that is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _count_block(cdfs, dims, seeds, n_samples: int, start: int, stop: int) -> np.ndarray:
    """Flat (k2, k1, k0) counts of the samples start..stop - 1 of `sample_trajectories`.

    Stage s of sample j reads position s * n_samples + j of the stream of `seeds`,
    so the block's stage-s generator is advanced to s * n_samples + start.  It
    draws and counts `_CHUNK` samples at a time.
    """
    gens = [np.random.Generator(np.random.PCG64(seeds).advance(s * n_samples + start))
            for s in range(3)]
    counts = np.zeros(dims[0] * dims[1] * dims[2], dtype=np.int64)
    for chunk in range(start, stop, _CHUNK):
        size = min(_CHUNK, stop - chunk)
        k0 = _sample_categorical(cdfs[0], 0, gens[0].random(size))
        k1 = _sample_categorical(cdfs[1], k0, gens[1].random(size))
        k2 = _sample_categorical(cdfs[2], k1, gens[2].random(size))
        k2 *= dims[1]
        k2 += k1
        k2 *= dims[2]
        k2 += k0  # the flat (k2, k1, k0) index
        counts += np.bincount(k2, minlength=counts.size)
    return counts


def _column_cdfs(columns: np.ndarray) -> np.ndarray:
    """The CDF of each column, scaled so that its last entry is exactly 1."""
    cdf = np.cumsum(columns, axis=0)
    cdf /= cdf[-1, :]
    return cdf


def _sample_categorical(cdf: np.ndarray, conditions, u: np.ndarray) -> np.ndarray:
    """outcome[j] drawn from column conditions[j] of `cdf` (`_column_cdfs`) at the
    uniform u[j].

    Each CDF column is non-decreasing, so counting entries <= u gives
    `searchsorted(cdf[:, col], u, side="right")`; the last row, x / x = 1 > u,
    never counts.  A one-column stage passes the scalar column index 0.
    """
    out = np.zeros(u.size, dtype=np.intp)
    for row in cdf[:-1]:
        out += row[conditions] <= u
    return out


def empirical_chi_squared_pvalue(frequencies: np.ndarray, n_samples: int,
                                 exact: JointDistribution3) -> float:
    """Goodness-of-fit p-value of sampled frequencies (`sample_trajectories`, drawn
    from `n_samples` samples) against the exact cube.

    Cells with zero exact probability must be empty in the sample; remaining cells
    enter a standard chi-squared statistic with (support - 1) degrees of freedom.
    """
    observed = frequencies * n_samples
    expected = exact.probs * n_samples
    support = expected > 0
    if np.any(observed[~support] > 0):
        return 0.0
    statistic = float(((observed[support] - expected[support]) ** 2
                       / expected[support]).sum())
    dof = int(support.sum()) - 1
    if dof <= 0:
        return 1.0
    return float(chdtrc(dof, statistic))
