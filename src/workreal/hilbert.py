"""Energy spectra, diagonal states, and adiabatic-basis propagators.

Everything downstream works with three primitives: an ordered energy spectrum at a
measurement time, a diagonal (population-only) density over that spectrum, and a
unitary matrix mapping the eigenbasis at one measurement time to the eigenbasis at
the next.  Projectors are never materialized; a measurement outcome is just an index
into a spectrum.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import lru_cache, wraps
from pathlib import Path

import numpy as np

from .errors import InvalidParameterError

DEFAULT_UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class EnergySpectrum:
    """Ordered eigenvalues at one measurement time (hbar = 1 units).

    `label` is the time index of the measurement (0, 1 or 2 in the three-point
    protocol); it only matters for bookkeeping.
    """

    levels: np.ndarray
    label: int = 0

    def __post_init__(self):
        levels = np.atleast_1d(np.asarray(self.levels, dtype=float))
        if levels.size == 0:
            raise InvalidParameterError("spectrum must contain at least one level")
        if not np.all(np.isfinite(levels)):
            raise InvalidParameterError("spectrum levels must be finite")
        if np.any(np.diff(levels) < 0):
            raise InvalidParameterError("spectrum levels must be sorted non-decreasing")
        object.__setattr__(self, "levels", levels)

    @property
    def dim(self) -> int:
        return self.levels.size


@dataclass(frozen=True)
class DiagonalDensity:
    """Populations over an EnergySpectrum, non-negative and summing to 1."""

    populations: np.ndarray
    spectrum: EnergySpectrum

    def __post_init__(self):
        pops = np.asarray(self.populations, dtype=float)
        if pops.shape != (self.spectrum.dim,):
            raise InvalidParameterError("populations must align with the spectrum")
        if np.any(pops < 0):
            raise InvalidParameterError("populations must be non-negative")
        if abs(pops.sum() - 1.0) > 1e-12:
            raise InvalidParameterError(
                f"populations must sum to 1 (off by {pops.sum() - 1.0:.3e})"
            )
        object.__setattr__(self, "populations", pops)

    @property
    def dim(self) -> int:
        return self.populations.size


def validate_unitary(matrix: np.ndarray) -> float:
    """Return max |(U^dag U - 1)_{mn}|; `require_unitary` compares it with a tolerance.

    A stack of matrices (shape (..., d, d)) gives the worst deviation over the stack.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim < 2 or matrix.shape[-2] != matrix.shape[-1]:
        raise InvalidParameterError("propagator matrix must be square")
    gram = matrix.conj().swapaxes(-2, -1) @ matrix
    return float(np.max(np.abs(gram - np.eye(matrix.shape[-1]))))


def require_unitary(matrix: np.ndarray, tol: float) -> float:
    """validate_unitary, raising InvalidParameterError when the deviation exceeds `tol`."""
    deviation = validate_unitary(matrix)
    if deviation > tol:
        raise InvalidParameterError(
            f"matrix is not unitary: deviation {deviation:.3e} > tol {tol:.3e}"
        )
    return deviation


def composed_unitarity_tol(tol10: float, tol21: float, dim: int) -> float:
    """Unitarity tolerance of the product of two propagators with the given tolerances."""
    return tol10 + tol21 + 16 * np.finfo(float).eps * dim


@dataclass(frozen=True)
class UnitaryPropagator:
    """Matrix mapping the eigenbasis at the earlier time to the later one.

    For truncated-basis propagators pass the truncation budget as `unitarity_tol`;
    construction fails if the measured deviation exceeds it.
    """

    matrix: np.ndarray
    unitarity_tol: float = DEFAULT_UNITARITY_TOL

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=complex)
        require_unitary(matrix, self.unitarity_tol)
        object.__setattr__(self, "matrix", matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@lru_cache(maxsize=1)
def _blas_pools() -> list[tuple]:
    """(get, set) thread-count functions of the scipy-openblas libraries mapped into
    the process (numpy's ILP64 one, scipy's LP64 one) when first asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    pools = []
    for path in sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line}):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            if hasattr(lib, f"scipy_openblas_set_num_threads{suffix}"):
                get, put = (getattr(lib, f"scipy_openblas_{verb}_num_threads{suffix}")
                            for verb in ("get", "set"))
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                pools.append((get, put))
    return pools


def _on_one_blas_thread(fn):
    """`fn` with every pool of `_blas_pools` set to one thread while it runs, each
    set back to its former count afterwards, also when `fn` raises.  It wraps the
    squeeze kernel, its eigensolver (see the `squeezing` module doc) and the
    transition product of the measured (t2, t0) marginal in `protocol`."""
    @wraps(fn)
    def pinned(*args, **kwargs):
        counts = [(put, get()) for get, put in _blas_pools()]
        for put, _ in counts:
            put(1)
        try:
            return fn(*args, **kwargs)
        finally:
            for put, count in counts:
                put(count)
    return pinned


def transition_probabilities(u: UnitaryPropagator) -> np.ndarray:
    """|U_{ji}|^2, the probability to land on j given the earlier outcome i."""
    return np.abs(u.matrix) ** 2


def _gibbs_populations(levels: np.ndarray, beta: float) -> np.ndarray:
    if beta == math.inf:
        ground = levels == levels.min()
        return ground / ground.sum()
    # max-shift keeps every exponent <= 0.  At a huge beta, beta * gap can overflow
    # to inf; its weight exp(-inf) = 0 is exact, so that overflow goes unreported
    with np.errstate(over="ignore"):
        weights = np.exp(-beta * (levels - levels.min()))
    return weights / weights.sum()


def build_thermal_state(spectrum: EnergySpectrum, beta: float) -> DiagonalDensity:
    """Gibbs populations exp(-beta E_k)/Z over `spectrum`.

    beta = +inf is accepted as the ground-state limit (degenerate minima split
    evenly).  beta <= 0, nan, or -inf are rejected; the infinite-temperature limit
    is ill-conditioned for unbounded spectra, approach it with a small positive beta.
    """
    if math.isnan(beta) or beta <= 0:
        raise InvalidParameterError(f"beta must be positive or +inf, got {beta}")
    return DiagonalDensity(_gibbs_populations(spectrum.levels, beta), spectrum)


def compose_propagators(u10: UnitaryPropagator, u21: UnitaryPropagator) -> UnitaryPropagator:
    """The single propagator equivalent to applying u10 first, then u21."""
    if u10.dim != u21.dim:
        raise InvalidParameterError(
            f"dimension mismatch: {u21.dim} x {u21.dim} after {u10.dim} x {u10.dim}"
        )
    tol = composed_unitarity_tol(u10.unitarity_tol, u21.unitarity_tol, u10.dim)
    return UnitaryPropagator(u21.matrix @ u10.matrix, unitarity_tol=tol)
