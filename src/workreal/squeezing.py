"""Truncated-Fock squeezing propagator and the oscillator sweeps.

The transition matrix G_{mn}(r) = <m|U_r|n> of the squeeze unitary
U_r = exp[(r/2)(adag^2 - a^2)] couples only levels of equal parity.  On the
levels p, p + 2, ... the generator is r times a fixed antisymmetric tridiagonal
matrix T with T[k+1, k] = sqrt((l_k + 1)(l_k + 2)) / 2, l_k = p + 2k.
Conjugating by diag(i^k) turns T into -i S with S real symmetric tridiagonal, so
one eigendecomposition S = V diag(lam) V^T, independent of r, serves every
amplitude:

    G[j, k] = i^(j-k) * (V cos(r lam) V^T - i V sin(r lam) V^T)[j, k],

which is +-(V cos V^T)[j, k] for even j - k and +-(V sin V^T)[j, k] for odd.
The entries with odd j - k form two strided sub-blocks, and the sign is
(-1)^(floor(j/2) + floor(k/2)), negated where j is even and k odd.

`_parity_columns` is the one kernel; every build goes through it.  Entry
(j, k) of a parity block takes the cosine part when j - k is even and the sine
part when it is odd, so with V_even and V_odd the eigenvector rows at even and
odd positions, the rows at even positions multiply [cos V_even ; sin V_odd]^T
and the rows at odd positions [sin V_even ; cos V_odd]^T, the columns coming out
grouped by position parity.  Every entry computed is an entry kept, and each
call asks for one span of rows, the rows its caller reads: the sweeps
(`_squeeze_transitions`, which squares the products straight into a fresh
transition matrix) the kept levels; `squeeze_matrix_closed_form` the kept
levels in one call, so that they agree with the sweeps bit for bit, and the
padded ones (which give its column defects) in another; `select_n_max` the
levels from its first candidate cut down to the padded edge.

The cached halves of each eigenbasis are stored eigen-index-major, their rows
zero-padded to a multiple of ALIGN, so every product has a multiple of ALIGN
columns, and the eigen index is summed in panels of at most PANEL: one dgemm per
panel, the first written and each later one added.  OpenBLAS then rounds each
entry the same way whatever its thread count (checked with OpenBLAS 0.3.31
under 1 to 4 threads), which its own splits of unaligned widths or of inner
dimensions past PANEL do not.

The work around the products runs over contiguous memory.  numpy runs a ufunc's
inner loop once per row of a strided or broadcast 2-D operand, which at the
sizes the sweeps build (a few dozen columns per row) costs more than the
products.  So the kept columns of both halves are copied side by side once per
call, each operand is the cos/sin multiplier (filled in by broadcast
assignment) times that copy in one multiply, and each product, squared in place
where squares are asked for, is copied into its strided slots.  Every operand
entry is still the one IEEE product cos * v or sin * v, and squares and copies
are exact.  One operand buffer serves both row parities: a third fresh array of
that size per call pushed the n_max 448 builds into page faults (about 750 per
build), as glibc's malloc returned the freed blocks to the system.

`_parity_basis` and `_parity_columns` run on the calling thread: while each
runs, `_on_one_blas_thread` sets numpy's and scipy's OpenBLAS to one thread,
then restores their counts.  The eigensolver is LAPACK's divide-and-conquer
`dstevd` on scipy's OpenBLAS 0.3.30, called through scipy's f2py wrapper, the
same call `scipy.linalg.eigh_tridiagonal` makes with its default driver.  The
wrapper's extension, `scipy.linalg._flapack`, is loaded from its file without
running the `scipy.linalg` package, which would cost every process about 55 ms
and 5 MiB of modules it never uses; it is registered under its own name, so a
later `import scipy.linalg` reuses it.  Where the file is missing or will not
load, the public `scipy.linalg.lapack.dstevd`, the same function, is used.  The
merges of `dstevd` call dgemm: unpinned, it wakes scipy's pool from about 190
levels and rounds some eigenvector entries by thread count from about 390.  A
woken pool spins for about 0.12 s of CPU after each call, competing with the
main thread for the cores.  The pin is process-wide while a call runs, so
another thread's BLAS calls run single-threaded meanwhile, and pinned calls from
two threads at once can leave the pools at one thread.  Where no OpenBLAS is
found (other platforms or builds), both run unpinned; the kernel computes the
same entries from a given basis, which may then depend on the thread count.
The pin lives in `hilbert`, because `protocol` uses it too, for the transition
product of the measured (t2, t0) marginal.

Every oscillator K_en (the point function, each grid cell, each beta-sweep
point) goes through one per-(beta, n_max) routine, `_Legs`.  Its oracle is
`oscillator_three_time`, whose joints reach the same numbers through the generic
work-distribution objects.

The eigenbasis is taken on PADDING levels beyond the requested truncation and
cached per size.  A truncated G is the top-left block of that padded
exponential, and the mass each column puts on the padded rows is its leak past
n_max (`SqueezeMatrix.column_defects`), the quantity `select_n_max` certifies.
The padding is exact to float64 wherever that leak is far below the tolerance,
since the squeezed amplitude then never reaches the padded edge.  The tests hold
the oracles for gate comparisons: an independent scaling-and-squaring matrix
exponential (scipy's `expm`) and the closed-form series of Kim, de Oliveira &
Knight (PRA 40, 2494 (1989)) in arbitrary precision.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
import scipy

from .entropy import _nats
from .errors import InvalidParameterError, TruncationError
from .hilbert import EnergySpectrum, UnitaryPropagator, _gibbs_populations, _on_one_blas_thread
from .protocol import JointDistribution, JointDistribution3
from .tables import SweepTable

THERMAL_TAIL_TOL = 1e-12
COLUMN_DEFECT_TOL = 1e-10
SUPPORT_TOL = 1e-10
PADDING = 128
ALIGN = 8
PANEL = 384
N_MAX_CAP = 8192
MAX_BUDGET = 1e-6
REFINE_XTOL = 1e-4
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class SqueezeMatrix:
    """Real transition matrix G_{mn}(r) on the levels 0..n_max.

    `g` is the top-left block of the squeeze exponential on n_max + 1 + PADDING
    levels.  `column_defects[n]` is the probability that a unit population on
    level n is carried past n_max: the squared weight column n puts on the padded
    rows.  It is the true leak wherever it is far below one, because the padded
    edge then lies beyond the squeezed amplitude's reach.
    """

    g: np.ndarray
    r: float
    n_max: int
    column_defects: np.ndarray

    @property
    def transition_probabilities(self) -> np.ndarray:
        return self.g * self.g


def _load_dstevd():
    """LAPACK's `dstevd` through scipy's f2py wrapper, without running the
    `scipy.linalg` package (see module doc): from the `_flapack` extension if it is
    already imported, else loaded from its file under its own name and registered
    in `sys.modules` first; where the file is missing or will not load, from the
    public `scipy.linalg.lapack`."""
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        folder = Path(scipy.__file__).parent / "linalg"
        paths = (folder / f"_flapack{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES)
        path = next((path for path in paths if path.is_file()), None)
        if path is not None:
            spec = importlib.util.spec_from_file_location(name, path)
            try:
                module = importlib.util.module_from_spec(spec)
                sys.modules[name] = module
                spec.loader.exec_module(module)
            except ImportError:
                sys.modules.pop(name, None)
                module = None
    if module is None:
        from scipy.linalg import lapack as module
    return module.dstevd


_dstevd = _load_dstevd()


def _aligned(n: int) -> int:
    return -(-n // ALIGN) * ALIGN


@lru_cache(maxsize=8)
@_on_one_blas_thread
def _parity_basis(size: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues of S on the levels p, p + 2, ... below `size` (see module doc),
    and its eigenvector rows at even and at odd positions, each half transposed to
    a contiguous (eigen index, row) array, zero-padded to a multiple of ALIGN rows.

    The eigensolver is LAPACK's `dstevd` through scipy's f2py wrapper, loaded
    without the `scipy.linalg` package (about 55 ms and 5 MiB per process), or
    the public `scipy.linalg.lapack.dstevd` where that load fails: the call
    `eigh_tridiagonal` makes with its default driver.  Raises LinAlgError where
    LAPACK reports a failure."""
    levels = np.arange(p, size - 2, 2, dtype=float)
    lam, vec, info = _dstevd(np.zeros(levels.size + 1),
                             0.5 * np.sqrt((levels + 1.0) * (levels + 2.0)), compute_v=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"dstevd failed on the parity-{p} generator below {size} levels (LAPACK info={info})")
    halves = []
    for q in (0, 1):
        rows = vec[q::2]
        halves.append(np.zeros((lam.size, _aligned(rows.shape[0]))))
        halves[q][:, : rows.shape[0]] = rows.T
    return lam, halves[0], halves[1]


@_on_one_blas_thread
def _parity_columns(r: float, size: int, n_cols: int, p: int, rows: tuple[int, int | None],
                    out: np.ndarray | None = None, squared: bool = False) -> np.ndarray:
    """G[p + 2j, p + 2k] up to the sign of i^(j - k) (see module doc), or its square
    if `squared`, for the block rows j in the span rows = (lo, hi) (an end of None
    is the padded edge) and the block columns k of the levels below n_cols, from
    the eigenbasis padded past `size`.  Written into `out`, a fresh array by
    default, which is returned.

    Each operand is formed by one multiply over contiguous memory, and each
    product is squared in place (if `squared`) and written into `out` by copy:
    numpy runs a ufunc's inner loop once per row of a strided or broadcast 2-D
    operand, so the per-row multiplies they replace cost more than the products
    at small sizes (see module doc)."""
    lam, *halves = _parity_basis(size + PADDING, p)
    lo, hi = rows[0], lam.size if rows[1] is None else rows[1]
    cols = (n_cols - p + 1) // 2
    widths = (_aligned((cols + 1) // 2), _aligned(cols // 2))
    if out is None:
        out = np.empty((hi - lo, cols))
    parts = (np.cos(r * lam)[:, None], np.sin(r * lam)[:, None])
    # the kept columns of both halves side by side, contiguous, so that each
    # operand below is one multiply over contiguous memory
    kept = np.concatenate((halves[0][:, : widths[0]], halves[1][:, : widths[1]]), axis=1)
    operand = np.empty(kept.shape)
    for q in (0, 1):
        # the block rows 2i + q of the span, by i
        first, stop = (lo - q + 1) // 2, (hi - q + 1) // 2
        if stop <= first:
            continue
        # even columns take the cosine part on even rows and the sine part on odd
        # rows; odd columns the other way round
        operand[:, : widths[0]] = parts[q]
        operand[:, widths[0]:] = parts[1 - q]
        operand *= kept
        product = np.empty((stop - first, operand.shape[1]))
        np.matmul(halves[q][:PANEL, first:stop].T, operand[:PANEL], out=product)
        for k in range(PANEL, lam.size, PANEL):
            product += np.matmul(halves[q][k: k + PANEL, first:stop].T,
                                 operand[k: k + PANEL])
        if squared:
            product *= product
        dest = out[2 * first + q - lo::2]
        dest[:, 0::2] = product[:, : (cols + 1) // 2]
        dest[:, 1::2] = product[:, widths[0]: widths[0] + cols // 2]
    return out


def _validate_squeeze_args(r: float, n_max: int) -> None:
    if not (math.isfinite(r) and r >= 0.0):
        raise InvalidParameterError(f"squeeze amplitude must be >= 0, got {r}")
    if n_max < 1:
        raise InvalidParameterError("n_max must be at least 1")


def squeeze_matrix_closed_form(r: float, n_max: int) -> SqueezeMatrix:
    """Squeeze transition matrix from the padded eigenbasis; see the module docstring."""
    _validate_squeeze_args(r, n_max)
    size = int(n_max) + 1
    if r == 0.0:
        return SqueezeMatrix(np.eye(size), 0.0, n_max, np.zeros(size))
    g = np.zeros((size, size))
    defects = np.empty(size)
    for p in (0, 1):
        n_levels = (size - p + 1) // 2
        columns = _parity_columns(float(r), size, size, p, (0, n_levels))
        leak = _parity_columns(float(r), size, size, p, (n_levels, None))
        defects[p::2] = (leak * leak).sum(axis=0)
        # the real or imaginary part of i^(j - k) is (-1)^(floor(j/2) + floor(k/2)),
        # negated where j is even and k odd
        half = 1.0 - 2.0 * (np.arange(n_levels) // 2 % 2)
        block = g[p::2, p::2]
        np.multiply(columns * half[:, None], half, out=block)
        block[0::2, 1::2] *= -1.0
    return SqueezeMatrix(g, float(r), n_max, defects)


def _squeeze_transitions(r: float, n_max: int) -> np.ndarray:
    """|G|^2 of `squeeze_matrix_closed_form(r, n_max)`, bit for bit, as a fresh
    matrix: the kernel squares its products straight into the parity blocks, and
    the entries between levels of opposite parity stay zero."""
    _validate_squeeze_args(r, n_max)
    size = int(n_max) + 1
    if r == 0.0:
        return np.eye(size)
    t = np.zeros((size, size))
    for p in (0, 1):
        _parity_columns(float(r), size, size, p, (0, (size - p + 1) // 2), t[p::2, p::2],
                        squared=True)
    return t


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
            f"squeeze matrix at r={sq.r}, n_max={sq.n_max} is not a block of an "
            f"orthogonal matrix: G^T G - 1 exceeds its leak bound by {excess.max():.3e}")
    return UnitaryPropagator(g.astype(complex), unitarity_tol=float(defects.max()) + 1e-12)


def oscillator_spectrum(n_max: int, label: int = 0) -> EnergySpectrum:
    """E_n = n + 1/2 on the truncated number basis."""
    return EnergySpectrum(np.arange(n_max + 1.0) + 0.5, label=label)


def thermal_tail_mass(beta: float, n_max: int) -> float:
    """Exact thermal mass above level n_max for the ladder spectrum: q^(n_max+1)."""
    if not (beta > 0 and math.isfinite(beta)):
        raise InvalidParameterError("beta must be positive and finite")
    return math.exp(-beta * (n_max + 1.0))


def _thermal_run(beta: float, n_max: int, point: str) -> tuple[np.ndarray, float]:
    """Gibbs populations of the oscillator on the levels 0..n_max and the thermal
    mass above them.  Raises TruncationError, naming beta, n_max and `point`, when
    that tail exceeds THERMAL_TAIL_TOL."""
    tail = thermal_tail_mass(beta, n_max)
    if tail > THERMAL_TAIL_TOL:
        raise TruncationError(
            f"thermal tail {tail:.3e} above {THERMAL_TAIL_TOL:.1e} at "
            f"beta={beta}, {point}, n_max={n_max}", leaked_mass=tail)
    return _gibbs_populations(np.arange(n_max + 1.0), beta), tail


def _thermal_support(beta: float, tol: float) -> int:
    """Smallest K with thermal mass above K below `tol`."""
    return max(0, int(math.ceil(-math.log(tol) / beta)) - 1)


@lru_cache(maxsize=256)
def _vacuum_cut(r: float) -> int:
    """Smallest multiple of 64 past which the squeezed vacuum keeps less than
    COLUMN_DEFECT_TOL, or N_MAX_CAP + 64 if none up to the cap.  Column 0 is
    always occupied, so no truncation below this can pass `select_n_max`.

    |<2k|U_r|0>|^2 = (2k)! / (4^k k!^2) tanh(r)^(2k) / cosh(r).
    """
    k = np.arange(1, N_MAX_CAP // 2 + 1)
    ratios = (2.0 * k - 1.0) / (2.0 * k) * math.tanh(r) ** 2
    probs = np.cumprod(np.concatenate(([1.0 / math.cosh(min(r, 700.0))], ratios)))
    leak = 1.0 - np.cumsum(probs)  # leak[k]: mass above level 2k
    cuts = np.arange(64, N_MAX_CAP + 1, 64)
    passing = cuts[leak[cuts // 2] < COLUMN_DEFECT_TOL]
    return int(passing[0]) if passing.size else N_MAX_CAP + 64


@lru_cache(maxsize=256)
def _select_n_max_cached(beta: float, r_total: float) -> int:
    # the thermal tail alone is past the cap; below beta ~ 3e-307 its support
    # does not even fit a float
    if -math.log(THERMAL_TAIL_TOL) / beta > N_MAX_CAP + 1:
        raise TruncationError(
            f"no truncation up to {N_MAX_CAP} levels holds the thermal tail at "
            f"beta={beta}, r={r_total}")
    support_hi = _thermal_support(beta, SUPPORT_TOL)
    n_thermal = _thermal_support(beta, THERMAL_TAIL_TOL)
    lower = max(64 * max(1, math.ceil(n_thermal / 64)), _vacuum_cut(r_total))
    # first build: the occupied columns' squeezed reach plus one step; the exponent
    # is clamped where the guess is past the cap anyway
    guess = int((support_hi + 8) * math.exp(min(2.0 * r_total, 10.0))) + 72
    upper = min(N_MAX_CAP, max(lower, 64 * math.ceil(guess / 64)))
    while lower <= N_MAX_CAP:
        # worst[p][i]: largest mass any occupied column of parity p puts past the
        # cut lower + 2i in an eigenbasis padded past `upper`, from the block rows
        # of the levels above `lower` down to the padded edge
        worst = []
        for p in (0, 1):
            columns = _parity_columns(r_total, upper + 1, support_hi + 1, p,
                                      ((lower - p) // 2 + 1, None), squared=True)
            worst.append(np.cumsum(columns[::-1], axis=0)[::-1].max(axis=1, initial=0.0))
        for cut in range(lower, upper + 1, 64):
            if max(worst[p][(cut - lower) // 2] for p in (0, 1)) < COLUMN_DEFECT_TOL:
                return cut
        lower, upper = upper + 64, min(N_MAX_CAP, 2 * upper)
    # the failed search filled the basis cache with bases of up to the cap's size
    # (two 4161 x 4161 eigenvector matrices at 8192 levels); drop them
    _parity_basis.cache_clear()
    raise TruncationError(
        f"no truncation up to {N_MAX_CAP} levels meets the budget for "
        f"beta={beta}, r={r_total}")


def select_n_max(beta: float, r_total: float) -> int:
    """Smallest multiple-of-64 truncation with thermal tail below 1e-12 and a leak
    below 1e-10 past it from every column on the thermally occupied support (the
    levels up to the first one with less than 1e-10 thermal mass above it).

    `r_total` is the largest squeeze amplitude the run will compose (r1 + r2).
    The amplitude is quantized upward to 0.02 so repeated nearby queries share a
    cached answer; a larger amplitude never yields a smaller truncation.  The
    leaks of every candidate are read off one padded build by a reverse
    cumulative sum over its rows; the build doubles only when no candidate in it
    passes.  Raises TruncationError, without building anything, when the thermal
    tail or the squeezed vacuum alone already needs more than 8192 levels.
    """
    if not (beta > 0 and math.isfinite(beta)):
        raise InvalidParameterError("beta must be positive and finite")
    if not (math.isfinite(r_total) and r_total >= 0.0):
        raise InvalidParameterError("r_total must be finite and >= 0")
    quantized = round(math.ceil(r_total / 0.02) * 0.02, 10)
    return _select_n_max_cached(float(beta), quantized)


@dataclass
class OscillatorProtocol:
    """A three-point squeeze protocol with its truncation certificate.

    `truncation_budget` bounds every truncation effect in the run: probability
    mass missing from the joints plus the thermal tail, with a safety factor.
    """

    joint3: JointDistribution3
    no_middle: JointDistribution
    n_max: int
    truncation_budget: float
    spectra: tuple[EnergySpectrum, EnergySpectrum, EnergySpectrum]


def _budget(thermal_tail: float, deficit_a: float, deficit_b: float) -> float:
    return 10.0 * (thermal_tail + abs(deficit_a) + abs(deficit_b)) + 1e-10


def _checked_budget(thermal_tail: float, deficit_a: float, deficit_b: float,
                    beta: float, r1: float, r2: float, n_max: int) -> float:
    """`_budget` of a run; raises TruncationError, naming beta, r1, r2 and n_max,
    where it exceeds MAX_BUDGET."""
    budget = _budget(thermal_tail, deficit_a, deficit_b)
    if budget > MAX_BUDGET:
        raise TruncationError(
            f"truncation budget {budget:.3e} exceeds {MAX_BUDGET:.1e} at "
            f"beta={beta}, r1={r1}, r2={r2}, n_max={n_max}",
            leaked_mass=max(abs(deficit_a), abs(deficit_b)))
    return budget


def oscillator_three_time(beta: float, r1: float, r2: float,
                          n_max: int | None = None) -> OscillatorProtocol:
    """Exact outcome statistics for squeeze(r1), measure, squeeze(r2).

    The no-middle branch uses the composed squeeze r1 + r2 directly, since
    zero-phase squeezes compose additively.  Raises TruncationError when the
    thermal tail or the measured leakage exceeds what MAX_BUDGET allows.
    """
    for name, r in (("r1", r1), ("r2", r2)):
        if not (math.isfinite(r) and r >= 0.0):
            raise InvalidParameterError(f"{name} must be >= 0, got {r}")
    if n_max is None:
        n_max = select_n_max(beta, r1 + r2)
    pops, tail = _thermal_run(beta, n_max, f"r1={r1}, r2={r2}")
    spectra = tuple(oscillator_spectrum(n_max, label=k) for k in range(3))
    t1 = _squeeze_transitions(r1, n_max)
    t2 = t1 if r2 == r1 else _squeeze_transitions(r2, n_max)
    t_total = _squeeze_transitions(r1 + r2, n_max)
    deficit_measured = 1.0 - float(t2.sum(axis=0) @ (t1 @ pops))
    deficit_no_middle = 1.0 - float(t_total.sum(axis=0) @ pops)
    budget = _checked_budget(tail, deficit_measured, deficit_no_middle, beta, r1, r2,
                             n_max)
    joint3 = JointDistribution3(t2, t1, pops, spectra, norm_tol=budget)
    no_middle = JointDistribution(t_total * pops[None, :], spectra[0], spectra[2],
                                  norm_tol=budget)
    return OscillatorProtocol(joint3, no_middle, n_max, budget, spectra)


def _column_entropies(t: np.ndarray) -> np.ndarray:
    """-sum_m t log t per column of a squeeze transition matrix, summed over its
    parity block alone (t is zero between opposite parities), each block taken as
    a contiguous copy."""
    entropies = np.empty(t.shape[1])
    for p in (0, 1):
        block = np.ascontiguousarray(t[p::2, p::2])
        logs = np.where(block > 0.0, block, 1.0)
        np.log(logs, out=logs)
        entropies[p::2] = -np.einsum("mn,mn->n", block, logs)
    return entropies


def _check_conventions(degeneracy: str, middle_entropy: str) -> None:
    if degeneracy not in ("fine", "grouped"):
        raise InvalidParameterError(f"unknown degeneracy convention {degeneracy!r}")
    if middle_entropy not in ("initial", "measured"):
        raise InvalidParameterError(
            f"unknown middle-entropy convention {middle_entropy!r}")


class _Legs:
    """The thermal run at one (beta, n_max) and per amplitude r the statistics of
    squeeze(r) on the thermal state (`leg`), which `cell` combines into K_en and
    its budget.  In the fine-grained convention most marginal entropies cancel,
    so a cell is a few dot products and forms no joint.  Any degeneracy other
    than "fine" is taken as grouped, so public entries check their conventions
    first."""

    def __init__(self, beta: float, n_max: int, degeneracy: str, point: str):
        self.beta, self.n_max = beta, n_max
        self.pops, self.tail = _thermal_run(beta, n_max, point)
        self.h_pops = _nats(self.pops)
        self.stats: dict[float, tuple] = {}
        # grouped: equal-ladder works are set by m - n alone, so entry (m, n) of a
        # joint goes to work bin m - n + n_max
        self.offsets = None if degeneracy == "fine" else \
            np.add.outer(np.arange(n_max + 1), np.arange(n_max, -1, -1)).ravel()

    def _grouped_work_entropy(self, joint_probs: np.ndarray) -> float:
        return _nats(np.bincount(self.offsets, weights=joint_probs.ravel(),
                                 minlength=2 * self.n_max + 1))

    def leg(self, r: float, t: np.ndarray | None = None) -> tuple:
        """(p1, H(W) from the thermal state, column entropies, column sums, H(p1),
        leak from the thermal state) of the squeeze r.  `t` is its transition
        matrix when the caller has already built it."""
        key = round(float(r), 12)
        if key not in self.stats:
            if t is None:
                t = _squeeze_transitions(float(r), self.n_max)
            pops = self.pops
            p1 = t @ pops
            entropies = _column_entropies(t) if self.offsets is None else None
            h_w = float(pops @ entropies) if self.offsets is None \
                else self._grouped_work_entropy(t * pops[None, :])
            colsum = t.sum(axis=0)
            self.stats[key] = (p1, h_w, entropies, colsum, _nats(p1),
                               1.0 - float(colsum @ pops))
        return self.stats[key]

    def cell(self, r1: float, r2: float, middle_entropy: str,
             t2: np.ndarray | None = None) -> tuple[float, float]:
        """(K_en in nats, truncation budget) of squeeze(r1), measure, squeeze(r2).
        The grouped convention needs the whole r2 matrix `t2`, built here unless
        given.  Raises TruncationError where the budget exceeds MAX_BUDGET."""
        fine = self.offsets is None
        if not fine and t2 is None:
            t2 = _squeeze_transitions(float(r2), self.n_max)
        _, _, entropies2, colsum2, _, _ = self.leg(r2, t2)
        p1, h_w10, _, _, h_p1, _ = self.leg(r1)
        _, h_w20, _, _, _, deficit_no_middle = self.leg(r1 + r2)
        shift = h_p1 - self.h_pops if middle_entropy == "initial" else 0.0
        if fine:
            value = 0.5 * (p1 @ entropies2 + h_w10 - h_w20 + shift)
        else:
            h_w21 = self._grouped_work_entropy(t2 * p1[None, :])
            value = 0.5 * (h_w21 + h_w10 - h_w20 - h_p1 + shift)
        return value, _checked_budget(self.tail, 1.0 - float(colsum2 @ p1),
                                      deficit_no_middle, self.beta, r1, r2, self.n_max)


def entropic_k3_oscillator(beta: float, r1: float, r2: float,
                           n_max: int | None = None, degeneracy: str = "fine",
                           middle_entropy: str = "initial") -> tuple[float, float]:
    """The entropic macrorealism parameter in nats and the truncation budget of its run.

    `middle_entropy` picks the distribution whose entropy enters as H(E1):
    "measured" uses the middle marginal of the three-point protocol (the literal
    reading of the bound), "initial" evaluates it on the thermal populations
    instead.  The initial-state variant remains a valid witness (the squeeze
    transition matrix is doubly stochastic, so the propagated marginal can only
    gain entropy); it is the default for the sweeps because it keeps the
    temperature dependence of the violation depth monotone, which the strict
    variant does not.  Both are cross-checked in the module tests.

    One `_Legs` cell, the routine every oscillator sweep runs.
    """
    _check_conventions(degeneracy, middle_entropy)
    if n_max is None:
        n_max = select_n_max(beta, r1 + r2)
    value, budget = _Legs(beta, n_max, degeneracy, f"r1={r1}, r2={r2}").cell(
        r1, r2, middle_entropy)
    return float(value), budget


def golden_section_minimum(f, a: float, b: float, xtol: float = 1e-4):
    """Minimizer of a unimodal function on [a, b], located to within xtol."""
    if not b > a:
        raise InvalidParameterError("need b > a")
    if not 0.0 < xtol < math.inf:
        raise InvalidParameterError(f"xtol must be positive and finite, got {xtol}")
    h = b - a
    if h <= xtol:
        x = 0.5 * (a + b)
        return x, f(x)
    c = b - INV_PHI * h
    d = a + INV_PHI * h
    fc, fd = f(c), f(d)
    while (b - a) > xtol:
        width = b - a
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = f(d)
        if b - a >= width:
            raise InvalidParameterError(
                f"xtol={xtol} is below the float spacing the bracket [{a}, {b}] can reach")
    return (c, fc) if fc < fd else (d, fd)


def diagonal_scan(beta: float, r_grid: np.ndarray, degeneracy: str = "fine",
                  middle_entropy: str = "initial") -> SweepTable:
    """K_en in nats along the r1 = r2 = r line.  meta["sign_change_bracketed"] is
    whether the parameter turns positive again on the grid after its dip, so that
    the zero crossing beyond the minimum lies inside it."""
    r_values = [float(r) for r in np.asarray(r_grid, dtype=float)]
    if not r_values or min(r_values) < 0:
        raise InvalidParameterError("r grid must be non-empty and non-negative")
    rows = []
    seen_negative = False
    crossed_back = False
    for r in r_values:
        if r == 0.0:
            rows.append((0.0, 0.0, 0, 0.0))
            continue
        n_max = select_n_max(beta, 2.0 * r)
        value, budget = entropic_k3_oscillator(beta, r, r, n_max=n_max,
                                               degeneracy=degeneracy,
                                               middle_entropy=middle_entropy)
        rows.append((r, value, n_max, budget))
        seen_negative = seen_negative or value < 0.0
        crossed_back = crossed_back or (seen_negative and value > 0.0)
    return SweepTable(
        ["r", "k_en", "n_max", "truncation_budget"],
        np.array(rows),
        meta={"experiment": "squeeze-diagonal", "beta": beta, "degeneracy": degeneracy,
              "middle_entropy": middle_entropy, "sign_change_bracketed": crossed_back},
    )


def squeeze_grid_sweep(beta: float, r1_grid: np.ndarray, r2_grid: np.ndarray,
                       n_max: int | None = None, degeneracy: str = "fine",
                       middle_entropy: str = "initial") -> SweepTable:
    """K_en in nats over a rectangular (r1, r2) grid.

    One `_Legs` serves the whole sweep: every distinct amplitude among r1, r2 and
    r1 + r2 is built once and reduced to the vectors its cells need.  The grouped
    convention needs the whole r2 joint per cell, so it builds the r2 matrix once
    per grid column.  Raises TruncationError at the first cell whose budget
    exceeds MAX_BUDGET.
    """
    _check_conventions(degeneracy, middle_entropy)
    r1_grid = np.asarray(r1_grid, dtype=float)
    r2_grid = np.asarray(r2_grid, dtype=float)
    for grid in (r1_grid, r2_grid):
        if grid.size == 0 or np.any(grid < 0) or not np.all(np.isfinite(grid)):
            raise InvalidParameterError("grids must be non-empty, finite, non-negative")
    if n_max is None:
        n_max = select_n_max(beta, float(r1_grid.max()) + float(r2_grid.max()))
    legs = _Legs(beta, n_max, degeneracy,
                 f"r grid up to ({r1_grid.max():g}, {r2_grid.max():g})")
    rows = np.empty((r1_grid.size * r2_grid.size, 4))
    worst_budget = 0.0
    for j, r2 in enumerate(r2_grid):
        t2 = None if degeneracy == "fine" else _squeeze_transitions(float(r2), n_max)
        for i, r1 in enumerate(r1_grid):
            value, budget = legs.cell(r1, r2, middle_entropy, t2)
            worst_budget = max(worst_budget, budget)
            rows[i * r2_grid.size + j] = (r1, r2, value, budget)
    return SweepTable(
        ["r1", "r2", "k_en", "truncation_budget"], rows,
        meta={"experiment": "squeeze-grid", "beta": beta, "n_max": n_max,
              "degeneracy": degeneracy, "middle_entropy": middle_entropy,
              "thermal_tail": legs.tail, "worst_truncation_budget": worst_budget},
    )


def beta_sweep_min_k(beta_grid, r_grid: np.ndarray | None = None,
                     degeneracy: str = "fine", middle_entropy: str = "initial") -> SweepTable:
    """Per beta: the deepest K_en (in nats) on the r1 = r2 line and where it sits.

    A coarse geometric scan brackets the single dip (stopping once the parameter
    has risen well past it), then golden-section search refines the minimizer to
    REFINE_XTOL.  The coarse scan selects the truncation per point and the
    refinement holds it fixed; each (beta, n_max) gets one `_Legs`.  Raises
    InvalidParameterError unless `r_grid` is strictly increasing with at least two
    points, where the deepest coarse point is the grid's last, since the dip may
    then lie beyond the grid, and where the refined minimizer sits within
    REFINE_XTOL of the grid's first point, since the dip may then lie below it.
    """
    _check_conventions(degeneracy, middle_entropy)
    if r_grid is None:
        r_grid = np.geomspace(0.004, 0.8, 20)
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.size < 2 or np.any(np.diff(r_grid) <= 0):
        raise InvalidParameterError(
            "r grid must be strictly increasing, with at least two points")
    rows = []
    for beta in map(float, np.asarray(beta_grid, dtype=float)):
        legs: dict[int, _Legs] = {}
        budgets: dict[float, float] = {}

        def k_of_r(r: float, n_max: int, _beta=beta, _legs=legs, _budgets=budgets) -> float:
            if n_max not in _legs:
                _legs[n_max] = _Legs(_beta, n_max, degeneracy, f"r1=r2={r}")
            value, _budgets[r] = _legs[n_max].cell(r, r, middle_entropy)
            return float(value)

        coarse: list[tuple[float, float]] = []
        best = math.inf
        for r in map(float, r_grid):
            value = k_of_r(r, select_n_max(beta, r + r))
            coarse.append((r, value))
            best = min(best, value)
            if best < 0.0 and value >= 0.0:
                break
            if len(coarse) > 4 and value > best + 0.5 * abs(best):
                break
        i0 = min(range(len(coarse)), key=lambda k: coarse[k][1])
        if i0 == r_grid.size - 1:
            raise InvalidParameterError(
                f"K_en still falls at the last point of the r grid at beta={beta}, "
                f"r={coarse[i0][0]}; extend the grid past the dip")
        lo = coarse[max(0, i0 - 1)][0]
        hi = coarse[i0 + 1][0]
        n_max = select_n_max(beta, 2.0 * hi)
        # the minimizer is always a point golden_section_minimum evaluated, at n_max
        argmin_r, min_value = golden_section_minimum(lambda r: k_of_r(r, n_max), lo, hi,
                                                     xtol=REFINE_XTOL)
        if i0 == 0 and argmin_r - lo < REFINE_XTOL:
            raise InvalidParameterError(
                f"K_en still rises from the first point of the r grid at beta={beta}, "
                f"r={lo}; extend the grid below the dip")
        rows.append((beta, min_value, argmin_r, n_max, budgets[argmin_r]))
    table = SweepTable(
        ["beta", "min_k_en", "argmin_r", "n_max", "truncation_budget"],
        np.array(rows),
        meta={"experiment": "squeeze-beta", "degeneracy": degeneracy,
              "middle_entropy": middle_entropy, "refine_xtol": REFINE_XTOL},
    )
    depth = table.column("min_k_en")
    argmin = table.column("argmin_r")
    betas = table.column("beta")
    table.meta["depth_shallows_with_beta"] = bool(depth[-1] > depth[0])
    interior = int(np.argmax(argmin))
    table.meta["argmin_r_peak_beta"] = float(betas[interior])
    table.meta["argmin_r_peak_interior"] = bool(0 < interior < betas.size - 1)
    return table
