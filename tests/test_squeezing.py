import functools
import importlib.machinery
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from workreal import (
    InvalidParameterError,
    TruncationError,
    compose_propagators,
    entropic_k3_oscillator,
    jarzynski_deviation,
    oscillator_three_time,
    select_n_max,
    squeeze_matrix_closed_form,
    thermal_tail_mass,
    total_work_distribution,
    work_distribution,
)
import workreal.hilbert as hilbert
import workreal.squeezing as squeezing
from workreal.entropy import _nats
from workreal.leggett_garg import _entropy_reports, k3_entropic
from workreal.squeezing import (
    ALIGN,
    N_MAX_CAP,
    PADDING,
    PANEL,
    SUPPORT_TOL,
    THERMAL_TAIL_TOL,
    _aligned,
    _budget,
    _check_conventions,
    _column_entropies,
    _parity_basis,
    _parity_columns,
    _squeeze_transitions,
    beta_sweep_min_k,
    golden_section_minimum,
    squeeze_grid_sweep,
)

from conftest import (entropic_k3_from_protocol, squeeze_matrix_exponential_oracle,
                      squeeze_propagator, squeeze_transition_probabilities)

G00_HALF = 0.94171061583167571  # sech(1/2)^(1/2), frozen at 40 digits
KERNEL_SIZES = (1, 2, 3, 64, 65, 128, 191, 448, 1024)
KERNEL_AMPLITUDES = (0.0, 0.01, 0.05, 0.2, 1.0)
BASIS_SIZES = (130, 131, 193, 578, 1153)


def series_element(m, n, r, dps=60):
    """<m|exp[(r/2)(adag^2 - a^2)]|n> from the closed-form series of Kim,
    de Oliveira & Knight (PRA 40, 2494 (1989)), summed in arbitrary precision:

        G_mn = (-1)^floor(n/2) sqrt(m! n!) sech(r)^(1/2) (2 cosh r)^(-(m+n)/2)
               * sum_i (-4)^i sinh(r)^((m+n)/2 - 2i - p) 2^p
                       / [(2i+p)! ((m-p)/2 - i)! ((n-p)/2 - i)!]

    with p = m mod 2, and zero when m + n is odd.  The alternating sum cancels
    badly in float64 at large m and n; 60 digits keep every term exact enough.
    """
    import mpmath as mp
    if (m + n) % 2:
        return 0.0
    p = m % 2
    with mp.workdps(dps):
        sh, ch = mp.sinh(mp.mpf(r)), mp.cosh(mp.mpf(r))
        total = mp.fsum((-4) ** i * sh ** ((m + n) // 2 - 2 * i - p) * 2 ** p
                        / (mp.factorial(2 * i + p) * mp.factorial((m - p) // 2 - i)
                           * mp.factorial((n - p) // 2 - i))
                        for i in range(min(m, n) // 2 + 1))
        value = (-1) ** (n // 2) * mp.sqrt(mp.factorial(m) * mp.factorial(n) / ch) \
            * total / (2 * ch) ** ((m + n) // 2)
        return float(value)


def parity_generator(size, p):
    """(diagonal, off-diagonal) of the parity generator S on the levels p, p + 2,
    ... below size (see the `squeezing` module doc)."""
    levels = np.arange(p, size - 2, 2, dtype=float)
    return np.zeros(levels.size + 1), 0.5 * np.sqrt((levels + 1.0) * (levels + 2.0))


def run_fresh(code, *args, threads=None):
    """stdout of `code` run with `args` in a fresh interpreter on this package,
    with OPENBLAS_NUM_THREADS set to `threads` unless that is None."""
    import workreal
    env = {**os.environ, "PYTHONPATH": str(Path(workreal.__file__).resolve().parents[1])}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    result = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                            text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.fixture(scope="module")
def one_thread_eigenvectors(tmp_path_factory):
    """{(size, p): (eigenvalues, eigenvectors)} for BASIS_SIZES from
    `eigh_tridiagonal` in a fresh interpreter under OPENBLAS_NUM_THREADS=1: scipy
    as it is, without this package's pin."""
    folder = tmp_path_factory.mktemp("eigenvectors")
    cases = [(size, p) for size in BASIS_SIZES for p in (0, 1)]
    keys = [f"_{size}_{p}" for size, p in cases]
    generators = {}
    for key, case in zip(keys, cases):
        generators["d" + key], generators["e" + key] = parity_generator(*case)
    np.savez(folder / "generators.npz", **generators)
    run_fresh("import sys\n"
              "import numpy as np\n"
              "from scipy.linalg import eigh_tridiagonal\n"
              "bases = {}\n"
              "with np.load(sys.argv[1]) as generator:\n"
              f"    for key in {keys!r}:\n"
              "        bases['lam' + key], bases['vec' + key] = eigh_tridiagonal(\n"
              "            generator['d' + key], generator['e' + key])\n"
              "np.savez(sys.argv[2], **bases)\n",
              str(folder / "generators.npz"), str(folder / "bases.npz"), threads="1")
    with np.load(folder / "bases.npz") as bases:
        return {case: (bases["lam" + key], bases["vec" + key]) for key, case in zip(keys, cases)}


def parity_columns_oracle(r, size, n_cols, p):
    """The parity block of the kernel in its original formulation, from a fresh
    eigenbasis: two full GEMMs over every padded row, the cos or sin part picked
    per entry by `np.where` on the parity of j - k, and the real or imaginary part
    of i^(j - k) read off an `offset % 4` table.  Returns (block, sign table)."""
    lam, vec = eigh_tridiagonal(*parity_generator(size + PADDING, p))
    right = vec[: (n_cols - p + 1) // 2].T
    cos_part = vec @ (np.cos(r * lam)[:, None] * right)
    sin_part = vec @ (np.sin(r * lam)[:, None] * right)
    offset = np.arange(vec.shape[0])[:, None] - np.arange(right.shape[1])[None, :]
    sign = np.where(offset % 4 < 2, 1.0, -1.0)
    return np.where(offset % 2 == 0, cos_part, sin_part), sign


def column_entropies_oracle(t):
    """-sum_m t log t per column, with the log over the whole matrix."""
    return -np.einsum("mn,mn->n", t, np.log(np.where(t > 0.0, t, 1.0)))


class TestKernelPaths:
    """The unsigned transitions path and the strided signs must reproduce the
    signed kernel bit for bit."""

    @pytest.mark.parametrize("n_max", KERNEL_SIZES)
    def test_signed_blocks_equal_the_offset_table_oracle(self, n_max):
        """The kernel's unsigned blocks over every padded row against the two full
        GEMMs, which group and split the sums differently (hence 1e-15), and the
        public matrix's signed blocks against the sign table, exactly."""
        size = n_max + 1
        for r in KERNEL_AMPLITUDES[1:]:
            signed = squeeze_matrix_closed_form(r, n_max).g
            for n_cols in {size, (size + 1) // 2}:
                for p in (0, 1):
                    got = _parity_columns(r, size, n_cols, p, (0, None))
                    plain, sign = parity_columns_oracle(r, size, n_cols, p)
                    assert np.abs(got - plain).max(initial=0.0) <= 1e-15
                    large = np.abs(plain) > 1e-12
                    assert np.array_equal(np.signbit(sign * got)[large],
                                          np.signbit(sign * plain)[large])
                    if n_cols == size:
                        n_levels = (size - p + 1) // 2
                        kept = sign[:n_levels] * _parity_columns(r, size, size, p,
                                                                 (0, n_levels))
                        assert np.array_equal(signed[p::2, p::2], kept)
                        assert np.array_equal(np.signbit(signed[p::2, p::2]),
                                              np.signbit(kept))

    @pytest.mark.parametrize("n_max", KERNEL_SIZES)
    def test_transitions_equal_the_squared_closed_form(self, n_max):
        """Over the amplitudes in turn, revisiting 0.05 and 0 after larger ones, so
        that anything a build left behind for the next would show."""
        for r in KERNEL_AMPLITUDES + (0.05, 0.0, 0.01):
            closed = squeeze_matrix_closed_form(r, n_max)
            t = _squeeze_transitions(r, n_max)
            assert np.array_equal(t, squeeze_transition_probabilities(closed))
            assert np.array_equal(_column_entropies(t), column_entropies_oracle(t))

    @pytest.mark.parametrize("size", BASIS_SIZES)
    def test_basis_halves_are_the_eigenvector_rows(self, size, one_thread_eigenvectors):
        """The cached halves hold the eigenvector rows at even and odd positions,
        transposed and contiguous, and zeros in the columns that align them to
        ALIGN; bit for bit against `eigh_tridiagonal` on one BLAS thread, which is
        what the pinned cache computes whatever the thread count."""
        for p in (0, 1):
            lam, vec = one_thread_eigenvectors[size, p]
            cached = _parity_basis(size, p)
            assert np.array_equal(cached[0], lam)
            for q, half in enumerate(cached[1:]):
                rows = vec[q::2].shape[0]
                assert half.flags.c_contiguous and half.shape[0] == lam.size
                assert half.shape[1] % ALIGN == 0 and half.shape[1] - rows < ALIGN
                assert np.array_equal(half[:, :rows], vec[q::2].T)
                assert not half[:, rows:].any()

    def test_grid_sweep_reruns_are_equal(self):
        """Two sweeps of each convention in one process give the same rows; the
        grouped ones hold their r2 matrix while the r1 legs are built."""
        grid = np.array([0.0, 0.03, 0.08])
        rows = {}
        for degeneracy in ("fine", "grouped", "fine", "grouped"):
            table = squeeze_grid_sweep(beta=1.0, r1_grid=grid, r2_grid=grid[::-1],
                                       n_max=96, degeneracy=degeneracy)
            rows.setdefault(degeneracy, []).append(table.rows)
        for first, second in rows.values():
            assert np.array_equal(first, second)
        assert not np.array_equal(rows["fine"][0], rows["grouped"][0])


@functools.lru_cache(maxsize=4)
def one_thread_halves(size, p):
    """Eigenvalues and the contiguous even- and odd-position eigenvector rows of the
    parity generator, straight off `eigh_tridiagonal` on one BLAS thread."""
    lam, vec = squeezing._on_one_blas_thread(eigh_tridiagonal)(*parity_generator(size, p))
    return lam, np.ascontiguousarray(vec[0::2]), np.ascontiguousarray(vec[1::2])


def untiled_parity_columns(r, size, n_cols, p, rows, squared=False):
    """`_parity_columns` in its row-major formulation, on `one_thread_halves`
    (computed on one BLAS thread, as the kernel's cached basis is): one product
    per PANEL-wide panel of the eigen index over the span `rows`, the first panel
    written and each later one added."""
    lam, *halves = one_thread_halves(size + PADDING, p)
    lo, hi = rows[0], lam.size if rows[1] is None else rows[1]
    cols = (n_cols - p + 1) // 2
    widths = (_aligned((cols + 1) // 2), _aligned(cols // 2))
    out = np.empty((hi - lo, cols))
    parts = (np.cos(r * lam)[:, None], np.sin(r * lam)[:, None])
    for q in (0, 1):
        first, stop = (lo - q + 1) // 2, (hi - q + 1) // 2
        if stop <= first:
            continue
        operand = np.empty((lam.size, sum(widths)))
        np.multiply(parts[q], halves[0][: widths[0]].T, out=operand[:, : widths[0]])
        np.multiply(parts[1 - q], halves[1][: widths[1]].T, out=operand[:, widths[0]:])
        left = halves[q][first:stop]
        product = left[:, :PANEL] @ operand[:PANEL]
        for k in range(PANEL, lam.size, PANEL):
            product += left[:, k: k + PANEL] @ operand[k: k + PANEL]
        dest = out[2 * first + q - lo::2]
        for parity, start in ((0, 0), (1, widths[0])):
            block = product[:, start: start + (cols - parity + 1) // 2]
            dest[:, parity::2] = block * block if squared else block
    return out


def build_calls(n_max):
    """(size, n_cols, p, rows) of the kernel calls of a sweep build at n_max, which
    `squeeze_matrix_closed_form` makes too before the one for its padded rows."""
    size = n_max + 1
    return [(size, size, p, (0, (size - p + 1) // 2)) for p in (0, 1)]


def search_calls(upper, lowers, supports):
    """(size, n_cols, p, rows) of the kernel calls `select_n_max` makes on a build
    padded past `upper`, for each first candidate cut and occupied support."""
    return [(upper + 1, support + 1, p, ((lower - p) // 2 + 1, None))
            for lower in lowers for support in supports if support <= lower
            for p in (0, 1)]


def cpu_burnt_after(builds):
    """CPU seconds a fresh interpreter burns in 0.2 s of sleep right after running
    the code `builds`, with `_squeeze_transitions` imported."""
    return float(run_fresh(
        "import resource, time\n"
        "from workreal.squeezing import _squeeze_transitions\n"
        "def cpu():\n"
        "    usage = resource.getrusage(resource.RUSAGE_SELF)\n"
        "    return usage.ru_utime + usage.ru_stime\n"
        f"{builds}\n"
        "before = cpu()\n"
        "time.sleep(0.2)\n"
        "print(cpu() - before)\n"))


class TestTiledProducts:
    """The kernel and its eigensolver run on the calling thread: one product per
    panel rounds each entry as the row-major oracle does, and no BLAS thread
    count changes a bit or leaves a worker spinning."""

    @pytest.mark.parametrize("n_max", [1, 2, 63, 64, 128, 192, 320, 448, 960, 1408])
    def test_tiled_kernel_equals_the_untiled_one(self, n_max):
        """Bit for bit against `untiled_parity_columns`, sign bits included,
        squared and not, over the kept rows, the padded rows and the rows a search
        reads, revisiting each small amplitude after a larger one; n_max 960 sums
        two panels and n_max 1408 three, whose order matters, n_max 1 and 2
        have one-row spans, which numpy sends to gemv, and n_max 128 and 192 are
        the sizes of most default squeeze-beta builds."""
        size = n_max + 1
        lower = 64 * (n_max // 128) if n_max >= 128 else n_max // 2
        calls = build_calls(n_max) + [
            (size, size, p, ((size - p + 1) // 2, None)) for p in (0, 1)
        ] + search_calls(n_max, [lower], [0, lower // 2])
        for size_, n_cols, p, rows in calls:
            for r in (0.01, 0.2, 1.0):
                for squared in (False, True):
                    want = untiled_parity_columns(r, size_, n_cols, p, rows, squared)
                    got = _parity_columns(r, size_, n_cols, p, rows, squared=squared)
                    assert np.array_equal(got, want)
                    assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_a_warm_build_leaves_no_blas_worker_spinning(self):
        """In a fresh interpreter, a second n_max 448 build burns (almost) no CPU
        after it returns: its products run on the calling thread, so neither BLAS
        pool has a worker left spinning.  Unpinned, a process burned 0.12-0.13 s
        of CPU in the next 0.2 s of sleep on a 2-vCPU VM.  On a single core
        OpenBLAS starts no workers, so there the test passes trivially."""
        assert cpu_burnt_after("_squeeze_transitions(0.05, 448)\n"
                               "time.sleep(0.4)\n"
                               "_squeeze_transitions(0.06, 448)") < 0.02

    def test_a_cold_build_leaves_no_blas_worker_spinning(self):
        """As the warm test, for the first build, whose eigendecomposition of 289
        levels calls dgemm in its merges: unpinned, scipy's pool then spun for
        0.116-0.123 s of CPU on a 2-vCPU VM.  Passes trivially on one core."""
        assert cpu_burnt_after("_squeeze_transitions(0.05, 448)") < 0.02

    @pytest.mark.parametrize("size", [1153, 2945])
    def test_basis_bits_do_not_depend_on_the_blas_thread_count(self, size):
        """The cached eigenbases at 577 and 1473 levels per parity hash the same
        under one and two OpenBLAS threads; unpinned, `eigh_tridiagonal` rounded
        some of their entries by thread count (313k entries at 1473 levels)."""
        code = ("import hashlib\n"
                "from workreal.squeezing import _parity_basis\n"
                "digest = hashlib.sha256()\n"
                "for p in (0, 1):\n"
                f"    for array in _parity_basis({size}, p):\n"
                "        digest.update(array.tobytes())\n"
                "print(digest.hexdigest())\n")
        assert run_fresh(code, threads="1") == run_fresh(code, threads="2")

    def test_both_blas_pools_are_pinned_and_restored(self, monkeypatch):
        """numpy's and scipy's scipy-openblas libraries are both found; both run
        one thread inside the kernel and inside its eigensolver, and are back at
        their former counts after a build, also after one that raises and after
        one whose eigensolver reports a LAPACK failure."""
        pools = hilbert._blas_pools()
        assert len(pools) == 2

        def counts():
            return [get() for get, _ in pools]

        former = counts()
        inside = {"kernel": [], "eigensolver": []}
        basis = squeezing._parity_basis
        dstevd = squeezing._dstevd

        def kernel_basis(*args):
            inside["kernel"].append(counts())
            return basis(*args)

        def eigensolver(*args, **kwargs):
            inside["eigensolver"].append(counts())
            return dstevd(*args, **kwargs)

        def failing(*args, **kwargs):
            raise RuntimeError("eigensolver failed")

        def not_converged(*args, **kwargs):
            w, v, _ = dstevd(*args, **kwargs)
            return w, v, 1

        monkeypatch.setattr(squeezing, "_parity_basis", kernel_basis)
        monkeypatch.setattr(squeezing, "_dstevd", eigensolver)
        try:
            for _, put in pools:
                put(2)
            basis.cache_clear()
            _squeeze_transitions(0.05, 65)
            assert inside == {"kernel": [[1, 1]] * 2, "eigensolver": [[1, 1]] * 2}
            assert counts() == [2, 2]
            monkeypatch.setattr(squeezing, "_dstevd", failing)
            with pytest.raises(RuntimeError):
                _squeeze_transitions(0.05, 66)
            assert counts() == [2, 2]
            monkeypatch.setattr(squeezing, "_dstevd", not_converged)
            with pytest.raises(np.linalg.LinAlgError, match="info=1"):
                _squeeze_transitions(0.05, 67)
            assert counts() == [2, 2]
        finally:
            for (_, put), count in zip(pools, former):
                put(count)
            basis.cache_clear()


class TestEigensolverLoad:
    """`_dstevd` is scipy's `dstevd` wrapper, loaded without the `scipy.linalg`
    package: one extension module object whatever imports it later, and the same
    bits through the public fallback."""

    BASIS_DIGEST = ("import hashlib\n"
                    "digest = hashlib.sha256()\n"
                    "for size in (1153, 2945):\n"
                    "    for p in (0, 1):\n"
                    "        for array in squeezing._parity_basis(size, p):\n"
                    "            digest.update(array.tobytes())\n"
                    "print(digest.hexdigest())\n")

    def test_a_later_scipy_linalg_import_reuses_the_loaded_extension(self):
        """Built before `scipy.linalg` is imported, then compared with the public
        `eigh_tridiagonal`'s `stevd` driver bit for bit."""
        code = ("import sys\n"
                "import numpy as np\n"
                + inspect.getsource(parity_generator) +
                "import workreal.squeezing as squeezing\n"
                "squeezing._parity_basis(193, 0)\n"
                "assert 'scipy.linalg' not in sys.modules\n"
                "loaded = sys.modules['scipy.linalg._flapack']\n"
                "import scipy.linalg\n"
                "assert scipy.linalg.lapack._flapack is sys.modules['scipy.linalg._flapack']\n"
                "assert scipy.linalg.lapack._flapack is loaded\n"
                "assert squeezing._dstevd is loaded.dstevd\n"
                "for size in (193, 577, 1473):\n"
                "    for p in (0, 1):\n"
                "        d, e = parity_generator(size, p)\n"
                "        public = scipy.linalg.eigh_tridiagonal(d, e, lapack_driver='stevd')\n"
                "        direct = squeezing._dstevd(d, e)[:2]\n"
                "        for a, b in zip(public, direct):\n"
                "            assert a.tobytes() == b.tobytes(), (size, p)\n"
                "print('ok')\n")
        assert run_fresh(code).strip() == "ok"

    def test_the_public_fallback_gives_the_same_bases(self):
        """With the file lookup forced to miss, `_dstevd` is the public wrapper and
        the cached bases hash as they do through the direct load."""
        direct = run_fresh("import workreal.squeezing as squeezing\n" + self.BASIS_DIGEST)
        fallback = run_fresh("import importlib.machinery, sys\n"
                             "importlib.machinery.EXTENSION_SUFFIXES = []\n"
                             "import workreal.squeezing as squeezing\n"
                             "assert 'scipy.linalg' in sys.modules\n"
                             "import scipy.linalg.lapack\n"
                             "assert squeezing._dstevd is scipy.linalg.lapack.dstevd\n"
                             + self.BASIS_DIGEST)
        assert fallback == direct

    def test_an_unloadable_file_falls_back(self, tmp_path):
        """Where scipy's folder holds a `_flapack` file that will not load, the
        public wrapper serves: in a fresh interpreter, whose `scipy.linalg` is not
        yet imported, the cached bases hash as they do through the direct load."""
        linalg = tmp_path / "scipy" / "linalg"
        linalg.mkdir(parents=True)
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        (linalg / f"_flapack{suffix}").write_bytes(b"not a shared object")
        direct = run_fresh("import workreal.squeezing as squeezing\n" + self.BASIS_DIGEST)
        fallback = run_fresh("import os, sys\n"
                             "import scipy\n"
                             "installed, scipy.__file__ = scipy.__file__, sys.argv[1]\n"
                             "import workreal.squeezing as squeezing\n"
                             "scipy.__file__ = installed\n"
                             "assert 'scipy.linalg' in sys.modules\n"
                             "import scipy.linalg.lapack\n"
                             "assert squeezing._dstevd is scipy.linalg.lapack.dstevd\n"
                             "loaded = sys.modules['scipy.linalg._flapack'].__file__\n"
                             "assert loaded.startswith(os.path.dirname(installed))\n"
                             + self.BASIS_DIGEST, str(tmp_path / "scipy" / "__init__.py"))
        assert fallback == direct

    @pytest.mark.parametrize("unloadable", [False, True])
    def test_the_fallback_branch_in_process(self, tmp_path, monkeypatch, unloadable):
        """A missing and an unloadable file in this process, where a line trace sees
        the branch: with scipy's `_flapack` module taken out of `sys.modules`,
        `_load_dstevd` returns the public wrapper and leaves no half-loaded module
        behind."""
        import types
        import scipy.linalg.lapack
        linalg = tmp_path / "scipy" / "linalg"
        linalg.mkdir(parents=True)
        if unloadable:
            suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
            (linalg / f"_flapack{suffix}").write_bytes(b"not a shared object")
        monkeypatch.setattr(squeezing, "scipy",
                            types.SimpleNamespace(__file__=str(tmp_path / "scipy" / "x.py")))
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        dstevd = squeezing._load_dstevd()
        assert "scipy.linalg._flapack" not in sys.modules
        assert dstevd is scipy.linalg.lapack.dstevd


class TestClosedForm:
    def test_zero_squeeze_is_identity(self):
        np.testing.assert_array_equal(squeeze_matrix_closed_form(0.0, 8).g, np.eye(9))

    def test_parity_zeros_are_structural(self):
        g = squeeze_matrix_closed_form(0.7, 31).g
        m, n = np.indices(g.shape)
        assert np.all(g[(m + n) % 2 == 1] == 0.0)

    def test_vacuum_overlap(self):
        g = squeeze_matrix_closed_form(0.5, 16).g
        assert g[0, 0] == pytest.approx(G00_HALF, rel=1e-14)
        assert g[0, 1] == 0.0

    def test_column_one_decouples_for_all_amplitudes(self):
        for r in (0.05, 0.4, 1.3):
            assert squeeze_matrix_closed_form(r, 12).g[0, 1] == 0.0

    def test_transpose_symmetry_up_to_parity_sign(self):
        g = squeeze_matrix_closed_form(0.3, 20).g
        for m in range(0, 20, 2):
            for n in range(m + 2, 20, 2):
                assert g[n, m] == pytest.approx((-1.0) ** ((n - m) // 2) * g[m, n],
                                                rel=1e-10, abs=1e-18)

    def test_oracle_gate(self):
        """The build gate: closed form against the matrix exponential on the
        low corner at weak, moderate, and strong squeezing."""
        for r in (0.02, 0.2, 1.0):
            closed = squeeze_matrix_closed_form(r, 240)
            oracle = squeeze_matrix_exponential_oracle(r, 240)
            assert np.abs(closed.g[:21, :21] - oracle.g[:21, :21]).max() < 1e-8

    def test_low_corner_matches_the_series(self):
        """Every element with m, n <= 20 against the arbitrary-precision series, at
        weak, moderate and strong squeezing."""
        for r in (0.02, 0.2, 1.0):
            g = squeeze_matrix_closed_form(r, 20).g
            series = np.array([[series_element(m, n, r) for n in range(21)]
                               for m in range(21)])
            assert np.abs(g - series).max() < 1e-13

    def test_deep_elements_match_the_series(self):
        """Where the float64 series cancels (m, n in the hundreds), the kernel still
        holds to 1e-12 absolute."""
        g = squeeze_matrix_closed_form(0.2, 384).g
        for m, n in ((100, 100), (120, 180), (200, 160), (250, 250), (300, 300),
                     (300, 240), (151, 201), (101, 299), (280, 220)):
            assert g[m, n] == pytest.approx(series_element(m, n, 0.2), abs=1e-12)

    def test_column_defects_are_the_leak_past_n_max(self):
        """At beta = 0.1, r = 0.2 and n_max = 384, the worst occupied column leaks
        more than the selection tolerance; the defect must report that leak as an
        expm oracle on twice the levels sees it."""
        defects = squeeze_matrix_closed_form(0.2, 384).column_defects[:231]
        oracle = squeeze_matrix_exponential_oracle(0.2, 784).g
        leak = (oracle[385:, :231] ** 2).sum(axis=0)
        assert defects.max() == pytest.approx(leak.max(), rel=1e-6)
        assert int(np.argmax(defects)) == int(np.argmax(leak))
        assert defects.max() > 1e-10

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidParameterError):
            squeeze_matrix_closed_form(-0.2, 10)
        with pytest.raises(InvalidParameterError):
            squeeze_matrix_closed_form(0.2, 0)

    def test_column_defect_matches_independent_recount(self):
        """The reported defect of the truncated matrix must equal a direct
        arbitrary-precision recount of the same column norms."""
        import mpmath as mp
        matrix = squeeze_matrix_closed_form(0.5, 100)
        defects = matrix.column_defects
        worst = int(np.argmax(defects))
        mp.mp.dps = 40
        column = [mp.mpf(float(x)) for x in matrix.g[:, worst]]
        recount = abs(1 - mp.fsum(x * x for x in column))
        assert defects[worst] == pytest.approx(float(recount), rel=1e-10)

    def test_unitarity_deviation_matches_independent_recount(self):
        """validate_unitary on the truncated matrix reports the worst entry of
        G^T G - 1; recompute that entry in arbitrary precision."""
        import mpmath as mp
        from workreal import validate_unitary
        matrix = squeeze_matrix_closed_form(0.5, 100)
        reported = validate_unitary(matrix.g)
        gram = matrix.g.T @ matrix.g - np.eye(101)
        a, b = np.unravel_index(np.abs(gram).argmax(), gram.shape)
        mp.mp.dps = 40
        entry = mp.fsum(mp.mpf(float(matrix.g[m, a])) * mp.mpf(float(matrix.g[m, b]))
                        for m in range(101)) - (1 if a == b else 0)
        assert reported == pytest.approx(abs(float(entry)), rel=1e-10)
        # the deviation concentrates where the truncation bites
        assert min(a, b) > 50


class TestExponentialOracle:
    def test_zero_squeeze(self):
        np.testing.assert_array_equal(squeeze_matrix_exponential_oracle(0.0, 5).g,
                                      np.eye(6))

    def test_unitarity_defect_inside_trusted_band(self):
        for r in (0.3, 1.0):
            matrix = squeeze_matrix_exponential_oracle(r, 128)
            band = matrix.g[:, :65]
            assert np.abs(band.T @ band - np.eye(65)).max() < 1e-10

    def test_two_truncations_agree_where_converged(self):
        small = squeeze_matrix_exponential_oracle(0.5, 96)
        large = squeeze_matrix_exponential_oracle(0.5, 192)
        assert np.abs(small.g[:33, :33] - large.g[:33, :33]).max() < 1e-10


class TestComposition:
    def test_squeezes_compose_additively(self):
        # trusted band: columns whose squeezed support clears the truncation edge
        n_max = 160
        u1 = squeeze_propagator(squeeze_matrix_closed_form(0.2, n_max))
        u2 = squeeze_propagator(squeeze_matrix_closed_form(0.3, n_max))
        composed = compose_propagators(u1, u2)
        direct = squeeze_matrix_closed_form(0.5, n_max).g
        assert np.abs(composed.matrix.real[:49, :49] - direct[:49, :49]).max() < 1e-8

    def test_no_middle_branch_equals_composed_squeeze(self):
        from workreal import build_thermal_state, two_time_joint_skipping_middle
        protocol = oscillator_three_time(1.0, 0.1, 0.15, n_max=64)
        rho0 = build_thermal_state(protocol.joint3.spectra[0], 1.0)
        u1 = squeeze_propagator(squeeze_matrix_closed_form(0.1, 64))
        u2 = squeeze_propagator(squeeze_matrix_closed_form(0.15, 64))
        via_compose = two_time_joint_skipping_middle(rho0, u1, u2,
                                                     spectrum_later=protocol.joint3.spectra[2],
                                                     norm_tol=1e-6)
        assert np.abs(via_compose.probs[:33, :33]
                      - protocol.no_middle.probs[:33, :33]).max() < 1e-8


def full_row_search_oracle(beta, r_total):
    """`_select_n_max_cached` as it was before the search read only the rows past
    its first candidate: the unsigned block over every padded row, from the two
    full GEMMs of `parity_columns_oracle`."""
    support_hi = squeezing._thermal_support(beta, SUPPORT_TOL)
    n_thermal = squeezing._thermal_support(beta, THERMAL_TAIL_TOL)
    lower = max(64 * max(1, math.ceil(n_thermal / 64)), squeezing._vacuum_cut(r_total))
    guess = int((support_hi + 8) * math.exp(min(2.0 * r_total, 10.0))) + 72
    upper = min(squeezing.N_MAX_CAP, max(lower, 64 * math.ceil(guess / 64)))
    while lower <= squeezing.N_MAX_CAP:
        worst = []
        for p in (0, 1):
            block = parity_columns_oracle(r_total, upper + 1, support_hi + 1, p)[0] ** 2
            worst.append(np.cumsum(block[::-1], axis=0)[::-1].max(axis=1, initial=0.0))
        for cut in range(lower, upper + 1, 64):
            if max(worst[p][(cut - p) // 2 + 1] for p in (0, 1)) < 1e-10:
                return cut
        lower, upper = upper + 64, min(squeezing.N_MAX_CAP, 2 * upper)
    return None


class TestTruncationSelection:
    def test_thermal_tail_is_exact_geometric(self):
        assert thermal_tail_mass(1.0, 10) == pytest.approx(math.exp(-11.0), rel=1e-14)

    def test_selection_meets_both_criteria(self):
        n_max = select_n_max(0.1, 0.2)
        assert n_max % 64 == 0
        assert thermal_tail_mass(0.1, n_max) < 1e-12
        defects = squeeze_matrix_closed_form(0.2, n_max).column_defects
        support = int(math.ceil(-math.log(1e-10) / 0.1))
        assert defects[:support].max() < 1e-10
        # smallest such multiple of 64: one step down breaks the leak criterion
        assert thermal_tail_mass(0.1, n_max - 64) < 1e-12
        below = squeeze_matrix_closed_form(0.2, n_max - 64).column_defects
        assert below[:support].max() >= 1e-10

    def test_grid_whose_largest_sum_overflows_is_refused_quietly(self):
        """r1 + r2 of the largest grid amplitudes is summed as Python floats, so an
        overflow is an inf that select_n_max refuses, with no numpy warning."""
        import warnings
        grid = np.array([0.0, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidParameterError, match="r_total must be finite"):
                squeeze_grid_sweep(1.0, grid, grid)

    def test_cap_fails_before_building(self, monkeypatch):
        """When the squeezed vacuum alone needs more than 8192 levels, the search
        raises without a single eigendecomposition; so it does past r ~ 3.6e306,
        where the quantization's r / 0.02 would overflow."""
        import workreal.squeezing as squeezing

        def no_build(*args):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(squeezing, "_parity_columns", no_build)
        for r_total in (4.0, 1e300, 1e307, sys.float_info.max):
            with pytest.raises(TruncationError) as excinfo:
                select_n_max(0.1, r_total)
            assert f"beta=0.1, r={r_total}" in str(excinfo.value)
        # the thermal tail alone past the cap, its support too large for a float
        for beta in (1e-308, 1e-310):
            with pytest.raises(TruncationError) as excinfo:
                select_n_max(beta, 0.1)
            assert f"beta={beta}" in str(excinfo.value) and "r=0.1" in str(excinfo.value)
        # the amplitude as given, not its 0.02-step cache key
        with pytest.raises(TruncationError) as excinfo:
            select_n_max(1e-310, 0.008)
        assert "beta=1e-310, r=0.008" in str(excinfo.value)

    def test_failed_search_drops_its_bases(self, monkeypatch):
        """A search that builds up to the cap and fails leaves no eigenbasis in the
        cache (at the 8192 cap, two 4161 x 4161 matrices, about 277 MB).  The cap
        is lowered to 512 so that the search fails after a few small builds."""
        import workreal.squeezing as squeezing
        built = []

        def counting(*args, **kwargs):
            built.append(args[1] + PADDING)
            return _parity_columns(*args, **kwargs)

        monkeypatch.setattr(squeezing, "N_MAX_CAP", 512)
        monkeypatch.setattr(squeezing, "_parity_columns", counting)
        with pytest.raises(TruncationError):
            select_n_max(0.123, 0.6)
        assert max(built) == 513 + PADDING
        assert _parity_basis.cache_info().currsize == 0

    @pytest.mark.parametrize("cap", [8192, 512])
    def test_row_limited_search_equals_the_full_row_oracle(self, monkeypatch, cap):
        """The search reads only the rows from its first candidate cut down; its
        choices, and its failures (under a cap lowered to 512), are those of the
        full-row search."""
        monkeypatch.setattr(squeezing, "N_MAX_CAP", cap)
        search = squeezing._select_n_max_cached.__wrapped__
        for beta in (0.1, 0.3, 1.0, 3.0, 10.0):
            for r_total in (0.0, 0.04, 0.2, 0.6, 1.0):
                want = full_row_search_oracle(beta, r_total)
                if want is None:
                    with pytest.raises(TruncationError):
                        search(beta, r_total)
                else:
                    assert search(beta, r_total) == want, (beta, r_total)
        squeezing._parity_basis.cache_clear()

    def test_low_temperature_needs_few_levels(self):
        assert select_n_max(10.0, 0.5) <= 128

    def test_beta_point_one_lands_near_four_hundred(self):
        assert 256 <= select_n_max(0.1, 0.2) <= 512


@pytest.mark.parametrize("beta", [0.1, 1.0])
@pytest.mark.parametrize("r", [0.02, 0.2])
def test_transition_matrix_doubly_stochastic_on_occupied_band(beta, r):
    """The "initial" middle-entropy witness rests on this: a doubly stochastic
    transition matrix cannot lower the entropy of the populations it carries.
    Rows and columns of the levels below the thermal support sum to one within
    the truncation budget of the run at n_max = select_n_max(beta, r)."""
    protocol = oscillator_three_time(beta, r, 0.0)
    assert protocol.n_max == select_n_max(beta, r)
    t = squeeze_transition_probabilities(squeeze_matrix_closed_form(r, protocol.n_max))
    band = int(math.ceil(-math.log(SUPPORT_TOL) / beta))
    assert np.abs(t.sum(axis=0)[:band] - 1.0).max() <= protocol.truncation_budget
    assert np.abs(t.sum(axis=1)[:band] - 1.0).max() <= protocol.truncation_budget


@given(beta=st.floats(0.1, 10.0), r1=st.floats(0.0, 0.3), r2=st.floats(0.0, 0.3))
@settings(max_examples=15, deadline=None)
def test_k_en_converged_within_its_budget(beta, r1, r2):
    """128 more levels than the automatic truncation move K_en by less than the
    truncation budget the run reports."""
    n_max = select_n_max(beta, r1 + r2)
    value, budget = entropic_k3_oscillator(beta, r1, r2)
    padded, _ = entropic_k3_oscillator(beta, r1, r2, n_max=n_max + 128)
    assert abs(value - padded) <= budget


class TestOscillatorProtocol:
    def test_zero_squeeze_keeps_thermal_diagonal(self):
        protocol = oscillator_three_time(1.0, 0.0, 0.0, n_max=64)
        cube = protocol.joint3.probs
        diag = np.einsum("kkk->k", cube)
        rho = np.exp(-np.arange(65.0))
        np.testing.assert_allclose(diag, rho / rho.sum(), atol=1e-15)
        assert cube.sum() == pytest.approx(1.0, abs=1e-12)

    def test_tail_precondition_enforced(self):
        with pytest.raises(TruncationError):
            oscillator_three_time(0.1, 0.02, 0.02, n_max=64)

    def test_nan_budget_is_refused(self):
        """A NaN budget is refused like one above MAX_BUDGET, naming the point.  At
        r1 = 1e307, where r * lam would overflow in the kernel and give one, both
        point functions refuse the amplitude on a fixed 64-level truncation too,
        naming the point, before any build and without a warning."""
        import warnings
        with pytest.raises(TruncationError, match="truncation budget nan"):
            squeezing._checked_budget(math.nan, 0.0, 0.0, 1.0, 0.1, 0.1, 64)
        for run in (oscillator_three_time, entropic_k3_oscillator):
            with warnings.catch_warnings(), pytest.raises(TruncationError) as excinfo:
                warnings.simplefilter("error")
                run(1.0, 1e307, 0.0, n_max=64)
            assert "beta=1.0, r1=1e+307, r2=0.0, n_max=64" in str(excinfo.value)

    def test_fixed_truncation_refuses_a_hopeless_cell_before_building(self, monkeypatch):
        """On a given n_max the grid sweep refuses the first cell, in fill order (r2
        outer, r1 inner), whose r1 + r2 has a squeezed vacuum that needs more than
        8192 levels (past r ~ 3.33), naming it, before any build."""
        def no_build(*args, **kwargs):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(squeezing, "_parity_columns", no_build)
        with pytest.raises(TruncationError) as excinfo:
            squeeze_grid_sweep(1.0, [2.0, 0.0, 1.5], [0.0, 2.0], n_max=64)
        assert "beta=1.0, r1=2.0, r2=2.0, n_max=64" in str(excinfo.value)

    @pytest.mark.parametrize("n_max", [-5, 0, 2.5, 9000])
    @pytest.mark.parametrize("run", [
        lambda n_max: oscillator_three_time(1.0, 0.1, 0.1, n_max=n_max),
        lambda n_max: entropic_k3_oscillator(1.0, 0.1, 0.1, n_max=n_max),
        lambda n_max: squeeze_grid_sweep(1.0, [0.0, 0.1], [0.1], n_max=n_max),
        lambda n_max: squeeze_matrix_closed_form(0.1, n_max),
    ], ids=["three_time", "point", "grid", "closed_form"])
    def test_a_given_n_max_outside_1_to_the_cap_is_refused(self, monkeypatch, run, n_max):
        """A given n_max that is not an integer in 1..N_MAX_CAP is refused, naming
        n_max, before any build."""
        def no_build(*args, **kwargs):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(squeezing, "_parity_columns", no_build)
        with pytest.raises(InvalidParameterError,
                           match=rf"^n_max must be an integer in 1\.\.8192, got {n_max}$"):
            run(n_max)

    def test_budget_reported_and_small(self):
        protocol = oscillator_three_time(0.5, 0.3, 0.3)
        assert 0 < protocol.truncation_budget < 1e-8
        assert protocol.joint3.total_mass() == pytest.approx(
            1.0, abs=protocol.truncation_budget)

    def test_jarzynski_for_total_work_through_the_middle(self):
        """Equal spectra at all times, so dF = 0; the middle measurement must not
        break the identity for the total work."""
        for beta in (0.5, 1.0):
            protocol = oscillator_three_time(beta, 0.3, 0.3)
            deviation = jarzynski_deviation(total_work_distribution(protocol.joint3),
                                            beta, 0.0)
            assert deviation < protocol.truncation_budget

    def test_total_work_converges_with_truncation(self):
        base = oscillator_three_time(0.5, 0.3, 0.3)
        doubled = oscillator_three_time(0.5, 0.3, 0.3, n_max=2 * base.n_max)
        d_base = jarzynski_deviation(total_work_distribution(base.joint3), 0.5, 0.0)
        d_doubled = jarzynski_deviation(total_work_distribution(doubled.joint3),
                                        0.5, 0.0)
        assert d_doubled <= d_base + 1e-12

    def test_middle_measurement_is_invasive(self):
        """Total-work statistics with the middle measurement differ from the work
        statistics of the directly composed squeeze."""
        protocol = oscillator_three_time(1.0, 0.1, 0.1, n_max=64)
        with_middle = total_work_distribution(protocol.joint3)
        without = work_distribution(protocol.no_middle, view="grouped")
        works = sorted(set(np.round(with_middle.works, 9))
                       | set(np.round(without.works, 9)))
        lookup_a = dict(zip(np.round(with_middle.works, 9), with_middle.probabilities))
        lookup_b = dict(zip(np.round(without.works, 9), without.probabilities))
        tv = 0.5 * sum(abs(lookup_a.get(w, 0.0) - lookup_b.get(w, 0.0)) for w in works)
        assert tv > 1e-4


class TestEntropicParameter:
    def test_fast_path_matches_object_path(self):
        """The streaming evaluation must agree with the full work-distribution
        pipeline in every convention combination."""
        protocol = oscillator_three_time(1.0, 0.12, 0.2, n_max=96)
        pops = __import__("workreal").build_thermal_state(protocol.joint3.spectra[0], 1.0)
        joint3 = protocol.joint3
        reports = _entropy_reports(joint3.marginal_t1_t0(), joint3.marginal_t2_t1(),
                                   joint3.marginal_t1(), protocol.no_middle)
        for degeneracy in ("fine", "grouped"):
            h_w21, h_w10, h_w20, h_e1 = reports[degeneracy]
            measured = k3_entropic(h_w21, h_w10, h_w20, h_e1)
            fast_measured, _ = entropic_k3_oscillator(
                1.0, 0.12, 0.2, n_max=96, degeneracy=degeneracy,
                middle_entropy="measured")
            assert fast_measured == pytest.approx(measured, abs=1e-10)
            from workreal import shannon_entropy
            h_thermal = shannon_entropy(pops.populations)
            initial = k3_entropic(h_w21, h_w10, h_w20, h_thermal.value)
            fast_initial, _ = entropic_k3_oscillator(
                1.0, 0.12, 0.2, n_max=96, degeneracy=degeneracy,
                middle_entropy="initial")
            assert fast_initial == pytest.approx(initial, abs=1e-10)

    def test_initial_variant_is_weaker(self):
        """The propagated marginal can only gain entropy under a doubly
        stochastic map, so the initial-state variant sits above the measured one."""
        measured, _ = entropic_k3_oscillator(0.5, 0.2, 0.2, middle_entropy="measured")
        initial, _ = entropic_k3_oscillator(0.5, 0.2, 0.2, middle_entropy="initial")
        assert initial >= measured - 1e-14

    def test_landmark_negative_under_both_conventions(self):
        for middle in ("initial", "measured"):
            value, _ = entropic_k3_oscillator(0.1, 0.02, 0.02, middle_entropy=middle)
            assert value < 0.0

    def test_truncation_robustness(self):
        n_max = select_n_max(1.0, 0.4)
        value, _ = entropic_k3_oscillator(1.0, 0.2, 0.2, n_max=n_max)
        doubled, _ = entropic_k3_oscillator(1.0, 0.2, 0.2, n_max=2 * n_max)
        assert abs(value - doubled) < 1e-6

    def test_unknown_conventions_rejected(self):
        with pytest.raises(InvalidParameterError):
            entropic_k3_oscillator(1.0, 0.1, 0.1, degeneracy="other")
        with pytest.raises(InvalidParameterError):
            entropic_k3_oscillator(1.0, 0.1, 0.1, middle_entropy="other")


def test_generic_propagator_pipeline_agrees_with_fast_path():
    """Driving truncated squeeze propagators through the same generic pipeline the
    two-level model uses must land on the streaming result exactly."""
    from workreal import build_thermal_state, oscillator_spectrum
    rho = build_thermal_state(oscillator_spectrum(96, 0), 1.0)
    u1 = squeeze_propagator(squeeze_matrix_closed_form(0.12, 96))
    u2 = squeeze_propagator(squeeze_matrix_closed_form(0.2, 96))
    generic = entropic_k3_from_protocol(rho, u1, u2,
                                        spectrum_1=oscillator_spectrum(96, 1),
                                        spectrum_2=oscillator_spectrum(96, 2))
    fast, _ = entropic_k3_oscillator(1.0, 0.12, 0.2, n_max=96,
                                     middle_entropy="measured")
    assert generic == pytest.approx(fast, abs=1e-12)


class TestSweepConsistency:
    def test_grid_cells_match_direct_evaluation_in_every_convention(self):
        from workreal.squeezing import squeeze_grid_sweep
        r1_grid = np.array([0.05, 0.15])
        r2_grid = np.array([0.1, 0.2])
        for degeneracy in ("fine", "grouped"):
            for middle in ("initial", "measured"):
                table = squeeze_grid_sweep(beta=1.0, r1_grid=r1_grid, r2_grid=r2_grid,
                                           n_max=96, degeneracy=degeneracy,
                                           middle_entropy=middle)
                for r1, r2, value, _ in table.rows:
                    direct, _ = entropic_k3_oscillator(1.0, r1, r2, n_max=96,
                                                       degeneracy=degeneracy,
                                                       middle_entropy=middle)
                    assert value == pytest.approx(direct, abs=1e-13)

    def test_budget_cap_trips_with_a_named_point(self):
        with pytest.raises(TruncationError) as excinfo:
            oscillator_three_time(1.0, 0.9, 0.9, n_max=64)
        assert "r1=0.9" in str(excinfo.value)
        assert excinfo.value.leaked_mass > 0


def test_golden_section_finds_quadratic_minimum():
    x, fx = golden_section_minimum(lambda x: (x - 0.3) ** 2, 0.0, 1.0, xtol=1e-6)
    assert x == pytest.approx(0.3, abs=1e-5)
    assert fx == pytest.approx(0.0, abs=1e-9)


def test_golden_section_on_a_bracket_within_xtol_returns_its_midpoint():
    calls = []

    def f(x):
        calls.append(x)
        return (x - 0.3) ** 2

    x, fx = golden_section_minimum(f, 0.2, 0.25, xtol=0.1)
    assert x == 0.5 * (0.2 + 0.25)
    assert calls == [x]
    assert fx == (x - 0.3) ** 2


@pytest.mark.parametrize("xtol", [0.0, -1e-4, math.nan, math.inf, 1e-20])
def test_golden_section_refuses_a_tolerance_it_cannot_meet(xtol):
    """xtol = 0 would loop forever once the bracket stops shrinking, and so would
    1e-20 on [0, 1], below the float spacing there.  A tolerance that is not
    positive and finite is refused before f is called; one the bracket cannot
    reach is refused at the first iteration that leaves it no narrower."""
    calls = []

    def f(x):
        calls.append(x)
        return (x - 0.3) ** 2

    with pytest.raises(InvalidParameterError, match="xtol"):
        golden_section_minimum(f, 0.0, 1.0, xtol=xtol)
    assert bool(calls) == (xtol == 1e-20)


def test_propagator_certificate_fails_on_a_flipped_sign():
    """The unitarity certificate of `squeeze_propagator` is the leak bound
    |(G^T G - 1)[m, n]| <= sqrt(d_m d_n); one flipped sign in a low corner
    breaks the orthogonality of the padded exponential far beyond it."""
    sq = squeeze_matrix_closed_form(0.2, 64)
    sq.g[3, 1] = -sq.g[3, 1]
    with pytest.raises(InvalidParameterError):
        squeeze_propagator(sq)


def oracle_grouped_work_entropy(joint_probs):
    size = joint_probs.shape[0]
    offsets = (np.arange(size)[:, None] - np.arange(size)[None, :] + size - 1).ravel()
    pw = np.bincount(offsets, weights=joint_probs.ravel(), minlength=2 * size - 1)
    nz = pw[pw > 0.0]
    return float(-(nz * np.log(nz)).sum())


def oracle_entropic_k3_oscillator(beta, r1, r2, n_max=None, degeneracy="fine",
                                  middle_entropy="initial"):
    """K_en as a standalone point function: t1, t2 and t_total built in turn, and
    the fine and grouped formulas written out.  Builds go through the module
    attributes so that a monkeypatched counter sees them."""
    _check_conventions(degeneracy, middle_entropy)
    if n_max is None:
        n_max = select_n_max(beta, r1 + r2)
    tail = thermal_tail_mass(beta, n_max)
    if tail > THERMAL_TAIL_TOL:
        raise TruncationError(
            f"thermal tail {tail:.3e} too large at beta={beta}, r1={r1}, r2={r2}, "
            f"n_max={n_max}", leaked_mass=tail)
    t1 = squeezing._squeeze_transitions(r1, n_max)
    t2 = t1 if r2 == r1 else squeezing._squeeze_transitions(r2, n_max)
    t_total = squeezing._squeeze_transitions(r1 + r2, n_max)
    levels = np.arange(n_max + 1.0)
    weights = np.exp(-beta * levels)
    pops = weights / weights.sum()
    p1 = t1 @ pops
    deficit_measured = 1.0 - float(t2.sum(axis=0) @ p1)
    deficit_no_middle = 1.0 - float(t_total.sum(axis=0) @ pops)
    budget = _budget(tail, deficit_measured, deficit_no_middle)
    h_e1_shift = _nats(p1) - _nats(pops) if middle_entropy == "initial" else 0.0
    if degeneracy == "fine":
        value = 0.5 * (p1 @ _column_entropies(t2)
                       + pops @ _column_entropies(t1)
                       - pops @ _column_entropies(t_total)
                       + h_e1_shift)
    else:
        h_w10 = oracle_grouped_work_entropy(t1 * pops[None, :])
        h_w21 = oracle_grouped_work_entropy(t2 * p1[None, :])
        h_w20 = oracle_grouped_work_entropy(t_total * pops[None, :])
        value = 0.5 * (h_w21 + h_w10 - h_w20 - _nats(p1) + h_e1_shift)
    return float(value), budget


def oracle_beta_sweep_rows(beta_grid, r_grid=None, refine_xtol=1e-4, degeneracy="fine",
                           middle_entropy="initial"):
    """The rows of `beta_sweep_min_k` from a loop over the oracle point function."""
    if r_grid is None:
        r_grid = np.geomspace(0.004, 0.8, 20)
    rows = []
    for beta in np.asarray(beta_grid, dtype=float):
        coarse = []
        best = math.inf
        for r in r_grid:
            value, _ = oracle_entropic_k3_oscillator(beta, float(r), float(r),
                                                     degeneracy=degeneracy,
                                                     middle_entropy=middle_entropy)
            coarse.append((float(r), value))
            best = min(best, value)
            if best < 0.0 and value >= 0.0:
                break
            if len(coarse) > 4 and value > best + 0.5 * abs(best):
                break
        i0 = min(range(len(coarse)), key=lambda k: coarse[k][1])
        lo = coarse[max(0, i0 - 1)][0]
        hi = coarse[min(len(coarse) - 1, i0 + 1)][0]
        n_max = select_n_max(float(beta), 2.0 * hi)
        budgets = {}

        def k_of_r(r, _beta=float(beta), _n=n_max, _budgets=budgets):
            value, _budgets[r] = oracle_entropic_k3_oscillator(
                _beta, r, r, n_max=_n, degeneracy=degeneracy,
                middle_entropy=middle_entropy)
            return value

        argmin_r, min_value = golden_section_minimum(k_of_r, lo, hi, xtol=refine_xtol)
        rows.append((float(beta), min_value, argmin_r, n_max, budgets[argmin_r]))
    return np.array(rows)


CONVENTIONS = [(degeneracy, middle) for degeneracy in ("fine", "grouped")
               for middle in ("initial", "measured")]


class TestOnePath:
    """Every oscillator K_en runs through one per-(beta, n_max) routine; it must
    reproduce the standalone point function bit for bit."""

    @pytest.mark.parametrize("degeneracy, middle", CONVENTIONS)
    def test_point_function_equals_the_oracle(self, degeneracy, middle):
        for r1, r2, n_max in ((0.12, 0.2, 96), (0.1, 0.1, 96), (0.0, 0.15, 96),
                              (0.15, 0.0, 96), (0.0, 0.0, 96), (0.05, 0.3, None)):
            kwargs = dict(n_max=n_max, degeneracy=degeneracy, middle_entropy=middle)
            assert (entropic_k3_oscillator(1.0, r1, r2, **kwargs)
                    == oracle_entropic_k3_oscillator(1.0, r1, r2, **kwargs))

    @pytest.mark.parametrize("degeneracy, middle", CONVENTIONS)
    def test_grid_cells_equal_the_oracle(self, degeneracy, middle):
        """Dyadic amplitudes, so every r1 + r2 is exact and no two cache keys of
        the grid stand for different floats."""
        r1_grid = np.array([0.0, 0.0625, 0.125])
        r2_grid = np.array([0.0, 0.0625, 0.1875])
        table = squeeze_grid_sweep(beta=1.0, r1_grid=r1_grid, r2_grid=r2_grid, n_max=96,
                                   degeneracy=degeneracy, middle_entropy=middle)
        for r1, r2, value, budget in table.rows:
            assert (value, budget) == oracle_entropic_k3_oscillator(
                1.0, r1, r2, n_max=96, degeneracy=degeneracy, middle_entropy=middle)

    @pytest.mark.parametrize("degeneracy, betas, r_grid", [
        pytest.param(degeneracy, betas, r_grid, id=degeneracy + suffix)
        for betas, r_grid, suffix in (([0.3, 1.0], np.geomspace(0.05, 0.4, 6), ""),
                                      ([0.1, 1.0], np.geomspace(0.004, 0.8, 20),
                                       "-default-grid"))
        for degeneracy in ("fine", "grouped")])
    def test_beta_sweep_rows_equal_the_oracle_loop(self, degeneracy, betas, r_grid):
        """The oracle loop stops its coarse scan on a rise of half the best value or a
        return above zero after a negative best; on the default grid these rules walk
        far past the dip, yet bracket it where the sweep does."""
        table = beta_sweep_min_k(betas, r_grid=r_grid, degeneracy=degeneracy)
        assert np.array_equal(table.rows, oracle_beta_sweep_rows(
            betas, r_grid=r_grid, degeneracy=degeneracy))

    def test_coarse_scan_stops_two_points_past_its_deepest_value(self, monkeypatch):
        """Grouped, at beta 0.1 on the default grid, the scan evaluates 9 of the 20
        points, the last two past its deepest value, and refines on the truncation of
        the point after the deepest one."""
        totals = []
        select = squeezing.select_n_max

        def recording(beta, r_total):
            totals.append(r_total)
            return select(beta, r_total)

        monkeypatch.setattr(squeezing, "select_n_max", recording)
        r_grid = np.geomspace(0.004, 0.8, 20)
        beta_sweep_min_k([0.1], r_grid, degeneracy="grouped")
        # one truncation per coarse point r + r, then one for the refinement
        coarse = [r_total / 2.0 for r_total in totals[:-1]]
        assert coarse == r_grid[:9].tolist()
        monkeypatch.setattr(squeezing, "select_n_max", select)
        values = [entropic_k3_oscillator(0.1, r, r, degeneracy="grouped")[0] for r in coarse]
        assert int(np.argmin(values)) == len(coarse) - 3
        assert totals[-1] == 2.0 * coarse[-2]


@pytest.fixture
def made(monkeypatch):
    """Counts `_Legs` constructions (by n_max) and `_squeeze_transitions` builds."""
    made = {"legs": [], "builds": 0}

    class CountingLegs(squeezing._Legs):
        def __init__(self, beta, n_max, *args):
            made["legs"].append(n_max)
            super().__init__(beta, n_max, *args)

    build = squeezing._squeeze_transitions

    def counting_build(*args, **kwargs):
        made["builds"] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(squeezing, "_Legs", CountingLegs)
    monkeypatch.setattr(squeezing, "_squeeze_transitions", counting_build)
    return made


class TestWorkspaces:
    """Each point call and each (beta, n_max) of a beta sweep makes one `_Legs`,
    whose legs every cell there shares, and builds no more than the standalone
    oracle does."""

    @pytest.mark.parametrize("degeneracy", ["fine", "grouped"])
    @pytest.mark.parametrize("r1, r2", [(0.1, 0.1), (0.05, 0.15)])
    def test_point_function_makes_one_workspace(self, made, degeneracy, r1, r2):
        entropic_k3_oscillator(1.0, r1, r2, n_max=96, degeneracy=degeneracy)
        assert made["legs"] == [96]
        builds = made["builds"]
        made["builds"] = 0
        oracle_entropic_k3_oscillator(1.0, r1, r2, n_max=96, degeneracy=degeneracy)
        assert made["legs"] == [96]
        assert builds <= made["builds"]

    @pytest.mark.parametrize("degeneracy", ["fine", "grouped"])
    def test_beta_sweep_makes_one_workspace_per_truncation(self, made, degeneracy):
        """At beta = 0.3 the coarse scan steps from n_max 128 to 192 and the
        refinement returns to 128 (fine convention)."""
        beta_sweep_min_k([0.3], np.geomspace(0.004, 0.8, 20), degeneracy=degeneracy)
        legs, builds = list(made["legs"]), made["builds"]
        assert 0 < len(legs) == len(set(legs))
        made["builds"] = 0
        oracle_beta_sweep_rows([0.3], degeneracy=degeneracy)
        assert builds <= made["builds"]

    @pytest.mark.parametrize("r1, r2, builds", [(0.3, 0.3, 2), (0.1, 0.3, 3), (0.0, 0.0, 2)])
    def test_three_time_builds_an_equal_leg_once(self, made, r1, r2, builds):
        protocol = oscillator_three_time(1.0, r1, r2, n_max=64)
        assert made["builds"] == builds
        t1, t2 = (squeeze_transition_probabilities(squeeze_matrix_closed_form(r, 64))
                  for r in (r1, r2))
        pops = squeezing._thermal_run(1.0, 64, "")[0]
        assert np.array_equal(protocol.joint3.probs,
                              t2[:, :, None] * (t1 * pops[None, :])[None, :, :])

    def test_unknown_convention_fails_before_building(self, made):
        with pytest.raises(InvalidParameterError):
            beta_sweep_min_k([1.0], np.geomspace(0.004, 0.8, 20), degeneracy="other")
        with pytest.raises(InvalidParameterError):
            beta_sweep_min_k([1.0], np.geomspace(0.004, 0.8, 20), middle_entropy="other")
        assert made == {"legs": [], "builds": 0}


@pytest.mark.parametrize("run", [
    lambda: oscillator_three_time(0.1, 0.02, 0.02, n_max=64),
    lambda: entropic_k3_oscillator(0.1, 0.02, 0.02, n_max=64),
    lambda: squeeze_grid_sweep(beta=0.1, r1_grid=[0.0, 0.02], r2_grid=[0.02], n_max=64),
], ids=["three_time", "point", "grid"])
def test_thermal_tail_fails_before_building(monkeypatch, run):
    """Every oscillator entry raises on the thermal tail, with the tail as the
    leaked mass and beta and n_max in the message, before any matrix is built."""
    def no_build(*args, **kwargs):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(squeezing, "_parity_columns", no_build)
    with pytest.raises(TruncationError) as excinfo:
        run()
    assert excinfo.value.leaked_mass == thermal_tail_mass(0.1, 64)
    assert "beta=0.1" in str(excinfo.value) and "n_max=64" in str(excinfo.value)
