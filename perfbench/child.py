"""One benchmark step in a fresh interpreter, so every lru_cache starts cold.

    python3 child.py setup  RESULT.json                        # import only
    python3 child.py op     RESULT.json [--spans S.json] -- ARGV  # one CLI run
    python3 child.py probes RESULT.json                        # layer probes

The parent takes its clock reading just before starting this process; the
`ready` and `done` readings written here use the same system-wide monotonic
clock, so `ready - start` is the set-up time a CLI user pays (interpreter start
plus `import workreal.cli`) and `done - ready` is the experiment's wall time.
With `--spans`, the public functions of each layer are wrapped first (see
tracer.py) and the spans are written to S.json when the experiment ends.
"""

import json
import sys
import time


def _peak_rss_mib() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median_time(fn, args_list) -> float:
    times = []
    for args in args_list:
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]


def probes() -> dict:
    """Direct, cold calls into public functions with fixed inputs.

    Every squeeze amplitude below is used once only, so each kernel build and
    each truncation search misses the package's caches, as in a fresh CLI run.
    """
    import math

    from workreal import (TlsAngles, build_thermal_state, entropic_k3_oscillator,
                          sample_trajectories, select_n_max, squeeze_matrix_closed_form,
                          tls_lg_parameters, tls_propagator, tls_spectrum)

    squeeze_matrix_closed_form(0.0123, 16)  # loads the LAPACK/BLAS paths once
    out = {}
    start = time.perf_counter()
    entropic_k3_oscillator(0.1, 0.02, 0.02)
    out["squeezing.k_en_cell_s"] = time.perf_counter() - start
    for k, n_max in enumerate((64, 128, 192, 320, 384)):
        amplitudes = [(0.05 + 1e-4 * (3 * k + j), n_max) for j in (1, 2, 3)]
        out[f"squeezing.kernel_s.n{n_max}"] = _median_time(squeeze_matrix_closed_form,
                                                          amplitudes)
    for beta, label in ((0.1, "b0.1"), (1.0, "b1")):
        out[f"squeezing.select_n_max_s.{label}"] = _median_time(
            select_n_max, [(beta, r_total) for r_total in (0.06, 0.08, 0.10)])
    thetas = [(1.0, TlsAngles(0.01 + 0.03 * k)) for k in range(201)]
    out["two_level.angle_s"] = _median_time(tls_lg_parameters, thetas)
    u = tls_propagator(TlsAngles(math.pi / 3.0))
    rho0 = build_thermal_state(tls_spectrum(0), 1.0)
    n_samples = 1_000_000
    seconds = _median_time(sample_trajectories,
                           [(rho0, u, u, n_samples, seed) for seed in (1, 2, 3)])
    out["protocol.sampler_samples_per_s"] = n_samples / seconds
    return out


def main(argv: list[str]) -> int:
    mode, result_path, rest = argv[0], argv[1], argv[2:]
    spans_path = None
    if rest[:1] == ["--spans"]:
        spans_path, rest = rest[1], rest[2:]
    if rest[:1] == ["--"]:
        rest = rest[1:]
    import workreal.cli
    result = {"ready": time.monotonic(), "rc": 0}
    if mode == "op":
        recorder = None
        if spans_path is not None:
            import tracer
            recorder = tracer.SpanRecorder()
            tracer.install(recorder)
        result["ready"] = time.monotonic()
        try:
            result["rc"] = workreal.cli.main(rest)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            result["rc"] = exc.code if isinstance(exc.code, int) else 2
        result["done"] = time.monotonic()
        if recorder is not None:
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump(recorder.spans, fh)
            result["span_cost_s"] = tracer.span_cost_s()
    elif mode == "probes":
        result["probes"] = probes()
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    result["peak_rss_mib"] = _peak_rss_mib()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
