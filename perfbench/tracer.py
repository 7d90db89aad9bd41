"""Run-time spans around the public functions of each workreal layer.

`install` replaces every reference to a listed function inside the imported
`workreal` modules (including the names other modules imported with
`from .x import y`) with a wrapper that appends one span per call.  Spans stay
in memory as `[layer, start, end, parent]` lists; the caller writes them out
when the experiment ends.  `layer_totals` turns a span list into per-layer call
counts and self times (duration minus the time covered by child spans).
`span_cost_s` measures what one span adds to a call, for `trace.overhead_s`.

Only the benchmark's own files are involved; no source file of the package is
changed.
"""

from __future__ import annotations

import functools
import sys
import time

# layer name -> (module, public function names)
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "squeezing.kernel": ("workreal.squeezing", ("squeeze_matrix_closed_form",)),
    "squeezing.select_n_max": ("workreal.squeezing", ("select_n_max",)),
    "squeezing.k_en": ("workreal.squeezing", ("entropic_k3_oscillator",)),
    "squeezing.refine": ("workreal.squeezing", ("golden_section_minimum",)),
    "squeezing.grid_sweep": ("workreal.squeezing", ("squeeze_grid_sweep",)),
    "squeezing.beta_sweep": ("workreal.squeezing", ("beta_sweep_min_k",)),
    "squeezing.three_time": ("workreal.squeezing", ("oscillator_three_time",)),
    "two_level.lg_parameters": ("workreal.two_level", ("tls_lg_parameters",)),
    "two_level.theta_sweep": ("workreal.two_level", ("tls_theta_sweep",)),
    "protocol.joint": ("workreal.protocol", ("two_time_joint", "three_time_joint",
                                             "two_time_joint_skipping_middle")),
    "protocol.work_distribution": ("workreal.protocol", ("work_distribution",
                                                         "total_work_distribution")),
    "protocol.sampler": ("workreal.protocol", ("sample_trajectories",)),
    "protocol.jarzynski": ("workreal.protocol", ("jarzynski_deviation",)),
    "entropy": ("workreal.entropy", ("shannon_entropy", "work_entropy")),
    "leggett_garg": ("workreal.leggett_garg", ("correlator_set", "k3_correlator",
                                               "k3_correlator_flipped",
                                               "k3_correlator_swapped", "k3_entropic")),
    "hilbert": ("workreal.hilbert", ("build_thermal_state", "validate_unitary",
                                     "compose_propagators", "transition_probabilities")),
    "tables.write": ("workreal.tables", ("write_table_csv",)),
    "tables.contour": ("workreal.tables", ("contour_points",)),
    "cli": ("workreal.cli", ("main",)),
}


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([layer, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced


def span_cost_s(calls: int = 20_000, batches: int = 5) -> float:
    """Median extra time one traced call costs, against the same call untraced.

    Timed on a no-op function with a throwaway recorder; `trace.overhead_s` is
    this cost times the number of spans a traced experiment recorded.
    """
    def noop(x):
        return x

    traced = SpanRecorder().wrap("calibration", noop)
    costs = []
    for _ in range(batches):
        start = time.perf_counter()
        for i in range(calls):
            noop(i)
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for i in range(calls):
            traced(i)
        costs.append((time.perf_counter() - start - plain) / calls)
    costs.sort()
    return costs[len(costs) // 2]


def install(recorder: SpanRecorder) -> None:
    """Wrap every listed function wherever a workreal module refers to it."""
    import importlib

    replacements = {}
    for layer, (module_name, names) in LAYERS.items():
        module = importlib.import_module(module_name)
        for name in names:
            original = getattr(module, name)
            replacements[id(original)] = (original, recorder.wrap(layer, original))
    for module_name, module in list(sys.modules.items()):
        if module_name != "workreal" and not module_name.startswith("workreal."):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """{layer: {"calls": n, "self_s": seconds}} from a span list."""
    child_time = [0.0] * len(spans)
    for layer, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    for (layer, start, end, _), covered in zip(spans, child_time):
        totals[layer]["calls"] += 1
        totals[layer]["self_s"] += (end - start) - covered
    return totals
