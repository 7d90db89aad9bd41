"""Shannon entropies of outcome and work distributions.

Every entropy is in nats (natural logarithm).  The macrorealism verdicts
downstream are sign-based and therefore independent of the logarithm base; the
CLI converts its K_en columns to bits at output when asked.  Zero-probability
entries are skipped exactly (0 log 0 := 0).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .protocol import WorkDistribution

SUM_TOL = 1e-8
_SILENT_SUM_TOL = 1e-12
RANGE_TOL = 1e-9


def _check_range(values, support_sizes) -> None:
    """Every entropy must lie in [0, log(support size)], within RANGE_TOL."""
    values = np.asarray(values, dtype=float)
    support_sizes = np.asarray(support_sizes)
    bounds = np.log(np.maximum(support_sizes, 1))
    outside = ~((-RANGE_TOL <= values) & (values <= bounds + RANGE_TOL))
    if np.any(outside):
        k = np.argmax(outside)
        raise InvalidParameterError(
            f"entropy {values.flat[k]} outside [0, log {support_sizes.flat[k]}]"
        )


@dataclass(frozen=True)
class EntropyReport:
    value: float
    support_size: int

    def __post_init__(self):
        _check_range(self.value, self.support_size)


def _checked_probs(probs) -> np.ndarray:
    """Check and renormalize a distribution, or each row of a stack of them."""
    probs = np.asarray(probs, dtype=float)
    if np.any(probs < 0):
        raise InvalidParameterError("probabilities must be non-negative")
    total = probs.sum(axis=-1, keepdims=True)
    k = np.argmax(np.abs(total - 1.0))
    worst = float(total.flat[k] - 1.0)
    if abs(worst) > SUM_TOL:
        raise InvalidParameterError(f"probabilities sum to {total.flat[k]}, expected 1")
    if abs(worst) > _SILENT_SUM_TOL:
        warnings.warn(f"renormalizing probabilities off by {worst:.3e}", stacklevel=3)
    return probs / total


def _nats(probs: np.ndarray) -> float:
    nz = probs[probs > 0]
    return float(-(nz * np.log(nz)).sum())


def _row_nats(probs: np.ndarray) -> np.ndarray:
    """_nats of each row.  Zero entries add an exact +0, so a row equals _nats of
    its nonzero entries in order whenever the row sum runs left to right."""
    return -(probs * np.log(np.where(probs > 0, probs, 1.0))).sum(axis=-1)


def shannon_entropy(probs) -> EntropyReport:
    """-sum p log p over the nonzero entries of `probs`."""
    probs = _checked_probs(probs)
    return EntropyReport(_nats(probs), int((probs > 0).sum()))


def work_entropy(workdist: WorkDistribution) -> EntropyReport:
    """Entropy of a work distribution, in the view it was built in.

    With no-degeneracy spectra the fine-grained value equals the joint outcome
    entropy; the grouped value is smaller by the within-group remainder of the
    grouping identity.
    """
    return EntropyReport(_nats(workdist.probabilities),
                         int((workdist.probabilities > 0).sum()))


def entropy_rows(probs: np.ndarray) -> np.ndarray:
    """-sum p log p of each row of already normalized probabilities, range-checked
    like EntropyReport.  On rows of work probabilities this is work_entropy."""
    values = _row_nats(probs)
    _check_range(values, (probs > 0).sum(axis=-1))
    return values
