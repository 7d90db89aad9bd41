"""Dichotomic correlators, macrorealism parameters, and their entropic analogues.

Both parameters are built from three two-time statistics.  The (t1,t0) and (t2,t1)
statistics come from the measured three-point protocol; the (t2,t0) statistic always
comes from the branch WITHOUT the middle measurement.  Using the measured (t2,t0)
marginal instead would make both parameters provably non-negative, because the
three-time outcome table is itself a perfectly classical joint distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import EntropyReport, shannon_entropy, work_entropy
from .errors import InvalidParameterError
from .hilbert import DiagonalDensity, EnergySpectrum, UnitaryPropagator
from .protocol import (
    JointDistribution,
    three_time_joint,
    two_time_joint_skipping_middle,
    work_distribution,
)

CORRELATOR_TOL = 1e-12


def _check_correlator(name: str, c) -> None:
    c = np.asarray(c, dtype=float)
    worst = float(c.flat[np.argmax(np.abs(c))])
    if abs(worst) > 1.0 + CORRELATOR_TOL:
        raise InvalidParameterError(f"{name} = {worst} outside [-1, 1]")


@dataclass(frozen=True)
class DichotomicMapping:
    """Assignment of +/-1 to each measurement outcome index."""

    assignment: tuple[int, ...]

    def __post_init__(self):
        if not self.assignment or any(q not in (-1, 1) for q in self.assignment):
            raise InvalidParameterError("assignment must map every index to +1 or -1")

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self.assignment, dtype=float)


GROUND_EXCITED = DichotomicMapping((1, -1))


@dataclass(frozen=True)
class CorrelatorSet:
    """<Q_i Q_j> for the three time pairs; c02 must come from the no-middle branch."""

    c01: float
    c12: float
    c02: float

    def __post_init__(self):
        for name, c in (("c01", self.c01), ("c12", self.c12), ("c02", self.c02)):
            _check_correlator(name, c)


def dichotomic_correlator(joint: JointDistribution, mapping: DichotomicMapping) -> float:
    """<Q_later Q_earlier> = sum Q(k_j) Q(k_i) p(k_j, k_i)."""
    q = mapping.values
    if q.size != joint.probs.shape[0] or q.size != joint.probs.shape[1]:
        raise InvalidParameterError("mapping does not cover every outcome index")
    return float(q @ joint.probs @ q)


def correlator_set(rho0: DiagonalDensity, u10: UnitaryPropagator, u21: UnitaryPropagator,
                   mapping: DichotomicMapping = GROUND_EXCITED) -> CorrelatorSet:
    """Assemble the three correlators with the required branch discipline."""
    leg10, leg21, _, no_middle = _joints(rho0, u10, u21)
    return _correlators(leg10, leg21, no_middle, mapping)


def _joints(rho0, u10, u21, spectrum_1=None, spectrum_2=None):
    """The two-time statistics of one protocol, each built once: the measured legs
    (t1, t0) and (t2, t1) and the middle marginal of its three-time joint, and
    the no-middle (t2, t0) joint."""
    joint3 = three_time_joint(rho0, u10, u21, spectrum_1=spectrum_1, spectrum_2=spectrum_2)
    return (joint3.marginal_t1_t0(), joint3.marginal_t2_t1(), joint3.marginal_t1(),
            two_time_joint_skipping_middle(rho0, u10, u21, spectrum_later=spectrum_2))


def _correlators(leg10: JointDistribution, leg21: JointDistribution,
                 no_middle: JointDistribution, mapping: DichotomicMapping) -> CorrelatorSet:
    """C01 and C12 from the measured legs, C02 from the no-middle branch."""
    return CorrelatorSet(
        c01=dichotomic_correlator(leg10, mapping),
        c12=dichotomic_correlator(leg21, mapping),
        c02=dichotomic_correlator(no_middle, mapping),
    )


def _k_cor(c01, c12, c02):
    return 0.25 * (1.0 - c01 - c12 + c02)


def _k_cor_flipped(c01, c12, c02):
    return 0.25 * (1.0 + c01 + c12 + c02)


def _k_en(h_w21, h_w10, h_w20, h_e1):
    return 0.5 * (h_w21 + h_w10 - h_w20 - h_e1)


def k3_correlator(c: CorrelatorSet) -> float:
    """(1/4)(1 - C01 - C12 + C02); negative iff the two-time correlation bound fails."""
    return _k_cor(c.c01, c.c12, c.c02)


def k3_correlator_swapped(c: CorrelatorSet) -> float:
    """Variant with the roles of C02 and C12 exchanged, kept for comparison only.

    For two-level rotations this expression reduces to sin(theta)^2 / 2 and can
    never be negative, so it is useless as a violation witness.
    """
    return 0.25 * (1.0 - c.c01 - c.c02 + c.c12)


def k3_correlator_flipped(c: CorrelatorSet) -> float:
    """Same bound after Q1 -> -Q1, which flips every correlator touching t1."""
    return _k_cor_flipped(c.c01, c.c12, c.c02)


def k3_entropic(h_w21: EntropyReport, h_w10: EntropyReport, h_w20: EntropyReport,
                h_e1: EntropyReport) -> float:
    """(1/2)(H(w21) + H(w10) - H(w20) - H(E1)); negative iff the entropic bound fails.

    h_w20 must come from the no-middle branch and h_e1 is the entropy of the middle
    marginal of the measured protocol.
    """
    return _k_en(h_w21.value, h_w10.value, h_w20.value, h_e1.value)


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
    return k3_entropic(*_entropy_reports(*joints, (degeneracy,))[degeneracy])


def _entropy_reports(leg10: JointDistribution, leg21: JointDistribution,
                     middle: np.ndarray, no_middle: JointDistribution,
                     views=("fine", "grouped")) -> dict:
    """(H(W21), H(W10), H(W20), H(E1)) of a three-point protocol (the statistics
    of `_joints`) in each work-distribution view of `views` ("fine", "grouped"):
    the work entropies of its two measured legs and of the no-middle branch, and
    the entropy of its middle marginal.  Each leg's fine distribution is built
    once; the grouped view merges it."""
    fine = [work_distribution(joint, "fine") for joint in (leg21, leg10, no_middle)]
    h_e1 = shannon_entropy(middle)
    return {view: (*map(work_entropy, fine if view == "fine"
                        else [dist.grouped() for dist in fine]), h_e1)
            for view in views}
