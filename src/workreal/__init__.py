"""Measurement-based quantum work statistics and macrorealism tests.

Work is defined as the difference between outcomes of projective energy
measurements.  This package computes the exact joint statistics of two- and
three-point measurement protocols, their work distributions and entropies, and
the dichotomic and entropic macrorealism (Leggett-Garg) parameters for a driven
two-level system and a squeezed harmonic oscillator.
"""

__version__ = "0.1.0"

from .entropy import (
    EntropyReport,
    conditional_entropy,
    grouped_entropy,
    joint_entropy,
    marginal_entropy,
    shannon_entropy,
    work_entropy,
)
from .errors import InvalidParameterError, TruncationError
from .hilbert import (
    DiagonalDensity,
    EnergySpectrum,
    ThermodynamicPotentials,
    UnitaryPropagator,
    build_thermal_state,
    compose_propagators,
    free_energy_difference,
    thermodynamic_potentials,
    transition_probabilities,
    validate_unitary,
)
from .leggett_garg import (
    GROUND_EXCITED,
    CorrelatorSet,
    DichotomicMapping,
    correlator_set,
    dichotomic_correlator,
    entropic_k3_from_protocol,
    k3_correlator,
    k3_correlator_flipped,
    k3_correlator_swapped,
    k3_entropic,
)
from .protocol import (
    JointDistribution,
    JointDistribution3,
    WorkDistribution,
    empirical_chi_squared_pvalue,
    jarzynski_deviation,
    sample_trajectories,
    three_time_joint,
    total_work_distribution,
    two_time_joint,
    two_time_joint_skipping_middle,
    work_distribution,
)
from .squeezing import (
    OscillatorProtocol,
    SqueezeMatrix,
    beta_sweep_min_k,
    diagonal_scan,
    entropic_k3_oscillator,
    golden_section_minimum,
    oscillator_spectrum,
    oscillator_three_time,
    select_n_max,
    squeeze_grid_sweep,
    squeeze_matrix_closed_form,
    squeeze_propagator,
    thermal_tail_mass,
)
from .tables import SweepTable, contour_points, read_table_csv, write_table_csv
from .two_level import (
    TlsAngles,
    incommensurate_tls_spectra,
    tls_lg_parameters,
    tls_propagator,
    tls_spectrum,
    tls_theta_sweep,
)
