"""Residual quantum correlations of 2-qubit X states under dephasing noise."""

from .dynamics import EventRecord, SweepSpec, Trajectory, detect_events, surface, trajectory
from .families import FamilySpec, crossover_z, family_concurrence_closed, family_laqc_closed, make_state, werner_concurrence_rtn
from .measures import MeasureSet, concurrence_general, measure_set, u_func
from .noise import (
    KrausPair,
    Markov,
    Moun,
    NoiseModel,
    Rtn,
    apply_common_bath,
    evolve_bloch,
    kraus_pair,
    lambda_of_t,
    lambda_zeros,
)
from .oracle import (
    ComplementarySetting,
    LocalMeasurement,
    OptimizationResult,
    classical_mutual_info,
    complementary_basis,
    laqc_oracle,
    optimize_cmi,
    post_measurement_probs,
    qs_oracle,
)
from .states import (
    BlochX,
    InvalidStateError,
    ValidationReport,
    XStateParams,
    bloch_to_xstate,
    fano_coefficients,
    validate_xstate,
    xstate_to_bloch,
    xstate_to_matrix,
)

__version__ = "0.1.0"
