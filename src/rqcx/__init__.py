"""Residual quantum correlations of 2-qubit X states under dephasing noise."""

from .dynamics import EventRecord, SweepSpec, Trajectory, detect_events, surface, trajectory
from .families import FamilySpec, crossover_z, make_state
from .measures import MeasureSet, measure_set
from .noise import Markov, Moun, NoiseModel, Rtn, lambda_of_t, lambda_zeros
from .oracle import ComplementarySetting, LocalMeasurement, OptimizationResult, OracleSet, oracle_set
from .states import (
    BlochX,
    InvalidStateError,
    ValidationReport,
    XStateParams,
    bloch_params,
    check_xstate,
    fano_coefficients,
    matrix_params,
    xstate_matrix,
    xstate_report,
)

__version__ = "0.1.0"
