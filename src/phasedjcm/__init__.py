"""Phase-damped Jaynes-Cummings dynamics from Bell-mixture initial states.

Closed-form block evolution, entropy and correlation functionals, a
concurrence lower bound, resummed collapse-revival asymptotics, and an
independent exact master-equation oracle, plus a CSV-emitting
scenario runner.
"""

from .entanglement import concurrence_lower_bound
from .evolution import (
    asymptotic_state,
    envelopes,
    propagate,
    rabi_frequency,
)
from .lindblad import (
    ComparisonReport,
    basis_index,
    compare_states,
    dense_from_block,
    dephasing_signs,
    hamiltonian,
    integrate_path,
    lindblad_rhs,
    space_dim,
)
from .model import (
    TAIL_TOL,
    BlockState,
    ModelParams,
    ParameterError,
    ValidationReport,
    build_initial_state,
    default_n_max,
    params_from_mapping,
    poisson_pmf,
    poisson_tail,
    read_config,
    validate_params,
)
from .observables import (
    EntropyReport,
    entropy_report,
    reduced_states,
    shannon_entropy,
)
from .revival import poisson_sum_inversion, revival_times
from .runner import CATALOG, COLUMNS, Curve, Scenario, TimeSeries, emit_csv, run_scenario

__version__ = "0.1.0"

__all__ = [
    "BlockState",
    "CATALOG",
    "COLUMNS",
    "ComparisonReport",
    "Curve",
    "EntropyReport",
    "ModelParams",
    "ParameterError",
    "Scenario",
    "TAIL_TOL",
    "TimeSeries",
    "ValidationReport",
    "asymptotic_state",
    "basis_index",
    "build_initial_state",
    "compare_states",
    "concurrence_lower_bound",
    "default_n_max",
    "dense_from_block",
    "dephasing_signs",
    "emit_csv",
    "entropy_report",
    "envelopes",
    "hamiltonian",
    "integrate_path",
    "lindblad_rhs",
    "space_dim",
    "params_from_mapping",
    "poisson_pmf",
    "poisson_sum_inversion",
    "poisson_tail",
    "propagate",
    "rabi_frequency",
    "read_config",
    "reduced_states",
    "revival_times",
    "run_scenario",
    "shannon_entropy",
    "validate_params",
]
