"""Phase-damped Jaynes-Cummings dynamics from Bell-mixture initial states.

Closed-form block evolution, entropy and correlation functionals, a
concurrence lower bound, resummed collapse-revival asymptotics, and an
independent exact master-equation oracle, plus a CSV-emitting
scenario runner.
"""

from .evolution import (
    asymptotic_state,
    propagate,
)
from .lindblad import (
    ComparisonReport,
    compare_states,
    dense_from_block,
    integrate_path,
)
from .model import (
    BlockState,
    ModelParams,
    ParameterError,
    build_initial_state,
    params_from_mapping,
)
from .observables import (
    EntropyReport,
    entropy_report,
    poisson_sum_inversion,
)
from .runner import (CATALOG, COLUMNS, Curve, Scenario, TimeSeries,
                     run_scenario, write_csvs)

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
    "TimeSeries",
    "asymptotic_state",
    "build_initial_state",
    "compare_states",
    "dense_from_block",
    "entropy_report",
    "integrate_path",
    "params_from_mapping",
    "poisson_sum_inversion",
    "propagate",
    "run_scenario",
    "write_csvs",
]
