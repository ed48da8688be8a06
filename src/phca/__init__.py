"""Probabilistic hosting-capacity analysis over radial feeders.

The pipeline: parse a feeder document, assemble a parametric QP whose
parameters are scaled scenario data, solve whole scenario batches by
critical-region reuse, then summarize violations and slack statistics.
"""

from .acflow import (
    PowerFlowSolution,
    linear_model_prediction,
    solve_powerflow,
)
from .builder import (
    ETA_FLOOR,
    BuilderConfig,
    MpqpProblem,
    RowForm,
    RowLabel,
    ScalingRecord,
    build_problem,
    calibrate_eta,
    dump_problem,
    load_config,
    scale_problem,
    theta_map_batch,
)
from .engine import (
    BatchResult,
    EngineOptions,
    InstanceRecord,
    load_result_json,
    run_batch,
    validate_batch,
)
from .errors import (
    AbortError,
    AllInfeasibleError,
    ConfigError,
    CycleError,
    DimensionError,
    DisconnectedError,
    DuplicateRegulatorError,
    EmptyGroupError,
    HeadroomError,
    InputError,
    MissingBusError,
    ModelError,
    NegativeValueError,
    NonConvergenceError,
    PhcaError,
    RankDeficientKError,
    SchemaError,
)
from .feeder import (
    FeederModel,
    Line,
    RegulatorSpec,
    load_feeder,
    voltage_model,
)
from .qp import (
    QpBatch,
    QpMatrices,
    QpSolution,
    identify_active,
    solve_qp,
    solve_qp_batch,
)
from .regions import CriticalRegion, RegionContext
from .scenarios import (
    AnalysisGrid,
    ScenarioSet,
    ScenarioTable,
    ThetaSet,
    expand_grid,
    load_scenarios,
    parse_profile,
)
from .stats import (
    GroupStats,
    group_stats,
    json_report,
    recover_ratios,
    render_report,
    slack_values,
    voltage_matrix,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
