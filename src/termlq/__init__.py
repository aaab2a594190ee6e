"""Finite-horizon LQ optimal control with an exact terminal-state constraint.

Three solution paths over one problem type: a model-based backward pass
(model), a model-free Q-learning pipeline that recovers the same controller
from one-step transition data (qlearn), and an independent KKT oracle with
Monte Carlo campaigns (harness). File formats and the command line front end
live in fileio and cli.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    CarryMissing,
    InfeasibleConstraint,
    InsufficientSamples,
    IoError,
    NonFiniteState,
    NotReachable,
    OracleMiss,
    ParseError,
    RankDeficient,
    SingularBlock,
    SingularGamma,
    SingularKkt,
    StageOutOfRange,
    TermLqError,
    ValidationError,
)
from .model import (
    CostateSequence,
    LambdaSolution,
    ModelSchedule,
    ProblemInstance,
    ReachabilityResult,
    Trajectory,
    ValidationReport,
    check_reachability,
    costate_residual,
    costate_sequence,
    evaluate_augmented_cost,
    make_instance,
    optimal_control,
    optimal_policy,
    riccati_backward,
    build_schedule,
    rollout,
    solve_lambda,
    solve_schedule,
    validate_instance,
)
from .qlearn import (
    FitDiagnostics,
    GaussianSpec,
    LearnedSchedule,
    QMatrix,
    ReplayLog,
    SimulatedPlant,
    StageCarry,
    StageDataset,
    StageExtract,
    TerminalWeights,
    TransitionOracle,
    default_gaussian_spec,
    extract_stage,
    fit_stage,
    learn,
    learned_policy,
    pack_symmetric,
    regressor_matrix,
    sample_stage_data,
    sample_threshold,
    stage_targets,
    unpack_symmetric,
)
from .harness import (
    CampaignSpec,
    CampaignSummary,
    ComparisonReport,
    ErrorStats,
    KktSolution,
    draw_reachable_instance,
    kkt_oracle,
    monte_carlo,
    random_instance,
    verify_solution,
)
from .fileio import (
    InstanceFile,
    LearnSettings,
    dumps_report,
    instance_hash,
    load_instance,
    load_instance_file,
    read_replay_log,
    read_report,
    write_replay_log,
    write_report,
)

__all__ = [
    "__version__",
    # errors
    "TermLqError", "ValidationError", "SingularGamma", "NotReachable",
    "StageOutOfRange", "NonFiniteState", "InsufficientSamples", "OracleMiss",
    "CarryMissing", "RankDeficient", "SingularBlock", "InfeasibleConstraint",
    "SingularKkt", "ParseError", "IoError",
    # model
    "ProblemInstance", "ModelSchedule", "LambdaSolution", "Trajectory",
    "CostateSequence", "ReachabilityResult", "ValidationReport",
    "make_instance", "validate_instance", "riccati_backward", "build_schedule",
    "solve_schedule", "check_reachability", "solve_lambda", "optimal_control",
    "optimal_policy", "rollout", "costate_sequence", "costate_residual",
    "evaluate_augmented_cost",
    # qlearn
    "TransitionOracle", "SimulatedPlant", "ReplayLog", "StageDataset",
    "QMatrix", "GaussianSpec", "LearnedSchedule", "FitDiagnostics",
    "TerminalWeights", "StageCarry", "StageExtract", "default_gaussian_spec",
    "sample_threshold", "sample_stage_data", "regressor_matrix",
    "pack_symmetric", "unpack_symmetric", "stage_targets", "fit_stage",
    "extract_stage", "learn", "learned_policy",
    # harness
    "KktSolution", "ComparisonReport", "ErrorStats", "CampaignSpec",
    "CampaignSummary", "kkt_oracle", "verify_solution", "monte_carlo",
    "random_instance", "draw_reachable_instance",
    # fileio
    "InstanceFile", "LearnSettings", "load_instance", "load_instance_file",
    "write_report", "read_report", "dumps_report", "instance_hash",
    "write_replay_log", "read_replay_log",
]
