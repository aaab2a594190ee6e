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
    check_reachability,
    make_instance,
    optimal_policy,
    rollout,
    solve_lambda,
    solve_schedule,
)
from .qlearn import (
    GaussianSpec,
    SimulatedPlant,
    learn,
    learned_policy,
    sample_threshold,
)
from .harness import CampaignSpec, kkt_oracle, monte_carlo, verify_solution

# the public surface: what the command line, the demos and the README use;
# everything else is reachable through its module
__all__ = [
    "__version__",
    # errors
    "TermLqError", "ValidationError", "SingularGamma", "NotReachable",
    "StageOutOfRange", "NonFiniteState", "InsufficientSamples", "OracleMiss",
    "RankDeficient", "SingularBlock", "InfeasibleConstraint", "SingularKkt",
    "ParseError", "IoError",
    # model
    "make_instance", "solve_schedule", "check_reachability", "solve_lambda",
    "optimal_policy", "rollout",
    # qlearn
    "SimulatedPlant", "GaussianSpec", "sample_threshold", "learn",
    "learned_policy",
    # harness
    "CampaignSpec", "kkt_oracle", "verify_solution", "monte_carlo",
]
