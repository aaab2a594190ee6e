"""Exception types raised across the toolkit.

Each class marks one failure mode of the solve / learn / verify pipeline so
callers can map failures to outcomes without string matching. Each class also
carries the command line exit status for its failure as ``exit_code``: 2 by
default, 3 for an unreachable target, 4 for insufficient data, 5 for I/O.
"""

from __future__ import annotations


class TermLqError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2


class ValidationError(TermLqError):
    """Instance data failed validation (dimensions, symmetry, definiteness)."""


class SingularGamma(TermLqError):
    """An input-weight curvature matrix Gamma(k) failed the positive-definite
    test during the backward pass. Cannot occur for R positive definite and
    P(k+1) positive semi-definite; signals invalid input or numerical
    corruption."""


class NotReachable(TermLqError):
    """The terminal target is not attainable: the multiplier equation has no
    solution within tolerance."""

    exit_code = 3


class StageOutOfRange(TermLqError):
    """A stage index outside 0..N was requested."""


class NonFiniteState(TermLqError):
    """A rollout produced a non-finite state entry or cost, or an overflow
    reached the reachability products, the Riccati pass, the learner's
    probe regressors, a fitted kernel, a range test (never read as a
    verdict) or the oracle's cost (an unstable policy or plant, or huge
    data)."""


class InsufficientSamples(TermLqError):
    """Fewer samples requested than the least-squares identifiability
    threshold (2n+m)(2n+m+1)/2."""

    exit_code = 4


class OracleMiss(TermLqError):
    """A replay log holds fewer records for a stage than the samples per
    stage, or a plant was asked about a stage outside 0..N."""

    exit_code = 4


class RankDeficient(TermLqError):
    """The stage regressor lost column rank: the data is insufficiently
    exciting for a unique least-squares fit."""

    exit_code = 4

    def __init__(self, message: str, rank: int, cond: float):
        super().__init__(message)
        self.rank = rank
        self.cond = cond


class SingularBlock(TermLqError):
    """The learned input-curvature block Lambda_22 failed the
    positive-definite test; extraction would divide by it."""


class InfeasibleConstraint(TermLqError):
    """The stacked terminal equality constraint is inconsistent (the target
    is unreachable)."""

    exit_code = 3


class SingularKkt(TermLqError):
    """The KKT system is numerically singular despite a feasible constraint
    (flags a non-positive-definite R or corrupted data)."""


class ParseError(TermLqError):
    """An instance or replay file failed to parse; the message names the
    offending key or line."""

    exit_code = 5


class IoError(TermLqError):
    """A report or log file could not be written."""

    exit_code = 5
