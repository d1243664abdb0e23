"""Exception types raised across the package."""


class QueryShiftError(Exception):
    """Base class for every error raised by this package."""


class ZeroVectorError(QueryShiftError):
    """A vector with (near-)zero norm cannot be normalized."""


class DivergenceError(QueryShiftError):
    """Adapter parameters or rows are no longer finite, as after an overflow (CLI exit code 3)."""


class DimMismatchError(QueryShiftError):
    """Operands have incompatible dimensions."""


class EmptyBatchError(QueryShiftError):
    """An operation requires at least one row."""


class NonPositiveTemperatureError(QueryShiftError):
    """Softmax temperature must be strictly positive."""


class InvalidKError(QueryShiftError):
    """Neighbor/centroid count outside the valid range."""


class EmptyQueueError(QueryShiftError):
    """Constraint estimation requires a non-empty queue."""


class NonPositiveThresholdError(QueryShiftError):
    """Entropy threshold must be strictly positive."""


class TooFewCandidatesError(QueryShiftError):
    """Hard-negative selection needs at least two candidates."""


class SupportMismatchError(QueryShiftError):
    """Two prediction lists are not defined over the same candidate sets."""


class UnknownBaselineError(QueryShiftError):
    """Unrecognized baseline method name."""


class InvalidSpecError(QueryShiftError):
    """Synthetic benchmark or corruption specification is invalid."""


class EmptyGroundTruthError(QueryShiftError):
    """Consistency metric requires at least one relevance pair."""


class MissingQueryError(QueryShiftError):
    """Rankings do not cover every query in the ground truth."""


class BadConfigError(QueryShiftError):
    """Run configuration is malformed (CLI exit code 2)."""


class BadInputError(QueryShiftError):
    """Input file is malformed (CLI exit code 3)."""
