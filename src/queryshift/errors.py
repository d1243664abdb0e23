"""Exception types raised across the package."""


class QueryShiftError(Exception):
    """Base class for every error raised by this package."""


class ZeroVectorError(QueryShiftError):
    """A vector with (near-)zero norm cannot be normalized."""


class DivergenceError(QueryShiftError):
    """Adapter parameters or rows are no longer finite, as after an overflow (CLI exit code 3)."""


class DimMismatchError(QueryShiftError):
    """Operands have incompatible shapes or supports, or rankings miss queries."""


class EmptyBatchError(QueryShiftError):
    """Nothing to work on: no rows, queue entries, negatives or relevance pairs."""


class InvalidKError(QueryShiftError):
    """Neighbor/centroid count outside the valid range."""


class InvalidSpecError(QueryShiftError):
    """A specification or argument (temperature, threshold, method) is invalid."""


class BadConfigError(QueryShiftError):
    """Run configuration is malformed (CLI exit code 2)."""


class BadInputError(QueryShiftError):
    """Input file is malformed (CLI exit code 3)."""
