"""Exception taxonomy.

Every error raised on purpose by this package derives from FrameError, so
callers (the CLI in particular) can separate domain failures from bugs.
"""


class FrameError(Exception):
    """Base class for all framecalc errors."""


class NotHermitian(FrameError):
    """Matrix is not Hermitian within tolerance."""


class NoConvergence(FrameError):
    """Eigendecomposition backend failed to converge, or a conditioned random
    draw found no acceptable attempt within its limit."""


class SingularMatrix(FrameError):
    """Spectral inverse requested for a matrix with a (near-)zero eigenvalue."""


class NotPSD(FrameError):
    """Matrix has an eigenvalue below the negative tolerance."""


class NotAFrame(FrameError):
    """Vector family has (numerically) zero lower frame bound."""


class NotParseval(FrameError):
    """Frame operator differs from the identity beyond tolerance."""


class NotTight(FrameError):
    """Frame operator is not a scalar multiple of the identity within tolerance."""


class DimensionMismatch(FrameError):
    """Vector or frame dimensions are incompatible."""


class IndexOutOfRange(FrameError):
    """Index subset refers to a vector index outside [0, n)."""


class NotIsometry(FrameError):
    """Embedding map does not have orthonormal columns within tolerance."""


class LambdaTooSmall(FrameError):
    """Requested tight value is below the top eigenvalue of the frame operator."""


class EOverlapsJ(FrameError):
    """Overlap subset E is not disjoint from J."""


class PreconditionFailed(FrameError):
    """Operator-level precondition (e.g. S + T = I) violated."""


class BadParams(FrameError):
    """Malformed user-supplied parameters (treated as a usage error by the CLI)."""


class FrameFormatError(FrameError):
    """Frame file violates the on-disk schema (treated as an IO error by the CLI)."""
