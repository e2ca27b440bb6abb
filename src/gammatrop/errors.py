"""Exception types shared across the package.

Plain ValueError is used for bad arguments (domain and shape problems);
the classes here mark failure modes a caller may want to catch separately.
"""


class GammatropError(Exception):
    """Base class for package-specific failures."""


class StructureError(GammatropError):
    """A geometric object does not have the expected structure.

    Raised by `tropical.compact_chamber` when a tropical polynomial has
    no bounded chamber or more than one.
    """


class ConditioningError(GammatropError):
    """A least-squares fit is too ill-conditioned to trust."""


class UnsupportedDimensionError(GammatropError):
    """The requested ambient dimension is outside the supported range."""


class NonConvergenceError(GammatropError):
    """A quadrature result did not reach the requested tolerance."""
