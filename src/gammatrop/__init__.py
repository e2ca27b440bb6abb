"""gammatrop: verification engine for mirror period asymptotics.

Checks that period integrals of mirror families have the logarithmic
asymptotics predicted by the Gamma class of the original manifold, with
the tropical count of the leading term and zeta-value corrections from
the error of tropicalization.
"""

from .cohomology import (
    GradedElement,
    ManifoldModel,
    PeriodPolynomial,
    chern_character,
    gamma_class,
    gamma_period_polynomial,
    integrate,
    log_gamma_series,
    total_chern,
    zeta_value,
)
from .errors import (
    ConditioningError,
    GammatropError,
    NonConvergenceError,
    StructureError,
    UnsupportedDimensionError,
)

__version__ = "0.1.0"
