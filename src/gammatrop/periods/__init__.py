"""Period integrals, their tropical decompositions, and error integrals."""

from .curves import (
    ELLIPTIC_T_MAX,
    elliptic_period,
    pants_section_integral,
)
from .error_integrals import (
    error_integral_dim1,
    error_integral_dim2_a,
    error_integral_dim2_b,
    local_model_region_period,
)
from .fano import exp_period_orthant, fano_gamma_prediction, fano_prediction_polynomial
from .k3 import K3_T_MAX, k3_period
from .types import FAMILY_KINDS, MirrorFamily, PeriodSample

__all__ = [
    "FAMILY_KINDS",
    "MirrorFamily",
    "PeriodSample",
    "error_integral_dim1",
    "error_integral_dim2_a",
    "error_integral_dim2_b",
    "exp_period_orthant",
    "fano_gamma_prediction",
    "fano_prediction_polynomial",
    "local_model_region_period",
    "pants_section_integral",
    "elliptic_period",
    "ELLIPTIC_T_MAX",
    "k3_period",
    "K3_T_MAX",
]
