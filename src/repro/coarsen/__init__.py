"""Grid transfer operators and Galerkin coarsening."""

from .galerkin import (
    constant_coefficient_coarse_stencil,
    galerkin_coarse_sgdia,
    galerkin_product,
)
from .interp import injection_1d, interp_1d
from .transfer import Transfer, build_transfer, choose_coarsen_factors

__all__ = [
    "Transfer",
    "build_transfer",
    "choose_coarsen_factors",
    "constant_coefficient_coarse_stencil",
    "galerkin_coarse_sgdia",
    "galerkin_product",
    "injection_1d",
    "interp_1d",
]
