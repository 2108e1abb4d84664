"""Vectorized SG-DIA compute kernels (SpMV, sweeps, SpTRSV, and the grid
transfers and Galerkin group product of :mod:`.coarsening`).

Every hot-kernel call runs on a :class:`~repro.kernels.plan.KernelPlan`,
which moves all symbolic work — slice tables, wavefront gather indices,
scratch buffers — to setup time: the caller's ``plan=``, or else the
structure's cached plan from :func:`~repro.kernels.plan.plan_for`.  Each
call then dispatches through the pluggable :mod:`~repro.kernels.backend`
registry, so there are two implementations of each kernel: the numpy
reference (always available) and the compiled C kernels (when gcc is
present), bit-identical to it.
"""

from .backend import (
    KernelBackend,
    available_backends,
    backend_status,
    get_backend,
    register_backend,
    set_backend,
    use_backend,
)
from .lines import line_sweep, thomas_solve_batch
from .plan import KernelPlan, clear_plan_cache, plan_cache_info, plan_for
from .spmv import field_view, residual, spmv, spmv_plain
from .sptrsv import sptrsv, wavefront_planes
from .sweeps import (
    COLORS8,
    color_offset_slices,
    compute_diag_inv,
    gs_sweep_colored,
    jacobi_sweep,
)

__all__ = [
    "COLORS8",
    "KernelBackend",
    "KernelPlan",
    "available_backends",
    "backend_status",
    "clear_plan_cache",
    "color_offset_slices",
    "compute_diag_inv",
    "field_view",
    "get_backend",
    "gs_sweep_colored",
    "jacobi_sweep",
    "line_sweep",
    "plan_cache_info",
    "plan_for",
    "register_backend",
    "residual",
    "set_backend",
    "spmv",
    "spmv_plain",
    "sptrsv",
    "thomas_solve_batch",
    "use_backend",
    "wavefront_planes",
]
