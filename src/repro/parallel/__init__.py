"""In-process distributed-memory engine (domain decomposition substrate).

The paper evaluates StructMG under MPI on up to 64 nodes.  MPI is not
available in this environment, so this package provides an *executable*
stand-in: all ranks live in one process, every halo transfer and allreduce
is routed through :class:`CommStats`, and every rank runs the kernel
table's kernels on a ghost-padded local operator.  Vectors stay in global
layout; the ranks live inside the stencil operators (SpMV, sweeps, grid
transfers), each one halo exchange and then every rank's kernel, and inside
the dot products, each per-rank partial sums and one allreduce.
:class:`DistributedMG` runs the sequential :class:`~repro.mg.MGHierarchy`
cycle over such operators, so the distributed SpMV, sweeps and cycle equal
the sequential ones byte for byte, scaled levels included, and
:func:`distributed_cg` runs the sequential CG recurrence on the one solver
driver, its reductions swapped for the counted ones.  Nothing here iterates
a Krylov method of its own.  The measured message/byte counts validate the
analytic strong-scaling model of :mod:`repro.perf.scaling`.
"""

from .comm import CommStats
from .decomp import CartesianDecomposition, balanced_split
from .dist_matrix import DistributedSGDIA
from .dist_mg import DistributedMG, aligned_split
from .dist_solver import distributed_cg, distributed_dot, failing_ranks

__all__ = [
    "CartesianDecomposition",
    "CommStats",
    "DistributedMG",
    "DistributedSGDIA",
    "aligned_split",
    "balanced_split",
    "distributed_cg",
    "distributed_dot",
    "failing_ranks",
]
