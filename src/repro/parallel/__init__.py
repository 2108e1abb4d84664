"""In-process distributed-memory engine (domain decomposition substrate).

The paper evaluates StructMG under MPI on up to 64 nodes.  MPI is not
available in this environment, so this package provides an *executable*
stand-in: all ranks live in one process, every halo transfer and allreduce
is routed through :class:`CommStats`, and every rank runs the kernel
table's kernels on a ghost-padded local operator, so the distributed SpMV,
sweeps and V-cycle equal the sequential ones byte for byte, scaled levels
included.  The measured message/byte counts validate the analytic
strong-scaling model of :mod:`repro.perf.scaling`.
"""

from .comm import CommStats
from .decomp import CartesianDecomposition, balanced_split
from .dist_matrix import DistributedSGDIA
from .dist_mg import DistributedMG, aligned_split
from .dist_solver import distributed_cg, distributed_dot, failing_ranks
from .halo import DistributedField

__all__ = [
    "CartesianDecomposition",
    "CommStats",
    "DistributedField",
    "DistributedMG",
    "DistributedSGDIA",
    "aligned_split",
    "balanced_split",
    "distributed_cg",
    "distributed_dot",
    "failing_ranks",
]
