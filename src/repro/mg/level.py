"""One level of the multigrid hierarchy."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..coarsen import Transfer
from ..grid import StructuredGrid
from ..kernels import spmv_plain
from ..sgdia import SGDIAMatrix, StoredMatrix
from ..smoothers import Smoother

__all__ = ["Level"]


@dataclass
class Level:
    """Per-level state after setup (Algorithm 1's outputs).

    ``stored`` is the Algorithm-1 output: the storage-precision payload plus
    scaling state; ``smoother`` is the corresponding ``S_i``; ``transfer``
    connects this level to the next coarser one (``None`` at the coarsest).
    ``high`` is retained only when ``MGOptions.keep_high`` is set.
    """

    index: int
    grid: StructuredGrid
    stored: StoredMatrix
    smoother: Smoother
    transfer: "Transfer | None" = None
    high: "SGDIAMatrix | None" = None
    nnz_actual: int = 0
    nnz_stored: int = 0

    # kernel execution plan, bound lazily (setup binds it eagerly so the
    # first cycle performs no symbolic work; restored/spilled hierarchies
    # rebind on first touch)
    _plan: "object | None" = field(default=None, repr=False)

    @property
    def ndof(self) -> int:
        return self.grid.ndof

    @property
    def plan(self):
        """The :class:`~repro.kernels.plan.KernelPlan` for this level.

        Resolved through the process-wide structure-keyed cache, so levels
        sharing a grid/stencil (and the same level across spill/restore)
        share one plan object.  Not serialized: ``serve.cache`` rebuilds it
        on load by touching this property.
        """
        if self._plan is None:
            from ..kernels.plan import plan_for

            self._plan = plan_for(self.stored.matrix)
        return self._plan

    @property
    def compute_dtype(self) -> np.dtype:
        return self.stored.compute.np_dtype

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """The cycle's residual product ``A_s u``: the stored payload,
        recovered to the compute precision on the fly, on this level's
        plan (on a scaled level, the operator of its own basis)."""
        return spmv_plain(
            self.stored.matrix, u, compute_dtype=self.compute_dtype,
            plan=self.plan,
        )

    def rebind(self, stored: StoredMatrix, smoother: "Smoother | None" = None) -> None:
        """Swap this level's payload (and optionally smoother) in place.

        Used by the runtime precision policy to re-materialize one level in
        a different storage format without rebuilding the hierarchy.  The
        kernel plan is invalidated: it is structure-keyed, so a
        same-structure rebind re-fetches the cached plan object.  The cycle
        reads the level's basis from ``stored.scaling`` at every visit, so
        a rebind that changes the scaling needs nothing more.
        """
        self.stored = stored
        if smoother is not None:
            self.smoother = smoother
        self._plan = None

    def matrix_nbytes(self) -> int:
        """Storage-precision payload bytes (+ scaling vector if present)."""
        return self.stored.value_nbytes()

    def smoother_nbytes(self) -> int:
        return self.smoother.extra_nbytes()
