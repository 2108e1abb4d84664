"""Dense direct solver for the coarsest multigrid level.

The coarsest grid of an aggressively coarsened hierarchy has a handful of
unknowns; a dense LU factorization in high precision costs essentially
nothing (Section 3.3's complexity argument) and removes any smoother
convergence concern at the bottom of the V-cycle.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from ..sgdia import SGDIAMatrix, StoredMatrix
from .base import Smoother

__all__ = ["CoarseDirectSolver"]

_MAX_DENSE_DOFS = 40_000


class CoarseDirectSolver(Smoother):
    """LU-based exact solve, exposed through the smoother interface.

    The factorization is computed in FP64 from the high-precision (scaled)
    operator; the apply overwrites ``x`` with the solution — applying it
    "twice" (pre and post) is idempotent, so it is safe to plug in wherever
    a smoother is expected.
    """

    def __init__(self) -> None:
        super().__init__()
        self._lu = None

    def _setup_scaled(self, high: SGDIAMatrix, stored: StoredMatrix) -> None:
        n = high.grid.ndof
        if n > _MAX_DENSE_DOFS:
            raise ValueError(
                f"coarse level has {n} dofs; too large for a dense direct "
                f"solver (max {_MAX_DENSE_DOFS}) — coarsen further or use a "
                "smoother at the coarsest level"
            )
        dense = high.to_csr(dtype=np.float64).toarray()
        self._lu = sla.lu_factor(dense)

    def state_arrays(self) -> "dict[str, np.ndarray] | None":
        if self._lu is None:
            return None
        return {"lu": self._lu[0], "piv": self._lu[1]}

    def load_state(self, stored: StoredMatrix, arrays: dict) -> "Smoother":
        self._bind_stored(stored)
        self._lu = (np.asarray(arrays["lu"]), np.asarray(arrays["piv"]))
        return self

    def _smooth_scaled(self, b, x, forward: bool) -> None:
        grid = self.stored.grid
        bb = np.asarray(b, dtype=np.float64)
        if bb.ndim == len(grid.field_shape) + 1:  # batched multi-RHS block
            bb = bb.reshape(grid.ndof, bb.shape[-1])
        else:
            bb = bb.ravel()
        if not np.isfinite(bb).all():
            # NaN/inf reached the coarsest level (the crash mode of unsafe
            # truncation) — propagate it so the solver reports divergence
            # instead of raising from inside LAPACK.
            x[...] = np.nan
            return
        # scipy's getrs wrapper makes piv 1-based in place for the length of
        # the call: threads sharing this solver (one hierarchy serving
        # concurrent solves) must not share piv, or a thread reads shifted
        # pivots and its row swaps write out of bounds
        lu, piv = self._lu
        sol = sla.lu_solve((lu, piv.copy()), bb)
        x[...] = sol.reshape(x.shape).astype(x.dtype)

    def extra_nbytes(self) -> int:
        return int(self._lu[0].nbytes) if self._lu is not None else 0
