"""Distributed SG-DIA operators that run the shared kernels on every rank.

Each rank holds the coefficient slabs of its owned rows (SG-DIA stores one
coefficient per row per offset, so distribution is a pure slicing of the
SOA arrays — no index translation at all, another practical advantage of
index-free structured storage) inside a shell of zero coefficients: a local
:class:`~repro.sgdia.SGDIAMatrix` on the grid of the rank's ghost-padded
:class:`~repro.parallel.halo.DistributedField` array (``local_shape + 2``
per axis).  The entry points take and return vectors in global layout:
each copies its input into that private halo buffer, exchanges the ghosts,
runs the backend-dispatched kernels of :mod:`repro.kernels` on every rank's
operator and array unchanged, and writes the owned cells back.  Owned cells
read their neighbours from the ghosts, and a term leaving the global domain
is a zero coefficient times a zero ghost (the ``zero_boundary``
convention).  Every owned cell thus sums the same terms in the same
ascending order as the sequential kernel, so the distributed SpMV and
sweeps equal it byte for byte.  The shell costs memory: a rank's
coefficient bytes grow by ``((n + 2) / n)**3`` for ``n`` owned cells per
axis (1.95x at 8^3, 1.33x at 20^3).

Mixed precision carries over unchanged: the local payload can be FP16,
recovered to the compute precision on the fly, and a scaled payload ``A_s``
runs as stored, on vectors in its level's own basis (as in
:mod:`repro.mg.hierarchy`); the ghost exchange always moves *vector* (FP32)
data, matching guideline 3.4.
"""

from __future__ import annotations

import numpy as np

from ..grid import StructuredGrid
from ..kernels import COLORS8, gs_sweep_colored, jacobi_sweep, spmv_plain
from ..sgdia import SGDIAMatrix, StoredMatrix
from .comm import CommStats
from .decomp import CartesianDecomposition
from .halo import DistributedField

__all__ = ["DistributedSGDIA"]

_G = DistributedField.GHOST
#: The owned cells of a rank's padded local array.
_OWNED = (slice(_G, -_G),) * 3


class DistributedSGDIA:
    """A square SG-DIA operator distributed by row ownership."""

    def __init__(
        self,
        decomp: CartesianDecomposition,
        local_ops: list[SGDIAMatrix],
        compute_dtype=np.float32,
    ) -> None:
        self.decomp = decomp
        self.local_ops = local_ops  # per rank: owned rows in a zero shell
        self.compute_dtype = np.dtype(compute_dtype)

    # ------------------------------------------------------------------
    @classmethod
    def from_global(
        cls,
        a: "SGDIAMatrix | StoredMatrix",
        decomp: CartesianDecomposition,
    ) -> "DistributedSGDIA":
        """Distribute a (possibly mixed-precision) global operator.

        A :class:`~repro.sgdia.StoredMatrix` distributes its stored payload,
        run in its compute precision; for a scaled one that is ``A_s``, the
        operator of its level's own basis.
        """
        if isinstance(a, StoredMatrix):
            matrix, compute = a.matrix, a.compute.np_dtype
        else:
            matrix = a
            compute = np.float32 if a.dtype != np.float64 else np.float64
        if matrix.grid.shape != decomp.grid.shape:
            raise ValueError("decomposition grid does not match the matrix")
        local_ops = []
        for sl, shape in zip(decomp.rank_slices, decomp.rank_shapes):
            shell = StructuredGrid(
                tuple(n + 2 * _G for n in shape), ncomp=matrix.grid.ncomp
            )
            op = SGDIAMatrix.zeros(shell, matrix.stencil, dtype=matrix.dtype)
            for d in range(op.ndiag):
                op.diag_view(d)[_OWNED] = matrix.diag_view(d)[sl]
            local_ops.append(op)
        return cls(decomp, local_ops, compute_dtype=compute)

    # ------------------------------------------------------------------
    def padded(self, per_cell: np.ndarray) -> list[np.ndarray]:
        """Per rank, the owned cells of a global per-cell array (such as a
        smoother's inverse diagonal) inside a shell of zeros, shaped like
        the rank's ghost-padded local array (trailing axes kept)."""
        return [
            np.pad(
                per_cell[sl], ((_G, _G),) * 3 + ((0, 0),) * (per_cell.ndim - 3)
            )
            for sl in self.decomp.rank_slices
        ]

    def spmv(self, x: np.ndarray, stats: "CommStats | None" = None) -> np.ndarray:
        """``y = A x`` of a global-layout ``x``: one halo exchange, then each
        rank's SpMV of its owned rows."""
        cdtype = self.compute_dtype
        halo = DistributedField.scatter(x, self.decomp)
        halo.exchange_halos(stats)
        y = np.empty(self.decomp.grid.field_shape, dtype=cdtype)
        for op, local, sl in zip(
            self.local_ops, halo.locals, self.decomp.rank_slices
        ):
            y[sl] = spmv_plain(op, local, compute_dtype=cdtype)[_OWNED]
        return y

    def jacobi_sweep(
        self,
        b: np.ndarray,
        x: np.ndarray,
        diag_inv: np.ndarray,
        weight: float = 0.8,
        stats: "CommStats | None" = None,
    ) -> np.ndarray:
        """One weighted-Jacobi sweep, as :func:`repro.kernels.jacobi_sweep`
        on the global operator."""
        return self.sweeps(
            b, x, self.padded(diag_inv), [("jacobi", weight)], stats
        )

    def gs_sweep_colored(
        self,
        b: np.ndarray,
        x: np.ndarray,
        diag_inv: np.ndarray,
        forward: bool = True,
        stats: "CommStats | None" = None,
    ) -> np.ndarray:
        """One 8-color Gauss-Seidel sweep, as
        :func:`repro.kernels.gs_sweep_colored` on the global operator.

        Colors are defined by *global* parity, so ranks stay consistent;
        ghosts are re-exchanged before every color (8 exchanges per sweep —
        the communication cost structured multicolor GS is known for).
        """
        return self.sweeps(
            b, x, self.padded(diag_inv), [("gs", forward)], stats
        )

    def sweeps(
        self,
        b: np.ndarray,
        x: np.ndarray,
        diag_inv: list[np.ndarray],
        passes,
        stats: "CommStats | None" = None,
    ) -> np.ndarray:
        """Sweeps of the stored payload for ``A x = b`` on global-layout
        ``b`` and ``x`` (updated in place): each pass ``("jacobi", weight)``
        a weighted-Jacobi sweep, ``("gs", forward)`` an 8-color Gauss-Seidel
        sweep.

        ``diag_inv`` holds per rank the owned inverse diagonal inside a
        shell of zeros (:meth:`padded`).  A sweep therefore writes zeros
        (Gauss-Seidel: into the ghost cells of each color) or adds them
        (Jacobi) outside the owned cells of the halo buffer; that is safe
        only because every pass exchanges the halos first.
        """
        cdtype = self.compute_dtype
        rhs = DistributedField.scatter(b, self.decomp)
        halo = DistributedField.scatter(x, self.decomp)
        for kind, arg in passes:
            if kind == "jacobi":
                halo.exchange_halos(stats)
                for rank, op in enumerate(self.local_ops):
                    jacobi_sweep(
                        op, rhs.locals[rank], halo.locals[rank],
                        diag_inv[rank], weight=arg, compute_dtype=cdtype,
                    )
                continue
            local_colors = self.decomp.local_colors
            for color in COLORS8 if arg else COLORS8[::-1]:
                halo.exchange_halos(stats)
                for rank, op in enumerate(self.local_ops):
                    gs_sweep_colored(
                        op, rhs.locals[rank], halo.locals[rank],
                        diag_inv[rank], compute_dtype=cdtype,
                        color=local_colors[rank][color],
                    )
        return halo.gather(out=x)
