"""A multigrid hierarchy whose operators run over an aligned decomposition.

:class:`DistributedMG` is an :class:`~repro.mg.MGHierarchy`: it runs the
sequential hierarchy's own cycle and preconditioner (Algorithm 3 and
Algorithm 2's transitions), on vectors in global layout, over levels whose
three stencil operators run rank by rank.  Each level's smoother, residual
product and grid transfers first exchange the halo of their input, then run
every rank's kernel-table kernel on its own subdomain: the sweeps and the
residual on the rank's ghost-padded local operator
(:class:`~repro.parallel.dist_matrix.DistributedSGDIA`), restriction and
prolongation as the rank's box of the level's transfer stencils
(:meth:`repro.coarsen.Transfer.box_stencils`).  The tiny coarsest level
keeps the sequential direct solver, a gathered (redundant) solve on the
global vectors.  The cycle kind, the scaled levels' change of basis and the
scale-then-setup entry scaling are therefore the sequential cycle's, one
distributed cycle equals the sequential one byte for byte, and through the
:class:`~repro.parallel.comm.CommStats` the hierarchy is built with the
engine measures the per-cycle communication the Figure-10 model charges
analytically.

Alignment: transfers stay rank-local only if every rank's owned range
starts at a multiple of each level's coarsening factor on every axis, down
through the hierarchy.  :meth:`DistributedMG.aligned_decomposition` builds
such decompositions: on each axis, starts on multiples of the product of
that axis's coarsening factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..grid import StructuredGrid
from ..kernels import get_backend
from ..mg import Level, MGHierarchy
from ..smoothers import (
    CoarseDirectSolver,
    GaussSeidel,
    L1Jacobi,
    SymGS,
    WeightedJacobi,
)
from .comm import CommStats
from .decomp import CartesianDecomposition
from .dist_matrix import DistributedSGDIA
from .halo import DistributedField

__all__ = ["DistributedMG", "aligned_split"]


def aligned_split(n: int, parts: int, unit: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``parts`` ranges with starts on multiples of
    ``unit`` (sizes as balanced as the alignment allows)."""
    if parts < 1 or unit < 1:
        raise ValueError("parts and unit must be >= 1")
    blocks = -(-n // unit)  # alignment blocks, last may be partial
    if blocks < parts:
        raise ValueError(
            f"cannot align-split {n} cells into {parts} parts with unit {unit}"
        )
    base, extra = divmod(blocks, parts)
    out = []
    start_block = 0
    for p in range(parts):
        nb = base + (1 if p < extra else 0)
        lo = start_block * unit
        hi = min(n, (start_block + nb) * unit)
        out.append((lo, hi))
        start_block += nb
    return out


class _RankSmoother:
    """A level's smoother run rank by rank: the sweeps ``Smoother.smooth``
    runs (SymGS: a forward and a backward sweep, whatever ``forward``), each
    Gauss-Seidel color or Jacobi sweep after one halo exchange."""

    def __init__(self, smoother, matrix: DistributedSGDIA, stats) -> None:
        self.smoother, self.matrix, self.stats = smoother, matrix, stats
        # the sequential smoother's (high-precision-derived) diagonal
        # inverse, so the distributed sweeps are bit-identical
        self.diag_inv = matrix.padded(smoother.diag_inv)

    def smooth(self, b: np.ndarray, x: np.ndarray, forward: bool = True):
        sm = self.smoother
        if isinstance(sm, (WeightedJacobi, L1Jacobi)):
            passes = [("jacobi", getattr(sm, "weight", 1.0))]
        elif isinstance(sm, SymGS):
            passes = [("gs", True), ("gs", False)]
        else:
            passes = [("gs", forward)]
        return self.matrix.sweeps(
            b, x, self.diag_inv, passes * sm.sweeps, self.stats
        )


class _RankTransfer:
    """A level's transfer pair run rank by rank: one halo exchange of the
    input, then each rank's box of the transfer stencils."""

    def __init__(self, transfer, fine: CartesianDecomposition,
                 coarse: CartesianDecomposition, stats) -> None:
        self.fine, self.coarse, self.stats = fine, coarse, stats
        self._restrict, self._prolong = zip(*(
            transfer.box_stencils(fine.owned_ranges(r), coarse.owned_ranges(r))
            for r in range(fine.nranks)
        ))

    def restrict(self, xf: np.ndarray, dtype=None) -> np.ndarray:
        return self._apply(self._restrict, xf, self.fine, self.coarse, dtype)

    def prolongate(self, xc: np.ndarray, dtype=None) -> np.ndarray:
        return self._apply(self._prolong, xc, self.coarse, self.fine, dtype)

    def _apply(self, stencils, x, src: CartesianDecomposition,
               dst: CartesianDecomposition, dtype) -> np.ndarray:
        halo = DistributedField.scatter(x, src)
        halo.exchange_halos(self.stats)
        dtype = halo.dtype if dtype is None else dtype
        out = np.empty(dst.grid.field_shape, dtype=dtype)
        transfer = get_backend().transfer
        for st, local, sl in zip(stencils, halo.locals, dst.rank_slices):
            out[sl] = transfer(st, local, dtype)
        return out


@dataclass
class _RankLevel(Level):
    """A level whose residual product runs rank by rank."""

    matrix: "DistributedSGDIA | None" = None
    stats: "CommStats | None" = None

    def matvec(self, u: np.ndarray) -> np.ndarray:
        return self.matrix.spmv(u, self.stats)


class DistributedMG(MGHierarchy):
    """A set-up :class:`MGHierarchy` run over a decomposition, every halo
    exchange charged to ``stats``."""

    SUPPORTED_SMOOTHERS = (SymGS, GaussSeidel, WeightedJacobi, L1Jacobi)

    def __init__(
        self,
        hierarchy: MGHierarchy,
        decomp: CartesianDecomposition,
        stats: "CommStats | None" = None,
    ) -> None:
        levels: list[Level] = []
        d = decomp
        last = hierarchy.n_levels - 1
        for i, lev in enumerate(hierarchy.levels):
            if lev.grid.shape != d.grid.shape:
                raise ValueError(
                    f"level {i} grid {lev.grid.shape} does not match the "
                    f"derived decomposition {d.grid.shape}"
                )
            sm = lev.smoother
            if isinstance(sm, CoarseDirectSolver):
                if i != last:
                    raise ValueError("direct solver only supported at coarsest")
                levels.append(lev)  # gathered solve on the global vectors
                continue
            if not isinstance(sm, self.SUPPORTED_SMOOTHERS):
                raise NotImplementedError(
                    f"distributed smoothing not implemented for "
                    f"{type(sm).__name__}"
                )
            matrix = DistributedSGDIA.from_global(lev.stored, d)
            transfer = None
            if i < last:
                coarse = self._coarse_decomposition(
                    d, hierarchy.levels[i + 1].grid, lev.transfer.factors
                )
                transfer = _RankTransfer(lev.transfer, d, coarse, stats)
                d = coarse
            levels.append(_RankLevel(
                index=i, grid=lev.grid, stored=lev.stored,
                smoother=_RankSmoother(sm, matrix, stats), transfer=transfer,
                nnz_actual=lev.nnz_actual, nnz_stored=lev.nnz_stored,
                matrix=matrix, stats=stats,
            ))
        super().__init__(
            levels, hierarchy.config, hierarchy.options,
            entry_scaling=hierarchy.entry_scaling,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def aligned_decomposition(
        hierarchy: MGHierarchy, proc_grid: tuple[int, int, int]
    ) -> CartesianDecomposition:
        """Decomposition of the finest grid whose ownership survives every
        coarsening of ``hierarchy`` without crossing rank boundaries: each
        axis aligns to the product of its factors over the coarsened
        levels."""
        units = np.ones(3, dtype=int)
        for lev in hierarchy.levels[:-1]:
            units *= lev.transfer.factors
        grid = hierarchy.levels[0].grid
        ranges = tuple(
            tuple(aligned_split(n, p, int(unit)))
            for n, p, unit in zip(grid.shape, proc_grid, units)
        )
        return CartesianDecomposition(grid, proc_grid, ranges=ranges)

    @staticmethod
    def _coarse_decomposition(
        fine: CartesianDecomposition,
        coarse_grid: StructuredGrid,
        factors: tuple[int, int, int],
    ) -> CartesianDecomposition:
        """Ownership of the coarse grid induced by the fine decomposition:
        each range divided by its axis's coarsening factor."""
        ranges = []
        for f, n, axis in zip(factors, coarse_grid.shape, fine.ranges):
            if any(lo % f for lo, _hi in axis):
                raise ValueError(
                    "decomposition is not aligned for coarsening; use "
                    "DistributedMG.aligned_decomposition"
                )
            ranges.append(tuple((lo // f, min(n, -(-hi // f))) for lo, hi in axis))
        return CartesianDecomposition(
            coarse_grid, fine.proc_grid, ranges=tuple(ranges)
        )
