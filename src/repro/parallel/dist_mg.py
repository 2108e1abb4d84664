"""Distributed multigrid cycle over aligned decompositions.

Executes the full Algorithm-3 cycle on decomposed data, of the kind
(V, W or F) the hierarchy's options name.  Every rank runs the
kernel table's SpMV, Gauss-Seidel or Jacobi sweep and grid transfer on its
own subdomain: the sweeps and residuals on the rank's ghost-padded local
operator (:class:`~repro.parallel.dist_matrix.DistributedSGDIA`), and
restriction and prolongation as the rank's box of the level's transfer
stencils (:meth:`repro.coarsen.Transfer.box_stencils`), each after one halo
exchange of its input.  The tiny coarsest level is a gathered direct solve
(the standard redundant-coarse-solve practice).  A scaled level runs in its
own basis and converts vectors where they change level, per rank in the
sequential cycle's order (see :mod:`repro.mg.hierarchy`).  One distributed
cycle or preconditioner application equals the sequential
:class:`~repro.mg.MGHierarchy` one byte for byte, and through
:class:`~repro.parallel.comm.CommStats` the engine measures the per-cycle
communication the Figure-10 model charges analytically.

Alignment: transfers stay rank-local only if every rank's owned range
starts at a multiple of each level's coarsening factor on every axis, down
through the hierarchy.  :meth:`DistributedMG.aligned_decomposition` builds
such decompositions: on each axis, starts on multiples of the product of
that axis's coarsening factors.
"""

from __future__ import annotations

import numpy as np

from ..grid import StructuredGrid
from ..kernels import get_backend
from ..mg import MGHierarchy
from ..precision import DiagonalScaling
from ..smoothers import (
    CoarseDirectSolver,
    GaussSeidel,
    L1Jacobi,
    SymGS,
    WeightedJacobi,
)
from .comm import CommStats
from .decomp import CartesianDecomposition
from .dist_matrix import DistributedSGDIA, padded
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


class _DistLevel:
    """Per-level distributed state."""

    def __init__(self, decomp, scaling, matrix, diag_inv, smoother_kind, sweeps):
        self.decomp: CartesianDecomposition = decomp
        #: the level's DiagonalScaling (its basis), or None
        self.scaling = scaling
        self.matrix: "DistributedSGDIA | None" = matrix  # None: direct solve
        #: per rank, the smoother's inverse diagonal in a shell of zeros
        self.diag_inv: list[np.ndarray] = diag_inv
        self.smoother_kind: str = smoother_kind
        self.sweeps: int = sweeps
        #: per rank, the transfer stencils to and from the next level
        self.restrict: tuple = ()
        self.prolong: tuple = ()


class DistributedMG:
    """A distributed mirror of a set-up :class:`MGHierarchy`."""

    SUPPORTED_SMOOTHERS = (SymGS, GaussSeidel, WeightedJacobi, L1Jacobi)

    def __init__(self, hierarchy: MGHierarchy, decomp: CartesianDecomposition):
        self.hierarchy = hierarchy
        self.levels: list[_DistLevel] = []
        self.coarse_solver = None
        d = decomp
        n_levels = hierarchy.n_levels
        for i, lev in enumerate(hierarchy.levels):
            if lev.grid.shape != d.grid.shape:
                raise ValueError(
                    f"level {i} grid {lev.grid.shape} does not match the "
                    f"derived decomposition {d.grid.shape}"
                )
            sm = lev.smoother
            if isinstance(sm, CoarseDirectSolver):
                if i != n_levels - 1:
                    raise ValueError("direct solver only supported at coarsest")
                self.coarse_solver = sm
                self.levels.append(
                    _DistLevel(d, lev.stored.scaling, None, [], "direct", 1)
                )
                break
            if not isinstance(sm, self.SUPPORTED_SMOOTHERS):
                raise NotImplementedError(
                    f"distributed smoothing not implemented for "
                    f"{type(sm).__name__}"
                )
            matrix = DistributedSGDIA.from_global(lev.stored, d)
            # scatter the sequential smoother's (high-precision-derived)
            # diagonal inverse so the distributed sweep is bit-identical
            diag_inv = [
                padded(sm.diag_inv[d.owned_slices(r)]) for r in range(d.nranks)
            ]
            kind = "jacobi" if isinstance(sm, (WeightedJacobi, L1Jacobi)) else (
                "symgs" if isinstance(sm, SymGS) else "gs"
            )
            dist = _DistLevel(
                d, lev.stored.scaling, matrix, diag_inv, kind, sm.sweeps
            )
            self.levels.append(dist)
            if i < n_levels - 1:
                coarse = self._coarse_decomposition(
                    d, hierarchy.levels[i + 1].grid, lev.transfer.factors
                )
                dist.restrict, dist.prolong = zip(*(
                    lev.transfer.box_stencils(
                        d.owned_ranges(r), coarse.owned_ranges(r)
                    )
                    for r in range(d.nranks)
                ))
                d = coarse
        self.compute_dtype = hierarchy.compute_dtype

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

    # ------------------------------------------------------------------
    # smoothing and the change of basis
    # ------------------------------------------------------------------
    def _smooth(self, li: int, b: DistributedField, x: DistributedField,
                forward: bool, stats) -> None:
        """The smoother on the stored payload, as ``Smoother.smooth`` runs
        it (SymGS: a forward and a backward sweep, whatever ``forward``)."""
        lev = self.levels[li]
        seq = self.hierarchy.levels[li].smoother
        sweep = lev.matrix._sweep
        for _ in range(lev.sweeps):
            if lev.smoother_kind == "jacobi":
                weight = getattr(seq, "weight", 1.0)
                sweep("jacobi", b, x, lev.diag_inv, stats, weight=weight)
            elif lev.smoother_kind == "gs":
                sweep("gs", b, x, lev.diag_inv, stats, forward=forward)
            else:
                sweep("gs", b, x, lev.diag_inv, stats, forward=True)
                sweep("gs", b, x, lev.diag_inv, stats, forward=False)

    def _rebase(self, li: int, v: DistributedField, convert) -> None:
        """``convert`` (``DiagonalScaling.scale_vector`` or
        ``unscale_vector``) of level ``li``'s field ``v``, in place on every
        rank's owned cells; nothing on an unscaled level."""
        lev = self.levels[li]
        if lev.scaling is not None:
            for rank in range(lev.decomp.nranks):
                owned = v.owned_view(rank)
                scaling = lev.scaling[lev.decomp.owned_slices(rank)]
                convert(scaling, owned, out=owned)

    # ------------------------------------------------------------------
    # transfers (each rank's box of the sequential transfer stencils)
    # ------------------------------------------------------------------
    def _transfer(self, stencils: tuple, src: DistributedField,
                  decomp: CartesianDecomposition, stats) -> DistributedField:
        """One exchange of ``src``'s ghosts, then each rank's stencil from
        its padded array to the owned cells of a new field on ``decomp``."""
        out = DistributedField(decomp, dtype=self.compute_dtype)
        src.exchange_halos(stats)
        transfer = get_backend().transfer
        for rank, st in enumerate(stencils):
            out.owned_view(rank)[...] = transfer(
                st, src.locals[rank], self.compute_dtype
            )
        return out

    # ------------------------------------------------------------------
    def cycle(
        self,
        b: DistributedField,
        x: "DistributedField | None" = None,
        stats: "CommStats | None" = None,
    ) -> DistributedField:
        """One distributed cycle of the hierarchy's kind (compute-precision
        fields), entering and leaving a scaled finest level's basis as
        :meth:`MGHierarchy.cycle` does."""
        decomp = self.levels[0].decomp
        f = b
        if self.levels[0].scaling is not None:
            f = DistributedField(decomp, dtype=self.compute_dtype)
            for rank in range(decomp.nranks):
                f.owned_view(rank)[...] = b.owned_view(rank)
            self._rebase(0, f, DiagonalScaling.unscale_vector)
        if x is None:
            x = DistributedField(decomp, dtype=self.compute_dtype)
        else:
            self._rebase(0, x, DiagonalScaling.scale_vector)
        self._cycle(0, f, x, self.hierarchy.options.cycle, stats)
        self._rebase(0, x, DiagonalScaling.unscale_vector)
        return x

    def _cycle(self, li, f, u, kind, stats) -> None:
        """One visit of level ``li``; ``kind`` picks the coarse visits as
        :meth:`MGHierarchy._cycle` does (W: two, F: an F- then a V-visit)."""
        lev = self.levels[li]
        nu1, nu2 = self.hierarchy.options.nu1, self.hierarchy.options.nu2
        if li == len(self.levels) - 1:
            self._coarse_solve(li, f, u)
            return
        for _ in range(nu1):
            self._smooth(li, f, u, forward=True, stats=stats)
        r = DistributedField(lev.decomp, dtype=self.compute_dtype)
        lev.matrix.spmv(u, out=r, stats=stats)
        for rank in range(lev.decomp.nranks):
            r.owned_view(rank)[...] = (
                f.owned_view(rank) - r.owned_view(rank)
            )
        self._rebase(li, r, DiagonalScaling.scale_vector)
        fc = self._transfer(lev.restrict, r, self.levels[li + 1].decomp, stats)
        self._rebase(li + 1, fc, DiagonalScaling.unscale_vector)
        uc = DistributedField(
            self.levels[li + 1].decomp, dtype=self.compute_dtype
        )
        for coarse_kind in {"v": "v", "w": "ww", "f": "fv"}[kind]:
            self._cycle(li + 1, fc, uc, coarse_kind, stats)
        self._rebase(li + 1, uc, DiagonalScaling.unscale_vector)
        e = self._transfer(lev.prolong, uc, lev.decomp, stats)
        self._rebase(li, e, DiagonalScaling.scale_vector)
        for rank in range(lev.decomp.nranks):
            u.owned_view(rank)[...] += e.owned_view(rank)
        for _ in range(nu2):
            self._smooth(li, f, u, forward=False, stats=stats)

    def _coarse_solve(self, li, f, u) -> None:
        """Gathered (redundant) direct solve at the coarsest level."""
        lev = self.levels[li]
        if self.coarse_solver is not None:
            bg = f.gather().astype(self.compute_dtype)
            xg = np.zeros_like(bg)
            self.coarse_solver.smooth(bg, xg, forward=True)
            for rank in range(lev.decomp.nranks):
                u.owned_view(rank)[...] = xg[lev.decomp.owned_slices(rank)]
        else:
            nu = max(1, self.hierarchy.options.nu1 + self.hierarchy.options.nu2)
            for _ in range(nu):
                self._smooth(li, f, u, forward=True, stats=None)

    def precondition(self, r: DistributedField, stats=None) -> DistributedField:
        """Distributed Algorithm-2 application (fp32 cycle on fp64 data),
        inside the global ``Q^{-1/2}`` entry/exit maps of scale-then-setup
        as :meth:`MGHierarchy.precondition` applies them."""
        h = self.hierarchy
        decomp = self.levels[0].decomp
        entry = h.entry_scaling
        rc = DistributedField(decomp, dtype=self.compute_dtype)
        for rank in range(decomp.nranks):
            rv = np.asarray(r.owned_view(rank), dtype=self.compute_dtype)
            if entry is not None:
                rv = entry[decomp.owned_slices(rank)].unscale_vector(rv)
            rc.owned_view(rank)[...] = rv
        e = self.cycle(rc, stats=stats)
        out = DistributedField(decomp, dtype=h.config.iterative.np_dtype)
        for rank in range(decomp.nranks):
            ev = e.owned_view(rank)
            if entry is not None:
                ev = entry[decomp.owned_slices(rank)].unscale_vector(ev)
            out.owned_view(rank)[...] = ev
        return out

