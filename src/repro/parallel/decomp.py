"""Cartesian domain decomposition of a structured grid.

The paper's experiments run StructMG under MPI with load-balanced 3-D
process partitions (Section 6.3).  This module provides the same
decomposition geometry for the in-process distributed engine: a balanced
3-D process grid, per-rank owned index ranges, and neighbour topology.
Ranks are numbered in C order over the process grid, matching the cell
flattening convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np

from ..grid import StructuredGrid
from ..kernels import COLORS8
from ..perf.scaling import process_grid

__all__ = ["CartesianDecomposition", "balanced_split"]

#: Width of the ghost layer around a rank's subdomain: the paper's stencils
#: (up to 3d27) have radius 1.
GHOST = 1


def balanced_split(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``parts`` contiguous, balanced ranges.

    The first ``n % parts`` ranges get one extra cell (numpy.array_split
    convention).  Ranges may be empty only if ``parts > n``.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    base, extra = divmod(n, parts)
    out = []
    start = 0
    for p in range(parts):
        size = base + (1 if p < extra else 0)
        out.append((start, start + size))
        start += size
    return out


@dataclass(frozen=True)
class CartesianDecomposition:
    """A 3-D block decomposition of a structured grid.

    Parameters
    ----------
    grid:
        The global grid being decomposed.
    proc_grid:
        Processes per axis ``(px, py, pz)``.  Every axis must satisfy
        ``p_ax <= n_ax`` so that no rank owns an empty slab.
    """

    grid: StructuredGrid
    proc_grid: tuple[int, int, int]
    #: Optional explicit per-axis ownership ranges (defaults to balanced).
    ranges: "tuple | None" = None

    def __post_init__(self) -> None:
        pg = tuple(int(p) for p in self.proc_grid)
        if any(p < 1 for p in pg):
            raise ValueError("process grid entries must be >= 1")
        if any(p > n for p, n in zip(pg, self.grid.shape)):
            raise ValueError(
                f"process grid {pg} exceeds grid shape {self.grid.shape}"
            )
        object.__setattr__(self, "proc_grid", pg)
        if self.ranges is None:
            ranges = tuple(
                tuple(balanced_split(n, p))
                for n, p in zip(self.grid.shape, pg)
            )
        else:
            ranges = tuple(
                tuple((int(lo), int(hi)) for (lo, hi) in axis_ranges)
                for axis_ranges in self.ranges
            )
            for ax, (axis_ranges, n, p) in enumerate(
                zip(ranges, self.grid.shape, pg)
            ):
                if len(axis_ranges) != p:
                    raise ValueError(
                        f"axis {ax}: need {p} ranges, got {len(axis_ranges)}"
                    )
                if axis_ranges[0][0] != 0 or axis_ranges[-1][1] != n:
                    raise ValueError(f"axis {ax}: ranges must cover [0, {n})")
                for (a0, a1), (b0, b1) in zip(axis_ranges, axis_ranges[1:]):
                    if a1 != b0 or a1 <= a0:
                        raise ValueError(
                            f"axis {ax}: ranges must be contiguous, non-empty"
                        )
        object.__setattr__(self, "ranges", ranges)
        object.__setattr__(self, "_ranges", ranges)

    # ------------------------------------------------------------------
    @classmethod
    def auto(cls, grid: StructuredGrid, nranks: int) -> "CartesianDecomposition":
        """Balanced decomposition for ``nranks`` ranks (largest factors on
        the longest axes)."""
        dims = sorted(process_grid(nranks), reverse=True)
        order = np.argsort(np.argsort([-n for n in grid.shape]))
        pg = tuple(int(dims[order[ax]]) for ax in range(3))
        return cls(grid=grid, proc_grid=pg)

    @property
    def nranks(self) -> int:
        return prod(self.proc_grid)

    def rank_coords(self, rank: int) -> tuple[int, int, int]:
        """Process-grid coordinates of a rank (C-order numbering)."""
        px, py, pz = self.proc_grid
        if not (0 <= rank < self.nranks):
            raise ValueError(f"rank {rank} out of range for {self.nranks} ranks")
        return (rank // (py * pz), (rank // pz) % py, rank % pz)

    def rank_of(self, coords: tuple[int, int, int]) -> int:
        px, py, pz = self.proc_grid
        cx, cy, cz = coords
        return (cx * py + cy) * pz + cz

    def owned_ranges(self, rank: int) -> tuple[tuple[int, int], ...]:
        """Per-axis global ``(start, stop)`` ranges owned by ``rank``."""
        coords = self.rank_coords(rank)
        return tuple(self._ranges[ax][c] for ax, c in enumerate(coords))

    def owned_slices(self, rank: int) -> tuple[slice, slice, slice]:
        return tuple(slice(lo, hi) for (lo, hi) in self.owned_ranges(rank))

    def local_shape(self, rank: int) -> tuple[int, int, int]:
        return tuple(hi - lo for (lo, hi) in self.owned_ranges(rank))

    def neighbor(self, rank: int, axis: int, direction: int) -> "int | None":
        """Neighbouring rank along ``axis`` (+1/-1), or None at the domain
        boundary."""
        coords = list(self.rank_coords(rank))
        coords[axis] += direction
        if not (0 <= coords[axis] < self.proc_grid[axis]):
            return None
        return self.rank_of(tuple(coords))

    @cached_property
    def halo_plan(self) -> tuple:
        """The staged exchange of the ghost layer, built on first use.

        One entry per stage, one stage per axis in order: the ``(rank,
        ghost slab)`` pairs on the physical boundary, whose ghosts stay
        zero, and the messages ``(side, rank, send slab, neighbour, recv
        slab)``, low side first and ranks ascending; the neighbour receives
        into its *opposite* ghost slab.  Slabs index a rank's ghost-padded
        local array: the stage's axis spans ``GHOST`` owned (send) or ghost
        (recv) layers, axes before it their padded extent (already
        exchanged, which carries edges and corners along) and axes after it
        their owned extent.
        """
        g = GHOST
        shapes = [self.local_shape(rank) for rank in range(self.nranks)]

        def slab(rank, axis, side, ghost):
            n = shapes[rank][axis]
            lo = (0 if ghost else g) if side < 0 else (n + g if ghost else n)
            return tuple(
                slice(lo, lo + g) if ax == axis
                else slice(0, m + 2 * g) if ax < axis
                else slice(g, m + g)
                for ax, m in enumerate(shapes[rank])
            )

        plan = []
        for axis in range(3):
            zero, messages = [], []
            for side in (-1, +1):
                for rank in range(self.nranks):
                    nbr = self.neighbor(rank, axis, side)
                    if nbr is None:
                        zero.append((rank, slab(rank, axis, side, True)))
                    else:
                        messages.append((
                            side, rank, slab(rank, axis, side, False),
                            nbr, slab(nbr, axis, -side, True),
                        ))
            plan.append((tuple(zero), tuple(messages)))
        return tuple(plan)

    @cached_property
    def local_colors(self) -> tuple:
        """Per rank, each class of :data:`~repro.kernels.COLORS8` mapped to
        its parity on the rank's ghost-padded local grid (padded index =
        global index - lo + 1), built on first use."""
        return tuple(
            {
                color: tuple(
                    (c - lo + 1) % 2
                    for c, (lo, _hi) in zip(color, self.owned_ranges(rank))
                )
                for color in COLORS8
            }
            for rank in range(self.nranks)
        )

    def max_local_dofs(self) -> int:
        """Largest per-rank dof count (the load-balance figure)."""
        return max(
            prod(self.local_shape(r)) * self.grid.ncomp
            for r in range(self.nranks)
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.grid} over {self.proc_grid[0]}x{self.proc_grid[1]}"
            f"x{self.proc_grid[2]} ranks"
        )
