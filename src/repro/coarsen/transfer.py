"""3-D transfer operators (prolongation / restriction) between grid levels.

The prolongation is ``P = Px (x) Py (x) Pz (x) I_r`` — a Kronecker product
of 1-D interpolations matching the C-order dof flattening, with an identity
over the ``r`` components of vector-PDE unknowns.  Restriction is the
transpose (standard Galerkin pairing).  A :class:`Transfer` keeps only the
1-D factors: the structured Galerkin product (:mod:`repro.coarsen.galerkin`)
works from them, and the solve applies ``P`` and ``R`` as stencils over the
field (the ``transfer`` kernel of :mod:`repro.kernels.coarsening`), with no
assembled matrix and no index arrays.

Transfer application is part of the solve phase, so it runs in the
preconditioner *compute* precision; the entries themselves are small dyadic
rationals (1, 1/2, 1/4, ...) that are exact in any format.  The summation
order is part of the reference: each output value sums its neighbours in
ascending flattened index from zero, each with tap weight the compute-dtype
cast of the FP64 product ``(w_x * w_y) * w_z`` — the order and values of a
CSR matvec on the Kronecker-assembled ``P`` or ``R``, which the transfers
therefore equal byte for byte on finite inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..grid import StructuredGrid
from ..kernels import get_backend
from ..kernels.coarsening import TransferStencil, transfer_stencil
from .interp import injection_1d, interp_1d

__all__ = ["Transfer", "build_transfer", "choose_coarsen_factors"]


@dataclass
class Transfer:
    """Prolongation/restriction pair between a fine and a coarse grid."""

    fine: StructuredGrid
    coarse: StructuredGrid
    factors: tuple[int, int, int]
    p1d: tuple  # per-axis FP64 1-D prolongations (n_axis, nc_axis)
    _prolong: TransferStencil = field(init=False, repr=False, compare=False)
    _restrict: TransferStencil = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = [p.tocoo() for p in self.p1d]
        self._prolong = transfer_stencil(self.coarse, self.fine, [
            (m.row, m.col, m.data, f, 1) for m, f in zip(entries, self.factors)
        ])
        self._restrict = transfer_stencil(self.fine, self.coarse, [
            (m.col, m.row, m.data, 1, f) for m, f in zip(entries, self.factors)
        ])

    def prolongate(self, xc: np.ndarray, dtype=None) -> np.ndarray:
        """Interpolate a coarse field (or RHS block) up to the fine grid."""
        return get_backend().transfer(self._prolong, xc, dtype)

    def restrict(self, xf: np.ndarray, dtype=None) -> np.ndarray:
        """Restrict a fine field (or RHS block) down to the coarse grid."""
        return get_backend().transfer(self._restrict, xf, dtype)

    def box_stencils(self, fine_box, coarse_box) -> tuple:
        """The ``(restrict, prolong)`` stencils of one subdomain.

        ``fine_box`` and ``coarse_box`` give per axis the global ``(lo, hi)``
        range a rank owns on each grid.  Each stencil writes the owned cells
        of its destination and reads its source box padded by one ghost cell
        per side, the local array of a
        :class:`~repro.parallel.halo.DistributedField`.  The taps are this
        transfer's, and ascending local index is ascending global index, so
        the owned outputs equal those of :meth:`restrict` and
        :meth:`prolongate` byte for byte.
        """
        ncomp = self.fine.ncomp
        restrict, prolong = [], []
        for p, f, (flo, fhi), (clo, chi) in zip(
            self.p1d, self.factors, fine_box, coarse_box
        ):
            m = p.tocoo()  # rows index the fine grid, columns the coarse
            for out, src, (olo, ohi), (slo, shi), axes, periods in (
                (m.col, m.row, (clo, chi), (flo, fhi), restrict, (1, f)),
                (m.row, m.col, (flo, fhi), (clo, chi), prolong, (f, 1)),
            ):
                keep = (out >= olo) & (out < ohi)
                local = src[keep] - (slo - 1)
                if np.any(local < 0) or np.any(local > shi - slo + 1):
                    raise ValueError(
                        f"a factor-{f} transfer reads beyond the ghost layer"
                    )
                axes.append((out[keep] - olo, local, m.data[keep], *periods))

        def box(ranges, ghost):
            return StructuredGrid(
                tuple(hi - lo + 2 * ghost for lo, hi in ranges), ncomp=ncomp
            )

        return (
            transfer_stencil(box(fine_box, 1), box(coarse_box, 0), restrict),
            transfer_stencil(box(coarse_box, 1), box(fine_box, 0), prolong),
        )

    @property
    def nbytes(self) -> int:
        """Bytes of the kept 1-D weights."""
        return int(sum(p.data.nbytes for p in self.p1d))


def build_transfer(
    fine: StructuredGrid,
    factors: tuple[int, int, int] = (2, 2, 2),
    kind: str = "linear",
) -> Transfer:
    """Build the transfer pair for one coarsening step.

    ``kind`` is ``"linear"`` (tri-linear interpolation, the default of
    structured multigrids) or ``"injection"``.  ``factors`` of 1 skip an
    axis (semicoarsening for anisotropic problems); aggressive coarsening
    uses factors > 2.
    """
    factory = {"linear": interp_1d, "injection": injection_1d}.get(kind)
    if factory is None:
        raise ValueError(f"unknown interpolation kind {kind!r}")
    p1 = tuple(factory(n, f) for n, f in zip(fine.shape, factors))
    return Transfer(fine=fine, coarse=fine.coarsen(factors), factors=factors, p1d=p1)


def choose_coarsen_factors(
    grid: StructuredGrid,
    min_axis: int = 3,
    anisotropy_weights: "tuple[float, float, float] | None" = None,
    semi_threshold: float = 10.0,
) -> tuple[int, int, int]:
    """Pick per-axis coarsening factors for one level.

    Axes shorter than ``min_axis`` after coarsening stay uncoarsened.  When
    ``anisotropy_weights`` (relative coupling strengths per axis, e.g. from
    the operator's directional stiffness) are supplied, axes whose coupling
    is weaker than the strongest axis by more than ``semi_threshold`` are
    skipped — classic semicoarsening, which is how structured multigrid
    keeps convergence on strongly anisotropic problems such as the paper's
    weather case.
    """
    factors = []
    wmax = max(anisotropy_weights) if anisotropy_weights else None
    for ax, n in enumerate(grid.shape):
        f = 2
        if (n + 1) // 2 < min_axis:
            f = 1
        elif anisotropy_weights is not None:
            if anisotropy_weights[ax] * semi_threshold < wmax:
                f = 1
        factors.append(f)
    if all(f == 1 for f in factors) and max(grid.shape) >= 2 * min_axis:
        # avoid dead-lock: coarsen the strongest (or longest) axis
        ax = int(np.argmax(grid.shape))
        factors[ax] = 2
    return tuple(factors)
