"""Algorithm-based fault tolerance (ABFT) for the FP16 multigrid cycle.

Huang–Abraham checksum verification specialized to the SG-DIA SpMV: at
setup time a per-level *column-sum* vector

    w = A_s^T 1        (FP64, computed from the stored payload)

is derived for the stored payload ``A_s`` of each level: the operator the
V-cycle's residual SpMV applies, in the level's own basis when it is scaled
(see :mod:`repro.mg.hierarchy`).  Any SpMV ``y = A_s x`` must then satisfy
the one-number identity

    sum(y) == w . x

up to compute-precision rounding.  A silent corruption of the FP16 payload
(bit flip in memory, a torn spill read) breaks the identity, because the
checksum was computed from the *clean* payload; the per-SpMV cost is two
FP64 reductions over the vector — negligible next to the SpMV itself.

The response to a mismatch is *detect -> recompute once -> escalate*: the
first failure is retried (a transient fault in the compute path heals); a
second failure on identical inputs means the payload itself is damaged and
:class:`ABFTError` propagates.  ``ABFTError`` subclasses
:class:`~repro.resilience.runtime.SolveInterrupted` with status
``"corrupted"``, so it surfaces through the solvers as a classified
``SolveResult`` and drives the ``robust_solve`` escalation ladder (which
rebuilds the hierarchy from the pristine operator at a safer precision).

Verification frequency is controlled by ``verify_every=k`` — check every
``k``-th SpMV (1 = every application; higher values amortize the reduction
cost for setups where corruption is expected to be rare).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..observability import events as _events
from ..observability import metrics as _metrics
from .runtime import SolveInterrupted

__all__ = ["ABFTChecker", "ABFTError", "attach_abft", "column_checksum"]


class ABFTError(SolveInterrupted):
    """A checksum mismatch that survived one recompute: the payload is bad.

    Carries status ``"corrupted"`` through the solver taxonomy; the level
    index and the relative mismatch magnitude ride along for diagnosis.
    """

    def __init__(self, message: str, level: int = -1, mismatch: float = 0.0):
        super().__init__("corrupted", message)
        self.level = level
        self.mismatch = mismatch


def column_checksum(stored, absolute: bool = False) -> np.ndarray:
    """FP64 column sums ``w = A_s^T 1`` of a level's stored payload.

    Mirrors the SpMV's per-offset slicing: the coefficient block applied at
    destination rows ``dst`` against source columns ``src`` contributes its
    values to ``w[src]``.  With ``absolute=True`` the sums are of ``|A_s|``
    — the magnitude scale used for the rounding tolerance.
    """
    from ..sgdia import offset_slices

    a = stored.matrix
    grid = a.grid
    w = np.zeros(grid.field_shape, dtype=np.float64)
    for d, off in enumerate(a.stencil.offsets):
        dst, src = offset_slices(grid.shape, off)
        coeff = np.asarray(a.diag_view(d)[dst], dtype=np.float64)
        if absolute:
            coeff = np.abs(coeff)
        # a block sums out its row component
        w[src] += coeff if grid.ncomp == 1 else coeff.sum(axis=-2)
    return w


@dataclass
class ABFTChecker:
    """Per-hierarchy checksum state and the verified-SpMV entry point.

    Attached to an :class:`~repro.mg.hierarchy.MGHierarchy` (its ``abft``
    field) by :func:`attach_abft`; the V-cycle's residual SpMVs then route
    through :meth:`checked_spmv`.  ``stats`` accumulates across the
    hierarchy's lifetime and is mirrored into the metrics registry under
    ``abft.*`` when one is active.
    """

    checksums: list = field(default_factory=list)
    abs_checksums: list = field(default_factory=list)
    verify_every: int = 1
    rtol: float = 1e-4
    atol: float = 1e-12
    stats: dict = field(
        default_factory=lambda: {
            "spmvs": 0,
            "checks": 0,
            "mismatches": 0,
            "recovered": 0,
            "corrupted": 0,
        }
    )
    _counter: int = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_hierarchy(
        cls,
        hierarchy,
        verify_every: int = 1,
        rtol: float = 1e-4,
        atol: float = 1e-12,
    ) -> "ABFTChecker":
        """Compute FP64 checksums for every level of a set-up hierarchy.

        Must run while the payload is still trusted (immediately after
        ``mg_setup``) — checksums taken from a corrupted payload would
        vouch for the corruption.
        """
        if verify_every < 1:
            raise ValueError(f"verify_every must be >= 1, got {verify_every}")
        return cls(
            checksums=[column_checksum(l.stored) for l in hierarchy.levels],
            abs_checksums=[
                column_checksum(l.stored, absolute=True) for l in hierarchy.levels
            ],
            verify_every=int(verify_every),
            rtol=float(rtol),
            atol=float(atol),
        )

    # ------------------------------------------------------------------
    def checked_spmv(self, level, x: np.ndarray) -> np.ndarray:
        """The cycle's residual product, ``A_s x`` on the level's stored
        payload, with every ``verify_every``-th result checksum-validated;
        transparent otherwise."""
        y = level.matvec(x)
        self.stats["spmvs"] += 1
        self._counter += 1
        if self._counter % self.verify_every != 0:
            return y
        self.stats["checks"] += 1
        if _metrics.active():
            _metrics.incr("abft.checks", level=level.index)
        mismatch = self._mismatch(level.index, x, y)
        if mismatch is None:
            return y
        # First failure: recompute once.  A transient fault (corrupted
        # intermediate, bit flip in flight) will not repeat; a damaged
        # payload will.
        self.stats["mismatches"] += 1
        if _metrics.active():
            _metrics.incr("abft.mismatches", level=level.index)
        if _events.active():
            _events.emit(
                "warning",
                "abft.mismatch",
                "checksum mismatch; recomputing once",
                level=level.index,
                mismatch=float(mismatch),
            )
        y = level.matvec(x)
        self.stats["spmvs"] += 1
        mismatch2 = self._mismatch(level.index, x, y)
        if mismatch2 is None:
            self.stats["recovered"] += 1
            if _metrics.active():
                _metrics.incr("abft.recovered", level=level.index)
            if _events.active():
                _events.emit(
                    "info",
                    "abft.recovered",
                    "recompute healed a transient fault",
                    level=level.index,
                )
            return y
        self.stats["corrupted"] += 1
        if _metrics.active():
            _metrics.incr("abft.corrupted", level=level.index)
        if _events.active():
            _events.emit(
                "error",
                "abft.corrupted",
                "checksum mismatch persisted across a recompute",
                level=level.index,
                mismatch=float(mismatch2),
            )
        raise ABFTError(
            f"ABFT checksum mismatch on level {level.index} persisted across "
            f"a recompute (relative mismatch {mismatch2:.3e}): "
            "stored payload is corrupted",
            level=level.index,
            mismatch=mismatch2,
        )

    # ------------------------------------------------------------------
    def _mismatch(self, level_idx: int, x: np.ndarray, y: np.ndarray):
        """``None`` if the checksum identity holds, else the relative error."""
        w = self.checksums[level_idx]
        wa = self.abs_checksums[level_idx]
        xf = np.asarray(x, dtype=np.float64)
        yf = np.asarray(y, dtype=np.float64)
        nd = w.ndim
        axes = tuple(range(nd))
        if xf.ndim == nd + 1:  # batched: trailing RHS axis
            expected = np.tensordot(w, xf, axes=(axes, axes))
            scale = np.tensordot(wa, np.abs(xf), axes=(axes, axes))
            actual = yf.reshape(-1, yf.shape[-1]).sum(axis=0)
        else:
            expected = np.float64((w * xf).sum())
            scale = np.float64((wa * np.abs(xf)).sum())
            actual = np.float64(yf.sum())
        err = np.abs(actual - expected)
        tol = self.atol + self.rtol * scale
        bad = ~(err <= tol)  # NaN in y counts as a mismatch
        if not np.any(bad):
            return None
        denom = np.maximum(np.asarray(scale), self.atol)
        return float(np.max(np.asarray(err) / denom))


def attach_abft(
    hierarchy,
    verify_every: int = 1,
    rtol: float = 1e-4,
    atol: float = 1e-12,
) -> ABFTChecker:
    """Enable checksum verification on a hierarchy; returns the checker.

    Call right after setup, while the payload is pristine.  Detach with
    ``hierarchy.abft = None``.
    """
    checker = ABFTChecker.from_hierarchy(
        hierarchy, verify_every=verify_every, rtol=rtol, atol=atol
    )
    hierarchy.abft = checker
    return checker
