"""The multigrid hierarchy: cycles (Algorithm 3) and the preconditioner
interface (Algorithm 2 lines 4-6).

Algorithm 3 applies a scaled level's operator as ``A = Q^{1/2} A_s Q^{1/2}``.
The cycle carries that out as a change of basis: a scaled level keeps its
vectors in its own basis, ``f_s = Q^{-1/2} f`` and ``u_s = Q^{1/2} u``, in
which the stored payload ``A_s`` *is* the operator, so its smoother and
residual run on the payload exactly as set up.  Vectors are converted only
where they change level: the residual ``r = Q^{1/2} r_s`` is restricted and
divided by the coarse level's ``Q^{1/2}``, the coarse correction is divided
by the coarse ``Q^{1/2}`` before prolongation and the fine correction
multiplied by this level's, and the finest level converts once on entry to
and exit from the cycle.  A hierarchy without a scaled level runs no
conversion at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..kernels.spmv import field_view
from ..observability import metrics as _metrics
from ..observability import trace as _trace
from ..precision import DiagonalScaling, PrecisionConfig
from ..resilience.runtime import check_active as _check_runtime
from ..smoothers import CoarseDirectSolver
from .level import Level
from .options import MGOptions

__all__ = ["MGHierarchy"]


@dataclass
class MGHierarchy:
    """A set-up multigrid preconditioner.

    Vectors inside the cycle live entirely in the preconditioner *compute*
    precision (FP32) — "there is nothing in iterative precision throughout
    the V-Cycle" (Section 4.2); matrices are recovered from storage
    precision on the fly inside the kernels, and a scaled level's vectors
    live in that level's own basis (see the module docstring).
    """

    levels: list[Level]
    config: PrecisionConfig
    options: MGOptions
    #: Global entry/exit scaling for the scale-then-setup strategy (the user
    #: scaled the whole system; the preconditioner maps in and out of the
    #: scaled space around each application).
    entry_scaling: "DiagonalScaling | None" = None
    setup_seconds: float = 0.0
    #: Overflow/underflow/non-finite statistics collected during setup
    #: (a :class:`repro.mg.setup.SetupDiagnostics`; ``None`` for hierarchies
    #: assembled by hand).  Consumed by ``repro.resilience.health``.
    diagnostics: "object | None" = field(default=None, repr=False)
    #: Number of preconditioner applications performed (bookkeeping).
    applications: int = field(default=0, repr=False)
    #: Optional :class:`repro.resilience.abft.ABFTChecker` attached by
    #: ``attach_abft``; when set, the cycle's residual SpMVs are checksummed.
    abft: "object | None" = field(default=None, repr=False)

    # ------------------------------------------------------------------
    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def finest(self) -> Level:
        return self.levels[0]

    @property
    def compute_dtype(self) -> np.dtype:
        return self.config.compute.np_dtype

    # ------------------------------------------------------------------
    # complexity metrics (paper Eq. 3)
    # ------------------------------------------------------------------
    def grid_complexity(self) -> float:
        """``C_G = sum_l n_l / n_0``."""
        n0 = self.levels[0].ndof
        return sum(level.ndof for level in self.levels) / n0

    def operator_complexity(self) -> float:
        """``C_O = sum_l Z_l / Z_0`` with actual nonzero counts."""
        z0 = self.levels[0].nnz_actual
        return sum(level.nnz_actual for level in self.levels) / z0

    def memory_report(self) -> dict:
        """Per-hierarchy byte accounting for the performance model."""
        return {
            "matrix_bytes": sum(l.matrix_nbytes() for l in self.levels),
            "smoother_bytes": sum(l.smoother_nbytes() for l in self.levels),
            "transfer_bytes": sum(
                l.transfer.nbytes for l in self.levels if l.transfer is not None
            ),
            "levels": [
                {
                    "index": l.index,
                    "shape": l.grid.shape,
                    "ndof": l.ndof,
                    "nnz": l.nnz_actual,
                    "nnz_stored": l.nnz_stored,
                    "storage": l.stored.storage.name,
                    "scaled": l.stored.is_scaled,
                    "matrix_bytes": l.matrix_nbytes(),
                }
                for l in self.levels
            ],
        }

    # ------------------------------------------------------------------
    # cycling (Algorithm 3)
    # ------------------------------------------------------------------
    def cycle(
        self,
        b: np.ndarray,
        x: "np.ndarray | None" = None,
        kind: "str | None" = None,
    ) -> np.ndarray:
        """One multigrid cycle for ``A_0 x = b`` in compute precision.

        ``b`` is a field (or flat) array; ``x`` is updated in place when
        given, otherwise a zero initial guess is used.  Returns ``x``.
        A trailing batch axis ``k`` (multi-RHS block, field_shape + (k,) or
        ``(ndof, k)``) is cycled column-wise in one pass through the kernels.
        ``A_0`` is the operator the finest payload represents; a scaled
        finest level converts ``b`` and ``x`` into its basis on entry and
        ``x`` back on exit.
        """
        kind = kind or self.options.cycle
        lvl0 = self.levels[0]
        cdtype = self.compute_dtype
        bf, _ = field_view(lvl0.grid, np.asarray(b, dtype=cdtype))
        if x is None:
            xf = np.zeros(bf.shape, dtype=cdtype)
        else:
            xf, _ = field_view(lvl0.grid, x)
            if xf.dtype != cdtype:
                raise TypeError(
                    f"x must be in compute precision {cdtype}, got {xf.dtype}"
                )
        scaling = lvl0.stored.scaling
        if scaling is not None:
            bf = scaling.unscale_vector(bf)
            if x is not None:
                scaling.scale_vector(xf, out=xf)
        with _trace.span("vcycle", kind=kind):
            self._cycle(0, bf, xf, kind)
        if scaling is not None:
            scaling.unscale_vector(xf, out=xf)
        return xf if x is None else x

    def _cycle(self, i: int, f: np.ndarray, u: np.ndarray, kind: str) -> None:
        # ``f`` and ``u`` are in level i's basis (its own when it is scaled).
        # Cooperative interruption point: the solver installs its runtime
        # scope around the preconditioner call, so a deadline/cancel takes
        # effect at the next level visit instead of after a full cycle.
        _check_runtime()
        level = self.levels[i]
        with _trace.span("level", level=i):
            if i == self.n_levels - 1:
                # Coarsest level: direct solve (or nu1+nu2 smoother sweeps).
                sweeps = (
                    1
                    if isinstance(level.smoother, CoarseDirectSolver)
                    else max(1, self.options.nu1 + self.options.nu2)
                )
                with _trace.span("smoother", phase="coarse"):
                    for _ in range(sweeps):
                        level.smoother.smooth(f, u, forward=True)
                self._count_smoother(level, sweeps)
                return
            # pre-smoothing (Algorithm 3 lines 3-5)
            with _trace.span("smoother", phase="pre"):
                for _ in range(self.options.nu1):
                    level.smoother.smooth(f, u, forward=True)
            self._count_smoother(level, self.options.nu1)
            # residual on the stored payload, recovered on the fly (lines 6-10)
            with _trace.span("spmv"):
                if self.abft is not None:
                    r = f - self.abft.checked_spmv(level, u)
                else:
                    r = f - level.matvec(u)
            # restrict (line 12) ``Q^{1/2} r_s`` into the coarse basis
            scaling = level.stored.scaling
            coarse_scaling = self.levels[i + 1].stored.scaling
            with _trace.span("restrict"):
                if scaling is not None:
                    scaling.scale_vector(r, out=r)
                fc = level.transfer.restrict(r, dtype=self.compute_dtype)
                if coarse_scaling is not None:
                    coarse_scaling.unscale_vector(fc, out=fc)
            self._count_level_traffic(i)
            extra = u.shape[len(level.grid.field_shape):]  # () or (k,)
            uc = np.zeros(
                self.levels[i + 1].grid.field_shape + extra,
                dtype=self.compute_dtype,
            )
            if kind == "v":
                self._cycle(i + 1, fc, uc, "v")
            elif kind == "w":
                self._cycle(i + 1, fc, uc, "w")
                self._cycle(i + 1, fc, uc, "w")
            elif kind == "f":
                self._cycle(i + 1, fc, uc, "f")
                self._cycle(i + 1, fc, uc, "v")
            else:  # pragma: no cover - validated in MGOptions
                raise ValueError(f"unknown cycle kind {kind!r}")
            # interpolate error and correct (lines 19-21), out of the coarse
            # basis and into this level's
            with _trace.span("prolong"):
                if coarse_scaling is not None:
                    coarse_scaling.unscale_vector(uc, out=uc)
                e = level.transfer.prolongate(uc, dtype=self.compute_dtype)
                if scaling is not None:
                    scaling.scale_vector(e, out=e)
                u += e
            # post-smoothing with the transposed ordering S^T (lines 16-18)
            with _trace.span("smoother", phase="post"):
                for _ in range(self.options.nu2):
                    level.smoother.smooth(f, u, forward=False)
            self._count_smoother(level, self.options.nu2)

    def _count_smoother(self, level: Level, sweeps: int) -> None:
        """Charge smoother applications to the metrics registry."""
        if sweeps <= 0 or not _metrics.active():
            return
        from ..perf.e2e import _smoother_volume_per_application

        _metrics.incr("mg.smoother.calls", sweeps, level=level.index)
        _metrics.incr(
            "mg.smoother.bytes_modeled",
            sweeps
            * _smoother_volume_per_application(
                level, self.config.compute.itemsize
            ),
            level=level.index,
        )

    def _count_level_traffic(self, i: int) -> None:
        """Charge one residual SpMV + one restrict/prolong pair (modeled)."""
        if not _metrics.active():
            return
        from ..perf.bytes_model import residual_volume, transfer_volume

        level = self.levels[i]
        vec = self.config.compute.itemsize
        _metrics.incr(
            "mg.spmv.bytes_modeled",
            residual_volume(
                level.nnz_stored,
                level.ndof,
                level.stored.storage.itemsize,
                vec,
                level.stored.is_scaled,
            ),
            level=i,
        )
        _metrics.incr(
            "mg.transfer.bytes_modeled",
            2 * transfer_volume(level.ndof, self.levels[i + 1].ndof, vec),
            level=i,
        )

    # ------------------------------------------------------------------
    # preconditioner interface (Algorithm 2 lines 4-6)
    # ------------------------------------------------------------------
    def precondition(self, r: np.ndarray) -> np.ndarray:
        """Apply ``e = M^{-1} r`` with explicit precision transitions.

        The residual arrives in iterative precision, is truncated to the
        compute precision (line 4), runs through the cycle, and the error is
        recovered to iterative precision (line 6).  For scale-then-setup the
        global ``Q^{-1/2}`` entry/exit maps are applied around the cycle.
        """
        self.applications += 1
        with _trace.span("precond", application=self.applications):
            cdtype = self.compute_dtype
            lvl0 = self.levels[0]
            shape_in = np.shape(r)
            rf, _ = field_view(lvl0.grid, np.asarray(r, dtype=cdtype))
            if self.entry_scaling is not None:
                rf = self.entry_scaling.unscale_vector(rf)
            ef = self.cycle(rf)
            if self.entry_scaling is not None:
                ef = self.entry_scaling.unscale_vector(ef)
            e = ef.astype(self.config.iterative.np_dtype)
            return e.reshape(shape_in)

    def as_preconditioner(self):
        """Callable ``M(r) -> e`` for the Krylov solvers."""
        return self.precondition
