"""Mixed-precision stored operators: FP16 payload + on-the-fly rescaling.

A :class:`StoredMatrix` is what one multigrid level holds after Algorithm 1:
the SG-DIA coefficient data truncated to the *storage* precision, plus (when
the "need to scale" branch was taken) the diagonal scaling state ``(G,
sqrt(Q))`` in *compute* precision.  The kernels recover FP32 values from the
FP16 payload and rescale with ``sqrt_q`` on the fly (Algorithm 3 line 7) —
an FP32 copy of the matrix is never materialized, preserving the reduced
memory-access volume that motivates the whole design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..observability import metrics as _metrics
from ..observability import trace as _trace
from ..precision import (
    DiagonalScaling,
    FloatFormat,
    choose_g,
    get_format,
    range_counts,
)
from .matrix import SGDIAMatrix

__all__ = ["StoredMatrix"]


def _count_truncation_events(values: np.ndarray, storage: FloatFormat) -> None:
    """Charge the precision-event counters for one standalone truncation.

    (The Algorithm-1 setup path counts these itself, against the *nominal*
    level format, so totals there always match ``SetupDiagnostics``; this
    hook covers direct :meth:`StoredMatrix.truncate` users.)
    """
    if not _metrics.active():
        return
    counts = range_counts(values, storage)
    _metrics.incr("precision.overflow_clamp", counts.n_overflow)
    _metrics.incr("precision.underflow_flush", counts.n_underflow)
    _metrics.incr("precision.subnormal", counts.n_subnormal)


@dataclass
class StoredMatrix:
    """An SG-DIA operator in storage precision with optional scaling.

    Attributes
    ----------
    matrix:
        Coefficients truncated to the storage format.  (For BF16 the array
        dtype is float32 with quantized values; accounting uses ``storage``.)
    scaling:
        ``None`` when the direct-truncation branch was taken; otherwise the
        per-level ``(G, sqrt_q)`` state.  The represented operator is then
        ``Q^{1/2} A_stored Q^{1/2}``.
    compute:
        Preconditioner computation precision (kernels convert the payload to
        this dtype on the fly).
    storage:
        Storage format used for memory accounting.
    """

    matrix: SGDIAMatrix
    scaling: "DiagonalScaling | None"
    compute: FloatFormat
    storage: FloatFormat

    # ------------------------------------------------------------------
    @classmethod
    def truncate(
        cls,
        a: SGDIAMatrix,
        storage: "str | FloatFormat" = "fp16",
        compute: "str | FloatFormat" = "fp32",
        scale: "bool | str" = "auto",
        g_safety: float = 0.5,
    ) -> "StoredMatrix":
        """Truncate a high-precision operator to storage precision.

        ``scale`` is ``"auto"`` (scale only if direct truncation would
        overflow — the paper's "need to scale" test), ``True``/``"always"``
        or ``False``/``"never"``.
        """
        storage = get_format(storage)
        compute = get_format(compute)
        if isinstance(scale, bool):
            scale = "always" if scale else "never"
        if scale not in ("auto", "always", "never"):
            raise ValueError(f"invalid scale mode {scale!r}")
        do_scale = scale == "always" or (
            scale == "auto" and a.max_abs() > storage.max
        )
        if not do_scale:
            with _trace.span("truncate", storage=storage.name):
                _metrics.incr("setup.truncate.calls")
                _count_truncation_events(a.data, storage)
                return cls(
                    matrix=a.astype(storage),
                    scaling=None,
                    compute=compute,
                    storage=storage,
                )
        # Algorithm 1 lines 6-9: Q = diag(A)/G; A <- Q^{-1/2} A Q^{-1/2}.
        with _trace.span("scale"):
            _metrics.incr("setup.scale.calls")
            ratio = a.max_scaled_ratio()
            g = choose_g(ratio, storage, safety=g_safety)
            scaling = DiagonalScaling.from_diagonal(
                a.dof_diagonal(), g, compute=compute
            )
            inv_sqrt_q = (1.0 / scaling.sqrt_q).astype(np.float64)
            scaled = a.scaled_two_sided(inv_sqrt_q)
        with _trace.span("truncate", storage=storage.name):
            _metrics.incr("setup.truncate.calls")
            _count_truncation_events(scaled.data, storage)
            return cls(
                matrix=scaled.astype(storage),
                scaling=scaling,
                compute=compute,
                storage=storage,
            )

    # ------------------------------------------------------------------
    @property
    def grid(self):
        return self.matrix.grid

    @property
    def stencil(self):
        return self.matrix.stencil

    @property
    def is_scaled(self) -> bool:
        return self.scaling is not None

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def value_nbytes(self) -> int:
        """Memory footprint charged by the performance model: the payload in
        storage precision plus (if scaled) one compute-precision vector."""
        n = self.matrix.value_nbytes(self.storage)
        if self.scaling is not None:
            n += self.scaling.nbytes
        return n

    def has_nonfinite(self) -> bool:
        """True if truncation produced inf/NaN (the unsafe 'none' branch)."""
        return not bool(np.isfinite(self.matrix.data).all())

    def recovered(self) -> SGDIAMatrix:
        """Materialize the represented operator in compute precision.

        Only for tests/verification — the solve-phase kernels never call
        this (it would defeat the memory-volume reduction).
        """
        m = self.matrix.astype(self.compute)
        if self.scaling is None:
            return m
        return m.scaled_two_sided(self.scaling.sqrt_q.astype(self.compute.np_dtype))

    def matvec(self, x: np.ndarray, out=None) -> np.ndarray:
        from ..kernels import spmv

        return spmv(self, x, out=out)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)
