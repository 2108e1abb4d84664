"""Mixed-precision stored operators: FP16 payload + on-the-fly rescaling.

A :class:`StoredMatrix` is what one multigrid level holds after Algorithm 1:
the SG-DIA coefficient data truncated to the *storage* precision, plus (when
the "need to scale" branch was taken) the diagonal scaling state ``(G,
sqrt(Q))`` in *compute* precision.  The kernels recover FP32 values from the
FP16 payload on the fly, and the multigrid cycle applies the rescale of
Algorithm 3 line 7 as a change of basis (:mod:`repro.mg.hierarchy`) — an
FP32 copy of the matrix is never materialized, preserving the reduced
memory-access volume that motivates the whole design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..observability import metrics as _metrics
from ..observability import trace as _trace
from ..precision import (
    DiagonalScaling,
    FloatFormat,
    RangeCounts,
    choose_g,
    get_format,
)
from .matrix import SGDIAMatrix

__all__ = ["StoredMatrix", "Truncation", "scale_level", "scale_and_truncate"]


class Truncation(NamedTuple):
    """One level after Algorithm 1 lines 5-12 (:func:`scale_and_truncate`).

    ``scaled`` is the FP64 operator in the space the payload represents
    (the input itself when the level was not scaled); ``counts`` audits the
    values that were truncated, ``high`` the input's own values (the same
    object when the level was not scaled).
    """

    stored: "StoredMatrix"
    scaled: SGDIAMatrix
    counts: RangeCounts
    high: RangeCounts


def scale_level(
    a: SGDIAMatrix,
    fmt: FloatFormat,
    compute: FloatFormat,
    safety: float,
    storage: "FloatFormat | None" = None,
    audit: "FloatFormat | None" = None,
):
    """Algorithm 1 lines 6-9 (and 11 with ``storage``): choose ``G`` from
    Theorem 4.1's bound for ``fmt`` times ``safety``, form ``Q = diag(A)/G``
    and scale ``A <- Q^{-1/2} A Q^{-1/2}``, truncating the scaled values to
    ``storage`` and auditing them against ``audit`` (default ``fmt``) in the
    same pass.  Returns ``(scaling, payload, scaled, counts)``."""
    from ..kernels import get_backend  # local import to avoid a cycle

    with _trace.span("scale"):
        _metrics.incr("setup.scale.calls")
        g = choose_g(a.max_scaled_ratio(), fmt, safety=safety)
        scaling = DiagonalScaling.from_diagonal(a.dof_diagonal(), g, compute=compute)
        weight = (1.0 / scaling.sqrt_q).astype(np.float64)
        payload, scaled, counts = get_backend().truncate_audit(
            a, weight, storage, fmt if audit is None else audit
        )
    return scaling, payload, _like(a, scaled), counts


def _like(a: SGDIAMatrix, data: np.ndarray) -> SGDIAMatrix:
    return SGDIAMatrix(a.grid, a.stencil, data, layout=a.layout)


def scale_and_truncate(
    a: SGDIAMatrix,
    storage: "str | FloatFormat" = "fp16",
    compute: "str | FloatFormat" = "fp32",
    scale: str = "auto",
    g_safety: float = 0.5,
    audit: "str | FloatFormat | None" = None,
    high: "RangeCounts | None" = None,
) -> Truncation:
    """Algorithm 1 lines 5-12 for one level: scale if needed, truncate to
    ``storage``, and audit what was truncated against ``audit`` (default
    ``storage``).

    ``scale`` is ``"auto"`` (scale only if direct truncation would overflow
    — the paper's "need to scale" test), ``"always"`` or ``"never"``.
    ``high``, the audit of ``a`` against ``audit``, is taken when the caller
    has it.  Every pass over an FP64 array is one call of the backend's
    ``truncate_audit`` or ``scaled_ratio`` kernel: a level that fits its
    format is read once (the direct truncation that finds it fits is the
    result), a scaled one three times at most (that truncation or an audit,
    the ratio, and the scale-audit-truncate pass).
    """
    from ..kernels import get_backend  # local import to avoid a cycle

    storage, compute = get_format(storage), get_format(compute)
    audit = storage if audit is None else get_format(audit)
    if scale not in ("auto", "always", "never"):
        raise ValueError(f"invalid scale mode {scale!r}")
    be = get_backend()
    payload = None
    if high is None and scale == "always":
        high = be.truncate_audit(a, None, None, audit)[2]
    elif high is None:
        with _trace.span("truncate", storage=storage.name):
            payload, _, high = be.truncate_audit(a, None, storage, audit)
    if scale == "always" or (scale == "auto" and high.max_abs > storage.max):
        scaling, payload, scaled, counts = scale_level(
            a, storage, compute, g_safety, storage, audit
        )
    else:
        scaling, scaled, counts = None, a, high
        if payload is None:
            with _trace.span("truncate", storage=storage.name):
                payload = be.truncate_audit(a, None, storage, audit)[0]
    _metrics.incr("setup.truncate.calls")
    stored = StoredMatrix(
        matrix=_like(a, payload), scaling=scaling, compute=compute, storage=storage
    )
    return Truncation(stored, scaled, counts, high)


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
        """Truncate a high-precision operator to storage precision
        (:func:`scale_and_truncate`), charging the precision-event counters
        with what the truncation faced.

        ``scale`` is ``"auto"`` (scale only if direct truncation would
        overflow — the paper's "need to scale" test), ``True``/``"always"``
        or ``False``/``"never"``.  (The Algorithm-1 setup path charges the
        counters itself, per level and against the level's *nominal*
        format, so its totals always match ``SetupDiagnostics``.)
        """
        if isinstance(scale, bool):
            scale = "always" if scale else "never"
        level = scale_and_truncate(a, storage, compute, scale, g_safety)
        if _metrics.active():
            _metrics.incr("precision.overflow_clamp", level.counts.n_overflow)
            _metrics.incr("precision.underflow_flush", level.counts.n_underflow)
            _metrics.incr("precision.subnormal", level.counts.n_subnormal)
        return level.stored

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
