"""Per-level counter registry for kernel and precision events.

A :class:`Metrics` registry accumulates named counters, optionally bucketed
by multigrid level: kernel invocations, modeled bytes moved (the
:mod:`repro.perf.bytes_model` volumes of the kernels actually executed),
fp16->fp32 on-the-fly conversions (the paper's ``fcvt``), and the precision
events the setup phase observes — overflow clamps, underflow flushes,
subnormal landings, non-finite values.

Like tracing, collection is off by default: the module-global registry is
``None`` and :func:`incr` returns immediately.  Hot loops hoist
:func:`active` out of their inner loop.

Canonical counter names (``<area>.<what>[.unit]``):

========================== ====================================================
``kernel.spmv.calls``          SG-DIA SpMV kernel invocations
``kernel.sweep.calls``         multicolor Gauss-Seidel sweep invocations
``precision.fcvt.values``      matrix values converted storage->compute on the fly
``precision.overflow_clamp``   values exceeding the storage format's max
``precision.underflow_flush``  nonzero values flushing to zero in storage
``precision.subnormal``        values landing in the storage subnormal range
``precision.nonfinite``        inf/NaN values met during setup
``mg.smoother.calls``          smoother applications inside cycles
``mg.spmv.bytes_modeled``      modeled residual-SpMV traffic inside cycles
``mg.smoother.bytes_modeled``  modeled smoother traffic inside cycles
``mg.transfer.bytes_modeled``  modeled restriction/prolongation traffic
``setup.galerkin.calls``       Galerkin triple products
``setup.scale.calls``          per-level diagonal scalings
``setup.truncate.calls``       per-level storage truncations
``comm.halo.exchanges``        halo exchange rounds in the distributed engine
========================== ====================================================
"""

from __future__ import annotations

from contextlib import contextmanager

__all__ = [
    "Metrics",
    "active",
    "collecting",
    "get_metrics",
    "incr",
    "install",
    "uninstall",
]


class Metrics:
    """Counter registry: ``name -> total`` plus per-level buckets."""

    def __init__(self) -> None:
        self._totals: dict[str, float] = {}
        self._by_level: dict[str, dict[int, float]] = {}

    # ------------------------------------------------------------------
    def incr(self, name: str, value: float = 1, level: "int | None" = None) -> None:
        self._totals[name] = self._totals.get(name, 0) + value
        if level is not None:
            bucket = self._by_level.setdefault(name, {})
            bucket[level] = bucket.get(level, 0) + value

    def get(self, name: str, level: "int | None" = None) -> float:
        if level is None:
            return self._totals.get(name, 0)
        return self._by_level.get(name, {}).get(level, 0)

    def totals(self) -> dict:
        """Flat copy of all counters (baseline for :meth:`delta_since`)."""
        return dict(self._totals)

    def delta_since(self, baseline: dict) -> dict:
        """Counters accumulated since a :meth:`totals` snapshot."""
        out = {}
        for name, value in self._totals.items():
            d = value - baseline.get(name, 0)
            if d:
                out[name] = d
        return out

    def reset(self) -> None:
        self._totals.clear()
        self._by_level.clear()

    def to_dict(self) -> dict:
        """Machine-readable form: per counter, total and per-level buckets."""
        return {
            name: {
                "total": total,
                "by_level": {
                    str(level): v
                    for level, v in sorted(self._by_level.get(name, {}).items())
                },
            }
            for name, total in sorted(self._totals.items())
        }

    def format(self) -> str:
        """Aligned text table of counters (per-level buckets inline)."""
        if not self._totals:
            return "(no events recorded)"
        width = max(len(n) for n in self._totals)
        lines = []
        for name in sorted(self._totals):
            total = self._totals[name]
            value = f"{total:.0f}" if float(total).is_integer() else f"{total:.3g}"
            line = f"{name:<{width}s} {value:>14s}"
            levels = self._by_level.get(name)
            if levels:
                per = ", ".join(
                    f"L{lev}={v:.6g}" for lev, v in sorted(levels.items())
                )
                line += f"  [{per}]"
            lines.append(line)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# process-global registry
# ----------------------------------------------------------------------

_METRICS: "Metrics | None" = None


def get_metrics() -> "Metrics | None":
    return _METRICS


def active() -> bool:
    """True when a registry is installed (hot paths gate work on it)."""
    return _METRICS is not None


def install(metrics: "Metrics | None" = None) -> Metrics:
    global _METRICS
    _METRICS = metrics if metrics is not None else Metrics()
    return _METRICS


def uninstall() -> "Metrics | None":
    global _METRICS
    m = _METRICS
    _METRICS = None
    return m


def incr(name: str, value: float = 1, level: "int | None" = None) -> None:
    """Count an event on the global registry — no-op when disabled."""
    m = _METRICS
    if m is None:
        return
    m.incr(name, value, level)


@contextmanager
def collecting(metrics: "Metrics | None" = None):
    """Scoped install: ``with collecting() as m: ...`` then read ``m``."""
    global _METRICS
    prev = _METRICS
    m = metrics if metrics is not None else Metrics()
    _METRICS = m
    try:
        yield m
    finally:
        _METRICS = prev
