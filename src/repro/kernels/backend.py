"""Kernel backend registry: pluggable implementations of the hot kernels.

A :class:`KernelBackend` bundles plan-based implementations of the hot
operations — SpMV, colored Gauss-Seidel sweep and wavefront SpTRSV — plus
the two coarsening kernels of :mod:`repro.kernels.coarsening` (the grid
transfers, restrict and prolong, and the Galerkin group product of the
setup) and the two setup kernels of
:mod:`repro.kernels.truncate` (each level's scale, range audit and
truncation, and Theorem 4.1's scaled ratio).  The public kernel entry
points (:func:`~repro.kernels.spmv.spmv_plain`,
:func:`~repro.kernels.sweeps.gs_sweep_colored`,
:func:`~repro.kernels.sptrsv.sptrsv`, and the Jacobi sweep through the
SpMV) always dispatch here, with the caller's plan or the structure's
cached one.  The ``numpy`` reference backend (the ``*_ref`` kernels next to
those entry points) is always available; the compiled ``c`` backend
(:mod:`repro.kernels.backend_c`, gcc + ctypes) is registered when its
library builds, and the registry falls back to numpy otherwise — the
library must run identically (modulo speed) on a host without a C
compiler.

Selection order:

1. an explicit :func:`set_backend` / :func:`use_backend` choice;
2. the ``REPRO_KERNEL_BACKEND`` environment variable (``numpy``/``c``/
   ``auto``; an unknown or unusable value degrades to numpy);
3. ``auto``: c when it built, else numpy.

Backends are **parity-constrained**: every implementation must be
bit-identical to the numpy reference (see ``tests/test_backend_parity.py``).
The reference fixes every summation order a backend must reproduce: per
cell, stencil offsets in ascending order, and inside a block operator's
``r x r`` product the ascending sum from zero of
:func:`repro.kernels.spmv.block_contract`, for any number of RHS columns;
per transfer output, ascending source index; per Galerkin coefficient,
the term order of :mod:`repro.coarsen.galerkin`; per scaled entry, the
operation order of ``SGDIAMatrix.scaled_two_sided``, and per FP16 payload
value the single rounding of numpy's FP64 -> FP16 cast.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "KernelBackend",
    "available_backends",
    "backend_status",
    "get_backend",
    "register_backend",
    "set_backend",
    "use_backend",
]

_ENV_VAR = "REPRO_KERNEL_BACKEND"


@dataclass(frozen=True)
class KernelBackend:
    """One named implementation set for the hot kernels.

    The plan-based entries (``spmv``, ``gs_sweep``, ``sptrsv``) receive a
    :class:`~repro.kernels.plan.KernelPlan` as their first argument and
    mirror :func:`~repro.kernels.spmv.spmv_ref`,
    :func:`~repro.kernels.sweeps.gs_sweep_ref` and
    :func:`~repro.kernels.sptrsv.sptrsv_ref`; ``transfer`` and
    ``galerkin_group`` mirror :func:`~repro.kernels.coarsening.transfer_ref` and
    :func:`~repro.kernels.coarsening.galerkin_group_ref`; ``truncate_audit``
    and ``scaled_ratio`` mirror
    :func:`~repro.kernels.truncate.truncate_audit_ref` and
    :func:`~repro.kernels.truncate.scaled_ratio_ref`.
    """

    name: str
    spmv: Callable
    gs_sweep: Callable
    sptrsv: Callable
    transfer: Callable
    galerkin_group: Callable
    truncate_audit: Callable
    scaled_ratio: Callable
    notes: str = ""
    extras: dict = field(default_factory=dict, compare=False)


_REGISTRY: "dict[str, KernelBackend]" = {}
_LOCK = threading.Lock()
_selected: "str | None" = None  # explicit set_backend choice
_resolved: "KernelBackend | None" = None  # cached resolution
_UNAVAILABLE: "dict[str, str]" = {}  # backend name -> why it is not registered


def register_backend(backend: KernelBackend) -> KernelBackend:
    with _LOCK:
        _REGISTRY[backend.name] = backend
    _invalidate()
    return backend


def _invalidate() -> None:
    global _resolved
    _resolved = None


def _numpy_backend() -> KernelBackend:
    _ensure_registered()
    return _REGISTRY["numpy"]


def _ensure_registered() -> None:
    if "numpy" in _REGISTRY:
        return
    with _LOCK:
        if "numpy" in _REGISTRY:
            return
        from . import coarsening, truncate
        from .spmv import spmv_ref
        from .sptrsv import sptrsv_ref
        from .sweeps import gs_sweep_ref

        _REGISTRY["numpy"] = KernelBackend(
            name="numpy",
            spmv=spmv_ref,
            gs_sweep=gs_sweep_ref,
            sptrsv=sptrsv_ref,
            transfer=coarsening.transfer_ref,
            galerkin_group=coarsening.galerkin_group_ref,
            truncate_audit=truncate.truncate_audit_ref,
            scaled_ratio=truncate.scaled_ratio_ref,
            notes="vectorized NumPy reference (always available)",
        )
        from . import backend_c

        compiled, reason = backend_c.make_backend(_REGISTRY["numpy"])
        if compiled is not None:
            _REGISTRY["c"] = compiled
        else:
            _UNAVAILABLE["c"] = reason


def available_backends() -> "tuple[str, ...]":
    """Names of the registered, usable backends."""
    _ensure_registered()
    return tuple(sorted(_REGISTRY))


def backend_status() -> dict:
    """Introspection: registered backends, why others are missing,
    selection, resolution."""
    _ensure_registered()
    return {
        "registered": {
            name: {"notes": be.notes}
            for name, be in sorted(_REGISTRY.items())
        },
        "unavailable": dict(_UNAVAILABLE),
        "selected": _selected,
        "env": os.environ.get(_ENV_VAR),
        "resolved": get_backend().name,
    }


def set_backend(name: "str | None") -> None:
    """Pin the backend by name (``None`` reverts to auto-detection).

    Requesting an unregistered name raises immediately — a typo in a
    benchmark config must not silently time the wrong backend.
    """
    global _selected
    _ensure_registered()
    if name is not None and name not in ("auto",) and name not in _REGISTRY:
        raise ValueError(
            f"unknown kernel backend {name!r}; available: "
            f"{', '.join(available_backends())} (or 'auto')"
        )
    _selected = None if name in (None, "auto") else name
    _invalidate()


def _resolve() -> KernelBackend:
    _ensure_registered()
    if _selected is not None:
        return _REGISTRY[_selected]
    env = os.environ.get(_ENV_VAR, "auto").strip().lower()
    if env and env != "auto":
        be = _REGISTRY.get(env)
        if be is not None:
            return be
        # an unusable env request degrades gracefully (no C compiler on
        # this host): the reference backend keeps the solver running
        return _REGISTRY["numpy"]
    return _REGISTRY.get("c", _REGISTRY["numpy"])


def get_backend() -> KernelBackend:
    """The backend in effect (cached; cheap enough for hot loops)."""
    global _resolved
    be = _resolved
    if be is None:
        be = _resolved = _resolve()
    return be


@contextmanager
def use_backend(name: "str | None"):
    """Scoped backend selection: ``with use_backend('numpy'): ...``."""
    global _selected
    prev = _selected
    set_backend(name)
    try:
        yield get_backend()
    finally:
        _selected = prev
        _invalidate()
