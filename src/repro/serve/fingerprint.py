"""Content fingerprints and drift metrics for hierarchy caching.

A multigrid setup is a pure function of ``(operator, precision config,
hierarchy options)`` — Algorithm 1 has no hidden state.  That makes the
expensive setup phase cacheable, *if* the three inputs can be keyed
stably:

- :func:`matrix_fingerprint` hashes the SG-DIA operator *content* (grid,
  stencil, layout, coefficient bytes) with SHA-256, so two matrices that
  are equal value-for-value share a key regardless of object identity.
- ``PrecisionConfig.cache_key`` / :func:`options_key` render
  :class:`PrecisionConfig` and :class:`MGOptions` to canonical strings
  covering every field (the paper-legend ``config.name`` is lossy and must
  not be used as a key); :func:`cache_key` joins the three.
- :class:`OperatorSignature` is the cheap companion for *almost*-unchanged
  operators: time-stepping applications refresh coefficients slightly every
  step, which changes the fingerprint but rarely warrants a new hierarchy
  (multigrid is famously robust to small operator perturbations).  The
  signature keeps one diagonal copy and per-offset norms; ``drift``
  between signatures is a relative-change scalar a session can threshold
  to decide reuse-vs-rebuild far cheaper than a setup.

A :class:`~repro.serve.session.SolverSession` takes one fingerprint and one
signature of each operator it accepts and keys the cache with them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..mg import MGOptions
from ..precision import PrecisionConfig
from ..sgdia import SGDIAMatrix

__all__ = [
    "matrix_fingerprint",
    "options_key",
    "cache_key",
    "OperatorSignature",
    "operator_drift",
]


def _hash_update_array(h, a: np.ndarray) -> None:
    h.update(str(a.dtype).encode())
    h.update(str(a.shape).encode())
    # the C-order bytes, read in place: a C-contiguous array whole, anything
    # else (a padded SOA payload) one sub-array of the first axis at a time
    for part in (a,) if a.flags.c_contiguous else a:
        h.update(np.ascontiguousarray(part))


def matrix_fingerprint(a: SGDIAMatrix) -> str:
    """Stable content hash of an SG-DIA operator.

    Two operators get the same fingerprint iff their structural metadata and
    coefficient bytes are identical — dtype included, since an FP32 and an
    FP64 copy of the same values set up different hierarchies.
    """
    if not isinstance(a, SGDIAMatrix):
        raise TypeError(
            f"cannot fingerprint operator of type {type(a).__name__}; "
            "expected SGDIAMatrix"
        )
    h = hashlib.sha256()
    g = a.grid
    h.update(b"sgdia")
    h.update(repr((g.shape, g.ncomp, g.spacing)).encode())
    h.update(a.stencil.name.encode())
    h.update(repr(a.stencil.offsets).encode())
    h.update(a.layout.encode())
    _hash_update_array(h, a.data)
    return h.hexdigest()


def options_key(options: MGOptions) -> str:
    """Canonical key for hierarchy options.

    ``MGOptions`` is frozen but carries the ``smoother_kwargs`` dict, so the
    dataclass itself is unhashable; this renders every field (kwargs sorted
    by name) to a deterministic string instead.
    """
    kw = ";".join(
        f"{k}={options.smoother_kwargs[k]!r}"
        for k in sorted(options.smoother_kwargs)
    )
    return (
        f"levels={options.max_levels};min_coarse={options.min_coarse_dofs};"
        f"smoother={options.smoother}({kw});nu={options.nu1},{options.nu2};"
        f"coarse={options.coarse_solver};cycle={options.cycle};"
        f"interp={options.interp};coarsen={options.coarsen}"
        f"*{options.coarsen_factor};semi={options.semi_threshold!r};"
        f"pattern={options.coarse_pattern};keep_high={options.keep_high}"
    )


def cache_key(
    a: "SGDIAMatrix | str", config: PrecisionConfig, options: MGOptions
) -> tuple[str, str, str]:
    """The full hierarchy-cache key ``(matrix, config, options)``.

    ``a`` is the operator or its :func:`matrix_fingerprint`, so a caller
    that already holds the fingerprint keys it without hashing again.
    """
    fingerprint = a if isinstance(a, str) else matrix_fingerprint(a)
    return (fingerprint, config.cache_key, options_key(options))


# ----------------------------------------------------------------------
# operator drift
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorSignature:
    """Compact summary of an operator for drift testing.

    Holds the dof diagonal (the quantity the scaling ``Q = diag(A)/G`` is
    built from — if it moves, the cached scaling is wrong in proportion)
    and the L2 norm of each stencil diagonal (off-diagonal mass per
    coupling direction).  Size is one vector plus one scalar per offset —
    negligible next to the hierarchy it guards.
    """

    shape: tuple
    ncomp: int
    stencil_name: str
    diagonal: np.ndarray
    offset_norms: np.ndarray

    @classmethod
    def of(cls, a: SGDIAMatrix) -> "OperatorSignature":
        norms = np.array(
            [
                float(np.linalg.norm(a.diag_view(d).astype(np.float64).ravel()))
                for d in range(a.ndiag)
            ]
        )
        return cls(
            shape=tuple(a.grid.shape),
            ncomp=a.grid.ncomp,
            stencil_name=a.stencil.name,
            diagonal=a.dof_diagonal().astype(np.float64).copy(),
            offset_norms=norms,
        )

    def drift(self, other: "OperatorSignature") -> float:
        """Relative operator change between two signatures.

        ``inf`` for structurally different operators (different grid or
        stencil — never reusable); otherwise the max of the relative
        diagonal change (inf-norm over dofs) and the relative per-offset
        norm change.  0.0 means the signatures are indistinguishable.
        """
        if (
            self.shape != other.shape
            or self.ncomp != other.ncomp
            or self.stencil_name != other.stencil_name
            or self.offset_norms.shape != other.offset_norms.shape
        ):
            return float("inf")
        dref = np.abs(self.diagonal)
        dscale = float(dref.max()) or 1.0
        diag_rel = float(np.abs(other.diagonal - self.diagonal).max()) / dscale
        nref = float(np.abs(self.offset_norms).max()) or 1.0
        norm_rel = float(np.abs(other.offset_norms - self.offset_norms).max()) / nref
        return max(diag_rel, norm_rel)


def operator_drift(a: SGDIAMatrix, b: SGDIAMatrix) -> float:
    """Convenience: drift between two operators (see ``OperatorSignature``)."""
    return OperatorSignature.of(a).drift(OperatorSignature.of(b))
