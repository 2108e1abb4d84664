"""Smoother interface shared by every level of the multigrid.

A smoother is set up once from the *high-precision* (already scaled, when
the need-to-scale branch was taken) level operator — "data in smoothers are
calculated in iterative precision followed by truncation to storage
precision" (Section 4.1) — and applied many times against the FP16 stored
payload, recovered to the compute precision on the fly.

A smoother applies the stored payload exactly as set up.  When a level was
scaled, the payload is ``A_s`` and the operator it represents is ``A =
Q^{1/2} A_s Q^{1/2}``; smoothing ``A u = f`` is algebraically identical to
smoothing ``A_s u_s = f_s`` with ``u_s = Q^{1/2} u`` and ``f_s = Q^{-1/2}
f``.  The multigrid cycle keeps a scaled level's vectors in that basis
(:mod:`repro.mg.hierarchy`), so Algorithm 3's "rescaling in smoother_solve
is similar" costs the smoother nothing.
"""

from __future__ import annotations

import abc

import numpy as np

from ..sgdia import SGDIAMatrix, StoredMatrix

__all__ = ["Smoother", "DiagInvStateMixin"]


class Smoother(abc.ABC):
    """Base class: setup from high-precision operator, apply against FP16."""

    #: Subclasses that cannot handle block (vector-PDE) grids set this False.
    supports_blocks: bool = True

    def __init__(self) -> None:
        self.stored: "StoredMatrix | None" = None
        #: Kernel execution plan for the stored payload, bound by
        #: :meth:`setup` / :meth:`load_state` (shared, structure-keyed).
        self.plan = None

    # ------------------------------------------------------------------
    def setup(self, high: SGDIAMatrix, stored: StoredMatrix) -> "Smoother":
        """Prepare smoother data.

        Parameters
        ----------
        high:
            The level operator in high precision, *in the same space as the
            stored payload* (i.e. already diagonally scaled if the level was
            scaled).  Used only during setup and not retained.
        stored:
            The storage-precision payload the solve phase will run against.
        """
        if high.grid.ncomp > 1 and not self.supports_blocks:
            raise NotImplementedError(
                f"{type(self).__name__} does not support block (vector-PDE) grids"
            )
        self._bind_stored(stored)
        self._setup_scaled(high, stored)
        return self

    def _bind_stored(self, stored: StoredMatrix) -> None:
        """Attach the payload and its kernel plan (setup and restore paths)."""
        from ..kernels.plan import plan_for

        self.stored = stored
        self.plan = plan_for(stored.matrix)

    @abc.abstractmethod
    def _setup_scaled(self, high: SGDIAMatrix, stored: StoredMatrix) -> None:
        """Compute auxiliary data for the (scaled-space) operator."""

    @abc.abstractmethod
    def _smooth_scaled(
        self, b: np.ndarray, x: np.ndarray, forward: bool
    ) -> None:
        """One smoothing application in the scaled space, updating x in place."""

    # ------------------------------------------------------------------
    def smooth(self, b: np.ndarray, x: np.ndarray, forward: bool = True) -> np.ndarray:
        """Apply the smoother to ``A_s x = b``, updating ``x`` in place.

        ``A_s`` is the stored payload: on a scaled level, ``b`` and ``x``
        are in that level's own basis.  ``forward=False`` applies the
        transposed ordering (the paper's ``S_i^T`` in the upward half of the
        V-cycle), which for SymGS-type smoothers means sweeping in the
        reverse direction.  ``b``/``x`` may carry a trailing batch axis
        (``field_shape + (k,)``) to smooth a multi-RHS block in one pass.
        """
        if self.stored is None:
            raise RuntimeError("smoother used before setup()")
        self._smooth_scaled(b, x, forward)
        return x

    # ------------------------------------------------------------------
    # spill/restore protocol (used by repro.serve.cache disk spill)
    # ------------------------------------------------------------------
    def state_arrays(self) -> "dict[str, np.ndarray] | None":
        """Serializable auxiliary state, or ``None`` when not supported.

        Smoothers whose setup products are plain arrays (the ``diag_inv``
        family, the coarse LU factors) return them here so a spilled
        hierarchy restores bit-exactly; smoothers holding opaque state
        return ``None`` and are re-fitted from the recovered payload on
        restore.
        """
        return None

    def load_state(self, stored: StoredMatrix, arrays: dict) -> "Smoother":
        """Restore from :meth:`state_arrays` output (inverse of setup)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support state restore"
        )

    # ------------------------------------------------------------------
    @property
    def matrix(self) -> SGDIAMatrix:
        """The storage-precision payload used by the sweeps."""
        assert self.stored is not None
        return self.stored.matrix

    @property
    def compute_dtype(self) -> np.dtype:
        assert self.stored is not None
        return self.stored.compute.np_dtype

    def extra_nbytes(self) -> int:
        """Memory of smoother auxiliary data (for the performance model)."""
        return 0


class DiagInvStateMixin:
    """Spill/restore support for smoothers whose only setup product is the
    precomputed (block-)diagonal inverse field ``diag_inv``."""

    def state_arrays(self) -> "dict[str, np.ndarray] | None":
        diag_inv = getattr(self, "diag_inv", None)
        if diag_inv is None:
            return None
        return {"diag_inv": diag_inv}

    def load_state(self, stored: StoredMatrix, arrays: dict) -> "Smoother":
        self._bind_stored(stored)
        self.diag_inv = np.asarray(arrays["diag_inv"])
        return self
