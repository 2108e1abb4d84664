"""Chebyshev polynomial smoother (Jacobi-preconditioned).

The l1-Jacobi-Chebyshev combination is the smoother the Ginkgo baseline
(the paper's reference [33]) uses for its hardest problems; we provide it
both for that comparison and as a stronger smoother option.  The largest
eigenvalue of ``D^{-1} A`` is estimated with a short power iteration at
setup (high precision), and the polynomial is applied against the FP16
payload like every other smoother.
"""

from __future__ import annotations

import numpy as np

from ..kernels import compute_diag_inv, spmv_plain
from ..kernels.sweeps import _apply_diag_inv
from ..sgdia import SGDIAMatrix, StoredMatrix
from .base import DiagInvStateMixin, Smoother

__all__ = ["Chebyshev", "estimate_lambda_max"]


def estimate_lambda_max(
    a: SGDIAMatrix, diag_inv: np.ndarray, iterations: int = 12, seed: int = 7
) -> float:
    """Power-iteration estimate of ``lambda_max(D^{-1} A)`` in FP64."""
    rng = np.random.default_rng(seed)
    grid = a.grid
    scalar = grid.ncomp == 1
    x = rng.standard_normal(grid.field_shape)
    x /= np.linalg.norm(x)
    lam = 1.0
    dinv = diag_inv.astype(np.float64)
    for _ in range(iterations):
        y = spmv_plain(a, x, compute_dtype=np.float64)
        y = _apply_diag_inv(dinv, y, scalar)
        nrm = np.linalg.norm(y)
        if nrm == 0:
            return 1.0
        lam = float(np.vdot(x.ravel(), y.ravel()))
        x = y / nrm
    return abs(lam)


class Chebyshev(DiagInvStateMixin, Smoother):
    """Degree-``degree`` Chebyshev smoother on ``D^{-1} A``.

    Targets the interval ``[lambda_max/eig_ratio, 1.05*lambda_max]`` — the
    standard hypre-style choice that smooths the upper part of the spectrum
    and leaves the low modes to the coarse grid.
    """

    def __init__(self, degree: int = 2, eig_ratio: float = 30.0) -> None:
        super().__init__()
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = int(degree)
        self.eig_ratio = float(eig_ratio)
        self.diag_inv: "np.ndarray | None" = None
        self.lmax: float = 1.0
        self.lmin: float = 0.0

    def _setup_scaled(self, high: SGDIAMatrix, stored: StoredMatrix) -> None:
        self.diag_inv = compute_diag_inv(high, dtype=stored.compute.np_dtype)
        lmax = estimate_lambda_max(high, self.diag_inv)
        self.lmax = 1.05 * lmax
        self.lmin = lmax / self.eig_ratio

    def state_arrays(self) -> "dict[str, np.ndarray] | None":
        if self.diag_inv is None:
            return None
        return {
            "diag_inv": self.diag_inv,
            "lmax": np.asarray(self.lmax),
            "lmin": np.asarray(self.lmin),
        }

    def load_state(self, stored: StoredMatrix, arrays: dict) -> Smoother:
        super().load_state(stored, arrays)
        self.lmax = float(arrays["lmax"])
        self.lmin = float(arrays["lmin"])
        return self

    def _apply_dinv(self, r: np.ndarray) -> np.ndarray:
        grid = self.matrix.grid
        batched = r.ndim == len(grid.field_shape) + 1
        return _apply_diag_inv(self.diag_inv, r, grid.ncomp == 1, batched)

    def _smooth_scaled(self, b, x, forward: bool) -> None:
        cdtype = self.compute_dtype
        theta = cdtype.type(0.5 * (self.lmax + self.lmin))
        delta = cdtype.type(0.5 * (self.lmax - self.lmin))
        sigma = theta / delta
        a = self.matrix
        r = np.asarray(b, dtype=cdtype) - spmv_plain(
            a, x, compute_dtype=cdtype, plan=self.plan
        )
        z = self._apply_dinv(r)
        p = z / theta
        x += p
        rho_old = cdtype.type(1.0) / sigma
        for _ in range(1, self.degree):
            r = np.asarray(b, dtype=cdtype) - spmv_plain(
                a, x, compute_dtype=cdtype, plan=self.plan
            )
            z = self._apply_dinv(r)
            rho = cdtype.type(1.0) / (2 * sigma - rho_old)
            p = rho * rho_old * p + (2 * rho / delta) * z
            x += p
            rho_old = rho

    def extra_nbytes(self) -> int:
        return int(self.diag_inv.nbytes) if self.diag_inv is not None else 0
