"""Two-sided diagonal scaling for overflow-safe FP16 truncation.

Implements the machinery of Theorem 4.1: given a matrix ``A`` with positive
diagonal, the diagonal matrix ``Q = diag(A)/G`` yields a scaled matrix

    A_s = Q^{-1/2} A Q^{-1/2},   (A_s)_ij = G * a_ij / sqrt(a_ii * a_jj),

whose entries fit in FP16 for any ``G < G_max = S * min_{ij} sqrt(a_ii a_jj)
/ |a_ij|`` with ``S = FP16_MAX``.

Note on the paper's statement: the proof requires ``G |a_ij| / sqrt(a_ii
a_jj) < S`` *for all* ``i, j``, so the binding bound is the **minimum** of
``sqrt(a_ii a_jj)/|a_ij|`` over nonzeros (the paper's Eq. prints a ``max``
but its own argument — "when a_ij is large, it requires G to be small" —
selects the smallest ratio).  We implement the min.

The recovery direction used in the solve phase (Algorithm 3, line 7) is
``A = Q^{1/2} A_s Q^{1/2}``.  It is applied as a change of basis, never by
materializing an FP32 copy of the matrix: a scaled multigrid level keeps its
vectors in its own basis, ``u_s = Q^{1/2} u`` and ``f_s = Q^{-1/2} f``, where
the stored ``A_s`` *is* the operator, and converts them with
:meth:`DiagonalScaling.scale_vector` / :meth:`~DiagonalScaling.unscale_vector`
only where they change level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import FP16, FloatFormat, get_format

__all__ = [
    "gmax_from_ratio",
    "max_scaled_ratio",
    "DiagonalScaling",
    "choose_g",
]


def max_scaled_ratio(
    values: np.ndarray, row_diag: np.ndarray, col_diag: np.ndarray
) -> float:
    """Largest ``|a_ij| / sqrt(a_ii * a_jj)`` over the supplied entries.

    Parameters are parallel arrays: entry values and the diagonal values of
    their rows and columns.  Zero entries are ignored.  Raises if any
    involved diagonal is non-positive (Theorem 4.1 assumes the M-matrix
    property, which guarantees a positive diagonal).
    """
    v = np.abs(np.asarray(values, dtype=np.float64)).ravel()
    rd = np.asarray(row_diag, dtype=np.float64).ravel()
    cd = np.asarray(col_diag, dtype=np.float64).ravel()
    mask = v > 0
    if not np.any(mask):
        return 0.0
    rd, cd = rd[mask], cd[mask]
    if np.any(rd <= 0) or np.any(cd <= 0):
        raise ValueError(
            "diagonal scaling requires strictly positive diagonal entries "
            "(M-matrix property assumed by Theorem 4.1)"
        )
    return float(np.max(v[mask] / np.sqrt(rd * cd)))


def gmax_from_ratio(max_ratio: float, fmt: "str | FloatFormat" = FP16) -> float:
    """Theorem 4.1 bound ``G_max`` given ``max_ij |a_ij|/sqrt(a_ii a_jj)``."""
    fmt = get_format(fmt)
    if max_ratio <= 0:
        return fmt.max
    return fmt.max / max_ratio


def choose_g(
    max_ratio: float,
    fmt: "str | FloatFormat" = FP16,
    safety: float = 0.5,
) -> float:
    """Pick the scaling constant ``G = safety * G_max``.

    ``safety < 1`` leaves headroom so that round-to-nearest at the format
    boundary cannot produce ``inf`` (a value within one ULP below ``S``
    rounds *to* ``S``, not past it, but intermediate fp32 arithmetic in the
    scaled product can overshoot slightly).
    """
    if not (0.0 < safety <= 1.0):
        raise ValueError("safety must be in (0, 1]")
    return safety * gmax_from_ratio(max_ratio, fmt)


@dataclass
class DiagonalScaling:
    """The per-level scaling state ``(G, sqrt(Q))`` of Algorithm 1.

    ``sqrt_q`` holds ``sqrt(a_ii / G)`` per degree of freedom, stored in the
    preconditioner *compute* precision (FP32) exactly as Algorithm 1 line 9
    prescribes — Q occupies only the memory of one vector (Section 4.3).
    """

    g: float
    sqrt_q: np.ndarray  # shape: field shape, compute precision

    @classmethod
    def from_diagonal(
        cls,
        diag: np.ndarray,
        g: float,
        compute: "str | FloatFormat" = "fp32",
    ) -> "DiagonalScaling":
        diag = np.asarray(diag, dtype=np.float64)
        if np.any(diag <= 0):
            raise ValueError(
                "diagonal scaling requires strictly positive diagonal entries"
            )
        if not np.isfinite(g) or g <= 0:
            raise ValueError(f"scaling constant G must be positive, got {g}")
        sqrt_q = np.sqrt(diag / g).astype(get_format(compute).np_dtype)
        return cls(g=float(g), sqrt_q=sqrt_q)

    def __getitem__(self, index) -> "DiagonalScaling":
        """The scaling of a sub-box of the field (a rank's owned cells)."""
        return DiagonalScaling(g=self.g, sqrt_q=self.sqrt_q[index])

    # -- the change of basis of a scaled level ------------------------------
    # ``x`` is field-shaped, or carries a trailing batch axis ``k``.
    def scale_vector(self, x: np.ndarray, out=None) -> np.ndarray:
        """``Q^{1/2} x``: a solution into the scaled basis (``u_s = Q^{1/2}
        u``), or a scaled-basis right-hand side out of it (``f = Q^{1/2}
        f_s``)."""
        sq = self.sqrt_q
        if np.ndim(x) > sq.ndim:
            sq = sq[..., None]
        return np.multiply(x, sq, out=out)

    def unscale_vector(self, x: np.ndarray, out=None) -> np.ndarray:
        """``Q^{-1/2} x``: a right-hand side into the scaled basis (``f_s =
        Q^{-1/2} f``), or a scaled-basis solution out of it (``u = Q^{-1/2}
        u_s``)."""
        sq = self.sqrt_q
        if np.ndim(x) > sq.ndim:
            sq = sq[..., None]
        return np.divide(x, sq, out=out)

    @property
    def nbytes(self) -> int:
        """Memory overhead of the scaling data (one vector, Section 4.3)."""
        return int(self.sqrt_q.nbytes)
