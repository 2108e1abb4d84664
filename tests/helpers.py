"""Helper factories shared by the test suite."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.grid import StructuredGrid, stencil as make_stencil
from repro.kernels import COLORS8
from repro.sgdia import SGDIAMatrix


def assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    """Equal dtype, shape and bytes: the bit-identity check."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def random_sgdia(
    shape=(5, 4, 6),
    pattern: str = "3d27",
    ncomp: int = 1,
    seed: int = 0,
    diag_boost: float = 6.0,
    dtype=np.float64,
    spd: bool = False,
) -> SGDIAMatrix:
    """Random diagonally dominant SG-DIA matrix (optionally symmetrized)."""
    rng = np.random.default_rng(seed)
    grid = StructuredGrid(shape, ncomp=ncomp)
    st = make_stencil(pattern)
    a = SGDIAMatrix.zeros(grid, st, dtype=dtype)
    a.data[...] = rng.standard_normal(a.data.shape) * 0.1
    dv = a.diag_view(st.diag_index)
    if ncomp == 1:
        dv[...] = diag_boost + rng.random(grid.shape)
    else:
        dv[...] = 0.1 * rng.standard_normal(dv.shape)
        idx = np.arange(ncomp)
        dv[..., idx, idx] = diag_boost + rng.random((*grid.shape, ncomp))
    a.zero_boundary()
    if spd:
        csr = a.to_csr()
        sym = (csr + csr.T) * 0.5
        a = SGDIAMatrix.from_csr(sym, grid, st, dtype=dtype)
    return a


def gauss_seidel_oracle(a, b, x, groups) -> np.ndarray:
    """Block Gauss-Seidel by scipy CSR in FP64, the sweep oracle: for each
    dof group in turn, ``x_G = A_GG^{-1} (b_G - A_{G,~G} x_{~G})``.

    ``b``/``x`` are fields, optionally with a trailing batch axis; ``x`` is
    left unchanged and the swept copy returned.  With the 8 parity colors
    as groups (:func:`color_groups`) ``A_GG`` is the (block) diagonal
    ``D_c``; with a color's grid lines it is their tridiagonal part.
    """
    csr = a.to_csr(dtype=np.float64)
    n = a.grid.ndof
    xf = np.array(x, dtype=np.float64).reshape(n, -1)
    bf = np.asarray(b, dtype=np.float64).reshape(n, -1)
    for g in groups:
        rest = np.setdiff1d(np.arange(n), g)
        rhs = bf[g] - csr[g][:, rest] @ xf[rest]
        xf[g] = spla.spsolve(csr[g][:, g].tocsc(), rhs).reshape(rhs.shape)
    return xf.reshape(np.shape(x))


def color_groups(a, forward: bool = True) -> list:
    """The dofs of each non-empty parity color, in ``COLORS8`` order
    (reversed for a backward sweep)."""
    cell = np.arange(a.grid.ndof) // a.grid.ncomp
    parity = np.stack(np.unravel_index(cell, a.grid.shape), axis=-1) % 2
    order = COLORS8 if forward else COLORS8[::-1]
    groups = [np.flatnonzero((parity == c).all(axis=1)) for c in order]
    return [g for g in groups if g.size]


def csr_transfer(t) -> "tuple[sp.csr_matrix, sp.csr_matrix]":
    """The FP64 CSR oracle ``(P, R)`` of a transfer, assembled from its 1-D
    weights with ``sp.kron`` (``P = Px (x) Py (x) Pz (x) I_r``, ``R = P^T``)."""
    p = sp.kron(sp.kron(t.p1d[0], t.p1d[1]), t.p1d[2])
    if t.fine.ncomp > 1:
        p = sp.kron(p, sp.identity(t.fine.ncomp))
    p = sp.csr_matrix(p, dtype=np.float64)
    return p, sp.csr_matrix(p.T)


def csr_apply(mat, x: np.ndarray, src, dst, dtype) -> np.ndarray:
    """``mat`` cast to ``dtype``, applied by scipy's CSR matvec to a field
    or to a block with a trailing batch axis: the transfer and SpMV oracle."""
    arr = np.asarray(x, dtype=dtype)
    batched = arr.shape[:-1] in (src.field_shape, (src.ndof,))
    flat = mat.astype(dtype) @ arr.reshape((src.ndof, -1) if batched else src.ndof)
    shape = dst.field_shape + ((flat.shape[-1],) if batched else ())
    return flat.astype(dtype, copy=False).reshape(shape)
