"""Galerkin coarsening: the triple-matrix product ``A_c = R A P``.

This is the essential process of the multigrid setup phase (paper Figure 2:
"Coarsening — SpGEMM").  The paper's Algorithm 1 performs *all* Galerkin
coarsening in high precision before any FP16 truncation, which is exactly
what the setup-then-scale strategy protects, so the product is FP64.

It is formed on SG-DIA slices, with no index arrays (Guideline 2, §3.2).
The prolongation factorizes as ``P = Px (x) Py (x) Pz (x) I_r``
(:mod:`repro.coarsen.transfer`), so ``R A P`` is three 1-D Galerkin passes
— x, then y, then z; a factor-1 axis is skipped — each contracting one axis
of every stencil coefficient array with that axis's 1-D interpolation
weights.  Coarse operators of radius-1 stencils with factor-2/-4 coarsening
stay within the 3d27 pattern (the expansion noted in the paper's Table 3
footnote).

Summation order (part of the reference, like
:func:`repro.kernels.spmv.block_contract`).  In a pass along an axis with
factor ``f``, coarse row ``I`` restricts fine rows ``f*I + s`` with weights
``w_I(s) = P[f*I + s, I]``, and ``R A`` couples it to fine columns
``f*I + e``.  Each ``R A`` entry sums ``w_I(s) * a(e - s)`` over the fine
offset ``s`` in ascending order, and each coarse entry at offset ``E`` sums
``(R A)(e) * w_{I+E}(e - f*E)`` over the intermediate offset ``e`` in
ascending order, both from a zero partial sum.  A weight multiplies whole
``r x r`` blocks.  A pass splits into *rest groups*, the stencil offsets
that agree off the pass axis; :func:`_pass_terms` lists a group's ``R A``
terms ``(e, s, lo, hi)`` and ``(R A) P`` terms ``(E, e, k)`` in this order,
and the ``galerkin_group`` kernel (:mod:`repro.kernels.coarsening`: numpy
slice arithmetic as the reference, a blocked compiled FP64 kernel in the
``c`` backend) does the arithmetic of one group per call.  The grid
transfers of the solve have a summation order of their own
(:mod:`repro.coarsen.transfer`).

The result is not byte-identical to scipy's SpGEMM, and is not meant to
be: scipy's order follows ``csr_matmat``'s per-row linked list, so it
depends on the operator's zero pattern and on the explicit zeros ``sp.kron``
stores for short axes and for ``ncomp == 2``.  The two agree within a few
ulps of ``|R||A||P|``, and exactly where the sums are exact
(constant-coefficient laplace27).  scipy's :func:`galerkin_product` and the
stencil-algebra :func:`constant_coefficient_coarse_stencil` stay as
independent oracles for the test suite.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..grid import Stencil, stencil as make_stencil
from ..kernels import get_backend
from ..sgdia import SGDIAMatrix
from .transfer import Transfer

__all__ = [
    "galerkin_product",
    "galerkin_coarse_sgdia",
    "constant_coefficient_coarse_stencil",
]

Offset = tuple[int, int, int]


def galerkin_product(a: sp.spmatrix, transfer: Transfer) -> sp.csr_matrix:
    """``A_c = R A P`` in FP64 CSR (scipy SpGEMM; the test oracle).

    ``P`` is assembled from the 1-D weights, ``P = Px (x) Py (x) Pz (x) I_r``.
    """
    a = sp.csr_matrix(a, dtype=np.float64)
    px, py, pz = transfer.p1d
    p = sp.kron(sp.kron(px, py), pz)
    if transfer.fine.ncomp > 1:
        p = sp.kron(p, sp.identity(transfer.fine.ncomp))
    p = sp.csr_matrix(p, dtype=np.float64)
    coarse = (sp.csr_matrix(p.T) @ a) @ p
    coarse = sp.csr_matrix(coarse)
    coarse.eliminate_zeros()
    return coarse


def galerkin_coarse_sgdia(
    a_fine: SGDIAMatrix,
    transfer: Transfer,
    coarse_pattern: str = "3d27",
    collapse: bool = False,
) -> SGDIAMatrix:
    """One Galerkin coarsening step, returning the coarse SG-DIA operator.

    ``collapse=True`` folds any product entry outside ``coarse_pattern``
    onto retained neighbours (see :func:`_collapse`: row-sum preserving
    non-Galerkin sparsification in the spirit of Falgout & Schroder 2014,
    which the paper cites for aggressive coarsening); with
    ``collapse=False`` an out-of-pattern nonzero raises.
    """
    ops = {
        off: np.asarray(a_fine.diag_view(d), dtype=np.float64)
        for d, off in enumerate(a_fine.stencil.offsets)
    }
    st = make_stencil(coarse_pattern)
    out = SGDIAMatrix.zeros(transfer.coarse, st)
    # the last pass writes the coarse planes in place (unless collapsing)
    planes = {} if collapse else {off: out.diag_view(d) for d, off in enumerate(st)}
    passes = [axis for axis, f in enumerate(transfer.factors) if f > 1]
    for axis in passes:
        factor = transfer.factors[axis]
        ops = _galerkin_pass(ops, axis, factor, _band(transfer.p1d[axis], factor),
                             planes if axis == passes[-1] else None)
    if collapse:
        ops = _collapse(ops, st)
    for off, arr in ops.items():
        if off in st:
            if arr is not planes.get(off):
                out.diag_view(st.index_of(off))[...] = arr
        elif np.any(arr != 0):
            raise ValueError(
                f"nonzero entry at offset {off} outside stencil {st.name}"
            )
    return out


def _band(p1: sp.spmatrix, factor: int) -> np.ndarray:
    """1-D weights as a band: ``band[I, s + f - 1] = P[f*I + s, I]``.

    Zero where the fine point ``f*I + s`` is off the axis.
    """
    dense = p1.toarray()
    n, nc = dense.shape
    reach = factor - 1
    coarse = np.arange(nc)[:, None]
    rows = factor * coarse + np.arange(-reach, reach + 1)
    inside = (rows >= 0) & (rows < n)
    band = np.where(inside, dense[np.clip(rows, 0, n - 1), coarse], 0.0)
    if np.count_nonzero(band) != np.count_nonzero(dense):
        raise ValueError(
            f"interpolation weights reach beyond {reach} fine points"
        )
    return band


def _pass_terms(
    row: dict, n: int, nc: int, factor: int, live: list
) -> tuple[list, list]:
    """The terms of one rest group of a pass, in the module docstring's order.

    ``row`` holds the group's offsets along the pass axis, ``n``/``nc`` are
    the fine/coarse axis lengths and ``live`` the band columns with a
    nonzero weight.  Returns the ``R A`` terms ``(e, s, lo, hi)`` — ``e``
    ascending, then ``s`` — and the ``(R A) P`` terms ``(E, e, k)`` — ``E``
    ascending, then ``e`` — of the nonempty entries.
    """
    reach = factor - 1
    lo_e, hi_e = min(row) - reach, max(row) + reach
    ra = []
    for e in range(lo_e, hi_e + 1):
        for k in live:
            s = k - reach
            lo = max(0, -(s // factor))
            hi = min(nc, (n - 1 - s) // factor + 1)
            if e - s in row and lo < hi:
                ra.append((e, s, lo, hi))
    inter = sorted({t[0] for t in ra})
    rap = []
    for oc in range(-((reach - lo_e) // factor), (hi_e + reach) // factor + 1):
        if max(0, -oc) < min(nc, nc - oc):
            rap.extend(
                (oc, e, e - factor * oc + reach)
                for e in inter
                if e - factor * oc + reach in live
            )
    return ra, rap


def _galerkin_pass(
    ops: dict[Offset, np.ndarray], axis: int, factor: int, band: np.ndarray,
    dest: "dict[Offset, np.ndarray] | None" = None,
) -> dict[Offset, np.ndarray]:
    """``R A P`` along one axis; ``ops`` maps offset -> coefficient array.

    Offsets along the other axes are carried through untouched: the pass
    contracts each rest group (fixed other offsets) of the stencil on its
    own, one ``galerkin_group`` kernel call per group.  An output offset
    with an array in ``dest`` is written there.  ``ops`` is consumed: each
    group's arrays are released once its outputs exist, which keeps the
    intermediates of two passes from being held at once.
    """
    nc, width = band.shape
    n = next(iter(ops.values())).shape[axis]
    live = [k for k in range(width) if band[:, k].any()]
    group = get_backend().galerkin_group

    def offset(rest, oc):
        return rest[:axis] + (oc,) + rest[axis:]

    rows: dict[tuple, dict[int, np.ndarray]] = {}
    for off, arr in ops.items():
        rows.setdefault(off[:axis] + off[axis + 1:], {})[off[axis]] = arr
    ops.clear()

    out: dict[Offset, np.ndarray] = {}
    for rest in sorted(rows):
        row = rows.pop(rest)
        ra, rap = _pass_terms(row, n, nc, factor, live)
        targets = None
        if dest:
            targets = {oc: dest[offset(rest, oc)] for oc, _e, _k in rap
                       if offset(rest, oc) in dest}
        for oc, arr in group(row, band, axis, factor, ra, rap, targets).items():
            out[offset(rest, oc)] = arr
    return out


def _collapse(
    ops: dict[Offset, np.ndarray], st: Stencil
) -> dict[Offset, np.ndarray]:
    """Fold entries outside pattern ``st`` onto retained neighbours.

    A negative (M-matrix-like) entry at a dropped offset ``(dx, dy, dz)``
    is split equally over the face offsets it decomposes into that ``st``
    keeps (``(1,1,0)`` splits between ``(1,0,0)`` and ``(0,1,0)``), so it
    strengthens those couplings; every other dropped entry — positive, or
    with no retained face — goes to the diagonal, which can then only grow.
    Each entry stays in its row and block position, so row sums are
    preserved (the action on the constant vector, which Poisson-like coarse
    operators need) and the sign structure of M-matrices is kept.  Dropped
    offsets are folded in ascending order, each onto the running sums.
    """
    kept = {off: arr for off, arr in ops.items() if off in st}
    first = next(iter(ops.values()))
    diag = (0, 0, 0)
    kept.setdefault(diag, np.zeros_like(first))
    for off in sorted(o for o in ops if o not in st):
        v = ops[off]
        units = []
        for ax in range(3):
            if off[ax]:
                unit = [0, 0, 0]
                unit[ax] = 1 if off[ax] > 0 else -1
                if tuple(unit) in st:
                    units.append(tuple(unit))
        if not units:
            kept[diag] = kept[diag] + v
            continue
        neg = np.where(v < 0, v, 0.0)
        share = neg / len(units)
        for u in units:
            kept[u] = kept[u] + share if u in kept else share
        kept[diag] = kept[diag] + (v - neg)
    return kept


def constant_coefficient_coarse_stencil(
    fine_coeffs: dict[tuple[int, int, int], float],
    factors: tuple[int, int, int] = (2, 2, 2),
) -> dict[tuple[int, int, int], float]:
    """Interior coarse stencil of a constant-coefficient Galerkin product.

    Computes ``(R A P)`` entries for an infinite grid by direct convolution
    over 1-D linear-interpolation weights: coarse entry at offset ``O`` is

        sum_{f1, f2} w(f1) * a(f2 - f1) * w(f2 - factor*O),

    with ``w`` the tensor-product interpolation weights.  Used as an
    independent cross-check of the sparse-matrix RAP on interior cells.
    """

    def w1d(f: int, fac: int) -> float:
        if fac == 1:
            return 1.0 if f == 0 else 0.0
        a = abs(f)
        return max(0.0, 1.0 - a / fac)

    def w(off: tuple[int, int, int]) -> float:
        return (
            w1d(off[0], factors[0]) * w1d(off[1], factors[1]) * w1d(off[2], factors[2])
        )

    reach = [f - 1 if f > 1 else 0 for f in factors]
    out: dict[tuple[int, int, int], float] = {}
    span = [range(-r, r + 1) for r in reach]
    for ox in (-1, 0, 1):
        for oy in (-1, 0, 1):
            for oz in (-1, 0, 1):
                acc = 0.0
                for f1x in span[0]:
                    for f1y in span[1]:
                        for f1z in span[2]:
                            w1 = w((f1x, f1y, f1z))
                            if w1 == 0.0:
                                continue
                            for (ax, ay, az), aval in fine_coeffs.items():
                                f2 = (f1x + ax, f1y + ay, f1z + az)
                                rel = (
                                    f2[0] - factors[0] * ox,
                                    f2[1] - factors[1] * oy,
                                    f2[2] - factors[2] * oz,
                                )
                                w2 = w(rel)
                                if w2 != 0.0:
                                    acc += w1 * aval * w2
                if acc != 0.0:
                    out[(ox, oy, oz)] = acc
    return out
