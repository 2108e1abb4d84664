"""The scaled-basis cycle against an unscaled twin.

A scaled level stores ``A_s = Q^{-1/2} A Q^{-1/2}``, and the cycle keeps the
level's vectors in that basis: it converts them only at restriction,
prolongation and the cycle's entry and exit (``repro.mg.hierarchy``).  The
twin holds each level's payload recovered to FP64, ``Q^{1/2} A_s Q^{1/2}``,
unscaled, on the same grids and transfers, so it converts nothing.  Its
smoothers are set up on the level's FP64 operator, as the scaled setup's are
on that operator scaled (not on the FP16 payload).  Gauss-Seidel, Jacobi and
the coarse LU are invariant under a symmetric diagonal scaling, so with FP64
compute the two cycles are one map up to FP64 rounding.  A missing or
misplaced ``sqrt(Q)`` at any transfer shows as an O(1) difference.
"""

import dataclasses

import numpy as np
import pytest

from repro.mg import Level, mg_setup
from repro.precision import parse_config
from repro.problems import build_problem
from repro.sgdia import StoredMatrix
from repro.smoothers import CoarseDirectSolver, make_smoother

SHAPES = {"laplace27e8": (16, 16, 16), "solid-3d": (12, 12, 12)}


def _l1_diag_inv_unscaled(smoother, sqrt_q):
    """The l1-Jacobi diagonal of the scaled setup, in the unscaled basis.

    l1-Jacobi's row mass ``sum |a_ij|`` is not invariant under a diagonal
    scaling, so the twin takes the scaled setup's ``d_s^{-1}`` as
    ``Q^{-1/2} d_s^{-1} Q^{-1/2}``: the same sweep, written for ``A``.
    """
    q = sqrt_q.astype(np.float64)
    if smoother.diag_inv.ndim == q.ndim:
        return smoother.diag_inv / (q * q)
    return smoother.diag_inv / (q[..., :, None] * q[..., None, :])


def _unscaled_twin(hierarchy, smoother):
    levels = []
    for lev in hierarchy.levels:
        a = lev.stored.recovered()
        stored = StoredMatrix(a, None, lev.stored.compute, lev.stored.compute)
        coarsest = lev.index == hierarchy.n_levels - 1
        sm = CoarseDirectSolver() if coarsest else make_smoother(smoother)
        sm.setup(lev.high, stored)
        if smoother == "l1jacobi" and not coarsest:
            sm.diag_inv = _l1_diag_inv_unscaled(
                lev.smoother, lev.stored.scaling.sqrt_q
            )
        levels.append(Level(lev.index, lev.grid, stored, sm, lev.transfer))
    return dataclasses.replace(hierarchy, levels=levels)


@pytest.mark.parametrize("smoother", ["symgs", "gs", "jacobi", "l1jacobi"])
@pytest.mark.parametrize("problem", sorted(SHAPES))
def test_precondition_matches_unscaled_twin(problem, smoother):
    prob = build_problem(problem, SHAPES[problem], seed=0)
    options = dataclasses.replace(
        prob.mg_options, smoother=smoother, keep_high=True
    )
    h = mg_setup(prob.a, parse_config("K64P64D16-setup-scale"), options)
    assert h.n_levels >= 3 and all(lev.stored.is_scaled for lev in h.levels)
    assert isinstance(h.levels[-1].smoother, CoarseDirectSolver)
    twin = _unscaled_twin(h, smoother)

    rng = np.random.default_rng(1)
    for shape in (prob.a.grid.field_shape, (prob.a.grid.ndof, 2)):
        r = rng.standard_normal(shape)
        x0 = rng.standard_normal(shape)  # a given iterate enters the basis too
        for got, want in (
            (h.precondition(r), twin.precondition(r)),
            (h.cycle(r, x0.copy()), twin.cycle(r, x0.copy())),
        ):
            scale = np.max(np.abs(want))
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * scale)
