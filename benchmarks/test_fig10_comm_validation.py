"""Figure 10 (validation) — analytic comm model vs the executed engine.

The strong-scaling simulator charges per-level halo volumes from an
analytic surface-area formula.  Here the in-process distributed engine
*executes* a decomposed CG solve, counts every halo byte and message, and
the bench checks the analytic estimate against the measurement — grounding
the simulated Figure-10 curves in an actually-running decomposition.
"""

import numpy as np
import pytest

from repro.kernels import compute_diag_inv
from repro.parallel import (
    CartesianDecomposition,
    DistributedSGDIA,
    distributed_cg,
)
from repro.perf import ARM_KUNPENG
from repro.perf.scaling import _halo_bytes_per_exchange, process_grid

from conftest import bench_problem, print_header


def _run():
    p = bench_problem("laplace27")
    nranks = 8
    dec = CartesianDecomposition.auto(p.a.grid, nranks)
    da = DistributedSGDIA.from_global(p.a, dec)
    dinv = compute_diag_inv(p.a, np.float64)

    # solve in fp64 (iterative precision)
    res, stats = distributed_cg(
        da, p.b, rtol=p.rtol, maxiter=600, preconditioner=lambda r: dinv * r
    )
    return p, dec, res, stats


def test_fig10_comm_model_validation(once):
    p, dec, res, stats = once(_run)
    print_header("Figure 10 validation: measured vs modeled halo traffic")
    assert res.converged

    it = res.iterations
    measured_msgs_per_matvec = stats.by_phase["matvec"]["p2p_messages"] / it
    measured_bytes_per_matvec = stats.by_phase["matvec"]["p2p_bytes"] / it

    # analytic estimate used by the scaling simulator: surface area of one
    # local subdomain x 2 directions x 3 axes, times the rank count / 2
    # (each directed message counted once)
    grid_p = dec.proc_grid
    local = tuple(n / pp for n, pp in zip(p.a.grid.shape, grid_p))
    modeled_per_rank = _halo_bytes_per_exchange(local, p.a.grid.ncomp, 8)
    # interior ranks exchange on all 6 faces; boundary ranks on fewer — the
    # executed engine sends one directed message per owned face-neighbour
    n_directed = sum(
        1
        for r in range(dec.nranks)
        for ax in range(3)
        for d in (-1, 1)
        if dec.neighbor(r, ax, d) is not None
    )
    modeled_total = modeled_per_rank * dec.nranks

    print(f"  decomposition      : {dec}")
    print(f"  CG iterations      : {it}")
    print(
        f"  measured / matvec  : {measured_msgs_per_matvec:.0f} msgs, "
        f"{measured_bytes_per_matvec:,.0f} B"
    )
    print(
        f"  modeled  / matvec  : {n_directed} msgs, "
        f"{modeled_total:,.0f} B (surface-area formula)"
    )
    print(
        f"  modeled alpha-beta time of the whole solve on "
        f"{ARM_KUNPENG.name}: {stats.modeled_time(ARM_KUNPENG) * 1e3:.2f} ms"
    )

    # message count is exact; byte volume within the surface-area formula's
    # accuracy (it over-counts domain-boundary faces that send nothing)
    assert measured_msgs_per_matvec == n_directed
    assert measured_bytes_per_matvec == pytest.approx(modeled_total, rel=0.5)
    assert measured_bytes_per_matvec <= modeled_total
    # allreduce accounting: 3 dots + residual-norm per iteration region
    assert stats.allreduces >= 3 * it
