"""End-to-end time composition (paper Figures 8/9 and Table 1).

The reproduction separates what can be *measured* honestly from what must
be *modeled*: iteration counts come from real solves with real IEEE-754
float16/float32 numerics; per-iteration times come from the same
memory-volume roofline the paper itself uses to bound and explain its
speedups (Table 2 and the bandwidth-efficiency footnote of Section 6.1),
evaluated on the byte volumes of the actual hierarchy that was set up.

Every report row carries the three stacked components of Figure 8 —
``setup overhead``, ``MG preconditioner``, ``other`` (the FP64 Krylov
work) — normalized to the Full64 total, plus the #iter annotations and the
preconditioner / E2E speedups.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mg import MGHierarchy, mg_setup
from ..precision import FULL64, K64P32D16_SETUP_SCALE, PrecisionConfig
from ..problems import Problem
from ..smoothers import (
    Chebyshev,
    CoarseDirectSolver,
    GaussSeidel,
    ILU0,
    L1Jacobi,
    SymGS,
    WeightedJacobi,
)
from ..solvers import solve
from .bytes_model import (
    residual_volume,
    spmv_volume,
    symgs_volume,
    transfer_volume,
)
from .machine import ARM_KUNPENG, MachineSpec

__all__ = [
    "E2EReport",
    "e2e_report",
    "geometric_mean",
    "solve_record",
    "vcycle_seconds",
    "vcycle_volume",
]

#: Calibration constant: Galerkin SpGEMM traffic per operator byte.  The
#: triple product reads/writes each operator and intermediate several
#: times; 6 passes reproduces the small setup slivers of Figure 8.
SETUP_PASSES = 6.0


def _smoother_volume_per_application(level, compute_itemsize: int) -> float:
    """Access volume of one smoother application on one level."""
    # a distributed level's smoother is a rank-by-rank wrapper around the
    # sequential one, whose sweeps it runs: model those
    sm = getattr(level.smoother, "smoother", level.smoother)
    nnz = level.nnz_stored
    ndof = level.ndof
    mat = level.stored.storage.itemsize
    scaled = level.stored.is_scaled
    if isinstance(sm, CoarseDirectSolver):
        # dense back-substitution on a tiny system
        return 2.0 * level.ndof * level.ndof * 8
    if isinstance(sm, SymGS):
        return sm.sweeps * symgs_volume(nnz, ndof, mat, compute_itemsize, scaled)
    if isinstance(sm, GaussSeidel):
        return (
            sm.sweeps
            * symgs_volume(nnz, ndof, mat, compute_itemsize, scaled)
            / 2.0
        )
    if isinstance(sm, (WeightedJacobi, L1Jacobi)):
        return sm.sweeps * residual_volume(
            nnz, ndof, mat, compute_itemsize, scaled
        )
    if isinstance(sm, Chebyshev):
        return sm.degree * residual_volume(
            nnz, ndof, mat, compute_itemsize, scaled
        )
    if isinstance(sm, ILU0):
        # residual + two triangular solves reading L and U once
        return sm.sweeps * (
            residual_volume(nnz, ndof, mat, compute_itemsize, scaled)
            + nnz * mat
            + 4 * ndof * compute_itemsize
        )
    return symgs_volume(nnz, ndof, mat, compute_itemsize, scaled)


def vcycle_volume(h: MGHierarchy) -> float:
    """Memory-access volume (bytes) of one cycle of the preconditioner."""
    vec = h.config.compute.itemsize
    nu1, nu2 = h.options.nu1, h.options.nu2
    gamma = {"v": 1, "w": 2, "f": 1.5}[h.options.cycle]
    total = 0.0
    visits = 1.0
    for i, lev in enumerate(h.levels):
        mat = lev.stored.storage.itemsize
        sm_vol = _smoother_volume_per_application(lev, vec)
        if i == len(h.levels) - 1:
            total += visits * sm_vol
            break
        level_vol = (nu1 + nu2) * sm_vol
        level_vol += residual_volume(
            lev.nnz_stored, lev.ndof, mat, vec, lev.stored.is_scaled
        )
        ndof_coarse = h.levels[i + 1].ndof
        level_vol += 2 * transfer_volume(lev.ndof, ndof_coarse, vec)
        total += visits * level_vol
        visits *= gamma
    return total


def vcycle_seconds(
    h: MGHierarchy, machine: MachineSpec = ARM_KUNPENG
) -> float:
    """Modeled wall-clock of one cycle of the preconditioner: its byte
    volume at the machine's achievable STREAM bandwidth."""
    bandwidth = machine.bw_bytes_per_s * machine.kernel_efficiency
    return vcycle_volume(h) / bandwidth


def solve_record(result, hierarchy: MGHierarchy, metrics) -> dict:
    """Run record of one preconditioned solve, as the Krylov-zoo bench and
    the precision tuner report it: outcome, preconditioner applications,
    fcvt volume (the ``precision.fcvt.values`` counter of ``metrics``) and
    the modeled preconditioner time, charged per application so nested
    inner work is priced honestly."""
    return {
        "status": result.status,
        "iterations": int(result.iterations),
        "precond_applications": int(result.precond_applications),
        "final_residual": float(result.history.final()),
        "fcvt_values": int(metrics.totals().get("precision.fcvt.values", 0)),
        "modeled_seconds": float(
            result.precond_applications * vcycle_seconds(hierarchy)
        ),
    }


def _other_volume_per_iteration(problem: Problem, config: PrecisionConfig) -> float:
    """FP64 Krylov work outside the preconditioner, per iteration."""
    k = config.iterative.itemsize
    a = problem.a
    nnz = a.nnz_stored
    ndof = a.grid.ndof
    # residual/spmv in iterative precision on the high-precision operator
    vol = spmv_volume(nnz, ndof, k, k, False)
    # vector work: CG ~ 6 streamed vectors/iter; GMRES (restart 30) averages
    # ~ restart/2 basis reads per iteration of MGS plus updates
    streams = 6 if problem.solver == "cg" else 18
    vol += streams * ndof * k
    return vol


def _setup_volume(h: MGHierarchy) -> float:
    vec = h.config.compute.itemsize
    vol = SETUP_PASSES * sum(lev.nnz_stored * 8 for lev in h.levels)
    for lev in h.levels:
        if lev.stored.is_scaled:
            # scaling pass: read fp64, write storage precision + diagonal work
            vol += lev.nnz_stored * (8 + lev.stored.storage.itemsize)
            vol += 3 * lev.ndof * vec
    return vol


@dataclass
class E2EReport:
    """One problem x machine comparison row (a Figure-8 column pair)."""

    problem: str
    machine: str
    iters_full: int
    iters_mix: int
    status_full: str
    status_mix: str
    t_setup_full: float
    t_precond_full: float
    t_other_full: float
    t_setup_mix: float
    t_precond_mix: float
    t_other_mix: float

    @property
    def total_full(self) -> float:
        return self.t_setup_full + self.t_precond_full + self.t_other_full

    @property
    def total_mix(self) -> float:
        return self.t_setup_mix + self.t_precond_mix + self.t_other_mix

    @property
    def precond_speedup(self) -> float:
        return self.t_precond_full / self.t_precond_mix

    @property
    def e2e_speedup(self) -> float:
        return self.total_full / self.total_mix

    def normalized(self) -> dict:
        """Times normalized by the Full64 total (Figure 8's y-axis)."""
        t = self.total_full
        return {
            "full": (
                self.t_setup_full / t,
                self.t_precond_full / t,
                self.t_other_full / t,
            ),
            "mix": (
                self.t_setup_mix / t,
                self.t_precond_mix / t,
                self.t_other_mix / t,
            ),
        }


def e2e_report(
    problem: Problem,
    machine: MachineSpec,
    mix_config: PrecisionConfig = K64P32D16_SETUP_SCALE,
    maxiter: int = 300,
) -> E2EReport:
    """Measure #iter for Full64 and the mixed config, model the times."""
    results = {}
    for key, cfg in (("full", FULL64), ("mix", mix_config)):
        h = mg_setup(problem.a, cfg, problem.mg_options)
        res = solve(
            problem.solver,
            problem.a,
            problem.b,
            preconditioner=h.precondition,
            rtol=problem.rtol,
            maxiter=maxiter,
        )
        t_cycle = vcycle_seconds(h, machine)
        t_other = _other_volume_per_iteration(problem, cfg) / (
            machine.bw_bytes_per_s * machine.kernel_efficiency
        )
        t_setup = _setup_volume(h) / (
            machine.bw_bytes_per_s * machine.kernel_efficiency
        )
        iters = res.iterations
        results[key] = (
            res.status,
            iters,
            t_setup,
            iters * t_cycle,
            iters * t_other,
        )
    sf, itf, tsf, tpf, tof = results["full"]
    sm_, itm, tsm, tpm, tom = results["mix"]
    return E2EReport(
        problem=problem.name,
        machine=machine.name,
        iters_full=itf,
        iters_mix=itm,
        status_full=sf,
        status_mix=sm_,
        t_setup_full=tsf,
        t_precond_full=tpf,
        t_other_full=tof,
        t_setup_mix=tsm,
        t_precond_mix=tpm,
        t_other_mix=tom,
    )


# Re-exported so existing callers (benchmarks, examples) keep working;
# the implementation — including the dropped-values warning — lives with
# the other timing statistics.
from .timing import geometric_mean  # noqa: E402
