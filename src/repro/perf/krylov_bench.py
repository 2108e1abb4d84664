"""Krylov-zoo benchmark: plain CG/GMRES+MG vs nested FGMRES vs GMRES-IR.

``repro bench`` runs the Table 3 problem suite three ways under
the FP16-storage multigrid preconditioner:

- **baseline** — the problem's native solver (CG for the SPD problems,
  GMRES for oil/weather/oil-4C) preconditioned by the MG V-cycle;
- **fgmres** — flexible GMRES with a nested low-precision inner GMRES
  (Suzuki & Iwashita's nested Krylov method): each outer step buys
  ``inner_maxiter`` preconditioner applications of progress, cutting the
  outer orthogonalisation/restart count;
- **gmres_ir** — three-precision iterative refinement (Carson & Khan):
  FP16 MG V-cycle inside an FP32 GMRES correction solver, FP64 residual
  accumulation, judged at the working-precision tolerance.

Each run records iterations-to-tolerance, preconditioner applications,
fcvt conversion volume (the ``precision.fcvt.values`` counter), and the
``repro.perf``-modeled preconditioner time (V-cycle byte volume over the
Table 2 STREAM bound, charged per application so nested inner work is
priced honestly).  The result is a schema-valid snapshot (written as
``BENCH_krylov.json`` by the CLI) whose ``krylov`` section carries the
comparison and whose ``gates`` carry the two acceptance gates:

- ``gmres_ir_tolerance`` — GMRES-IR with the FP16 correction solver
  reaches the working-precision tolerance on at least 3 Table 3 problems;
- ``fgmres_apps_not_worse`` — on every GMRES-baseline (nonsymmetric)
  problem, nested FGMRES converges using no more preconditioner
  applications than plain GMRES+MG at equal tolerance.
"""

from __future__ import annotations

from ..observability import metrics as _metrics
from .e2e import solve_record

__all__ = ["run_krylov_bench", "format_krylov_results", "DEFAULT_SHAPE"]

DEFAULT_SHAPE = (12, 12, 12)
#: Fast mode keeps the grid: below ~12^3 the nested inner solves cannot
#: amortise (each 2-app chunk overshoots a sub-15-app baseline), so the
#: ``fgmres_apps_not_worse`` gate would measure grid quantisation, not
#: the method.  Fast mode saves its time on the problem subset instead.
FAST_SHAPE = DEFAULT_SHAPE

#: Fast-mode problem subset: two SPD + two nonsymmetric, enough to keep
#: both acceptance gates meaningful (the GMRES-IR gate needs >= 3).
FAST_PROBLEMS = ("laplace27", "rhd", "weather", "oil")

#: Nested-FGMRES knobs: a short FP32 inner GMRES per outer step with a
#: loose target — the outer minimisation absorbs the slack.  Two inner
#: apps per outer step matches the Table 3 problems' per-application
#: contraction; larger chunks overshoot the tolerance by a whole chunk.
FGMRES_KWARGS = dict(
    inner="gmres", inner_maxiter=2, inner_rtol=1e-2, inner_dtype="fp32"
)

#: GMRES-IR knobs: FP32 correction solver around the FP16 MG V-cycle,
#: FP64 working/residual precision (the Table 3 iterative precision).
GMRES_IR_KWARGS = dict(
    inner_dtype="fp32", inner_rtol=1e-4, inner_maxiter=60, max_steps=30
)


def _run_one(solver, problem, hierarchy, rtol, maxiter, **kwargs):
    """One solve with per-run metrics; returns the result and its record."""
    from ..solvers import solve

    with _metrics.collecting() as metrics:
        result = solve(
            solver,
            problem.a,
            problem.b,
            preconditioner=hierarchy.precondition,
            rtol=rtol,
            maxiter=maxiter,
            **kwargs,
        )
    record = solve_record(result, hierarchy, metrics)
    if "refinement_steps" in result.detail:
        record["refinement_steps"] = int(result.detail["refinement_steps"])
    if "inner" in result.detail:
        record["inner_iterations"] = int(result.detail["inner"]["iterations"])
    return result, record


def run_krylov_bench(
    shape=None,
    config_name: str = "K64P32D16-setup-scale",
    problems=None,
    rtol: "float | None" = None,
    maxiter: int = 400,
    seed: int = 0,
    fast: bool = False,
):
    """Run the Krylov-zoo comparison; returns the snapshot document.

    ``fast`` shrinks the grid and restricts the suite to
    :data:`FAST_PROBLEMS` for CI smoke runs; both acceptance gates still
    apply and land in the document's ``gates``.  ``problems`` restricts
    the suite explicitly; ``rtol`` overrides every problem's native
    tolerance.
    """
    from ..mg import mg_setup
    from ..observability.snapshot import build_snapshot
    from ..precision import parse_config
    from ..problems import PAPER_PROBLEMS, build_problem

    if shape is None:
        shape = FAST_SHAPE if fast else DEFAULT_SHAPE
    shape = tuple(shape)
    if problems is None:
        problems = list(FAST_PROBLEMS if fast else PAPER_PROBLEMS)
    config = parse_config(config_name)

    entries = []
    representative = None  # (result, hierarchy) for the snapshot skeleton
    for name in problems:
        prob = build_problem(name, shape=shape, seed=seed)
        hierarchy = mg_setup(prob.a, config, prob.mg_options)
        prtol = prob.rtol if rtol is None else float(rtol)
        runs = {}
        base_result, runs["baseline"] = _run_one(
            prob.solver, prob, hierarchy, prtol, maxiter
        )
        runs["baseline"]["solver"] = prob.solver
        _, runs["fgmres"] = _run_one(
            "fgmres", prob, hierarchy, prtol, maxiter, **FGMRES_KWARGS
        )
        _, runs["gmres_ir"] = _run_one(
            "gmres_ir", prob, hierarchy, prtol, maxiter, **GMRES_IR_KWARGS
        )
        entries.append({"problem": name, "baseline": prob.solver, "runs": runs})
        if representative is None:
            representative = (base_result, hierarchy, prob)

    ir_converged = sum(
        1 for e in entries if e["runs"]["gmres_ir"]["status"] == "converged"
    )
    nonsym = [e for e in entries if e["baseline"] == "gmres"]
    fgmres_ok = all(
        e["runs"]["fgmres"]["status"] == "converged"
        and e["runs"]["fgmres"]["precond_applications"]
        <= e["runs"]["baseline"]["precond_applications"]
        for e in nonsym
    )

    krylov = {
        "shape": list(shape),
        "precision_config": config.name,
        "fast": bool(fast),
        "maxiter": int(maxiter),
        "solvers": ["baseline", "fgmres", "gmres_ir"],
        "fgmres_kwargs": {k: str(v) for k, v in FGMRES_KWARGS.items()},
        "gmres_ir_kwargs": {k: str(v) for k, v in GMRES_IR_KWARGS.items()},
        "problems": entries,
        "gmres_ir_converged": int(ir_converged),
    }

    result, hierarchy, prob = representative
    return build_snapshot(
        prob.name,
        "krylov",  # -> BENCH_krylov.json
        shape,
        result,
        hierarchy,
        gates={
            "gmres_ir_tolerance": ir_converged >= min(3, len(entries)),
            "fgmres_apps_not_worse": bool(fgmres_ok),
        },
        krylov=krylov,
    )


def format_krylov_results(doc) -> str:
    """Human-readable table of one ``run_krylov_bench`` document."""
    krylov = doc["krylov"]
    lines = [
        f"krylov zoo [{krylov['precision_config']}] "
        f"shape={tuple(krylov['shape'])} maxiter={krylov['maxiter']}",
        f"{'problem':12s} {'solver':9s} {'status':10s} {'iters':>6s} "
        f"{'apps':>6s} {'fcvt(M)':>8s} {'model(ms)':>10s} {'final':>10s}",
    ]
    for entry in krylov["problems"]:
        for key in ("baseline", "fgmres", "gmres_ir"):
            run = entry["runs"][key]
            label = run.get("solver", key)
            lines.append(
                f"{entry['problem']:12s} {label:9s} {run['status']:10s} "
                f"{run['iterations']:6d} {run['precond_applications']:6d} "
                f"{run['fcvt_values'] / 1e6:8.2f} "
                f"{run['modeled_seconds'] * 1e3:10.3f} "
                f"{run['final_residual']:10.2e}"
            )
    return "\n".join(lines)
