"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``solve``     solve one problem under one precision configuration
              (``--robust`` wraps it in the resilience guard; ``--trace``
              records a span trace of the run)
``profile``   profiled solve: span trace, event counters, kernel timings,
              and a machine-readable ``BENCH_<config>.json`` snapshot
``health``    audit a set-up hierarchy's numerical health
``ablation``  run the Figure-6 five-configuration comparison on one problem
``table3``    print the measured problem-characteristics table
``table2``    print the format/precision speedup-bound table
``export``    generate a problem matrix and write it to .npz / .mtx
``problems``  list the registered problems
``serve``     run the solver service demo, or (``--bench``) the
              timestep-replay serving benchmark emitting ``BENCH_serve.json``
              (``--status-file/--journal/--trace/--prometheus`` wire the
              telemetry plane; ``--watch`` renders the live dashboard)
``tune``      precision auto-tuner: compare static vs adaptive precision
              policies, emit the best static ``+s<L>/+f<L>/+bf16<L>``
              config string and a ``BENCH_policy.json`` snapshot
``top``       render the live service dashboard from a ``--status-file``
              document (one frame with ``--once``)
``events``    tail a structured event journal written by ``serve --journal``
``snapshot``  validate ``BENCH_*.json`` snapshot files against the schema
``bench``     compare the mixed-precision Krylov zoo (nested FGMRES,
              three-precision GMRES-IR) against plain CG/GMRES+MG and emit
              ``BENCH_krylov.json``

The five benches (``profile``, ``serve --bench``, ``serve --processes N
--bench``, ``bench`` and ``tune``) end alike: they write their snapshot,
print each of its gates as PASS or FAIL, and exit 1 if and only if a gate
is false.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def _shape(text: str) -> tuple[int, int, int]:
    parts = [int(p) for p in text.lower().replace("x", ",").split(",") if p]
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3 or any(p < 1 for p in parts):
        raise argparse.ArgumentTypeError(
            f"shape must be N or NX,NY,NZ with positive entries, got {text!r}"
        )
    return tuple(parts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FP16-accelerated structured multigrid preconditioner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one problem")
    p_solve.add_argument("problem", help="problem name (see 'problems')")
    p_solve.add_argument("--shape", type=_shape, default=(24, 24, 24))
    p_solve.add_argument(
        "--config",
        default="K64P32D16-setup-scale",
        help="precision config name (e.g. Full64, K64P32D32, "
        "K64P32D16-setup-scale)",
    )
    p_solve.add_argument("--shift-levid", type=int, default=None)
    p_solve.add_argument("--rtol", type=float, default=None)
    p_solve.add_argument("--maxiter", type=int, default=300)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument(
        "--solver", default=None,
        choices=["cg", "gmres", "fgmres", "gmres-ir", "richardson"],
        help="override the problem's Krylov method (fgmres = flexible "
        "GMRES with an optional nested low-precision inner GMRES; "
        "gmres-ir = three-precision iterative refinement)",
    )
    p_solve.add_argument(
        "--inner", default=None, choices=["gmres"],
        help="fgmres only: nest an inner GMRES per outer step "
        "(z_k approximately solves A z = v_k, preconditioned by MG)",
    )
    p_solve.add_argument(
        "--inner-rtol", type=float, default=None,
        help="residual target of the fgmres/gmres-ir inner solve",
    )
    p_solve.add_argument(
        "--inner-maxiter", type=int, default=None,
        help="iteration budget of the fgmres/gmres-ir inner solve",
    )
    p_solve.add_argument(
        "--inner-dtype", default=None,
        choices=["fp16", "bf16", "fp32", "fp64"],
        help="working precision of the fgmres/gmres-ir inner solve",
    )
    p_solve.add_argument(
        "--policy", default=None, choices=["static", "adaptive"],
        help="runtime precision policy (overrides the config's +auto "
        "token; 'adaptive' escalates stalling levels FP16->BF16/FP32 "
        "mid-solve and reports the decisions taken)",
    )
    p_solve.add_argument(
        "--smoother", default=None,
        help="override smoother (symgs/jacobi/l1jacobi/chebyshev/ilu0)",
    )
    p_solve.add_argument(
        "--cycle", default=None, choices=["v", "w", "f"],
        help="override multigrid cycle type",
    )
    p_solve.add_argument(
        "--robust", action="store_true",
        help="guard the solve: health-check the hierarchy and escalate up "
        "the precision ladder on failure",
    )
    p_solve.add_argument(
        "--max-escalations", type=int, default=3,
        help="escalation budget for --robust (default 3)",
    )
    p_solve.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record a span trace of setup+solve; .json writes the Chrome "
        "trace-event format (chrome://tracing / Perfetto), .jsonl writes "
        "one span per line",
    )
    p_solve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the solve phase; an expired budget "
        "returns the partial iterate with status 'deadline' (exit code 1) "
        "instead of running to maxiter",
    )
    p_solve.add_argument(
        "--checkpoint", metavar="FILE", default=None,
        help="write a solver checkpoint to FILE every --checkpoint-every "
        "iterations; resume an interrupted run with --resume FILE",
    )
    p_solve.add_argument(
        "--checkpoint-every", type=int, default=10,
        help="checkpoint period in iterations for --checkpoint (default 10)",
    )
    p_solve.add_argument(
        "--resume", metavar="FILE", default=None,
        help="resume the solve from a checkpoint written by --checkpoint "
        "(CG resumption is bit-identical to the uninterrupted run)",
    )

    p_prof = sub.add_parser(
        "profile",
        help="profiled solve with trace, event counters, and a "
        "BENCH_<config>.json snapshot",
    )
    p_prof.add_argument("problem", help="problem name (see 'problems')")
    p_prof.add_argument("--shape", type=_shape, default=(24, 24, 24))
    p_prof.add_argument("--config", default="K64P32D16-setup-scale")
    p_prof.add_argument("--shift-levid", type=int, default=None)
    p_prof.add_argument("--rtol", type=float, default=None)
    p_prof.add_argument("--maxiter", type=int, default=300)
    p_prof.add_argument("--seed", type=int, default=0)
    p_prof.add_argument(
        "--trace", metavar="FILE", default=None,
        help="also write the span trace (.json Chrome format, .jsonl lines)",
    )
    p_prof.add_argument(
        "--snapshot-dir", default=".",
        help="directory receiving BENCH_<config>.json (default: cwd)",
    )

    p_health = sub.add_parser(
        "health", help="audit a set-up hierarchy's numerical health"
    )
    p_health.add_argument("problem", help="problem name (see 'problems')")
    p_health.add_argument("--shape", type=_shape, default=(24, 24, 24))
    p_health.add_argument("--config", default="K64P32D16-setup-scale")
    p_health.add_argument("--shift-levid", type=int, default=None)
    p_health.add_argument("--seed", type=int, default=0)

    p_abl = sub.add_parser("ablation", help="Figure-6 style ablation")
    p_abl.add_argument("problem")
    p_abl.add_argument("--shape", type=_shape, default=(24, 24, 24))
    p_abl.add_argument("--maxiter", type=int, default=200)
    p_abl.add_argument("--seed", type=int, default=0)

    p_t3 = sub.add_parser("table3", help="measured problem characteristics")
    p_t3.add_argument("--shape", type=_shape, default=(14, 14, 14))
    p_t3.add_argument(
        "--no-cond", action="store_true", help="skip condition estimation"
    )

    sub.add_parser("table2", help="format/precision speedup bounds")

    p_exp = sub.add_parser("export", help="generate and save a matrix")
    p_exp.add_argument("problem")
    p_exp.add_argument("output", help="output path (.npz or .mtx)")
    p_exp.add_argument("--shape", type=_shape, default=(16, 16, 16))
    p_exp.add_argument("--seed", type=int, default=0)

    sub.add_parser("problems", help="list registered problems")

    p_serve = sub.add_parser(
        "serve",
        help="solver service: cached hierarchies, warm sessions, batched "
        "multi-RHS jobs",
    )
    p_serve.add_argument("--problem", default="laplace27")
    p_serve.add_argument("--shape", type=_shape, default=(16, 16, 12))
    p_serve.add_argument("--config", default="K64P32D16-setup-scale")
    p_serve.add_argument("--workers", type=int, default=2)
    p_serve.add_argument(
        "--processes", type=int, default=0,
        help="serve from N supervised worker processes over checksummed "
        "shared-memory hierarchies instead of threads (0 = thread service); "
        "with --bench writes BENCH_serve_mp.json",
    )
    p_serve.add_argument("--queue-size", type=int, default=8)
    p_serve.add_argument("--jobs", type=int, default=8)
    p_serve.add_argument(
        "--rhs-block", type=int, default=4,
        help="columns per batched multi-RHS job (demo and bench)",
    )
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument(
        "--bench", action="store_true",
        help="run the timestep-replay serving benchmark and write "
        "BENCH_serve.json",
    )
    p_serve.add_argument(
        "--steps", type=int, default=50,
        help="replay length for --bench (default 50)",
    )
    p_serve.add_argument(
        "--refresh-every", type=int, default=10,
        help="operator refresh period for --bench (default 10)",
    )
    p_serve.add_argument(
        "--snapshot-dir", default=".",
        help="directory receiving BENCH_serve.json (default: cwd)",
    )
    p_serve.add_argument(
        "--chaos", action="store_true",
        help="run the seeded chaos sweep over every fault site (payload, "
        "ABFT, cycle, halo, spill, checkpoint, deadline, cancel, service, "
        "process kill/hang/poison, shm corruption/orphan) and fail if any "
        "fault escapes unclassified",
    )
    p_serve.add_argument(
        "--sites", action="append", default=None, metavar="SITE",
        help="restrict --chaos to these fault sites (repeatable; names "
        "from repro.resilience.chaos.CHAOS_SITES)",
    )
    p_serve.add_argument(
        "--fast", action="store_true",
        help="CI smoke mode for --chaos: one trial per site, small grid",
    )
    p_serve.add_argument(
        "--trials", type=int, default=2,
        help="trials per fault site for --chaos (default 2)",
    )
    p_serve.add_argument(
        "--status-file", default=None, metavar="PATH",
        help="write a live repro-top/1 status document here (atomically, "
        "~2x/second) for 'repro top' to render",
    )
    p_serve.add_argument(
        "--journal", default=None, metavar="PATH",
        help="append structured events (JSONL) here for 'repro events'",
    )
    p_serve.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write the merged supervisor+worker span trace here "
        "(.json = Chrome trace-event format, .jsonl = span lines)",
    )
    p_serve.add_argument(
        "--prometheus", default=None, metavar="PATH",
        help="write Prometheus text exposition (counters, latency "
        "histograms) here when the run finishes",
    )
    p_serve.add_argument(
        "--watch", action="store_true",
        help="render the live dashboard while the demo jobs run "
        "(implies --status-file to a temp path when none is given)",
    )

    p_tune = sub.add_parser(
        "tune",
        help="precision auto-tuner: run static vs adaptive, emit the best "
        "static +s<L>/+f<L>/+bf16<L> config string and BENCH_policy.json",
    )
    p_tune.add_argument(
        "--problem", default="laplace27e8",
        help="problem name (default: laplace27e8, the Section-4.3 "
        "underflow-hazard generator)",
    )
    p_tune.add_argument("--shape", type=_shape, default=(12, 12, 12))
    p_tune.add_argument(
        "--config", default="K64P32D16-setup-scale",
        help="base precision config the tuner starts from",
    )
    p_tune.add_argument("--rtol", type=float, default=None)
    p_tune.add_argument("--maxiter", type=int, default=400)
    p_tune.add_argument("--seed", type=int, default=0)
    p_tune.add_argument(
        "--fast", action="store_true",
        help="CI smoke mode: reduced iteration budget",
    )
    p_tune.add_argument(
        "--snapshot-dir", default=".",
        help="directory receiving BENCH_policy.json (default: cwd)",
    )

    p_top = sub.add_parser(
        "top",
        help="live service dashboard: workers, queue, latency percentiles, "
        "recent events (reads a serve --status-file document)",
    )
    p_top.add_argument(
        "--status-file", default="repro-status.json", metavar="PATH",
        help="status document to render (default: repro-status.json)",
    )
    p_top.add_argument(
        "--once", action="store_true",
        help="render one frame and exit (waits up to --wait seconds for "
        "the file to appear)",
    )
    p_top.add_argument(
        "--interval", type=float, default=1.0,
        help="refresh period in seconds (default 1.0)",
    )
    p_top.add_argument(
        "--wait", type=float, default=15.0,
        help="with --once: seconds to wait for the status file (default 15)",
    )

    p_events = sub.add_parser(
        "events",
        help="print the tail of a structured event journal "
        "(serve --journal JSONL sink)",
    )
    p_events.add_argument(
        "--journal", default="repro-events.jsonl", metavar="PATH",
        help="journal file to read (default: repro-events.jsonl)",
    )
    p_events.add_argument(
        "--tail", type=int, default=20, metavar="N",
        help="print the last N events (default 20; -1 = all)",
    )

    p_snap = sub.add_parser(
        "snapshot",
        help="snapshot tooling: 'validate' checks BENCH_*.json files "
        "against the repro-bench/2 schema",
    )
    p_snap.add_argument("action", choices=("validate",))
    p_snap.add_argument("files", nargs="+", metavar="FILE")

    p_bench = sub.add_parser(
        "bench",
        help="Krylov-zoo benchmark: baseline CG/GMRES+MG vs nested FGMRES "
        "vs three-precision GMRES-IR across the Table 3 suite; writes "
        "BENCH_krylov.json",
    )
    p_bench.add_argument("--shape", type=_shape, default=None)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument(
        "--fast", action="store_true",
        help="CI smoke mode: small grid and the fast problem subset (both "
        "acceptance gates still apply)",
    )
    p_bench.add_argument(
        "--snapshot-dir", default=".",
        help="directory receiving the BENCH_*.json snapshot (default: cwd)",
    )
    return parser


def _write_trace(tracer, path: str) -> str:
    """Write a trace in the format the file extension asks for."""
    from .observability.export import write_chrome_trace, write_jsonl

    if path.endswith(".jsonl"):
        return write_jsonl(tracer, path)
    return write_chrome_trace(tracer, path)


def _cmd_solve(args) -> int:
    if args.trace:
        from .observability import trace as _trace

        with _trace.tracing() as tracer:
            code = _solve_body(args)
        print(f"wrote trace to {_write_trace(tracer, args.trace)}")
        return code
    return _solve_body(args)


def _solve_body(args) -> int:
    from .mg import mg_setup
    from .precision import parse_config
    from .problems import build_problem
    from .solvers import solve

    problem = build_problem(args.problem, shape=args.shape, seed=args.seed)
    config = parse_config(args.config)
    if args.shift_levid is not None:
        config = config.with_(shift_levid=args.shift_levid)
    if getattr(args, "policy", None):
        config = config.with_(policy=args.policy)
    options = problem.mg_options
    if args.smoother:
        options = options.with_(smoother=args.smoother)
    if args.cycle:
        options = options.with_(cycle=args.cycle)
    if config.policy == "adaptive" and not options.keep_high:
        # Escalations re-materialize from the retained FP64 chain.
        options = options.with_(keep_high=True)
    rtol = args.rtol if args.rtol is not None else problem.rtol

    runtime = None
    if args.deadline is not None:
        from .resilience.runtime import Deadline, ExecContext

        runtime = ExecContext(deadline=Deadline.after(args.deadline))
    checkpoint_sink = None
    if args.checkpoint:
        from .resilience.runtime import save_checkpoint

        checkpoint_sink = lambda cp: save_checkpoint(args.checkpoint, cp)  # noqa: E731
    resume_from = None
    if args.resume:
        from .resilience.runtime import load_checkpoint

        resume_from = load_checkpoint(args.resume)
        print(
            f"resuming {resume_from.solver} from iteration "
            f"{resume_from.iteration} ({args.resume})"
        )
    runtime_kwargs = dict(
        runtime=runtime,
        checkpoint_every=args.checkpoint_every if args.checkpoint else 0,
        checkpoint_sink=checkpoint_sink,
        resume_from=resume_from,
    )
    solver_name = args.solver or problem.solver
    solver_kwargs = {}
    if solver_name in ("fgmres", "gmres-ir", "gmres_ir"):
        if args.inner is not None and solver_name == "fgmres":
            solver_kwargs["inner"] = args.inner
        if args.inner_rtol is not None:
            solver_kwargs["inner_rtol"] = args.inner_rtol
        if args.inner_maxiter is not None:
            solver_kwargs["inner_maxiter"] = args.inner_maxiter
        if args.inner_dtype is not None:
            solver_kwargs["inner_dtype"] = args.inner_dtype

    if args.robust:
        from .resilience import EscalationPolicy, robust_solve

        policy = EscalationPolicy(max_escalations=args.max_escalations)
        result, report = robust_solve(
            problem.a,
            problem.b,
            config=config,
            options=options,
            solver=solver_name,
            rtol=rtol,
            maxiter=args.maxiter,
            policy=policy,
            solver_kwargs=solver_kwargs,
            **runtime_kwargs,
        )
        print(f"{problem.name} {problem.a.grid} [{config.name}] (robust)")
        print(report.format())
        print(
            f"{result.solver}: {result.status} in {result.iterations} "
            f"iterations (final ||r||/||b|| = {result.history.final():.2e})"
        )
        return 0 if result.converged else 1

    hierarchy = mg_setup(problem.a, config, options)
    controller = None
    if config.policy == "adaptive":
        from .policy import attach_policy

        controller = attach_policy(hierarchy)
    result = solve(
        solver_name,
        problem.a,
        problem.b,
        preconditioner=hierarchy.precondition,
        rtol=rtol,
        maxiter=args.maxiter,
        policy_controller=controller,
        **runtime_kwargs,
        **solver_kwargs,
    )
    mem = hierarchy.memory_report()
    print(
        f"{problem.name} {problem.a.grid} [{config.name}] "
        f"{hierarchy.n_levels} levels, C_G={hierarchy.grid_complexity():.2f}, "
        f"payload {mem['matrix_bytes'] / 1e6:.2f} MB"
    )
    print(
        f"{result.solver}: {result.status} in {result.iterations} iterations "
        f"(final ||r||/||b|| = {result.history.final():.2e})"
    )
    if controller is not None:
        if controller.decisions:
            print(
                f"policy [{controller.policy.name}]: "
                f"{controller.escalations} escalation(s), "
                f"{controller.demotions} demotion(s), "
                f"{controller.rescales} rescale(s)"
            )
            for d in controller.decisions:
                at = f" @it{d.iteration}" if d.iteration >= 0 else ""
                print(
                    f"  {d.kind} level {d.level}"
                    + (f" -> {d.to}" if d.to else "")
                    + (f" ({d.reason})" if d.reason else "")
                    + at
                )
        else:
            print(f"policy [{controller.policy.name}]: no decisions")
        print(
            "final levels: "
            + "/".join(lev.stored.storage.name for lev in hierarchy.levels)
        )
    return 0 if result.converged else 1


def _finish_bench(doc: dict, snapshot_dir: str) -> int:
    """The one tail of every bench command: write the snapshot, print each
    gate and the snapshot path, and exit 1 if and only if a gate failed."""
    from .observability.snapshot import write_snapshot

    path = write_snapshot(doc, snapshot_dir)
    for name, ok in doc["gates"].items():
        print(f"gate {name}: {'PASS' if ok else 'FAIL'}")
    print(f"snapshot: {path}")
    return 0 if all(doc["gates"].values()) else 1


def _cmd_tune(args) -> int:
    from .policy import format_tuner_report, run_tuner
    from .precision import parse_config

    doc = run_tuner(
        problem_name=args.problem,
        shape=args.shape,
        config=None if args.config is None else parse_config(args.config),
        rtol=args.rtol,
        maxiter=args.maxiter,
        seed=args.seed,
        fast=args.fast,
    )
    print(format_tuner_report(doc))
    return _finish_bench(doc, args.snapshot_dir)


def _cmd_profile(args) -> int:
    from .mg import mg_setup
    from .observability import metrics as _metrics
    from .observability import trace as _trace
    from .observability.export import text_summary
    from .observability.snapshot import build_snapshot
    from .perf.timing import measure
    from .precision import parse_config
    from .problems import build_problem
    from .solvers import solve

    problem = build_problem(args.problem, shape=args.shape, seed=args.seed)
    config = parse_config(args.config)
    if args.shift_levid is not None:
        config = config.with_(shift_levid=args.shift_levid)
    rtol = args.rtol if args.rtol is not None else problem.rtol

    with _trace.tracing() as tracer, _metrics.collecting() as metrics:
        hierarchy = mg_setup(problem.a, config, problem.mg_options)
        result = solve(
            problem.solver,
            problem.a,
            problem.b,
            preconditioner=hierarchy.precondition,
            rtol=rtol,
            maxiter=args.maxiter,
        )

    # Kernel timings run *after* the collectors are uninstalled, so the
    # measured numbers carry no instrumentation overhead and the repeated
    # applications do not inflate the per-solve counters.  Snapshots are
    # compared across commits, so they record the median of 3, not the
    # optimistic best-of-k (perf/timing.py).
    # spmv_finest_s times the product the cycle runs (``Level.matvec``).
    repeats, stat = 3, "median"
    finest = hierarchy.finest
    ones = np.ones(finest.grid.field_shape, dtype=hierarchy.compute_dtype)
    kernel_times = {
        "spmv_finest_s": measure(
            lambda: finest.matvec(ones), warmup=1, repeats=repeats, stat=stat,
        ),
        "vcycle_s": measure(
            lambda: hierarchy.cycle(ones),
            warmup=1, repeats=repeats, stat=stat,
        ),
        "stat": stat,
        "repeats": repeats,
    }

    print(f"{problem.name} {problem.a.grid} [{config.name}]")
    print(
        f"{result.solver}: {result.status} in {result.iterations} iterations "
        f"(final ||r||/||b|| = {result.history.final():.2e})"
    )
    print()
    print(text_summary(tracer))
    print()
    print(metrics.format())

    doc = build_snapshot(
        problem.name,
        config.name,
        args.shape,
        result,
        hierarchy,
        gates={"converged": result.converged},
        tracer=tracer,
        metrics=metrics,
        kernel_times=kernel_times,
    )
    print()
    if args.trace:
        print(f"wrote trace to {_write_trace(tracer, args.trace)}")
    return _finish_bench(doc, args.snapshot_dir)


def _cmd_health(args) -> int:
    from .mg import mg_setup
    from .precision import parse_config
    from .problems import build_problem
    from .resilience import hierarchy_health

    problem = build_problem(args.problem, shape=args.shape, seed=args.seed)
    config = parse_config(args.config)
    if args.shift_levid is not None:
        config = config.with_(shift_levid=args.shift_levid)
    hierarchy = mg_setup(problem.a, config, problem.mg_options)
    report = hierarchy_health(hierarchy)
    print(f"{problem.name} {problem.a.grid} [{config.name}]")
    print(report.format())
    return 1 if report.fatal else 0


def _cmd_ablation(args) -> int:
    from .analysis import convergence_table
    from .mg import mg_setup
    from .precision import FIG6_CONFIGS
    from .problems import build_problem
    from .solvers import solve

    problem = build_problem(args.problem, shape=args.shape, seed=args.seed)
    print(f"{problem.name} {problem.a.grid} (rtol {problem.rtol:.0e})")
    results = {}
    for config in FIG6_CONFIGS:
        hierarchy = mg_setup(problem.a, config, problem.mg_options)
        results[config.name] = solve(
            problem.solver,
            problem.a,
            problem.b,
            preconditioner=hierarchy.precondition,
            rtol=problem.rtol,
            maxiter=args.maxiter,
        )
    print(convergence_table(results, rtol=problem.rtol))
    # The ablation is informative as long as *some* configuration solves the
    # problem; only a clean sweep of failures is an error exit.
    return 0 if any(r.converged for r in results.values()) else 1


def _cmd_table3(args) -> int:
    from .analysis import format_table3, problem_characteristics
    from .problems import PAPER_PROBLEMS, build_problem

    rows = []
    for name in PAPER_PROBLEMS:
        p = build_problem(name, shape=args.shape)
        rows.append(problem_characteristics(p, with_condition=not args.no_cond))
    print(format_table3(rows))
    return 0


def _cmd_table2(args) -> int:
    from .perf import table2_rows

    print(f"{'format':8s} {'B64':>6s} {'B32':>6s} {'B16':>6s} "
          f"{'64/32':>6s} {'32/16':>6s} {'64/16':>6s}")
    for r in table2_rows():
        print(
            f"{r['format']:8s} {r['bytes_fp64']:6.1f} {r['bytes_fp32']:6.1f} "
            f"{r['bytes_fp16']:6.1f} {r['speedup_64_32']:6.2f} "
            f"{r['speedup_32_16']:6.2f} {r['speedup_64_16']:6.2f}"
        )
    return 0


def _cmd_export(args) -> int:
    from .problems import build_problem
    from .sgdia import save_sgdia, write_matrix_market

    problem = build_problem(args.problem, shape=args.shape, seed=args.seed)
    if args.output.endswith(".mtx"):
        path = write_matrix_market(args.output, problem.a)
    else:
        path = save_sgdia(args.output, problem.a)
    print(f"wrote {problem.name} ({problem.a.grid}, nnz={problem.a.nnz}) to {path}")
    return 0


def _cmd_problems(args) -> int:
    from .problems import PAPER_PROBLEMS, build_problem

    for name in PAPER_PROBLEMS:
        p = build_problem(name, shape=(8, 8, 8))
        m = p.metadata
        print(
            f"{name:12s} {m['pde']:7s} {m['pattern']:6s} "
            f"aniso={m['aniso']:5s} dist={m['dist']:5s} solver={p.solver}"
        )
    return 0


def _cmd_serve(args) -> int:
    import numpy as np

    from .precision import parse_config
    from .problems import build_problem, consistent_rhs
    from .serve import SolverService, run_serve_bench

    config = parse_config(args.config)
    if args.chaos:
        from .resilience import run_chaos

        report = run_chaos(
            shape=args.shape,
            trials=args.trials,
            seed=args.seed,
            fast=args.fast,
            config=args.config,
            sites=args.sites,
        )
        print(report.format())
        if not report.ok:
            for t in report.failures():
                print(f"ESCAPED: {t.site} trial {t.trial}: {t.detail}")
            return 1
        return 0
    if args.bench:
        bench_args = dict(
            shape=args.shape,
            steps=args.steps,
            refresh_every=args.refresh_every,
            rhs_block=args.rhs_block,
            config=config,
            seed=args.seed,
        )
        if args.processes > 0:
            from .serve.procpool import run_serve_mp_bench

            doc = run_serve_mp_bench(processes=args.processes, **bench_args)
        else:
            doc = run_serve_bench(**bench_args)
        return _finish_bench(doc, args.snapshot_dir)

    # demo: a short service run on the requested problem
    import time

    from .observability import events as _events_mod
    from .observability import metrics as _metrics
    from .observability import trace as _trace
    from .observability.telemetry import render_top

    status_file = args.status_file
    if args.watch and status_file is None:
        status_file = "repro-status.json"
    if args.journal:
        _events_mod.install(_events_mod.EventJournal(sink=args.journal))
    tracer = _trace.install() if args.trace else None
    metrics = (
        _metrics.install() if (args.trace or args.prometheus) else None
    )

    prob = build_problem(args.problem, shape=args.shape, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    if args.processes > 0:
        from .serve.procpool import ProcessSolverService

        service = ProcessSolverService(
            prob.a,
            config=config,
            options=prob.mg_options,
            processes=args.processes,
            queue_size=args.queue_size,
            solver=prob.solver,
            rtol=prob.rtol,
            status_path=status_file,
        )
    else:
        service = SolverService(
            prob.a,
            config=config,
            options=prob.mg_options,
            workers=args.workers,
            queue_size=args.queue_size,
            solver=prob.solver,
            rtol=prob.rtol,
            status_path=status_file,
        )
    with service as svc:
        jobs = [
            svc.submit(consistent_rhs(prob.a, rng)) for _ in range(args.jobs)
        ]
        if prob.solver == "cg" and args.rhs_block > 1:
            block = np.stack(
                [
                    consistent_rhs(prob.a, rng).ravel()
                    for _ in range(args.rhs_block)
                ],
                axis=-1,
            )
            jobs.append(svc.submit(block, batched=True))
        if args.watch:
            # live dashboard until the demo jobs drain
            pending = list(jobs)
            while pending:
                still = []
                for job in pending:
                    try:
                        job.result(timeout=0.02)
                    except TimeoutError:
                        still.append(job)
                pending = still
                print("\x1b[2J\x1b[H" + render_top(svc.status_doc()),
                      flush=True)
                if pending:
                    time.sleep(0.3)
        for job in jobs:
            res = job.result()
            results = res if isinstance(res, list) else [res]
            for r in results:
                kind = "batched" if isinstance(res, list) else "single"
                print(
                    f"job {job.id:3d} [{kind}, worker {job.worker}] "
                    f"{r.status:10s} iters={r.iterations:4d} "
                    f"rel={r.history.final():.3e}"
                )
        stats = svc.stats()
    print(
        f"service: {stats['completed']}/{stats['submitted']} jobs "
        f"completed on {stats['workers']} {stats['topology']['mode']} "
        f"workers; "
        f"cache hits={stats['cache']['hits']} "
        f"misses={stats['cache']['misses']}; "
        f"respawns={stats['worker_respawns']} "
        f"requeued={stats['requeued']} poisoned={stats['poisoned']} "
        f"shm_corruptions={stats['shm_corruptions']}"
    )
    lat = stats.get("latency", {}).get("histograms", {}).get("e2e", {})
    if lat.get("count"):
        print(
            f"  e2e latency: p50={lat['p50'] * 1e3:.1f}ms "
            f"p95={lat['p95'] * 1e3:.1f}ms p99={lat['p99'] * 1e3:.1f}ms"
        )
    if args.trace and tracer is not None:
        print(f"trace: {_write_trace(tracer, args.trace)}")
    if args.prometheus:
        from .observability.export import write_prometheus

        write_prometheus(
            args.prometheus, metrics=metrics, stats=stats.get("latency"),
        )
        print(f"prometheus: {args.prometheus}")
    if args.trace or args.prometheus:
        _trace.uninstall()
        _metrics.uninstall()
    if args.journal:
        _events_mod.uninstall()
    return 0


def _cmd_top(args) -> int:
    import time

    from .observability.telemetry import read_status, render_top

    doc = read_status(args.status_file)
    if args.once:
        deadline = time.monotonic() + max(0.0, args.wait)
        while doc is None and time.monotonic() < deadline:
            time.sleep(0.2)
            doc = read_status(args.status_file)
        if doc is None:
            print(
                f"no status document at {args.status_file}", file=sys.stderr
            )
            return 1
        print(render_top(doc))
        return 0
    try:
        while True:
            doc = read_status(args.status_file)
            frame = (
                render_top(doc)
                if doc is not None
                else f"waiting for {args.status_file} ..."
            )
            print("\x1b[2J\x1b[H" + frame, flush=True)
            time.sleep(max(0.1, args.interval))
    except KeyboardInterrupt:
        return 0


def _cmd_events(args) -> int:
    import os

    from .observability.events import format_events, load_journal

    if not os.path.exists(args.journal):
        print(f"no journal at {args.journal}", file=sys.stderr)
        return 1
    events = load_journal(args.journal, tail=args.tail)
    if not events:
        print("(no events)")
        return 0
    print(format_events(events))
    return 0


def _cmd_snapshot(args) -> int:
    from .observability.snapshot import validate_file

    failures = []
    for path in args.files:
        failures.extend(validate_file(path))
    for msg in failures:
        print(msg, file=sys.stderr)
    if not failures:
        print(f"{len(args.files)} snapshot(s) valid")
    return 1 if failures else 0


def _cmd_bench(args) -> int:
    from .perf.krylov_bench import format_krylov_results, run_krylov_bench

    doc = run_krylov_bench(shape=args.shape, fast=args.fast, seed=args.seed)
    print(format_krylov_results(doc))
    return _finish_bench(doc, args.snapshot_dir)


_COMMANDS = {
    "solve": _cmd_solve,
    "profile": _cmd_profile,
    "health": _cmd_health,
    "ablation": _cmd_ablation,
    "table3": _cmd_table3,
    "table2": _cmd_table2,
    "export": _cmd_export,
    "problems": _cmd_problems,
    "serve": _cmd_serve,
    "tune": _cmd_tune,
    "top": _cmd_top,
    "events": _cmd_events,
    "snapshot": _cmd_snapshot,
    "bench": _cmd_bench,
}


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
