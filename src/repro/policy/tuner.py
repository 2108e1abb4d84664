"""The precision auto-tuner behind ``repro tune``.

Replays one problem class three ways —

1. **static**: the base config as-is (today's behavior);
2. **adaptive**: the same config under :class:`AdaptivePolicy` with the
   FP64 chain retained, recording every escalate/demote decision;
3. **replay**: the *static* config string derived from the adaptive
   run's final per-level precisions (``+s<L>`` / ``+f<L>`` / ``+bf16<L>``)

— and emits that config string as the tuned recommendation, in a
schema-valid snapshot (written as ``BENCH_policy.json`` by the CLI)
comparing iterations, fcvt volume and modeled preconditioner time across
the three runs.  Two gates ride along: the replay's iteration count must
match the adaptive run within :data:`DEFAULT_ITERATION_SLACK`, and a
solve under ``StaticPolicy`` must be bit-identical to a solve with no
policy attached at all.
"""

from __future__ import annotations

from dataclasses import replace as _replace

import numpy as np

from ..mg import MGOptions, mg_setup
from ..observability import metrics as _metrics
from ..perf.e2e import solve_record
from ..precision import PrecisionConfig
from ..solvers import solve
from .adaptive import AdaptivePolicy
from .base import StaticPolicy
from .controller import PolicyController

__all__ = ["derive_static_config", "run_tuner", "format_tuner_report"]

#: Iteration slack of the replay gate: the static replay must converge
#: within ``max(_ABS_SLACK, slack * adaptive_iters)`` of the adaptive run.
DEFAULT_ITERATION_SLACK = 0.25
_ABS_SLACK = 3


def derive_static_config(
    base: PrecisionConfig, level_storages: "list[str]"
) -> "tuple[PrecisionConfig, bool]":
    """Encode a per-level storage map as the nearest static config.

    The grammar can express any map of the form ``compute^a half^b
    bf16^c compute^d`` (leading compute levels via ``fp16_start_level``,
    a BF16 suffix via ``bf16_start_level``, a compute tail via
    ``shift_levid``).  Returns ``(config, exact)`` where ``exact`` says
    whether the encoded config reproduces the map level-for-level; when
    the map is not representable (an isolated escalated level between
    half-stored ones) the closest conservative encoding is returned —
    the compute tail starts at the *finest* escalated level, trading
    memory for never re-introducing a tier the policy abandoned.
    """
    names = [str(s) for s in level_storages]
    n = len(names)
    compute = base.compute.name
    # compute tail -> shift_levid
    s = n
    while s > 0 and names[s - 1] == compute:
        s -= 1
    # BF16 run just before the tail -> bf16_start_level
    b = s
    while b > 0 and names[b - 1] == "bf16":
        b -= 1
    # leading compute run -> fp16_start_level
    f = 0
    while f < b and names[f] == compute:
        f += 1
    # conservative fallback: any stray compute level inside [f, b) pulls
    # the shift forward to cover it
    stray = [i for i in range(f, b) if names[i] == compute]
    if stray:
        s = min(stray)
        b = min(b, s)
    cfg = base.with_(
        policy="static",
        shift_levid=s if s < n else None,
        fp16_start_level=f,
        bf16_start_level=b if b < s else None,
    )
    exact = [cfg.storage_format_for_level(i).name for i in range(n)] == names
    return cfg, exact


def _run_one(problem, config, options, rtol, maxiter, controller_policy=None):
    """One setup+solve with metrics collected; returns a result record."""
    with _metrics.collecting() as metrics:
        hierarchy = mg_setup(problem.a, config, options)
        controller = None
        if controller_policy is not None:
            controller = PolicyController(hierarchy, controller_policy)
            controller.attach()
        result = solve(
            problem.solver,
            problem.a,
            problem.b,
            preconditioner=hierarchy.precondition,
            rtol=rtol,
            maxiter=maxiter,
            policy_controller=controller,
        )
    return {
        "hierarchy": hierarchy,
        "controller": controller,
        "result": result,
        "metrics": metrics,
        "record": {
            "config": config.name,
            **solve_record(result, hierarchy, metrics),
            "levels": [
                lev.stored.storage.name for lev in hierarchy.levels
            ],
        },
    }


def run_tuner(
    problem_name: str = "laplace27e8",
    shape=(12, 12, 12),
    config: "PrecisionConfig | None" = None,
    options: "MGOptions | None" = None,
    rtol: "float | None" = None,
    maxiter: int = 400,
    seed: int = 0,
    fast: bool = False,
    policy: "AdaptivePolicy | None" = None,
) -> dict:
    """Tune one problem class; returns its snapshot document.

    ``fast`` shrinks the iteration budget for CI smoke use.  The
    document's ``extra.tuner`` section carries the emitted config string
    (``emitted_config``), the three run records (``static`` /
    ``adaptive`` / ``replay``) and the replay gate's ``iteration_slack``;
    its ``gates`` carry ``static_bit_identical`` and
    ``replay_within_tolerance``, and its ``policy`` section the adaptive
    run's decisions.
    """
    from ..observability.snapshot import build_snapshot
    from ..problems import build_problem

    if fast:
        maxiter = min(maxiter, 200)
    problem = build_problem(problem_name, shape=shape, seed=seed)
    base = (config or PrecisionConfig()).with_(policy="static")
    options = options or problem.mg_options
    rtol = problem.rtol if rtol is None else float(rtol)

    # Gate 1: StaticPolicy attached must be bit-identical to no policy.
    bare = _run_one(problem, base, options, rtol, maxiter)
    static_run = _run_one(
        problem, base, options, rtol, maxiter, controller_policy=StaticPolicy()
    )
    static_bit_identical = (
        bare["result"].iterations == static_run["result"].iterations
        and np.array_equal(bare["result"].x, static_run["result"].x)
        and bare["result"].history.norms == static_run["result"].history.norms
    )

    # Adaptive replay with the FP64 chain retained so escalations
    # re-materialize from exact operators.
    adaptive_options = (
        options if options.keep_high else _replace(options, keep_high=True)
    )
    adaptive_run = _run_one(
        problem,
        base.with_(policy="adaptive"),
        adaptive_options,
        rtol,
        maxiter,
        controller_policy=policy or AdaptivePolicy(),
    )
    controller = adaptive_run["controller"]

    # Derive and replay the static recommendation.
    tuned, exact = derive_static_config(
        base, adaptive_run["record"]["levels"]
    )
    replay_run = _run_one(problem, tuned, options, rtol, maxiter)

    adaptive_iters = adaptive_run["record"]["iterations"]
    replay_iters = replay_run["record"]["iterations"]
    slack = max(
        _ABS_SLACK, int(round(DEFAULT_ITERATION_SLACK * adaptive_iters))
    )
    replay_ok = (
        replay_run["record"]["status"] == adaptive_run["record"]["status"]
        and abs(replay_iters - adaptive_iters) <= slack
    )

    tuner = {
        "problem": problem.name,
        "base_config": base.name,
        "emitted_config": tuned.name,
        "exact_encoding": bool(exact),
        "iteration_slack": int(slack),
        "static": static_run["record"],
        "adaptive": {
            **adaptive_run["record"],
            "decisions": len(controller.decisions),
            "escalations": controller.escalations,
            "demotions": controller.demotions,
            "rescales": controller.rescales,
        },
        "replay": replay_run["record"],
    }
    return build_snapshot(
        problem.name,
        "policy",  # -> BENCH_policy.json
        shape,
        adaptive_run["result"],
        adaptive_run["hierarchy"],
        gates={
            "static_bit_identical": bool(static_bit_identical),
            "replay_within_tolerance": bool(replay_ok),
        },
        metrics=adaptive_run["metrics"],
        extra={"tuner": tuner},
        policy=controller.snapshot(),
    )


def format_tuner_report(doc: dict) -> str:
    """Human-readable summary of a :func:`run_tuner` document."""
    report = doc["extra"]["tuner"]
    lines = [
        f"{report['problem']} {tuple(doc['shape'])} "
        f"[base {report['base_config']}]",
        f"emitted config: {report['emitted_config']}"
        + ("" if report["exact_encoding"] else " (approximate encoding)"),
        "",
        f"{'run':<10} {'status':<12} {'iters':>6} {'fcvt':>12} "
        f"{'t_precond(model)':>18}  levels",
    ]
    for key in ("static", "adaptive", "replay"):
        r = report[key]
        lines.append(
            f"{key:<10} {r['status']:<12} {r['iterations']:>6} "
            f"{r['fcvt_values']:>12} {r['modeled_seconds']:>16.4e}s  "
            f"{'/'.join(r['levels'])}"
        )
    lines.append("")
    ad = report["adaptive"]
    if ad["decisions"]:
        lines.append(
            f"adaptive decisions: {ad['escalations']} escalation(s), "
            f"{ad['demotions']} demotion(s), {ad['rescales']} rescale(s)"
        )
    else:
        lines.append("adaptive decisions: none (static already optimal)")
    return "\n".join(lines)
