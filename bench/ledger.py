"""Per-layer ledger of a traced pass.

The traced pass installs the library's own tracer and counter registry and
wraps each call it makes into the library in one ``bench.*`` span
(``bench.setup``, ``bench.hierarchy``, ``bench.update_operator``,
``bench.solve``).  This module turns the recorded span tree into self time
per layer:

- a span's self time is its duration minus the durations of its children;
- its *phase* is the ``bench.*`` span it runs under, which separates the
  setup ``level`` spans from the V-cycle ``level`` spans;
- its level is the ``level`` attr of the nearest enclosing ``level`` span.

Solve-phase layers are reported per solve, setup-phase layers per setup
and serve-layer ones per step.  The counter deltas the bench attaches to
each ``bench.solve`` span give the per-solve counts.
"""

from __future__ import annotations

from collections import defaultdict

SETUP_PHASES = ("bench.setup", "bench.hierarchy")

_SOLVER_SPANS = {
    "solve", "iteration", "refinement", "session_solve", "session_solve_many",
}
_SETUP_LAYERS = {
    "setup": "mg.setup_glue_s",
    "level": "mg.setup_glue_s",
    "galerkin": "coarsen.galerkin_s",
    "scale": "precision.scale_s",
    "truncate": "precision.truncate_s",
    "smoother_setup": "smoothers.setup_s",
    "kernel_plan": "kernels.plan_s",
    # what the session pays around mg_setup: cache lookup and fingerprints
    "bench.hierarchy": "serve.cache_overhead_s",
}


def _layer(span, phase: str, level, parent_name) -> str:
    name = span.name
    if phase == "bench.solve":
        if name in ("precond", "vcycle", "level"):
            return "mg.glue_s"
        if name == "smoother":
            if span.attrs.get("phase") == "coarse":
                return "smoothers.coarse_s"
            return f"smoothers.smooth_s.L{level}"
        if name == "spmv":
            if parent_name == "level":
                return f"kernels.spmv_s.L{level}"
            return "solvers.outer_spmv_s"
        if name in ("restrict", "prolong"):
            return "coarsen.transfer_s"
        if name in _SOLVER_SPANS:
            return "solvers.other_s"
    elif phase in SETUP_PHASES and name in _SETUP_LAYERS:
        return _SETUP_LAYERS[name]
    elif name == "bench.update_operator":
        return "serve.update_operator_s"
    if name.startswith("bench."):
        return "bench.self"
    return f"unclassified.{name}"


def build(spans) -> dict:
    """Ledger of a finished span list (parents listed before children).

    Returns ``self_s`` (layer -> total self seconds), ``counts`` (span
    name -> calls), ``coverage`` (share of the bench solve / setup
    wall time that layer spans account for), ``vcycle`` (calls, seconds)
    and ``counters`` (summed counter deltas of the ``bench.solve`` spans).
    """
    by_index = {s.index: s for s in spans}
    child_time: dict = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    phase: dict = {}
    level: dict = {}
    self_s: dict = defaultdict(float)
    counts: dict = defaultdict(int)
    wall: dict = defaultdict(float)
    unattributed: dict = defaultdict(float)
    counters: dict = defaultdict(float)
    vcycle_calls, vcycle_s = 0, 0.0
    for s in spans:
        parent = by_index.get(s.parent)
        counts[s.name] += 1
        if s.name.startswith("bench."):
            phase[s.index] = s.name
            wall[s.name] += s.duration
        else:
            phase[s.index] = phase.get(s.parent, "")
        if s.name == "level":
            level[s.index] = s.attrs.get("level")
        else:
            level[s.index] = level.get(s.parent)
        own = max(0.0, s.duration - child_time[s.index])
        key = _layer(s, phase[s.index], level[s.index], parent and parent.name)
        self_s[key] += own
        if key == "bench.self":
            unattributed[s.name] += own
        if s.name == "vcycle":
            vcycle_calls += 1
            vcycle_s += s.duration
        if s.name == "bench.solve":
            for name, v in (s.attrs.get("counters") or {}).items():
                counters[name] += v
    setup_wall = sum(wall[n] for n in SETUP_PHASES)
    return {
        "self_s": dict(self_s),
        "counts": dict(counts),
        "coverage": {
            "solve": _covered(unattributed["bench.solve"], wall["bench.solve"]),
            "setup": _covered(unattributed["bench.setup"], setup_wall),
        },
        "vcycle": {"calls": vcycle_calls, "seconds": vcycle_s},
        "counters": dict(counters),
    }


def _covered(unattributed: float, total: float) -> float:
    return 1.0 - unattributed / total if total > 0 else 1.0


def per_layer(ledger: dict) -> dict:
    """The per-layer metrics the ledger yields, normalised per solve,
    per setup and per step (a layer a workload does not use reads 0)."""
    n_solve = max(1, ledger["counts"].get("bench.solve", 0))
    n_setup = max(1, sum(ledger["counts"].get(n, 0) for n in SETUP_PHASES))
    n_update = max(1, ledger["counts"].get("bench.update_operator", 0))
    t = ledger["self_s"]
    c = ledger["counters"]
    vc = ledger["vcycle"]

    def solve_time(key):
        return t.get(key, 0.0) / n_solve

    def setup_time(key):
        return t.get(key, 0.0) / n_setup

    out = {
        "mg.vcycle_s": vc["seconds"] / vc["calls"] if vc["calls"] else 0.0,
        "mg.precond_apps": ledger["counts"].get("precond", 0) / n_solve,
        "mg.glue_s": solve_time("mg.glue_s"),
        "mg.setup_glue_s": setup_time("mg.setup_glue_s"),
        "smoothers.coarse_s": solve_time("smoothers.coarse_s"),
        "smoothers.sweeps": c.get("mg.smoother.calls", 0) / n_solve,
        "smoothers.setup_s": setup_time("smoothers.setup_s"),
        "kernels.fcvt_values": c.get("precision.fcvt.values", 0) / n_solve,
        "kernels.plan_s": setup_time("kernels.plan_s"),
        "kernels.plan_builds_hot": c.get("kernel.plan.builds", 0),
        "coarsen.galerkin_s": setup_time("coarsen.galerkin_s"),
        "coarsen.transfer_s": solve_time("coarsen.transfer_s"),
        "precision.scale_s": setup_time("precision.scale_s"),
        "precision.truncate_s": setup_time("precision.truncate_s"),
        "solvers.outer_spmv_s": solve_time("solvers.outer_spmv_s"),
        "solvers.other_s": solve_time("solvers.other_s"),
        "serve.update_operator_s": t.get("serve.update_operator_s", 0.0) / n_update,
        "serve.cache_overhead_s": setup_time("serve.cache_overhead_s"),
    }
    for lev in range(3):
        out[f"smoothers.smooth_s.L{lev}"] = solve_time(f"smoothers.smooth_s.L{lev}")
    for lev in range(2):
        out[f"kernels.spmv_s.L{lev}"] = solve_time(f"kernels.spmv_s.L{lev}")
    return out


def format_table(ledger: dict) -> str:
    """Aligned self-time table, largest first, with each layer's share."""
    rows = sorted(ledger["self_s"].items(), key=lambda kv: -kv[1])
    total = sum(v for _, v in rows) or 1.0
    width = max([len(k) for k, _ in rows] + [5])
    lines = [f"  {'layer':<{width}s} {'self_s':>12s} {'share':>7s}"]
    for key, v in rows:
        lines.append(f"  {key:<{width}s} {v:12.6f} {100 * v / total:6.1f}%")
    cov = ledger["coverage"]
    lines.append(
        f"  layer spans cover {100 * cov['solve']:.1f}% of bench.solve and "
        f"{100 * cov['setup']:.1f}% of setup wall time"
    )
    return "\n".join(lines)
