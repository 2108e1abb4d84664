"""Machine-readable benchmark snapshots (``BENCH_<name>.json``).

A snapshot freezes one benchmark run into a small JSON document —
iteration counts, measured wall times, modeled byte volumes, precision
event counters, span aggregates, the git revision, and the run's
pass/fail verdicts in one top-level ``gates`` map — so successive PRs
accumulate a comparable performance trajectory instead of ad-hoc log
output.  Every in-library bench (``repro profile``, ``repro serve
--bench``, ``repro serve --processes N --bench``, ``repro bench`` and
``repro tune``) returns one; the CLI writes it, prints its gates and
exits 1 if and only if a gate is false.

One declarative table, :data:`SCHEMA_TABLE`, names every section's
required and optional keys and the rule each value must follow; one
recursive walker reports each violation with the dotted path of the
field.  Validate from the command line with::

    python -m repro snapshot validate BENCH_K64P32D16-setup-scale.json
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass

__all__ = [
    "SCHEMA",
    "SCHEMA_TABLE",
    "assert_valid_snapshot",
    "build_snapshot",
    "git_revision",
    "snapshot_filename",
    "validate_file",
    "validate_snapshot",
    "write_snapshot",
]

#: Schema identifier embedded in (and required of) every snapshot.
SCHEMA = "repro-bench/2"


# ----------------------------------------------------------------------
# rule kinds
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Leaf:
    """A value of one of ``types`` (``bool`` is never a number), at least
    ``min`` when given, and one of ``choices`` when given."""

    types: tuple
    min: "float | None" = None
    choices: "tuple | None" = None


@dataclass(frozen=True)
class ListOf:
    """A list whose every item follows ``item``."""

    item: object


@dataclass(frozen=True)
class MapOf:
    """A dict whose every value follows ``value``; the ``required`` keys
    must be present."""

    value: object
    required: tuple = ()


@dataclass(frozen=True)
class Opt:
    """Marks a key of a section (a plain ``dict`` of key -> rule) as
    optional; every other key of a section is required."""

    rule: object


_TYPE_NAMES = {
    (bool,): "a boolean",
    (int,): "an integer",
    (int, float): "a number",
    (str,): "a string",
    (dict,): "a dict",
    (list,): "a list",
}

_STR = Leaf((str,))
_BOOL = Leaf((bool,))
_INT = Leaf((int,))
_COUNT = Leaf((int,), min=0)
_POSITIVE = Leaf((int,), min=1)
_NUM = Leaf((int, float))
_NONNEG = Leaf((int, float), min=0)
_DICT = Leaf((dict,))
_LIST = Leaf((list,))


# ----------------------------------------------------------------------
# the schema
# ----------------------------------------------------------------------
#: One solve of the Krylov zoo or of the tuner (``perf.e2e.solve_record``).
_RUN = {
    "status": _STR,
    "iterations": _COUNT,
    "precond_applications": _COUNT,
    "final_residual": _NUM,
    "fcvt_values": _COUNT,
    "modeled_seconds": _NUM,
}

_TUNER_RUN = {**_RUN, "config": _STR, "levels": ListOf(_STR)}

#: The timestep replay both serving benches run.
_REPLAY = {
    "problem": _STR,
    "steps": _COUNT,
    "refresh_every": _POSITIVE,
    "epochs": _COUNT,
}

_HISTOGRAM = {
    "count": _COUNT,
    "sum": _NUM,
    "max": _NUM,
    "p50": _NUM,
    "p95": _NUM,
    "p99": _NUM,
    "buckets": MapOf(_COUNT),
}

#: Every section any bench writes.  Keys not named here are allowed.
SCHEMA_TABLE = {
    "schema": Leaf((str,), choices=(SCHEMA,)),
    "git_rev": _STR,
    "timestamp": _NUM,
    "problem": _STR,
    "config": _STR,
    "shape": ListOf(_POSITIVE),
    "solve": {
        "solver": _STR,
        "status": _STR,
        "iterations": _INT,
        "final_residual": _NUM,
        "seconds": _NUM,
    },
    "setup": {"seconds": _NUM, "n_levels": _INT, "grid_complexity": _NUM},
    "memory": _DICT,
    "modeled": _DICT,
    "events": _DICT,
    "spans": _DICT,
    "kernels": _DICT,
    # the run's pass/fail verdicts; the CLI exits 1 iff one is false
    "gates": MapOf(_BOOL),
    # the worker layout of a serving bench
    "topology": Opt({
        "mode": _STR,
        "processes": _POSITIVE,
        "shard_map": _DICT,
        "respawns": _COUNT,
        "requeued": _COUNT,
    }),
    # ServiceStats.snapshot() of a serving bench
    "latency": Opt({
        "histograms": MapOf(_HISTOGRAM, required=("queue_wait", "e2e")),
        "counts": MapOf(_COUNT),
        "rates": MapOf(_NONNEG),
    }),
    # PolicyController.snapshot() of a policy-driven run; the decision
    # kinds mirror repro.policy.DECISION_KINDS without importing it (the
    # validator must work on bare JSON)
    "policy": Opt({
        "name": _STR,
        "decisions": ListOf({
            "kind": Leaf((str,), choices=("escalate", "demote", "rescale")),
            "level": _COUNT,
        }),
        "final_levels": ListOf({"index": _COUNT, "storage": _STR}),
        "escalations": _COUNT,
        "demotions": _COUNT,
        "rescales": _COUNT,
    }),
    # the Krylov-zoo comparison of `repro bench`
    "krylov": Opt({
        "problems": ListOf({
            "problem": _STR,
            "baseline": _STR,
            "runs": MapOf(_RUN),
        }),
        "solvers": _LIST,
    }),
    "extra": Opt({
        "precision_config": Opt(_STR),
        # `repro serve --bench`: cached replay, warm start, solve_many
        "serve": Opt({
            "replay": {
                **_REPLAY,
                "uncached_setup_seconds": _NONNEG,
                "cached_setup_seconds": _NONNEG,
                "amortization": _NONNEG,
                "cache": _DICT,
                "hit_rate": _NONNEG,
            },
            "warm_start": {
                "cold_iterations": _COUNT,
                "warm_iterations": _COUNT,
            },
            "solve_many": {
                "problem": _STR,
                "rhs_block": _POSITIVE,
                "max_rel_error_vs_sequential": _NONNEG,
                "statuses": ListOf(_STR),
            },
        }),
        # `repro serve --processes N --bench`: process-pool scaling
        "serve_mp": Opt({
            "replay": {**_REPLAY, "rhs_block": _POSITIVE},
            "processes_tested": ListOf(_POSITIVE),
            "seconds": MapOf(_NONNEG),
            "throughput_solves_per_s": MapOf(_NONNEG),
            "thread_reference_seconds": _NONNEG,
            "speedup": _NONNEG,
            "cores": _POSITIVE,
            "expected_speedup": _NONNEG,
            "deadline_miss_rate": _NONNEG,
        }),
        # `repro tune`: static vs adaptive vs replayed static config
        "tuner": Opt({
            "problem": _STR,
            "base_config": _STR,
            "emitted_config": _STR,
            "exact_encoding": _BOOL,
            "iteration_slack": _COUNT,
            "static": _TUNER_RUN,
            "adaptive": {
                **_TUNER_RUN,
                "decisions": _COUNT,
                "escalations": _COUNT,
                "demotions": _COUNT,
                "rescales": _COUNT,
            },
            "replay": _TUNER_RUN,
        }),
    }),
}


def git_revision(cwd: "str | None" = None) -> str:
    """Short git revision of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd or os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def snapshot_filename(config_name: str) -> str:
    """Canonical file name for one configuration's snapshot."""
    safe = config_name.replace("/", "_").replace(" ", "_")
    return f"BENCH_{safe}.json"


def build_snapshot(
    problem: str,
    config: str,
    shape,
    result,
    hierarchy,
    *,
    gates: dict,
    tracer=None,
    metrics=None,
    kernel_times: "dict | None" = None,
    extra: "dict | None" = None,
    topology: "dict | None" = None,
    latency: "dict | None" = None,
    policy: "dict | None" = None,
    krylov: "dict | None" = None,
) -> dict:
    """Assemble (and validate) a snapshot document.

    Parameters mirror what a bench run has in hand: the
    :class:`~repro.solvers.SolveResult`, the set-up
    :class:`~repro.mg.MGHierarchy`, the run's ``gates`` (name -> bool
    verdict), and optionally the tracer, the metrics registry, measured
    kernel times from :func:`repro.perf.timing.measure`, and the sections
    of :data:`SCHEMA_TABLE` a bench adds: the worker ``topology``, the
    ``latency`` section
    (:meth:`~repro.observability.telemetry.ServiceStats.snapshot`), the
    ``policy`` and ``krylov`` sections and the bench's own ``extra``.
    """
    from ..perf.e2e import vcycle_volume

    mem = hierarchy.memory_report()
    doc = {
        "schema": SCHEMA,
        "git_rev": git_revision(),
        "timestamp": time.time(),
        "problem": str(problem),
        "config": str(config),
        "shape": [int(n) for n in shape],
        "solve": {
            "solver": result.solver,
            "status": result.status,
            "iterations": int(result.iterations),
            "final_residual": float(result.history.final()),
            "seconds": float(result.seconds),
            "precond_applications": int(result.precond_applications),
        },
        "setup": {
            "seconds": float(hierarchy.setup_seconds),
            "n_levels": int(hierarchy.n_levels),
            "grid_complexity": float(hierarchy.grid_complexity()),
            "operator_complexity": float(hierarchy.operator_complexity()),
        },
        "memory": {
            "matrix_bytes": int(mem["matrix_bytes"]),
            "smoother_bytes": int(mem["smoother_bytes"]),
            "transfer_bytes": int(mem["transfer_bytes"]),
            "levels": mem["levels"],
        },
        "modeled": {
            "vcycle_bytes": float(vcycle_volume(hierarchy)),
        },
        "events": metrics.to_dict() if metrics is not None else {},
        "spans": {},
        "kernels": dict(kernel_times or {}),
        "gates": dict(gates),
    }
    if tracer is not None:
        from .export import aggregate

        doc["spans"] = aggregate(tracer)
    if extra:
        doc["extra"] = dict(extra)
    if topology is not None:
        doc["topology"] = dict(topology)
    if latency is not None:
        doc["latency"] = dict(latency)
    if policy is not None:
        doc["policy"] = dict(policy)
    if krylov is not None:
        doc["krylov"] = dict(krylov)
    assert_valid_snapshot(doc)
    return doc


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def _walk(rule, value, path: str, out: "list[str]") -> None:
    """Append to ``out`` every violation of ``rule`` by ``value``."""
    types = (
        (dict,) if isinstance(rule, (dict, MapOf))
        else (list,) if isinstance(rule, ListOf)
        else rule.types
    )
    if not isinstance(value, types) or (
        isinstance(value, bool) and bool not in types
    ):
        out.append(f"field {path!r} must be {_TYPE_NAMES[types]}, "
                   f"got {type(value).__name__}")
    elif isinstance(rule, dict):
        for key, sub in rule.items():
            at = f"{path}.{key}" if path else key
            if key in value:
                _walk(sub.rule if isinstance(sub, Opt) else sub,
                      value[key], at, out)
            elif not isinstance(sub, Opt):
                out.append(f"missing required field {at!r}")
    elif isinstance(rule, MapOf):
        out.extend(f"missing required field '{path}.{key}'"
                   for key in rule.required if key not in value)
        for key, item in value.items():
            _walk(rule.value, item, f"{path}.{key}", out)
    elif isinstance(rule, ListOf):
        for i, item in enumerate(value):
            _walk(rule.item, item, f"{path}[{i}]", out)
    elif rule.min is not None and value < rule.min:
        out.append(f"field {path!r} must be >= {rule.min}, got {value!r}")
    elif rule.choices is not None and value not in rule.choices:
        out.append(f"field {path!r} must be one of {rule.choices}, "
                   f"got {value!r}")


def _bucket_sums(doc: dict) -> "list[str]":
    """The one cross-field rule: a histogram's bucket counts sum to its
    ``count`` (checked where both are already valid)."""
    latency = doc.get("latency")
    hists = latency.get("histograms") if isinstance(latency, dict) else None
    if not isinstance(hists, dict):
        return []
    problems = []
    for stage, h in hists.items():
        if not isinstance(h, dict):
            continue
        count, buckets = h.get("count"), h.get("buckets")
        counts = list(buckets.values()) if isinstance(buckets, dict) else None
        if counts is None or not all(
            type(c) is int and c >= 0 for c in [count, *counts]
        ):
            continue
        if sum(counts) != count:
            problems.append(
                f"latency.histograms.{stage}: bucket counts sum to "
                f"{sum(counts)}, count says {count}"
            )
    return problems


def validate_snapshot(doc) -> list[str]:
    """Return a list of schema violations (empty when valid)."""
    if not isinstance(doc, dict):
        return [f"snapshot must be a JSON object, got {type(doc).__name__}"]
    problems: list[str] = []
    _walk(SCHEMA_TABLE, doc, "", problems)
    return problems + _bucket_sums(doc)


def assert_valid_snapshot(doc) -> None:
    problems = validate_snapshot(doc)
    if problems:
        raise ValueError(
            "invalid benchmark snapshot:\n  " + "\n  ".join(problems)
        )


def write_snapshot(doc: dict, directory: str = ".") -> str:
    """Validate and write ``BENCH_<config>.json``; returns the path."""
    assert_valid_snapshot(doc)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, snapshot_filename(doc["config"]))
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def validate_file(path: str) -> list[str]:
    """Validate one snapshot file; returns the list of violations."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable snapshot ({exc})"]
    return [f"{path}: {p}" for p in validate_snapshot(doc)]
