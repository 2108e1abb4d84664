#!/usr/bin/env python3
"""Repository benchmark: measured setup and solve time of the FP16
structured-multigrid preconditioner, checked against an FP64 oracle.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1] [--smoke] [--out FILE]

``--trace 0`` is the untraced pass that measures the end-to-end metrics;
``--trace 1`` re-runs the same inputs with the library's tracer and
counters installed and reports the per-layer metrics, plus a Chrome trace
per workload under ``bench-artifacts/``.  Without ``--trace`` both passes
run.  ``--workload all`` (the default) runs every workload of
``BENCHMARK.json`` in turn.

Times are calibrated seconds (see ``bench/calibrate.py``): wall seconds
rescaled by a fixed numpy kernel timed beside each step, which cancels
the host's speed drift.  The raw wall-clock figures go to ``--out`` too.

Every metric is printed by name with its unit and sample count.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; with several workloads or
passes its metric names are prefixed ``<workload>/``.  ``--out`` writes
the full record (samples, quartiles, ledger, inputs, machine) that
``bench/compare.py`` reads.  The exit code is 1 when any solve fails the
oracle or a timed solve built a kernel plan, and 2 when the checkout has
no ``src/repro`` to measure.

One process, one thread: BLAS/OpenMP pools are pinned to a single thread
before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

import ledger
from stats import p80, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Steps per traced-run loop at least, whatever ``--seconds`` says.
MIN_STEPS = 3
#: Share of ``--seconds`` given to each of the untraced reference loop and
#: the traced loop of a ``--trace 1`` run; the kernel probes take the rest.
TRACE_SHARE = 0.35
#: A solve fails when the oracle's residual exceeds this multiple of rtol.
ORACLE_SLACK = 10.0


def parse_args(argv, names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *names])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per pass (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=None,
                    help="0: end-to-end pass, 1: traced per-layer pass, "
                         "omitted: both")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny shapes and one step per pass")
    ap.add_argument("--out", default=None, help="write the full result JSON")
    return ap.parse_args(argv)


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next(
                (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                model,
            )
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def end_to_end(steps, units, calibrated: bool = True) -> dict:
    """The end-to-end metrics of one untraced pass."""
    f = [s.speed if calibrated else 1.0 for s in steps]
    step_s = [s.step_s * k for s, k in zip(steps, f)]
    rhs = [s.rhs for s in steps]
    return {
        "setup_s": summarize([s.setup_s * k for s, k in zip(steps, f)], units["setup_s"]),
        "solve_s": summarize([s.solve_s * k for s, k in zip(steps, f)], units["solve_s"]),
        "e2e_s": summarize(step_s, units["e2e_s"]),
        "step_p80_s": summarize(step_s, units["step_p80_s"], value=p80(step_s)),
        "throughput_rhs_per_s": summarize(
            [n / t for n, t in zip(rhs, step_s)], units["throughput_rhs_per_s"],
            value=sum(rhs) / sum(step_s),
        ),
    }


def oracle(steps, rtol) -> dict:
    """Answer checks of a pass: a solve fails unless it converged and its
    FP64 residual is within ``ORACLE_SLACK * rtol``."""
    ok = [
        c and r <= ORACLE_SLACK * rtol
        for s in steps for c, r in zip(s.converged, s.relres)
    ]
    return {
        "attempted": len(ok),
        "failed": ok.count(False),
        "iterations": statistics.median_low([i for s in steps for i in s.iterations]),
        "true_relres_max": max(r for s in steps for r in s.relres),
    }


def median_solve_s(steps) -> float:
    return statistics.median(s.solve_s * s.speed for s in steps)


def run_pass(name, seed, seconds, traced, smoke, units) -> dict:
    """One pass of one workload: build inputs, warm up, measure, check."""
    import workloads
    from calibrate import Calibration
    from repro.observability import metrics as _metrics
    from repro.observability import trace as _trace
    from repro.observability.export import write_chrome_trace

    cal = Calibration()
    wl = workloads.make(name, seed, smoke)
    wl.step(0)  # warm-up: fills the plan cache and lazy imports; never timed
    if not traced:
        steps = workloads.closed_loop(wl, seconds, 1 if smoke else wl.min_steps, cal)
        return {
            "inputs": wl.describe(),
            "metrics": end_to_end(steps, units),
            "wall": end_to_end(steps, units, calibrated=False),
            "speed": summarize([s.speed for s in steps], "1"),
            **oracle(steps, wl.rtol),
        }

    min_steps = 1 if smoke else MIN_STEPS
    reference = workloads.closed_loop(wl, seconds * TRACE_SHARE, min_steps, cal)
    counts0 = wl.session_counts()
    with _trace.tracing() as tracer, _metrics.collecting():
        steps = workloads.closed_loop(wl, seconds * TRACE_SHARE, min_steps, cal)
    counts1 = wl.session_counts()
    book = ledger.build(tracer.finished())
    factor = statistics.median(s.speed for s in steps)
    values = {
        k: v * factor if units[k] == "s" else v
        for k, v in ledger.per_layer(book).items()
    }
    values.update(workloads.probe_kernels(wl.hierarchy, seed, cal))
    check = oracle(reference + steps, wl.rtol)
    inputs = wl.describe()
    values.update({
        "iterations": check["iterations"],
        "true_relres_max": check["true_relres_max"],
        "failed_fraction": check["failed"] / check["attempted"],
        "hierarchy_mb": inputs["hierarchy_mb"],
        "precision.scaled_levels": inputs["scaled_levels"],
        "serve.rebuilds": (counts1["rebuilds"] - counts0["rebuilds"]) / len(steps),
        "serve.warm_starts": (counts1["warm_starts"] - counts0["warm_starts"]) / len(steps),
        "observability.trace_overhead": median_solve_s(steps) / median_solve_s(reference) - 1,
    })
    if values["kernels.plan_builds_hot"]:
        check["failed"] += 1  # a timed solve did symbolic work: not a valid run
    artifacts = ROOT / "bench-artifacts"
    artifacts.mkdir(exist_ok=True)
    trace_file = artifacts / f"bench.{name}.seed{seed}.trace.json"
    write_chrome_trace(tracer, str(trace_file))
    print(f"per-layer self time (wall), {name}, {len(steps)} traced steps:")
    print(ledger.format_table(book))
    return {
        "inputs": inputs,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "ledger": book,
        "chrome_trace": str(trace_file.relative_to(ROOT)),
        **check,
    }


def print_metrics(name, traced, result) -> None:
    print(f"{name} [{'traced' if traced else 'untraced'}] "
          f"attempted={result['attempted']} failed={result['failed']}")
    for key, m in sorted(result["metrics"].items()):
        spread = f"  n={m['n']:<4d} q1={m['q1']:.6g} q3={m['q3']:.6g}" if "n" in m else ""
        print(f"  {key:<34s} {m['value']:>14.6g} {m['unit']:<8s}{spread}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, names)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    selected = names if args.workload == "all" else [args.workload]
    passes = [0, 1] if args.trace is None else [args.trace]

    record = {"seed": args.seed, "seconds": seconds, "smoke": args.smoke,
              "claim": None, "workloads": {}}
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    prefix = len(selected) > 1 or len(passes) > 1
    for name in selected:
        entry = record["workloads"].setdefault(name, {})
        for traced in passes:
            result = run_pass(name, args.seed, seconds, bool(traced), args.smoke, units)
            print_metrics(name, traced, result)
            entry["inputs"] = result.pop("inputs")
            entry["traced" if traced else "untraced"] = result
            line["attempted"] += result["attempted"]
            line["failed"] += result["failed"]
            for key, m in result["metrics"].items():
                line["metrics"][f"{name}/{key}" if prefix else key] = {
                    "value": m["value"], "unit": m["unit"]}
    line["correct"] = line["failed"] == 0
    if args.out:
        record["machine"] = machine()
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
