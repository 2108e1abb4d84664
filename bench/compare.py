#!/usr/bin/env python3
"""Diff two benchmark result files written by ``bench/run.py --out``.

    python3 bench/compare.py OLD NEW

For every workload x end-to-end metric of ``BENCHMARK.json`` it prints the
two headline values, the change (positive = worse) and a verdict:

- ``unresolved`` when either side's interquartile range is wider than the
  metric's bound, unless every NEW sample beats every OLD one (``better``);
- otherwise ``worse`` / ``better`` when the change exceeds the bound, and
  ``same`` when it does not.

Deterministic counts (``iterations``, ``hierarchy_mb``,
``kernels.fcvt_values`` from the traced pass) must be identical and are
reported as ``changed`` otherwise.  Exit code 1 on any ``worse`` or
``changed``, or when a workload of OLD is missing from NEW.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from stats import spread

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
DETERMINISTIC = ("iterations", "hierarchy_mb", "kernels.fcvt_values")


def verdict(old: dict, new: dict, bound: float, better: str) -> tuple:
    """``(verdict, change)`` for two metric records; change > 0 is worse."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (new["value"] - old["value"]) / abs(old["value"])
    if max(spread(old["samples"]), spread(new["samples"])) > bound:
        beats = all(
            sign * (n - o) < 0 for n in new["samples"] for o in old["samples"]
        )
        return ("better" if beats else "unresolved"), change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def compare(old: dict, new: dict, spec: dict) -> tuple:
    """Rows ``(workload, metric, old, new, change, verdict)`` and the
    number of failing rows."""
    rows, failures = [], 0
    for name in old["workloads"]:
        if name not in new["workloads"]:
            rows.append((name, "-", None, None, None, "missing in NEW"))
            failures += 1
            continue
        o, n = old["workloads"][name], new["workloads"][name]
        for m in spec["end_to_end"]:
            a, b = o["untraced"]["metrics"][m["name"]], n["untraced"]["metrics"][m["name"]]
            v, change = verdict(a, b, m["bound"], m["better"])
            failures += v == "worse"
            rows.append((name, m["name"], a["value"], b["value"], change, v))
        if "traced" in o and "traced" in n:
            for key in DETERMINISTIC:
                a, b = o["traced"]["metrics"][key]["value"], n["traced"]["metrics"][key]["value"]
                v = "identical" if a == b else "changed"
                failures += v == "changed"
                rows.append((name, key, a, b, None, v))
    return rows, failures


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    rows, failures = compare(old, new, spec)
    print(f"{'workload':<16s} {'metric':<22s} {'old':>12s} {'new':>12s} {'change':>8s}  verdict")
    for name, metric, a, b, change, v in rows:
        a_s = "-" if a is None else f"{a:12.6g}"
        b_s = "-" if b is None else f"{b:12.6g}"
        c_s = "" if change is None else f"{100 * change:+7.1f}%"
        print(f"{name:<16s} {metric:<22s} {a_s:>12s} {b_s:>12s} {c_s:>8s}  {v}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
