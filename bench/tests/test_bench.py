"""Tests of the benchmark harness, on tiny shapes:

    python -m pytest bench/tests

They run ``bench/run.py --smoke`` as a subprocess (one step per pass) and
check the result file against ``BENCHMARK.json``; ``compare.py`` is
checked on synthetic records.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, out: "Path | None", *extra) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--smoke", "--seconds", "0",
           "--seed", "0", *extra]
    if out is not None:
        cmd += ["--out", str(out)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def smoke_record(out: Path) -> tuple:
    proc = run_bench(ROOT, out)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(out.read_text()), json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    return smoke_record(tmp_path_factory.mktemp("smoke") / "a.json")


def test_every_metric_is_emitted_with_its_unit(smoke):
    record, line = smoke
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert record["claim"] is None
    for w in SPEC["workloads"]:
        entry = record["workloads"][w["name"]]
        for section, metrics in (("untraced", SPEC["end_to_end"]),
                                 ("traced", SPEC["per_layer"])):
            emitted = entry[section]["metrics"]
            assert set(emitted) == {m["name"] for m in metrics}
            for m in metrics:
                assert emitted[m["name"]]["unit"] == m["unit"]
                assert line["metrics"][f"{w['name']}/{m['name']}"]["unit"] == m["unit"]
        for m in SPEC["end_to_end"]:
            assert entry["untraced"]["metrics"][m["name"]]["value"] > 0
            assert entry["untraced"]["metrics"][m["name"]]["n"] >= 1
        traced = entry["traced"]["metrics"]
        assert traced["failed_fraction"]["value"] == 0
        assert traced["kernels.plan_builds_hot"]["value"] == 0


def test_same_seed_gives_same_inputs_and_counts(smoke, tmp_path):
    first, _ = smoke
    second, _ = smoke_record(tmp_path / "b.json")
    for name, entry in first["workloads"].items():
        other = second["workloads"][name]
        assert entry["inputs"]["input_sha256"] == other["inputs"]["input_sha256"]
        for key in compare.DETERMINISTIC:
            assert (entry["traced"]["metrics"][key]["value"]
                    == other["traced"]["metrics"][key]["value"])
    assert compare.main([str(tmp_path / "b.json"), str(tmp_path / "b.json")]) == 0


def test_fp32_control_bypasses_fp16(smoke):
    metrics = smoke[0]["workloads"]
    assert metrics["poisson64-fp32"]["traced"]["metrics"]["kernels.fcvt_values"]["value"] == 0
    assert metrics["poisson64-fp16"]["traced"]["metrics"]["kernels.fcvt_values"]["value"] > 0


def test_layer_self_times_account_for_solve_and_setup(smoke):
    for name, entry in smoke[0]["workloads"].items():
        ledger = entry["traced"]["ledger"]
        assert ledger["coverage"]["solve"] >= 0.95, name
        assert ledger["coverage"]["setup"] >= 0.95, name
        assert not [k for k in ledger["self_s"] if k.startswith("unclassified.")], name
        assert (ROOT / entry["traced"]["chrome_trace"]).is_file()


def synthetic(scale: float = 1.0) -> dict:
    samples = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01]
    metric = {"value": 1.0, "unit": "s", "n": len(samples), "samples": samples}
    metrics = {m["name"]: copy.deepcopy(metric) for m in SPEC["end_to_end"]}
    solve = metrics["solve_s"]
    solve["samples"] = [v * scale for v in samples]
    solve["value"] *= scale
    counts = {k: {"value": 7, "unit": "count"} for k in compare.DETERMINISTIC}
    return {"workloads": {"w": {"untraced": {"metrics": metrics},
                                "traced": {"metrics": counts}}}}


def verdicts(old, new) -> dict:
    rows, failures = compare.compare(old, new, SPEC)
    return {metric: v for _, metric, _, _, _, v in rows}, failures


def test_compare_flags_regression_and_count_change():
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "solve_s")
    v, failures = verdicts(synthetic(), synthetic(1 + 1.5 * bound))
    assert v["solve_s"] == "worse" and failures == 1
    assert v["setup_s"] == "same"

    v, failures = verdicts(synthetic(), synthetic(1.005))
    assert v["solve_s"] in ("same", "unresolved") and failures == 0

    changed = synthetic()
    changed["workloads"]["w"]["traced"]["metrics"]["iterations"]["value"] = 8
    v, failures = verdicts(synthetic(), changed)
    assert v["iterations"] == "changed" and failures == 1


def test_compare_reports_wide_spread_as_unresolved():
    old, new = synthetic(), synthetic(1.2)
    for record in (old, new):
        s = record["workloads"]["w"]["untraced"]["metrics"]["solve_s"]
        s["samples"] = [v * f for v, f in zip(s["samples"], (0.7, 1.3, 1, 1, 1, 0.7, 1.3))]
    v, _ = verdicts(old, new)
    assert v["solve_s"] == "unresolved"


def test_fails_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "baselines"))
    proc = run_bench(tmp_path, None)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
