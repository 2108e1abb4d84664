"""Tests for the observability layer: tracing, metrics, exports, snapshots,
and the timing/telemetry satellites that ride along with it."""

from __future__ import annotations

import json
import sys
import threading

import numpy as np
import pytest

from repro import cli
from repro.mg import mg_setup
from repro.observability import export as obs_export
from repro.observability import metrics as obs_metrics
from repro.observability import snapshot as obs_snapshot
from repro.observability import trace as obs_trace
from repro.precision import parse_config
from repro.problems import build_problem
from repro.solvers import solve
from tests.helpers import random_sgdia


@pytest.fixture(autouse=True)
def _clean_collectors():
    """Never leak a global tracer/registry across tests."""
    yield
    obs_trace.uninstall()
    obs_metrics.uninstall()


# ----------------------------------------------------------------------
# disabled fast path
# ----------------------------------------------------------------------
class TestDisabledFastPath:
    def test_span_returns_shared_null_singleton(self):
        assert not obs_trace.enabled()
        s1 = obs_trace.span("anything", attr=1)
        s2 = obs_trace.span("else")
        # identity, not just equality: the disabled path must not allocate
        assert s1 is s2 is obs_trace.NULL_SPAN

    def test_null_span_is_inert_context_manager(self):
        with obs_trace.span("nope") as s:
            assert s.set(x=1) is s

    def test_incr_is_noop_when_disabled(self):
        assert not obs_metrics.active()
        obs_metrics.incr("kernel.spmv.calls", 5)  # must not raise
        assert obs_metrics.get_metrics() is None

    def test_instrumented_solve_works_without_collectors(self, small_spd):
        b = np.ones(small_spd.grid.ndof)
        h = mg_setup(small_spd, parse_config("K64P32D16-setup-scale"))
        result = solve("cg", small_spd, b, preconditioner=h.precondition,
                       rtol=1e-8, maxiter=100)
        assert result.converged
        assert "telemetry" not in result.detail


# ----------------------------------------------------------------------
# span recording
# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting_parent_depth(self):
        with obs_trace.tracing() as tr:
            with obs_trace.span("outer"):
                with obs_trace.span("inner", k=1):
                    pass
                with obs_trace.span("inner", k=2):
                    pass
        outer, i1, i2 = tr.spans
        assert outer.parent is None and outer.depth == 0
        assert i1.parent == outer.index and i1.depth == 1
        assert i2.parent == outer.index and i2.depth == 1
        assert [s.attrs.get("k") for s in (i1, i2)] == [1, 2]
        assert tr.children(outer.index) == [i1, i2]
        assert tr.roots() == [outer]

    def test_children_sum_bounded_by_parent(self):
        with obs_trace.tracing() as tr:
            with obs_trace.span("parent"):
                for _ in range(3):
                    with obs_trace.span("child"):
                        pass
        assert tr.consistent()
        parent = tr.spans[0]
        child_total = sum(c.duration for c in tr.children(parent.index))
        assert child_total <= parent.duration + 1e-6

    def test_span_in_another_thread_is_a_root(self):
        """Each thread nests its spans on its own stack: a span opened by
        a second thread while the main thread holds one open is a root."""

        def open_inner():
            with obs_trace.span("inner"):
                pass

        with obs_trace.tracing() as tr:
            with obs_trace.span("outer") as outer:
                worker = threading.Thread(target=open_inner)
                worker.start()
                worker.join()
        inner = next(s for s in tr.spans if s.name == "inner")
        assert outer.parent is None
        assert inner.parent is None and inner.depth == 0
        assert tr.children(outer.index) == []

    def test_concurrent_threads_keep_indices_and_nesting(self):
        """Eight threads trace nested spans under a tiny switch interval:
        each span's index is its place in the list (a lost append would
        repeat one), and each inner span's parent is its own thread's
        outer span."""

        barrier = threading.Barrier(8)

        def work(k):
            barrier.wait(timeout=60.0)
            for _ in range(500):
                with obs_trace.span("outer", k=k):
                    with obs_trace.span("inner", k=k):
                        pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with obs_trace.tracing() as tr:
                threads = [
                    threading.Thread(target=work, args=(k,)) for k in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
                    assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert [s.index for s in tr.spans] == list(range(8000))
        for s in tr.spans:
            if s.name == "outer":
                assert s.parent is None
            else:
                outer = tr.spans[s.parent]
                assert outer.name == "outer"
                assert outer.attrs["k"] == s.attrs["k"]

    def test_tracing_restores_previous(self):
        outer = obs_trace.install()
        with obs_trace.tracing() as inner:
            assert obs_trace.get_tracer() is inner
        assert obs_trace.get_tracer() is outer
        obs_trace.uninstall()

    def test_total_sums_by_name(self):
        with obs_trace.tracing() as tr:
            with obs_trace.span("a"):
                pass
            with obs_trace.span("a"):
                pass
        assert tr.total("a") == pytest.approx(
            sum(s.duration for s in tr.spans)
        )
        assert tr.total("missing") == 0.0


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def _sample_tracer():
    with obs_trace.tracing() as tr:
        with obs_trace.span("solve", solver="cg"):
            with obs_trace.span("iteration", it=1):
                with obs_trace.span("precond"):
                    pass
            with obs_trace.span("iteration", it=2):
                pass
    return tr


def _two_thread_tracer():
    """A main-thread span, then two worker threads whose spans are open at
    the same time, each with one child."""
    both_open = threading.Barrier(2, timeout=30)

    def work(i):
        with obs_trace.span(f"worker-{i}"):
            both_open.wait()
            with obs_trace.span("inner"):
                pass
            both_open.wait()

    with obs_trace.tracing() as tr:
        with obs_trace.span("main"):
            pass
        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    return tr


class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        tr = _sample_tracer()
        path = obs_export.write_jsonl(tr, str(tmp_path / "trace.jsonl"))
        loaded = obs_export.load_jsonl(path)
        assert [s.name for s in loaded] == [s.name for s in tr.finished()]
        for got, ref in zip(loaded, tr.finished()):
            assert got.index == ref.index
            assert got.parent == ref.parent
            assert got.depth == ref.depth
            assert got.attrs == ref.attrs
            assert got.duration == pytest.approx(ref.duration, abs=1e-9)

    def test_chrome_trace_structure(self, tmp_path):
        tr = _sample_tracer()
        path = obs_export.write_chrome_trace(tr, str(tmp_path / "t.json"))
        doc = json.loads(open(path).read())
        events = doc["traceEvents"]
        assert len(events) == len(tr.finished())
        assert all(e["ph"] == "X" for e in events)
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)  # chronological
        by_idx = {e["args"]["span_index"]: e for e in events}
        prec = by_idx[2]
        assert prec["name"] == "precond"
        assert prec["args"]["parent"] == 1  # nested under iteration #1

    def test_chrome_lane_per_thread(self):
        """Two threads' overlapping spans land on distinct ``tid`` lanes,
        numbered in order of first appearance; a child keeps its parent's
        lane, and a single-threaded trace is all lane 0."""
        assert {
            e["tid"] for e in obs_export.spans_to_chrome_events(_sample_tracer())
        } == {0}
        tr = _two_thread_tracer()
        events = obs_export.spans_to_chrome_events(tr)
        lane = {e["name"]: e["tid"] for e in events}
        assert lane["main"] == 0
        assert len({lane["main"], lane["worker-0"], lane["worker-1"]}) == 3
        for e in events:
            if e["name"] == "inner":
                parent = tr.spans[e["args"]["parent"]].name
                assert e["tid"] == lane[parent]

    def test_jsonl_round_trips_thread(self, tmp_path):
        tr = _two_thread_tracer()
        path = obs_export.write_jsonl(tr, str(tmp_path / "trace.jsonl"))
        loaded = obs_export.load_jsonl(path)
        assert [s.thread for s in loaded] == [s.thread for s in tr.finished()]
        assert len({s.thread for s in loaded}) == 3

    def test_aggregate_self_time(self):
        tr = _sample_tracer()
        agg = obs_export.aggregate(tr)
        assert agg["iteration"]["calls"] == 2
        assert agg["solve"]["calls"] == 1
        # self time never exceeds total time
        for row in agg.values():
            assert 0.0 <= row["self_s"] <= row["total_s"] + 1e-9

    def test_text_summary_lists_all_names(self):
        tr = _sample_tracer()
        text = obs_export.text_summary(tr)
        for name in ("solve", "iteration", "precond"):
            assert name in text
        assert obs_export.text_summary(obs_trace.Tracer()) == "(no spans recorded)"


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_incr_totals_and_levels(self):
        m = obs_metrics.Metrics()
        m.incr("x", 2, level=0)
        m.incr("x", 3, level=1)
        m.incr("x")
        assert m.get("x") == 6
        assert m.get("x", level=0) == 2
        assert m.get("x", level=1) == 3
        assert m.to_dict()["x"] == {"total": 6, "by_level": {"0": 2, "1": 3}}

    def test_delta_since(self):
        with obs_metrics.collecting() as m:
            obs_metrics.incr("a", 5)
            base = m.totals()
            obs_metrics.incr("a", 2)
            obs_metrics.incr("b", 1)
        assert m.delta_since(base) == {"a": 2, "b": 1}

    def test_format_is_aligned_text(self):
        m = obs_metrics.Metrics()
        m.incr("kernel.spmv.calls", 4)
        m.incr("mg.smoother.calls", 2, level=1)
        out = m.format()
        assert "kernel.spmv.calls" in out and "L1=2" in out
        assert obs_metrics.Metrics().format() == "(no events recorded)"


# ----------------------------------------------------------------------
# setup-path precision events vs SetupDiagnostics (acceptance criterion)
# ----------------------------------------------------------------------
class TestSetupEventAgreement:
    def _wide_range_matrix(self):
        # off-diagonals below the FP16 subnormal threshold flush to zero;
        # the diagonal stays representable, so setup survives.
        a = random_sgdia((8, 8, 8), "3d7", spd=True, diag_boost=8.0)
        for d in range(len(a.stencil.offsets)):
            if d != a.stencil.diag_index:
                a.diag_view(d)[...] *= 1e-9
        return a

    def test_counters_match_diagnostics_on_shift_levid(self):
        a = self._wide_range_matrix()
        config = parse_config("K64P32D16-setup-scale").with_(shift_levid=1)
        with obs_metrics.collecting() as m:
            h = mg_setup(a, config)
        diag = h.diagnostics
        assert sum(s.n_underflow for s in diag.levels) > 0  # scenario is live
        assert m.get("precision.overflow_clamp") == sum(
            s.n_overflow for s in diag.levels
        )
        assert m.get("precision.underflow_flush") == sum(
            s.n_underflow for s in diag.levels
        )
        assert m.get("precision.nonfinite") == sum(
            s.n_nonfinite for s in diag.levels
        )
        for s in diag.levels:
            assert m.get("precision.overflow_clamp", level=s.index) == s.n_overflow
            assert m.get("precision.underflow_flush", level=s.index) == s.n_underflow

    def test_shifted_levels_count_zero_events(self):
        a = self._wide_range_matrix()
        config = parse_config("K64P32D16-setup-scale").with_(shift_levid=1)
        with obs_metrics.collecting() as m:
            h = mg_setup(a, config)
        # every level at or past the shift stores in FP32: nothing flushes
        for s in h.diagnostics.levels[1:]:
            assert s.storage == "fp32"
            assert m.get("precision.underflow_flush", level=s.index) == 0

    def test_stored_matrix_truncate_counts_standalone(self):
        from repro.sgdia import StoredMatrix

        a = self._wide_range_matrix()
        with obs_metrics.collecting() as m:
            StoredMatrix.truncate(a, storage="fp16")
        assert m.get("precision.underflow_flush") > 0
        assert m.get("setup.truncate.calls") == 1


# ----------------------------------------------------------------------
# per-solve telemetry
# ----------------------------------------------------------------------
class TestSolveTelemetry:
    def test_detail_carries_per_solve_deltas(self):
        a = random_sgdia((8, 8, 8), "3d7", spd=True, diag_boost=8.0)
        b = np.ones(a.grid.ndof)
        h = mg_setup(a, parse_config("K64P32D16-setup-scale"))
        with obs_metrics.collecting() as m:
            r1 = solve("cg", a, b, preconditioner=h.precondition,
                       rtol=1e-8, maxiter=100)
            r2 = solve("cg", a, b, preconditioner=h.precondition,
                       rtol=1e-8, maxiter=100)
        ev1 = r1.detail["telemetry"]["events"]
        ev2 = r2.detail["telemetry"]["events"]
        assert ev1["kernel.sweep.calls"] > 0
        # identical solves -> identical deltas, and they sum to the registry
        assert ev1 == ev2
        assert m.get("kernel.sweep.calls") == (
            ev1["kernel.sweep.calls"] + ev2["kernel.sweep.calls"]
        )

    def test_solve_span_tree_shape(self):
        a = random_sgdia((8, 8, 8), "3d7", spd=True, diag_boost=8.0)
        b = np.ones(a.grid.ndof)
        h = mg_setup(a, parse_config("K64P32D16-setup-scale"))
        with obs_trace.tracing() as tr:
            r = solve("cg", a, b, preconditioner=h.precondition,
                      rtol=1e-8, maxiter=100)
        assert r.converged
        assert tr.consistent()
        spans = tr.finished()
        by_index = {s.index: s for s in spans}
        names = {s.name for s in spans}
        assert {"solve", "iteration", "precond", "vcycle", "level",
                "smoother", "spmv", "restrict", "prolong"} <= names
        # every precond nests (transitively) under an iteration or the solve
        for s in spans:
            if s.name == "vcycle":
                assert by_index[s.parent].name == "precond"
            if s.name == "precond":
                assert by_index[s.parent].name in ("iteration", "solve")

    def test_every_outer_spmv_is_traced(self):
        """The initial residual's product and one per iteration: each opens
        an ``spmv`` span outside the V-cycle's levels."""
        a = random_sgdia((8, 8, 8), "3d7", spd=True, diag_boost=8.0)
        b = np.ones(a.grid.ndof)
        h = mg_setup(a, parse_config("K64P32D16-setup-scale"))
        with obs_trace.tracing() as tr:
            r = solve("cg", a, b, preconditioner=h.precondition,
                      rtol=1e-8, maxiter=100)
        assert r.converged
        spans = tr.finished()
        by_index = {s.index: s for s in spans}
        outer = [s for s in spans if s.name == "spmv"
                 and by_index[s.parent].name != "level"]
        assert len(outer) == r.iterations + 1

    def test_gmres_iterations_are_traced(self):
        a = random_sgdia((8, 8, 8), "3d7", diag_boost=8.0)
        b = np.ones(a.grid.ndof)
        with obs_trace.tracing() as tr:
            r = solve("gmres", a, b, rtol=1e-8, maxiter=100)
        assert r.converged
        assert tr.consistent()
        n_iter_spans = sum(1 for s in tr.finished() if s.name == "iteration")
        assert n_iter_spans == r.iterations

    def test_setup_span_tree_shape(self):
        a = random_sgdia((8, 8, 8), "3d7", spd=True, diag_boost=8.0)
        with obs_trace.tracing() as tr:
            mg_setup(a, parse_config("K64P32D16-setup-scale"))
        assert tr.consistent()
        roots = tr.roots()
        assert [s.name for s in roots] == ["setup"]
        names = {s.name for s in tr.finished()}
        assert {"setup", "galerkin", "level", "truncate",
                "smoother_setup"} <= names


# ----------------------------------------------------------------------
# timing satellites
# ----------------------------------------------------------------------
class TestTimingFixes:
    def test_measure_rejects_zero_repeats(self):
        from repro.perf.timing import measure

        with pytest.raises(ValueError, match="repeats"):
            measure(lambda: None, repeats=0)
        with pytest.raises(ValueError, match="warmup"):
            measure(lambda: None, warmup=-1)
        with pytest.raises(ValueError, match="stat"):
            measure(lambda: None, stat="mean")

    def test_measure_stats(self):
        from repro.perf.timing import measure

        best = measure(lambda: None, warmup=0, repeats=5, stat="best")
        median = measure(lambda: None, warmup=0, repeats=5, stat="median")
        assert best >= 0 and median >= 0 and np.isfinite(best)

    def test_geometric_mean_warns_on_dropped(self):
        from repro.perf.timing import geometric_mean

        with pytest.warns(RuntimeWarning, match="2 non-positive"):
            g = geometric_mean([4.0, 0.0, -1.0, 1.0])
        assert g == pytest.approx(2.0)

    def test_geometric_mean_clean_input_silent(self):
        import warnings

        from repro.perf.timing import geometric_mean

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_geometric_mean_all_dropped_is_nan(self):
        from repro.perf.timing import geometric_mean

        with pytest.warns(RuntimeWarning):
            assert np.isnan(geometric_mean([0.0, -3.0]))


# ----------------------------------------------------------------------
# comm telemetry satellites
# ----------------------------------------------------------------------
class TestCommTelemetry:
    def test_commstats_to_dict(self):
        from repro.parallel import CommStats

        stats = CommStats()
        stats.set_phase("halo")
        stats.record_p2p(128)
        stats.set_phase("dot")
        stats.record_allreduce(8)
        d = stats.to_dict()
        assert d["p2p_messages"] == 1
        assert d["p2p_bytes"] == 128
        assert d["allreduces"] == 1
        assert d["allreduce_bytes"] == 8
        assert d["by_phase"]["halo"]["p2p_messages"] == 1
        # deep copy: mutating the dict must not touch the stats
        d["by_phase"]["halo"]["p2p_messages"] = 999
        assert stats.to_dict()["by_phase"]["halo"]["p2p_messages"] == 1

    def test_distributed_cg_detail_and_halo_metrics(self, rng):
        from repro.parallel import (
            CartesianDecomposition,
            DistributedSGDIA,
            distributed_cg,
        )

        a = random_sgdia((8, 8, 8), "3d7", spd=True, diag_boost=8.0)
        dec = CartesianDecomposition(a.grid, (2, 2, 1))
        da = DistributedSGDIA.from_global(a, dec)
        b = rng.standard_normal(a.grid.field_shape)
        with obs_trace.tracing() as tr, obs_metrics.collecting() as m:
            res, stats = distributed_cg(da, b, rtol=1e-9, maxiter=400)
        assert res.converged
        comm = res.detail["comm"]
        assert comm["p2p_messages"] == stats.p2p_messages
        assert comm["p2p_bytes"] == stats.p2p_bytes
        assert comm["allreduces"] == stats.allreduces
        # halo spans and counters line up with the p2p accounting
        n_halo = m.get("comm.halo.exchanges")
        assert n_halo == sum(1 for s in tr.finished() if s.name == "halo_exchange")
        assert m.get("comm.halo.messages") == stats.p2p_messages
        assert m.get("comm.halo.bytes") == stats.p2p_bytes


# ----------------------------------------------------------------------
# resilience telemetry satellite
# ----------------------------------------------------------------------
class TestResilienceTelemetry:
    def test_attempts_carry_setup_events(self, small_spd):
        from repro.resilience import robust_solve

        b = np.ones(small_spd.grid.ndof)
        result, report = robust_solve(
            small_spd, b, config=parse_config("K64P32D16-setup-scale"),
            rtol=1e-8, maxiter=100,
        )
        assert result.converged
        attempt = report.attempts[-1]
        assert {"overflow_clamp", "underflow_flush", "nonfinite",
                "auto_shift_level", "chain_truncated"} <= set(attempt.events)
        assert report.to_dict()["attempts"][-1]["events"] == attempt.events


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------
def _profiled_run(shape=(10, 10, 10)):
    problem = build_problem("laplace27", shape=shape, seed=0)
    config = parse_config("K64P32D16-setup-scale")
    with obs_trace.tracing() as tr, obs_metrics.collecting() as m:
        h = mg_setup(problem.a, config, problem.mg_options)
        result = solve("cg", problem.a, problem.b,
                       preconditioner=h.precondition,
                       rtol=1e-8, maxiter=100)
    return problem, config, result, h, tr, m


class TestSnapshots:
    def test_build_and_validate(self):
        problem, config, result, h, tr, m = _profiled_run()
        doc = obs_snapshot.build_snapshot(
            problem.name, config.name, (10, 10, 10), result, h,
            gates={"converged": result.converged}, tracer=tr, metrics=m,
        )
        assert obs_snapshot.validate_snapshot(doc) == []
        assert doc["schema"] == obs_snapshot.SCHEMA
        assert doc["solve"]["iterations"] == result.iterations
        assert doc["events"]["kernel.spmv.calls"]["total"] > 0
        assert doc["spans"]["vcycle"]["calls"] == result.precond_applications

    def test_write_and_validate_file(self, tmp_path):
        problem, config, result, h, tr, m = _profiled_run()
        doc = obs_snapshot.build_snapshot(
            problem.name, config.name, (10, 10, 10), result, h,
            gates={"converged": result.converged}, tracer=tr, metrics=m,
        )
        path = obs_snapshot.write_snapshot(doc, str(tmp_path))
        assert path.endswith(
            obs_snapshot.snapshot_filename(config.name)
        )
        assert obs_snapshot.validate_file(path) == []
        assert cli.main(["snapshot", "validate", path]) == 0

    def test_validation_catches_missing_fields(self):
        problem, config, result, h, tr, m = _profiled_run()
        doc = obs_snapshot.build_snapshot(
            problem.name, config.name, (10, 10, 10), result, h,
            gates={"converged": result.converged},
        )
        del doc["solve"]["iterations"]
        doc.pop("events")
        problems = obs_snapshot.validate_snapshot(doc)
        assert any("solve.iterations" in p for p in problems)
        assert any("'events'" in p for p in problems)
        with pytest.raises(ValueError, match="invalid benchmark snapshot"):
            obs_snapshot.assert_valid_snapshot(doc)

    def test_validation_rejects_wrong_schema(self):
        assert obs_snapshot.validate_snapshot([1, 2]) != []
        doc = {"schema": "other/9"}
        assert any(
            "schema" in p for p in obs_snapshot.validate_snapshot(doc)
        )

    def test_main_flags_invalid_file(self, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text(json.dumps({"schema": obs_snapshot.SCHEMA}))
        assert cli.main(["snapshot", "validate", str(bad)]) == 1


def _example(rule):
    """A minimal valid value of one rule of the snapshot schema table."""
    if isinstance(rule, obs_snapshot.Opt):
        return _example(rule.rule)
    if isinstance(rule, dict):
        return {key: _example(sub) for key, sub in rule.items()}
    if isinstance(rule, obs_snapshot.ListOf):
        return [_example(rule.item)]
    if isinstance(rule, obs_snapshot.MapOf):
        return {key: _example(rule.value) for key in rule.required or ("k",)}
    if rule.choices:
        return rule.choices[0]
    samples = {bool: True, int: 1, float: 1.5, str: "s", dict: {}, list: []}
    return samples[rule.types[-1]]


def _rule_sites(rule, value, path=""):
    """Every rule of the table with its place in ``value``: yields
    ``(path, rule, container, key, required)``."""
    if isinstance(rule, dict):
        for key, sub in rule.items():
            at = f"{path}.{key}" if path else key
            optional = isinstance(sub, obs_snapshot.Opt)
            inner = sub.rule if optional else sub
            yield at, inner, value, key, not optional
            yield from _rule_sites(inner, value[key], at)
    elif isinstance(rule, obs_snapshot.MapOf):
        for key in value:
            at = f"{path}.{key}"
            yield at, rule.value, value, key, key in rule.required
            yield from _rule_sites(rule.value, value[key], at)
    elif isinstance(rule, obs_snapshot.ListOf):
        at = f"{path}[0]"
        yield at, rule.item, value, 0, False
        yield from _rule_sites(rule.item, value[0], at)


_DROP = object()


def _breakages(rule, required):
    """Values that each violate ``rule`` (``_DROP`` removes the key)."""
    if required:
        yield _DROP
    yield None  # no rule accepts null
    if isinstance(rule, obs_snapshot.Leaf):
        if bool not in rule.types:
            yield True  # bool is never a number, string or container
        if rule.min is not None:
            yield rule.min - 1
        if rule.choices:
            yield "not-one-of-the-choices"


class TestSchemaTable:
    def test_every_rule_flags_its_path(self):
        """A document generated from the table validates; breaking it at
        any rule (dropping a required key, a wrong type, a value below the
        bound or outside the allowed set) yields a violation naming that
        rule's path."""
        doc = _example(obs_snapshot.SCHEMA_TABLE)
        assert obs_snapshot.validate_snapshot(doc) == []
        sites = list(_rule_sites(obs_snapshot.SCHEMA_TABLE, doc))
        paths = {site[0] for site in sites}
        assert {"gates.k", "extra.serve.replay.steps",
                "extra.tuner.iteration_slack",
                "latency.histograms.e2e.buckets.k",
                "policy.decisions[0].kind"} <= paths
        missed = []
        for path, rule, container, key, required in sites:
            for bad in _breakages(rule, required):
                saved = container[key]
                if bad is _DROP:
                    del container[key]
                else:
                    container[key] = bad
                problems = obs_snapshot.validate_snapshot(doc)
                container[key] = saved
                if not any(f"'{path}'" in p for p in problems):
                    missed.append((path, bad, problems))
        assert not missed
        assert obs_snapshot.validate_snapshot(doc) == []

    def test_bucket_counts_must_sum_to_count(self):
        doc = _example(obs_snapshot.SCHEMA_TABLE)
        doc["latency"]["histograms"]["e2e"]["buckets"]["k2"] = 1
        assert obs_snapshot.validate_snapshot(doc) == [
            "latency.histograms.e2e: bucket counts sum to 2, count says 1"
        ]


class TestPolicySnapshotSection:
    """The optional ``policy`` section (PolicyController.snapshot)."""

    @staticmethod
    def _doc(policy):
        problem, config, result, h, tr, m = _profiled_run()
        doc = obs_snapshot.build_snapshot(
            problem.name, config.name, (10, 10, 10), result, h,
            gates={"converged": result.converged},
        )
        # inject after the build: build_snapshot asserts validity, and the
        # error paths below need invalid sections to reach the validator
        doc["policy"] = policy
        return doc

    @staticmethod
    def _policy():
        return {
            "name": "adaptive",
            "decisions": [
                {
                    "kind": "escalate",
                    "level": 1,
                    "to": "fp32",
                    "reason": "stall",
                    "iteration": 12,
                }
            ],
            "final_levels": [
                {"index": 0, "storage": "fp16"},
                {"index": 1, "storage": "fp32"},
            ],
            "escalations": 1,
            "demotions": 0,
            "rescales": 0,
        }

    def test_valid_policy_section(self):
        doc = self._doc(self._policy())
        assert obs_snapshot.validate_snapshot(doc) == []
        assert doc["policy"]["escalations"] == 1

    def test_absent_section_is_fine(self):
        problem, config, result, h, tr, m = _profiled_run()
        doc = obs_snapshot.build_snapshot(
            problem.name, config.name, (10, 10, 10), result, h,
            gates={"converged": result.converged},
        )
        assert "policy" not in doc
        assert obs_snapshot.validate_snapshot(doc) == []

    def test_missing_required_field(self):
        p = self._policy()
        del p["escalations"]
        problems = obs_snapshot.validate_snapshot(self._doc(p))
        assert any("policy.escalations" in m for m in problems)

    def test_wrong_counter_type_and_sign(self):
        p = self._policy()
        p["demotions"] = "two"
        problems = obs_snapshot.validate_snapshot(self._doc(p))
        assert any("policy.demotions" in m for m in problems)
        p = self._policy()
        p["rescales"] = -1
        problems = obs_snapshot.validate_snapshot(self._doc(p))
        assert any("policy.rescales" in m for m in problems)

    def test_unknown_decision_kind(self):
        p = self._policy()
        p["decisions"][0]["kind"] = "promote"
        problems = obs_snapshot.validate_snapshot(self._doc(p))
        assert any("kind" in m for m in problems)

    def test_bad_decision_level(self):
        p = self._policy()
        p["decisions"][0]["level"] = -3
        problems = obs_snapshot.validate_snapshot(self._doc(p))
        assert any("level" in m for m in problems)

    def test_bad_final_levels_entry(self):
        p = self._policy()
        p["final_levels"][0] = {"index": 0}
        problems = obs_snapshot.validate_snapshot(self._doc(p))
        assert any("final_levels" in m for m in problems)

    def test_controller_snapshot_is_schema_valid(self):
        from repro.policy import PolicyDecision, attach_policy
        from repro.precision import parse_config
        from repro.problems import build_problem

        prob = build_problem("laplace27", shape=(10, 10, 8), seed=0)
        import dataclasses

        from repro.mg import mg_setup

        h = mg_setup(
            prob.a,
            parse_config("K64P32D16-setup-scale+auto"),
            dataclasses.replace(prob.mg_options, keep_high=True),
        )
        c = attach_policy(h)
        c.apply(PolicyDecision(kind="escalate", level=0, to="fp32"))
        doc = self._doc(c.snapshot())
        assert obs_snapshot.validate_snapshot(doc) == []


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCLI:
    def test_solve_trace_writes_chrome_file(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = cli.main([
            "solve", "laplace27", "--shape", "8", "--maxiter", "50",
            "--trace", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        assert all(e["ph"] == "X" for e in doc["traceEvents"])
        assert "wrote trace" in capsys.readouterr().out
        # the scoped tracer was uninstalled again
        assert not obs_trace.enabled()

    def test_profile_writes_valid_snapshot(self, tmp_path, capsys):
        code = cli.main([
            "profile", "laplace27", "--shape", "8", "--maxiter", "50",
            "--snapshot-dir", str(tmp_path),
            "--trace", str(tmp_path / "trace.jsonl"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "kernel.spmv.calls" in out
        assert "vcycle" in out
        files = list(tmp_path.glob("BENCH_*.json"))
        assert len(files) == 1
        assert obs_snapshot.validate_file(str(files[0])) == []
        doc = json.loads(files[0].read_text())
        assert doc["kernels"]["stat"] == "median"
        assert doc["kernels"]["spmv_finest_s"] > 0
        spans = obs_export.load_jsonl(str(tmp_path / "trace.jsonl"))
        assert {"setup", "solve"} <= {s.name for s in spans}
        assert not obs_metrics.active()
