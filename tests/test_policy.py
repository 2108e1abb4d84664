"""Tests for repro.policy: the adaptive precision policy engine.

The load-bearing contracts:

- **Bit-identity**: the default :class:`StaticPolicy` never changes a
  solve — an attached controller under it produces bit-for-bit the same
  iterate, history, and iteration count as no controller at all, over
  the existing problem generators.
- **Recovery**: on seeded problems where a static all-FP16 hierarchy
  stalls or diverges, :class:`AdaptivePolicy` recovers convergence with
  *deterministic* decisions (preflight escalation for setup-visible
  damage, stall escalation + flexible-CG restart for runtime damage).
- **Bit-exact demotion**: the controller's payload memoization returns
  the original setup-time objects on demotion/restore — never a
  re-truncation.
- **Tuner**: ``derive_static_config`` encodes per-level storage maps
  into the ``+s<L>/+f<L>/+bf16<L>`` grammar, and ``run_tuner``'s replay
  and parity gates hold on the paper's hazard generator.
"""

import dataclasses

import numpy as np
import pytest

from repro.mg import mg_setup
from repro.observability import events as _events
from repro.observability import metrics as _metrics
from repro.observability.snapshot import validate_snapshot, write_snapshot
from repro.policy import (
    AdaptivePolicy,
    LevelMapPolicy,
    PolicyController,
    PolicyDecision,
    StaticPolicy,
    attach_policy,
    derive_static_config,
    make_policy,
    run_tuner,
)
from repro.precision import K64P32D16_SETUP_SCALE, PrecisionConfig, parse_config
from repro.problems import build_problem
from repro.resilience import FaultInjector
from repro.serve import SolverSession
from repro.sgdia import SGDIAMatrix
from repro.solvers import solve


@pytest.fixture(scope="module")
def lap():
    return build_problem("laplace27", shape=(12, 12, 8), seed=0)


def _keep_high(options):
    return dataclasses.replace(options, keep_high=True)


def _solve_with(problem, hierarchy, controller=None, maxiter=300):
    return solve(
        problem.solver,
        problem.a,
        problem.b,
        preconditioner=hierarchy.precondition,
        rtol=problem.rtol,
        maxiter=maxiter,
        policy_controller=controller,
    )


# ----------------------------------------------------------------------
# decisions and engines
# ----------------------------------------------------------------------

class TestPolicyDecision:
    def test_to_dict(self):
        d = PolicyDecision(
            kind="escalate", level=1, to="fp32", reason="stall", iteration=7
        )
        assert d.to_dict() == {
            "kind": "escalate",
            "level": 1,
            "to": "fp32",
            "reason": "stall",
            "iteration": 7,
        }

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            PolicyDecision(kind="promote", level=0)

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError, match="level"):
            PolicyDecision(kind="escalate", level=-1, to="fp32")


class TestMakePolicy:
    def test_names(self):
        assert isinstance(make_policy("static"), StaticPolicy)
        assert isinstance(make_policy("adaptive"), AdaptivePolicy)
        assert isinstance(make_policy(None), StaticPolicy)

    def test_instance_passthrough(self):
        p = AdaptivePolicy(window=3)
        assert make_policy(p) is p

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("aggressive")

    def test_adaptive_validation(self):
        with pytest.raises(ValueError):
            AdaptivePolicy(window=0)
        with pytest.raises(ValueError):
            AdaptivePolicy(hysteresis=0)


# ----------------------------------------------------------------------
# the tentpole gate: StaticPolicy is bit-identical to no policy
# ----------------------------------------------------------------------

class TestStaticBitIdentity:
    @pytest.mark.parametrize(
        "name,shape",
        [
            ("laplace27", (12, 12, 8)),
            ("laplace27e8", (10, 10, 8)),
            ("weather", (10, 10, 8)),
            ("rhd", (12, 12, 8)),
        ],
    )
    def test_parity_over_generators(self, name, shape):
        prob = build_problem(name, shape=shape, seed=0)
        cfg = K64P32D16_SETUP_SCALE

        h_bare = mg_setup(prob.a, cfg, prob.mg_options)
        bare = _solve_with(prob, h_bare)

        h_pol = mg_setup(prob.a, cfg, prob.mg_options)
        controller = attach_policy(h_pol, StaticPolicy())
        under = _solve_with(prob, h_pol, controller)

        assert under.status == bare.status
        assert under.iterations == bare.iterations
        assert np.array_equal(under.x, bare.x)
        assert under.history.norms == bare.history.norms
        assert controller.decisions == []
        assert under.detail["policy"]["name"] == "static"


# ----------------------------------------------------------------------
# adaptive recovery
# ----------------------------------------------------------------------

class TestPreflightRecovery:
    """Setup-visible damage (the Section-4.3 hazard, unscaled) escalates
    at attach time, before the first iteration."""

    @pytest.fixture(scope="class")
    def hazard(self):
        return build_problem("laplace27e8", shape=(10, 10, 8), seed=0)

    def test_static_fails_adaptive_recovers(self, hazard):
        cfg = PrecisionConfig().with_(scaling="none")

        h_s = mg_setup(hazard.a, cfg, hazard.mg_options)
        static = _solve_with(hazard, h_s, maxiter=150)
        assert static.status != "converged"

        h_a = mg_setup(
            hazard.a, cfg.with_(policy="adaptive"), _keep_high(hazard.mg_options)
        )
        c = attach_policy(h_a)
        adaptive = _solve_with(hazard, h_a, c, maxiter=150)
        assert adaptive.status == "converged"
        assert c.escalations >= 1
        assert all(d.reason == "preflight" for d in c.decisions)

    def test_preflight_decisions_deterministic(self, hazard):
        cfg = PrecisionConfig().with_(scaling="none", policy="adaptive")
        runs = []
        for _ in range(2):
            h = mg_setup(hazard.a, cfg, _keep_high(hazard.mg_options))
            c = attach_policy(h)
            r = _solve_with(hazard, h, c, maxiter=150)
            runs.append((r.iterations, [d.to_dict() for d in c.decisions], r.x))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]
        assert np.array_equal(runs[0][2], runs[1][2])


class TestStallRecovery:
    """Runtime damage the setup telemetry cannot see: the stall detector
    must find the broken level, escalate it, and the flexible-CG restart
    must let the fixed preconditioner actually pay off."""

    def _faulted(self, prob, policy):
        cfg = K64P32D16_SETUP_SCALE.with_(policy=policy)
        h = mg_setup(prob.a, cfg, _keep_high(prob.mg_options))
        FaultInjector(seed=0).inject_perturbation(
            h, level=0, count=256, factor=32.0
        )
        return h

    def test_static_stalls_adaptive_recovers(self, lap):
        h_s = self._faulted(lap, "static")
        static = _solve_with(lap, h_s)
        assert static.status == "maxiter"

        h_a = self._faulted(lap, "adaptive")
        c = attach_policy(h_a)
        adaptive = _solve_with(lap, h_a, c)
        assert adaptive.status == "converged"
        assert adaptive.iterations < 300
        assert c.escalations >= 1
        # the damaged level ends escalated
        assert h_a.levels[0].stored.storage.name == "fp32"
        kinds = {d.kind for d in c.decisions}
        assert "escalate" in kinds

    def test_stall_decisions_deterministic(self, lap):
        runs = []
        for _ in range(2):
            h = self._faulted(lap, "adaptive")
            c = attach_policy(h)
            r = _solve_with(lap, h, c)
            runs.append((r.iterations, [d.to_dict() for d in c.decisions], r.x))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]
        assert np.array_equal(runs[0][2], runs[1][2])

    def test_demoted_probe_is_blacklisted(self, lap):
        """One probe per level per solve: decisions never oscillate."""
        h = self._faulted(lap, "adaptive")
        c = attach_policy(h)
        _solve_with(lap, h, c)
        demoted = [d.level for d in c.decisions if d.kind == "demote"]
        for lev in demoted:
            later = [
                d
                for d in c.decisions
                if d.level == lev
                and d.kind == "escalate"
                and d.iteration
                > max(
                    x.iteration for x in c.decisions if x.kind == "demote"
                    and x.level == lev
                )
            ]
            assert later == []


# ----------------------------------------------------------------------
# controller mechanics
# ----------------------------------------------------------------------

class TestController:
    @pytest.fixture
    def hierarchy(self, lap):
        return mg_setup(
            lap.a,
            K64P32D16_SETUP_SCALE.with_(policy="adaptive"),
            _keep_high(lap.mg_options),
        )

    def test_demote_restores_original_objects(self, hierarchy):
        c = PolicyController(hierarchy, AdaptivePolicy()).attach()
        lev = hierarchy.levels[0]
        orig_stored, orig_smoother = lev.stored, lev.smoother
        c.apply(PolicyDecision(kind="escalate", level=0, to="fp32"))
        assert lev.stored is not orig_stored
        assert lev.stored.storage.name == "fp32"
        c.apply(PolicyDecision(kind="demote", level=0, to="fp16"))
        assert lev.stored is orig_stored
        assert lev.smoother is orig_smoother

    def test_materialization_memoized(self, hierarchy):
        c = PolicyController(hierarchy, AdaptivePolicy()).attach()
        c.apply(PolicyDecision(kind="escalate", level=0, to="fp32"))
        first = hierarchy.levels[0].stored
        c.apply(PolicyDecision(kind="demote", level=0, to="fp16"))
        c.apply(PolicyDecision(kind="escalate", level=0, to="fp32"))
        assert hierarchy.levels[0].stored is first

    def test_restore_rebinds_everything(self, hierarchy):
        c = PolicyController(hierarchy, AdaptivePolicy()).attach()
        originals = [(lev.stored, lev.smoother) for lev in hierarchy.levels]
        c.apply(PolicyDecision(kind="escalate", level=0, to="fp32"))
        c.apply(PolicyDecision(kind="escalate", level=1, to="bf16"))
        c.restore()
        for lev, (stored, smoother) in zip(hierarchy.levels, originals):
            assert lev.stored is stored
            assert lev.smoother is smoother

    def test_escalated_solve_matches_statically_escalated(self, lap):
        """A runtime escalation must produce the same preconditioner a
        static +s<L> config builds at setup (from the same FP64 chain)."""
        cfg = K64P32D16_SETUP_SCALE
        h = mg_setup(
            lap.a, cfg.with_(policy="adaptive"), _keep_high(lap.mg_options)
        )
        c = attach_policy(h)
        c.apply(PolicyDecision(kind="escalate", level=0, to="fp32"))
        runtime = _solve_with(lap, h)

        h_ref = mg_setup(
            lap.a, cfg.with_(shift_levid=0), _keep_high(lap.mg_options)
        )
        ref = _solve_with(lap, h_ref)
        assert runtime.iterations == ref.iterations
        assert np.array_equal(runtime.x, ref.x)

    def test_bad_decisions_rejected(self, hierarchy):
        c = PolicyController(hierarchy, AdaptivePolicy()).attach()
        with pytest.raises(ValueError, match="unknown level"):
            c.apply(PolicyDecision(kind="escalate", level=99, to="fp32"))
        with pytest.raises(ValueError, match="target format"):
            c.apply(PolicyDecision(kind="escalate", level=0))

    def test_decisions_emit_events_and_metrics(self, hierarchy):
        c = PolicyController(hierarchy, AdaptivePolicy()).attach()
        with _events.capturing() as journal:
            with _metrics.collecting() as metrics:
                c.apply(PolicyDecision(kind="escalate", level=0, to="fp32"))
        kinds = [e.kind for e in journal.events()]
        assert "policy.escalate" in kinds
        assert metrics.totals().get("policy.escalate") == 1

    def test_snapshot_section_schema(self, hierarchy):
        c = PolicyController(hierarchy, AdaptivePolicy()).attach()
        c.apply(PolicyDecision(kind="escalate", level=0, to="fp32"))
        snap = c.snapshot()
        assert snap["name"] == "adaptive"
        assert snap["escalations"] == 1
        assert snap["final_levels"][0]["storage"] == "fp32"
        assert snap["decisions"][0]["kind"] == "escalate"

    def test_level_map_policy_pins_levels(self, lap):
        h = mg_setup(
            lap.a,
            K64P32D16_SETUP_SCALE.with_(policy="adaptive"),
            _keep_high(lap.mg_options),
        )
        c = attach_policy(h, LevelMapPolicy({0: "fp32"}))
        assert h.levels[0].stored.storage.name == "fp32"
        assert h.levels[1].stored.storage.name == "fp16"
        r = _solve_with(lap, h, c)
        assert r.status == "converged"


class TestRescale:
    def test_rescale_rebuilds_finest_from_new_operator(self, lap):
        h = mg_setup(
            lap.a,
            K64P32D16_SETUP_SCALE.with_(policy="adaptive"),
            _keep_high(lap.mg_options),
        )
        c = attach_policy(h)
        a64 = lap.a.astype("fp64")
        drifted = SGDIAMatrix(
            a64.grid, a64.stencil, a64.data * 1.05, layout=a64.layout
        )
        applied = c.on_drift(0.05, drifted)
        assert [d.kind for d in applied] == ["rescale"]
        assert c.rescales == 1
        r = solve(
            lap.solver,
            drifted,
            lap.b,
            preconditioner=h.precondition,
            rtol=lap.rtol,
            maxiter=300,
        )
        assert r.status == "converged"

    def test_small_drift_no_rescale(self, lap):
        h = mg_setup(
            lap.a,
            K64P32D16_SETUP_SCALE.with_(policy="adaptive"),
            _keep_high(lap.mg_options),
        )
        c = attach_policy(h)
        assert c.on_drift(1e-4, None) == []
        assert c.rescales == 0


# ----------------------------------------------------------------------
# serving session integration
# ----------------------------------------------------------------------

class TestSessionPolicy:
    def test_static_session_has_no_controller(self, lap):
        sess = SolverSession(
            lap.a, config=K64P32D16_SETUP_SCALE, options=lap.mg_options,
            rtol=lap.rtol,
        )
        sess.solve(lap.b)
        assert sess._policy_controller is None
        assert "policy" not in sess.stats()

    def test_adaptive_session_rescales_on_drift(self, lap):
        cfg = parse_config("K64P32D16-setup-scale+auto")
        sess = SolverSession(
            lap.a, config=cfg, options=_keep_high(lap.mg_options),
            rtol=lap.rtol, drift_threshold=0.1,
        )
        r1 = sess.solve(lap.b)
        assert r1.status == "converged"
        assert r1.detail["policy"]["name"] == "adaptive"
        a64 = lap.a.astype("fp64")
        drifted = SGDIAMatrix(
            a64.grid, a64.stencil, a64.data * 1.05, layout=a64.layout
        )
        assert sess.update_operator(drifted) == "reuse"
        assert sess._policy_controller.rescales == 1
        r2 = sess.solve(lap.b, warm_start=False)
        assert r2.status == "converged"
        assert sess.stats()["policy"]["rescales"] == 1

    def test_rebuild_drops_controller(self, lap):
        cfg = parse_config("K64P32D16-setup-scale+auto")
        sess = SolverSession(
            lap.a, config=cfg, options=_keep_high(lap.mg_options),
            rtol=lap.rtol, drift_threshold=1e-6,
        )
        sess.solve(lap.b)
        first = sess._policy_controller
        assert first is not None
        a64 = lap.a.astype("fp64")
        drifted = SGDIAMatrix(
            a64.grid, a64.stencil, a64.data * 1.5, layout=a64.layout
        )
        assert sess.update_operator(drifted) == "rebuild"
        assert sess._policy_controller is None
        sess.solve(lap.b, warm_start=False)
        assert sess._policy_controller is not None
        assert sess._policy_controller is not first


# ----------------------------------------------------------------------
# tuner
# ----------------------------------------------------------------------

class TestDeriveStaticConfig:
    BASE = K64P32D16_SETUP_SCALE

    @pytest.mark.parametrize(
        "levels,expect_exact",
        [
            (["fp16", "fp16", "fp16"], True),
            (["fp16", "fp16", "fp32"], True),
            (["fp32", "fp32", "fp32"], True),
            (["fp32", "fp16", "fp32"], True),
            (["fp16", "bf16", "fp32"], True),
            (["fp16", "bf16", "bf16"], True),
            (["fp32", "fp16", "bf16", "fp32"], True),
            # isolated compute level between half levels: not expressible
            (["fp16", "fp32", "fp16"], False),
        ],
    )
    def test_encodings(self, levels, expect_exact):
        cfg, exact = derive_static_config(self.BASE, levels)
        assert exact is expect_exact
        got = [
            cfg.storage_format_for_level(i).name for i in range(len(levels))
        ]
        if expect_exact:
            assert got == levels
        else:
            # conservative: never a half tier where the policy went compute
            for want, have in zip(levels, got):
                if want == "fp32":
                    assert have == "fp32"

    def test_emitted_config_is_static(self):
        cfg, _ = derive_static_config(
            self.BASE.with_(policy="adaptive"), ["fp32", "fp16"]
        )
        assert cfg.policy == "static"
        assert parse_config(cfg.name) == cfg


class TestRunTuner:
    def test_gates_hold_on_hazard_problem(self, tmp_path):
        doc = run_tuner(
            "laplace27e8",
            shape=(10, 10, 8),
            config=PrecisionConfig().with_(scaling="none"),
            fast=True,
        )
        report = doc["extra"]["tuner"]
        assert doc["gates"]["static_bit_identical"]
        assert doc["gates"]["replay_within_tolerance"]
        # the hazard run must actually adapt and the replay must converge
        assert report["adaptive"]["escalations"] >= 1
        assert report["replay"]["status"] == "converged"
        assert report["emitted_config"] != report["base_config"]

        import json

        path = write_snapshot(doc, str(tmp_path))
        assert path == str(tmp_path / "BENCH_policy.json")
        on_disk = json.loads((tmp_path / "BENCH_policy.json").read_text())
        assert validate_snapshot(on_disk) == []
        assert on_disk["policy"]["escalations"] >= 1
        assert on_disk["extra"]["tuner"]["emitted_config"] == report[
            "emitted_config"
        ]

    def test_already_optimal_static_emits_base(self):
        doc = run_tuner("laplace27e8", shape=(10, 10, 8), fast=True)
        report = doc["extra"]["tuner"]
        assert doc["gates"]["static_bit_identical"]
        assert report["adaptive"]["decisions"] == 0
        assert report["emitted_config"] == report["base_config"]
