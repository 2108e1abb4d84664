"""Tests for matrix I/O and the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.sgdia import load_sgdia, save_sgdia, write_matrix_market

from tests.helpers import random_sgdia


class TestIO:
    @pytest.mark.parametrize("ncomp", [1, 3])
    def test_npz_roundtrip(self, tmp_path, ncomp):
        a = random_sgdia((4, 5, 3), "3d7", ncomp=ncomp, seed=ncomp)
        path = save_sgdia(tmp_path / "m.npz", a)
        back = load_sgdia(path)
        assert back.grid == a.grid
        assert back.stencil.offsets == a.stencil.offsets
        np.testing.assert_array_equal(back.data, a.data)

    def test_fp16_payload_roundtrip(self, tmp_path):
        a = random_sgdia((4, 4, 4), "3d27").astype("fp16")
        path = save_sgdia(tmp_path / "h.npz", a)
        back = load_sgdia(path)
        assert back.dtype == np.float16
        np.testing.assert_array_equal(back.data, a.data)

    def test_aos_layout_roundtrip(self, tmp_path):
        a = random_sgdia((4, 4, 4), "3d7").as_layout("aos")
        back = load_sgdia(save_sgdia(tmp_path / "a.npz", a))
        assert back.layout == "aos"
        np.testing.assert_array_equal(back.data, a.data)

    def test_matrix_market_export(self, tmp_path):
        import scipy.io as sio

        a = random_sgdia((4, 4, 4), "3d7", seed=2)
        path = write_matrix_market(tmp_path / "m.mtx", a)
        loaded = sio.mmread(str(path)).tocsr()
        diff = abs(loaded - a.to_csr())
        assert diff.max() < 1e-14

    def test_version_check(self, tmp_path):
        import json

        a = random_sgdia((3, 3, 3), "3d7")
        path = save_sgdia(tmp_path / "v.npz", a)
        # corrupt the version field
        with np.load(path) as npz:
            meta = json.loads(bytes(npz["meta"]).decode())
            meta["version"] = 99
            data, offsets = npz["data"], npz["offsets"]
        np.savez(
            path,
            data=data,
            offsets=offsets,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        )
        with pytest.raises(ValueError, match="version"):
            load_sgdia(path)

    def test_missing_file_raises_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            load_sgdia(tmp_path / "nope.npz")

    def test_truncated_file_raises_value_error(self, tmp_path):
        a = random_sgdia((4, 4, 4), "3d7")
        path = save_sgdia(tmp_path / "t.npz", a)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ValueError, match="corrupt or truncated"):
            load_sgdia(path)

    def test_garbage_file_raises_value_error(self, tmp_path):
        path = tmp_path / "g.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(ValueError, match="corrupt or truncated"):
            load_sgdia(path)


class TestStoredMatrixIO:
    """Spill-format round trips must be bit-exact: a restored hierarchy has
    to precondition identically to the one that was evicted."""

    @staticmethod
    def _make_stored(scaling="setup-then-scale"):
        from repro.mg import mg_setup
        from repro.precision import PrecisionConfig

        a = random_sgdia((6, 5, 4), "3d27", spd=True, seed=7)
        mode = "always" if scaling != "none" else "auto"
        cfg = PrecisionConfig(
            "fp64", "fp32", "fp16", scaling=scaling, scale_mode=mode
        )
        return mg_setup(a, cfg).levels[0].stored

    def test_fp16_scaled_roundtrip_bit_exact(self, tmp_path):
        from repro.sgdia import load_stored, save_stored

        stored = self._make_stored()
        assert stored.matrix.data.dtype == np.float16
        assert stored.is_scaled
        back = load_stored(save_stored(tmp_path / "s.npz", stored))
        np.testing.assert_array_equal(back.matrix.data, stored.matrix.data)
        np.testing.assert_array_equal(
            back.scaling.sqrt_q, stored.scaling.sqrt_q
        )
        assert back.scaling.g == stored.scaling.g
        assert back.storage.name == stored.storage.name
        assert back.compute.name == stored.compute.name
        assert back.matrix.layout == stored.matrix.layout

    def test_unscaled_roundtrip(self, tmp_path):
        from repro.sgdia import load_stored, save_stored

        stored = self._make_stored(scaling="none")
        back = load_stored(save_stored(tmp_path / "u.npz", stored))
        assert not back.is_scaled
        np.testing.assert_array_equal(back.matrix.data, stored.matrix.data)

    def test_roundtrip_preserves_matvec_bitwise(self, tmp_path):
        from repro.sgdia import load_stored, save_stored

        stored = self._make_stored()
        back = load_stored(save_stored(tmp_path / "m.npz", stored))
        rng = np.random.default_rng(3)
        x = rng.standard_normal(stored.grid.field_shape)
        np.testing.assert_array_equal(back.matvec(x), stored.matvec(x))

    def test_truncated_stored_raises_value_error(self, tmp_path):
        from repro.sgdia import load_stored, save_stored

        stored = self._make_stored()
        path = save_stored(tmp_path / "t.npz", stored)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 3])
        with pytest.raises(ValueError, match="corrupt or truncated"):
            load_stored(path)

    def test_missing_stored_raises_value_error(self, tmp_path):
        from repro.sgdia import load_stored

        with pytest.raises(ValueError, match="does not exist"):
            load_stored(tmp_path / "absent.npz")


class TestBF16StoredIO:
    """The third precision tier must survive the spill format: BF16
    payloads (quantized float32 arrays) round-trip bit-exactly and keep
    their storage-format identity."""

    @staticmethod
    def _make_bf16_stored():
        from repro.mg import mg_setup
        from repro.precision import PrecisionConfig

        a = random_sgdia((6, 5, 4), "3d27", spd=True, seed=7)
        cfg = PrecisionConfig(
            "fp64", "fp32", "bf16", scaling="setup-then-scale",
            scale_mode="always",
        )
        return mg_setup(a, cfg).levels[0].stored

    def test_bf16_roundtrip_bit_exact(self, tmp_path):
        from repro.sgdia import load_stored, save_stored

        stored = self._make_bf16_stored()
        assert stored.storage.name == "bf16"
        back = load_stored(save_stored(tmp_path / "b.npz", stored))
        assert back.storage.name == "bf16"
        np.testing.assert_array_equal(back.matrix.data, stored.matrix.data)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(stored.grid.field_shape)
        np.testing.assert_array_equal(back.matvec(x), stored.matvec(x))

    def test_bf16_tier_via_bf16_start_level(self, tmp_path):
        from repro.mg import mg_setup
        from repro.precision import parse_config
        from repro.sgdia import load_stored, save_stored

        a = random_sgdia((12, 12, 8), "3d27", spd=True, seed=11)
        cfg = parse_config("K64P32D16-setup-scale+bf161")
        h = mg_setup(a, cfg)
        assert h.n_levels >= 2
        assert h.levels[0].stored.storage.name == "fp16"
        assert h.levels[1].stored.storage.name == "bf16"
        back = load_stored(
            save_stored(tmp_path / "l1.npz", h.levels[1].stored)
        )
        assert back.storage.name == "bf16"
        np.testing.assert_array_equal(
            back.matrix.data, h.levels[1].stored.matrix.data
        )

    def test_corrupt_bf16_spill_classified(self, tmp_path):
        from repro.sgdia import load_stored, save_stored

        stored = self._make_bf16_stored()
        path = save_stored(tmp_path / "c.npz", stored)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 3])
        with pytest.raises(ValueError, match="corrupt or truncated"):
            load_stored(path)

    def test_bf16_hierarchy_cache_spill_roundtrip(self, tmp_path):
        from repro.precision import parse_config
        from repro.problems import build_problem, consistent_rhs
        from repro.serve.cache import HierarchyCache

        prob = build_problem("laplace27", shape=(10, 10, 8), seed=0)
        cfg = parse_config("K64P32D16-setup-scale+bf161")
        cache = HierarchyCache(max_bytes=1, spill_dir=tmp_path)
        h1, _key, _src = cache.get_or_build(prob.a, cfg, prob.mg_options)
        other = build_problem("laplace27", shape=(8, 8, 6), seed=9)
        cache.get_or_build(other.a, cfg, other.mg_options)
        assert cache.stats.spill_writes >= 1
        h2, _, src = cache.get_or_build(prob.a, cfg, prob.mg_options)
        assert src == "disk"
        assert h2.levels[1].stored.storage.name == "bf16"
        r = consistent_rhs(prob.a, np.random.default_rng(0))
        np.testing.assert_array_equal(h1.precondition(r), h2.precondition(r))


class TestCLI:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["solve", "laplace27", "--shape", "8"])
        assert args.command == "solve" and args.shape == (8, 8, 8)

    def test_shape_parsing(self):
        parser = build_parser()
        args = parser.parse_args(["solve", "rhd", "--shape", "8x6x4"])
        assert args.shape == (8, 6, 4)

    def test_bad_shape(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["solve", "rhd", "--shape", "0x2x2"])

    def test_bench_takes_krylov_only(self):
        parser = build_parser()
        assert parser.parse_args(["bench"]).shape is None
        for removed in ("--kernels", "--krylov", "--problems"):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(["bench", removed])
            assert exc.value.code == 2

    def test_solve_command(self, capsys):
        rc = main(["solve", "laplace27", "--shape", "12", "--maxiter", "50"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "converged" in out

    def test_solve_full64(self, capsys):
        rc = main(
            ["solve", "laplace27", "--shape", "12", "--config", "Full64"]
        )
        assert rc == 0
        assert "Full64" in capsys.readouterr().out

    def test_solve_with_overrides(self, capsys):
        rc = main(
            [
                "solve", "laplace27", "--shape", "12",
                "--smoother", "jacobi", "--cycle", "w",
                "--shift-levid", "1", "--maxiter", "100",
            ]
        )
        assert rc == 0

    def test_solve_policy_flag_parses(self):
        parser = build_parser()
        args = parser.parse_args(
            ["solve", "laplace27", "--policy", "adaptive"]
        )
        assert args.policy == "adaptive"
        with pytest.raises(SystemExit):
            parser.parse_args(["solve", "laplace27", "--policy", "bogus"])

    def test_solve_adaptive_policy_command(self, capsys):
        rc = main(
            [
                "solve", "laplace27", "--shape", "12",
                "--policy", "adaptive", "--maxiter", "50",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "converged" in out and "policy" in out

    def test_tune_parser_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["tune"])
        assert args.command == "tune"
        assert args.problem == "laplace27e8"
        assert args.config == "K64P32D16-setup-scale"
        assert not args.fast
        args = parser.parse_args(
            ["tune", "--fast", "--config", "K64P32D16-none",
             "--shape", "10x10x8"]
        )
        assert args.fast and args.shape == (10, 10, 8)

    def test_tune_command_fast(self, tmp_path, capsys):
        rc = main(["tune", "--fast", "--snapshot-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "gate static_bit_identical: PASS" in out
        assert (tmp_path / "BENCH_policy.json").exists()

    def test_ablation_command(self, capsys):
        rc = main(["ablation", "laplace27e8", "--shape", "10", "--maxiter", "60"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "K64P32D16-none" in out and "diverged" in out
        assert "K64P32D16-setup-scale" in out

    def test_table2_command(self, capsys):
        rc = main(["table2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sgdia" in out and "4.00" in out

    def test_table3_command(self, capsys):
        rc = main(["table3", "--shape", "8", "--no-cond"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "weather" in out and "solid-3d" in out

    def test_problems_command(self, capsys):
        rc = main(["problems"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "rhd-3t" in out and "gmres" in out

    def test_export_npz(self, tmp_path, capsys):
        out_file = tmp_path / "m.npz"
        rc = main(["export", "laplace27", str(out_file), "--shape", "6"])
        assert rc == 0 and out_file.exists()
        a = load_sgdia(out_file)
        assert a.grid.shape == (6, 6, 6)

    def test_export_mtx(self, tmp_path, capsys):
        out_file = tmp_path / "m.mtx"
        rc = main(["export", "rhd", str(out_file), "--shape", "6"])
        assert rc == 0 and out_file.exists()

    def test_unknown_problem_raises(self):
        with pytest.raises(ValueError):
            main(["solve", "nonexistent", "--shape", "8"])


class TestBenchGates:
    """The five bench commands end alike: they write the snapshot, print
    each gate, and exit 1 if and only if a gate is false."""

    #: name -> (command line, runner module, runner, formatter, gates)
    BENCHES = {
        "serve": (
            ["serve", "--bench"], "repro.serve", "run_serve_bench", None,
            ("counters_match_schedule",),
        ),
        "serve-mp": (
            ["serve", "--processes", "2", "--bench"], "repro.serve.procpool",
            "run_serve_mp_bench", None,
            ("bit_identical_to_thread", "scaling_ok", "latency_ok"),
        ),
        "bench": (
            ["bench"], "repro.perf.krylov_bench", "run_krylov_bench",
            "format_krylov_results",
            ("gmres_ir_tolerance", "fgmres_apps_not_worse"),
        ),
        "tune": (
            ["tune"], "repro.policy", "run_tuner", "format_tuner_report",
            ("static_bit_identical", "replay_within_tolerance"),
        ),
    }

    @pytest.fixture(scope="class")
    def base_doc(self):
        from repro.mg import mg_setup
        from repro.observability.snapshot import build_snapshot
        from repro.precision import parse_config
        from repro.problems import build_problem
        from repro.solvers import solve

        p = build_problem("laplace27", shape=(8, 8, 8))
        h = mg_setup(p.a, parse_config("K64P32D16-setup-scale"), p.mg_options)
        result = solve("cg", p.a, p.b, preconditioner=h.precondition,
                       rtol=1e-8, maxiter=50)
        return build_snapshot(p.name, "gates-test", (8, 8, 8), result, h,
                              gates={})

    @pytest.mark.parametrize(
        "bench,failing",
        [
            (bench, failing)
            for bench, spec in BENCHES.items()
            for failing in (None, *spec[-1])
        ],
    )
    def test_exit_code_follows_gates(self, bench, failing, base_doc,
                                     tmp_path, monkeypatch, capsys):
        import copy
        import importlib
        import json

        argv, module, runner, formatter, names = self.BENCHES[bench]
        doc = copy.deepcopy(base_doc)
        doc["gates"] = {name: name != failing for name in names}
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, runner, lambda **kwargs: doc)
        if formatter is not None:
            monkeypatch.setattr(mod, formatter, lambda doc: "summary")
        rc = main([*argv, "--snapshot-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == (0 if failing is None else 1)
        for name in names:
            verdict = "FAIL" if name == failing else "PASS"
            assert f"gate {name}: {verdict}" in out
        written = json.loads((tmp_path / "BENCH_gates-test.json").read_text())
        assert written["gates"] == doc["gates"]

    @pytest.mark.parametrize("maxiter,code", [(1, 1), (50, 0)])
    def test_profile_gate_is_convergence(self, maxiter, code, tmp_path,
                                         capsys):
        import json

        rc = main(["profile", "laplace27", "--shape", "8",
                   "--maxiter", str(maxiter), "--snapshot-dir", str(tmp_path)])
        assert rc == code
        verdict = "PASS" if code == 0 else "FAIL"
        assert f"gate converged: {verdict}" in capsys.readouterr().out
        (path,) = tmp_path.glob("BENCH_*.json")
        assert json.loads(path.read_text())["gates"] == {
            "converged": code == 0
        }


class TestResilienceCLI:
    def test_health_command_clean(self, capsys):
        rc = main(["health", "laplace27", "--shape", "12"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "hierarchy health" in out
        assert "verdict" in out

    def test_health_command_full64(self, capsys):
        rc = main(["health", "laplace27", "--shape", "12", "--config", "Full64"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fp64" in out

    def test_health_with_shift_levid(self, capsys):
        rc = main(
            ["health", "laplace27", "--shape", "12", "--shift-levid", "1"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "fp32" in out  # shifted levels report compute-precision storage

    def test_solve_robust_clean(self, capsys):
        rc = main(
            ["solve", "laplace27", "--shape", "12", "--robust",
             "--maxiter", "100"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "resilience: converged" in out
        assert "0 escalation(s)" in out

    def test_solve_robust_escalates_on_unstable_config(self, capsys):
        """K64P32D16-none on the 1e8-contrast problem overflows; the guard
        climbs the ladder instead of returning the plain failure exit."""
        rc = main(
            ["solve", "laplace27e8", "--shape", "10", "--robust",
             "--config", "K64P32D16-none", "--maxiter", "100"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "escalate:" in out
        assert "resilience: converged" in out

    def test_solve_robust_budget_flag(self, capsys):
        rc = main(
            ["solve", "laplace27e8", "--shape", "10", "--robust",
             "--config", "K64P32D16-none", "--max-escalations", "0",
             "--maxiter", "60"]
        )
        out = capsys.readouterr().out
        assert rc == 1  # no budget to climb, the broken config is final
        assert "FAILED" in out

    def test_ablation_exit_nonzero_when_nothing_converges(self, capsys):
        # 2 iterations are not enough for any configuration
        rc = main(
            ["ablation", "laplace27", "--shape", "10", "--maxiter", "2"]
        )
        assert rc == 1

    def test_ablation_exit_zero_when_any_converges(self, capsys):
        rc = main(
            ["ablation", "laplace27e8", "--shape", "10", "--maxiter", "60"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "diverged" in out  # some configs fail, but not all
