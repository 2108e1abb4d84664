"""Guideline 3.2 / Section 9 — structured vs unstructured FP16 benefit.

Takes the same operators, stores them both ways, and compares: (a) the
measured bytes-per-nonzero against Table 2's model; (b) the achievable
memory-volume reduction from FP16 — ~2x for SG-DIA vs <1.4x for CSR once
the integer indices are charged; (c) the measured NumPy SpMV cost of the
indirect CSR gather vs the index-free SG-DIA shifted adds.
"""

import numpy as np
import pytest

from repro.kernels import spmv_plain
from repro.perf import bytes_per_nonzero, measure
from repro.unstructured import PrecisionCSR

from conftest import bench_problem, print_header


def _collect():
    rows = []
    for name in ("rhd", "weather", "laplace27"):
        a = bench_problem(name).a
        a32 = type(a)(a.grid, a.stencil, a.data.astype(np.float32))
        sg_fp32 = a.nnz_stored * 4
        sg_fp16 = a.nnz_stored * 2
        pc64 = PrecisionCSR.from_sgdia(a, "fp32", index_dtype=np.int32)
        pc16 = pc64.astype("fp16")
        x = np.random.default_rng(0).standard_normal(
            a.grid.field_shape
        ).astype(np.float32)
        xf = x.reshape(a.grid.ndof)
        t_sg = measure(lambda: spmv_plain(a32, x, compute_dtype=np.float32))
        t_csr = measure(lambda: pc64.matvec(xf, compute_dtype=np.float32))
        rows.append(
            {
                "problem": name,
                "pattern": a.stencil.name,
                "sg_reduction": sg_fp32 / sg_fp16,
                "csr_reduction": pc64.total_nbytes() / pc16.total_nbytes(),
                "csr_bpn_fp16": pc16.bytes_per_nonzero(),
                "delta": (pc64.nrows + 1) / pc64.nnz,
                "t_sgdia": t_sg,
                "t_csr": t_csr,
            }
        )
    return rows


def test_guideline32_structured_vs_csr(once):
    rows = once(_collect)
    print_header("Guideline 3.2: FP32->FP16 memory reduction by format")
    print(
        f"{'problem':10s} {'pattern':8s} {'SG-DIA':>8s} {'CSR-int32':>10s} "
        f"{'CSR B/nnz@16':>13s} {'SpMV sgdia':>11s} {'SpMV csr':>9s}"
    )
    for r in rows:
        print(
            f"{r['problem']:10s} {r['pattern']:8s} {r['sg_reduction']:7.2f}x "
            f"{r['csr_reduction']:9.2f}x {r['csr_bpn_fp16']:13.2f} "
            f"{1e3 * r['t_sgdia']:10.2f}ms {1e3 * r['t_csr']:8.2f}ms"
        )
    for r in rows:
        # SG-DIA gets the full 2x; CSR is capped by its indices
        assert r["sg_reduction"] == 2.0
        assert r["csr_reduction"] < 1.4
        # measured bytes/nonzero matches the Table-2 formula at this delta
        assert r["csr_bpn_fp16"] == pytest.approx(
            bytes_per_nonzero("csr32", "fp16", delta=r["delta"]), rel=1e-9
        )
        # the index-free structured kernel is faster than the CSR gather
        # (indirect access + reduction), even in pure NumPy
        assert r["t_sgdia"] < r["t_csr"]
