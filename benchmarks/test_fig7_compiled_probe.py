"""Figure 7 beside the model: the compiled kernels' FP16 gain at 128^3.

The paper's "opt" bars reach the memory-volume bound ("Max") once the SOA
kernels stream at the byte bound.  This probe measures the compiled ``c``
backend on laplace27 128^3 (the paper's smallest size): the raw SpMV and
one forward SymGS sweep, FP32 against FP16 storage, both computing in
FP32.  Each round times every kernel once, in an order rotated every
round, after a warm-up round; the reported time is the median over
``ROUNDS`` rounds, so a load spike on a shared host slows one round of
every kind rather than one kind.

It prints each kernel's coefficient bandwidth (payload bytes read per
second: all 27 planes for the SpMV, the 26 off-diagonal ones for the
sweep) and the FP32/FP16 time ratio, against the ROADMAP targets of a
ratio of at least 1.6x with FP32 streaming at least 9 GB/s.  It asserts
only that FP16 beats FP32 on both kernels by the bounds below.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
import pytest

from repro.grid import StructuredGrid, stencil as make_stencil
from repro.kernels import compute_diag_inv, get_backend, plan_for
from repro.sgdia import SGDIAMatrix

from conftest import print_header

SHAPE = (128, 128, 128)
ROUNDS = 9
#: Lower bounds on the FP32/FP16 time ratios, set below the smallest of
#: 10 recorded runs on a 2-core shared AVX-512 VM (SpMV 1.39-1.95x, sweep
#: 1.10-1.39x; EXPERIMENTS.md, "Padded SG-DIA planes").
MIN_RATIO = {"spmv": 1.2, "sweep": 1.05}
#: The ROADMAP gate the probe reports against (not asserted).
TARGET_RATIO, TARGET_FP32_GBPS = 1.6, 9.0


def _laplace27(dtype) -> SGDIAMatrix:
    """laplace27 built in ``dtype`` directly (no FP64 copy at 128^3)."""
    st = make_stencil("3d27")
    coeffs = np.full(st.ndiag, -1.0)
    coeffs[st.diag_index] = 26.0
    return SGDIAMatrix.from_constant_stencil(StructuredGrid(SHAPE), st, coeffs,
                                             dtype=dtype)


def _probe():
    be = get_backend()
    a32 = _laplace27(np.float32)
    mats = {"fp32": a32, "fp16": a32.astype("fp16")}
    plan = plan_for(a32)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(SHAPE).astype(np.float32)
    b = rng.standard_normal(SHAPE).astype(np.float32)
    dinv = compute_diag_inv(a32, np.float32)
    work = {fmt: x.copy() for fmt in mats}
    kinds = [(k, f) for k in ("spmv", "sweep") for f in mats]

    def run(kind, fmt):
        a = mats[fmt]
        if kind == "spmv":
            be.spmv(plan, a, x, compute_dtype=np.float32)
        else:
            be.gs_sweep(plan, a, b, work[fmt], dinv, True, np.float32)

    times = {k: [] for k in kinds}
    for rnd in range(ROUNDS + 1):
        for q in range(len(kinds)):
            kind = kinds[(rnd + q) % len(kinds)]
            t0 = perf_counter()
            run(*kind)
            if rnd:  # round 0 warms up
                times[kind].append(perf_counter() - t0)
    rows = {}
    for kind in ("spmv", "sweep"):
        planes = 27 if kind == "spmv" else 26
        row = {}
        for fmt, a in mats.items():
            t = statistics.median(times[(kind, fmt)])
            row[fmt] = (t, planes * a.data[0].nbytes / t / 1e9)
        rows[kind] = row
    return rows


def test_fig7_compiled_probe_128(once):
    if get_backend().name != "c" or not get_backend().extras["f16c"]:
        pytest.skip("needs the compiled c backend with F16C")
    rows = once(_probe)
    print_header("Figure 7 (measured, compiled c): FP16 gain at laplace27 128^3")
    for kind, row in rows.items():
        (t32, g32), (t16, g16) = row["fp32"], row["fp16"]
        ratio = t32 / t16
        met = ratio >= TARGET_RATIO and g32 >= TARGET_FP32_GBPS
        print(
            f"  {kind:5s}  fp32 {t32 * 1e3:6.2f} ms {g32:5.1f} GB/s   "
            f"fp16 {t16 * 1e3:6.2f} ms {g16:5.1f} GB/s   ratio x{ratio:.2f}   "
            f"target (x{TARGET_RATIO}, fp32 {TARGET_FP32_GBPS} GB/s) "
            f"{'met' if met else 'missed'}"
        )
    for kind, row in rows.items():
        assert row["fp32"][0] / row["fp16"][0] > MIN_RATIO[kind], (kind, row)
