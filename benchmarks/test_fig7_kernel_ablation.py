"""Figure 7 — kernel optimization ablation (SpMV + SpTRSV).

Four bars per pattern in the paper:

- ``Max-fp16/fp32``: memory-volume upper bound (modeled);
- ``MG-fp16/fp32(opt)``: SOA + SIMD implementation (paper shows ~= Max);
- ``MG-fp16/fp32(naive)``: AOS with scalar conversions (paper shows < 1);
- ``MG-fp32/fp32``: the baseline (speedup 1 by definition).

Substitution note (DESIGN.md): NumPy has no SIMD ``fcvt`` path, so *every*
NumPy mixed-precision kernel behaves like the paper's "naive" bars — the
measured section therefore demonstrates the degradation phenomenon and the
SOA-vs-AOS layout ordering, while the "opt ~= Max" bars are produced by the
same bandwidth-roofline model the paper uses to define Max.  The measured
rows pin the numpy reference backend: the compiled kernels cover SOA only,
so an unpinned run would time C on SOA against numpy on AOS and measure
the backends, not the layouts.
"""

import statistics
from time import perf_counter

import numpy as np
import pytest

from repro.grid import stencil as make_stencil
from repro.kernels import spmv_plain, sptrsv, use_backend
from repro.kernels.sptrsv import wavefront_planes
from repro.perf import ARM_KUNPENG, X86_EPYC, measure, modeled_kernel_speedup
from repro.perf.timing import geometric_mean
from repro.sgdia import SGDIAMatrix

from conftest import print_header
from tests.helpers import random_sgdia

SPMV_PATTERNS = ("3d7", "3d19", "3d27")
SPTRSV_PATTERNS = ("3d4", "3d10", "3d14")
SIZES = ((32, 32, 32), (40, 40, 40))
#: Timed rounds of the interleaved SpTRSV measurement (after a warm-up)
SPTRSV_ROUNDS = 15


def _matrix(pattern, shape, dtype, layout="soa"):
    if pattern in SPTRSV_PATTERNS:
        full = {"3d4": "3d7", "3d10": "3d19", "3d14": "3d27"}[pattern]
        base = random_sgdia(shape, full, seed=3)
        tri_st = make_stencil(pattern)
        a = SGDIAMatrix.zeros(base.grid, tri_st, dtype=np.float64)
        for d, off in enumerate(tri_st.offsets):
            a.data[d] = base.diag_view(base.stencil.index_of(off))
        a.diag_view(tri_st.offsets.index((0, 0, 0)))[...] = 3.0
    else:
        a = random_sgdia(shape, pattern, seed=3)
    a = SGDIAMatrix(a.grid, a.stencil, a.data.astype(dtype))
    return a.as_layout(layout)


def _measure_spmv():
    rows = {}
    for pattern in SPMV_PATTERNS:
        speedups = {"fp16-soa": [], "fp16-aos": []}
        for shape in SIZES:
            a32 = _matrix(pattern, shape, np.float32)
            a16 = _matrix(pattern, shape, np.float16)
            a16_aos = _matrix(pattern, shape, np.float16, layout="aos")
            x = np.random.default_rng(0).standard_normal(
                a32.grid.field_shape
            ).astype(np.float32)
            t32 = measure(lambda: spmv_plain(a32, x, compute_dtype=np.float32))
            t16 = measure(lambda: spmv_plain(a16, x, compute_dtype=np.float32))
            t16a = measure(
                lambda: spmv_plain(a16_aos, x, compute_dtype=np.float32)
            )
            speedups["fp16-soa"].append(t32 / t16)
            speedups["fp16-aos"].append(t32 / t16a)
        rows[pattern] = {k: geometric_mean(v) for k, v in speedups.items()}
    return rows


def _measure_sptrsv():
    """fp32, fp16-soa and fp16-aos timed interleaved, one call each per
    round (in an order rotated every round), over SPTRSV_ROUNDS rounds after
    a warm-up round; each speedup is the median of its per-round ratios.
    A load spike on a shared host then slows the three kinds of one round
    alike instead of one kind's whole best-of-3."""
    rows = {}
    shape = SIZES[0]  # wavefront kernels: one size keeps it quick
    wavefront_planes(shape)  # warm the symbolic-analysis cache
    kinds = ("fp32", "fp16-soa", "fp16-aos")
    for pattern in SPTRSV_PATTERNS:
        mats = dict(zip(kinds, (
            _matrix(pattern, shape, np.float32),
            _matrix(pattern, shape, np.float16),
            _matrix(pattern, shape, np.float16, layout="aos"),
        )))
        b = np.random.default_rng(0).standard_normal(
            mats["fp32"].grid.field_shape
        ).astype(np.float32)
        ratios = {"fp16-soa": [], "fp16-aos": []}
        for rnd in range(SPTRSV_ROUNDS + 1):
            t = {}
            for q in range(len(kinds)):
                kind = kinds[(rnd + q) % len(kinds)]
                t0 = perf_counter()
                sptrsv(mats[kind], b, part="all", compute_dtype=np.float32)
                t[kind] = perf_counter() - t0
            if rnd:  # round 0 warms up
                for kind in ratios:
                    ratios[kind].append(t["fp32"] / t[kind])
        rows[pattern] = {k: statistics.median(v) for k, v in ratios.items()}
    return rows


def _model_rows():
    out = {}
    for machine in (ARM_KUNPENG, X86_EPYC):
        for kind, patterns in (("spmv", SPMV_PATTERNS), ("sptrsv", SPTRSV_PATTERNS)):
            for pattern in patterns:
                nd = make_stencil(pattern).ndiag
                nd_full = {"3d4": 7, "3d10": 19, "3d14": 27}.get(pattern, nd)
                out[(machine.name, kind, pattern)] = {
                    "max": modeled_kernel_speedup(
                        machine, nd_full, kind=kind, matrix_itemsize=2,
                        baseline_itemsize=4,
                    ),
                    "opt": modeled_kernel_speedup(
                        machine, nd_full, kind=kind, matrix_itemsize=2,
                        baseline_itemsize=4, layout="soa",
                    ),
                    "naive": modeled_kernel_speedup(
                        machine, nd_full, kind=kind, matrix_itemsize=2,
                        baseline_itemsize=4, layout="aos",
                    ),
                }
    return out


def test_fig7_modeled_speedups(benchmark):
    model = benchmark(_model_rows)
    print_header("Figure 7 (model): speedup over MG-fp32/fp32")
    for (mach, kind, pattern), row in model.items():
        print(
            f"  {mach:4s} {kind:6s} {pattern:5s}  Max={row['max']:.2f} "
            f"opt={row['opt']:.2f} naive={row['naive']:.2f}"
        )
    for row in model.values():
        # opt reaches the volume bound; naive degrades below 1 (paper's bars)
        assert row["opt"] == pytest.approx(row["max"], rel=1e-6)
        assert 1.0 < row["opt"] < 2.0
        assert row["naive"] < 1.0
    # denser patterns gain more (matrix share of the traffic grows)
    for mach in ("ARM", "X86"):
        assert (
            model[(mach, "spmv", "3d7")]["max"]
            < model[(mach, "spmv", "3d19")]["max"]
            < model[(mach, "spmv", "3d27")]["max"]
        )


def test_fig7_measured_spmv(once):
    with use_backend("numpy"):
        rows = once(_measure_spmv)
    print_header(
        "Figure 7 (measured, NumPy): SpMV mixed-precision speedup over fp32"
    )
    print("(NumPy converts fp16 with scalar loops -> both layouts behave")
    print(" like the paper's 'naive' bars; SOA still beats AOS)")
    for pattern, r in rows.items():
        print(
            f"  {pattern:5s}  fp16-soa x{r['fp16-soa']:.2f}   "
            f"fp16-aos x{r['fp16-aos']:.2f}"
        )
    for pattern, r in rows.items():
        # the degradation phenomenon of Section 5.1: unamortized conversion
        # makes the mixed kernel slower than full fp32 ...
        assert r["fp16-aos"] < 1.0
        # ... and the contiguous SOA layout is never meaningfully worse
        # than AOS (loose bound: single-core wall-clock is noisy)
        assert r["fp16-soa"] > 0.8 * r["fp16-aos"]
    # on the dense patterns (large arrays, stable timing) SOA clearly wins
    dense_ratio = geometric_mean(
        [
            rows[p]["fp16-soa"] / rows[p]["fp16-aos"]
            for p in ("3d19", "3d27")
        ]
    )
    assert dense_ratio > 1.15


def test_fig7_measured_sptrsv(once):
    with use_backend("numpy"):
        rows = once(_measure_sptrsv)
    print_header(
        "Figure 7 (measured, NumPy): SpTRSV mixed-precision speedup over fp32"
    )
    for pattern, r in rows.items():
        print(
            f"  {pattern:5s}  fp16-soa x{r['fp16-soa']:.2f}   "
            f"fp16-aos x{r['fp16-aos']:.2f}"
        )
    for pattern, r in rows.items():
        # gather-dominated wavefront kernels: conversion overhead present
        # but bounded; AOS never beats SOA meaningfully
        assert r["fp16-soa"] > 0.4
        assert r["fp16-aos"] < 1.2
