"""Tests for the distributed multigrid cycle."""

import dataclasses
import functools
import hashlib

import numpy as np
import pytest

from repro.kernels import backend as _backend
from repro.kernels import use_backend
from repro.mg import MGOptions, mg_setup
from repro.observability import metrics
from repro.parallel import (
    CartesianDecomposition,
    CommStats,
    DistributedMG,
    aligned_split,
    distributed_cg,
    DistributedSGDIA,
    failing_ranks,
)
from repro.precision import FULL64, K64P32D16_SETUP_SCALE, parse_config
from repro.problems import build_problem
from repro.resilience import (
    EscalationPolicy,
    FaultInjector,
    agree_on_status,
    robust_distributed_solve,
)
from repro.solvers import cg

from tests.helpers import assert_same_bytes


class TestAlignedSplit:
    def test_starts_aligned(self):
        for n, parts, unit in [(16, 2, 4), (24, 3, 4), (17, 2, 4), (32, 4, 2)]:
            ranges = aligned_split(n, parts, unit)
            assert ranges[0][0] == 0 and ranges[-1][1] == n
            for lo, hi in ranges:
                assert lo % unit == 0
                assert hi > lo

    def test_impossible(self):
        with pytest.raises(ValueError):
            aligned_split(8, 3, 4)  # only 2 alignment blocks

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            aligned_split(8, 0, 2)


class TestExplicitRanges:
    def test_custom_ranges_accepted(self):
        from repro.grid import StructuredGrid

        dec = CartesianDecomposition(
            StructuredGrid((8, 8, 8)),
            (2, 1, 1),
            ranges=(((0, 6), (6, 8)), ((0, 8),), ((0, 8),)),
        )
        assert dec.local_shape(0) == (6, 8, 8)
        assert dec.local_shape(1) == (2, 8, 8)

    @pytest.mark.parametrize(
        "bad",
        [
            (((0, 4),), ((0, 8),), ((0, 8),)),  # does not cover axis 0
            (((0, 4), (5, 8)), ((0, 8),), ((0, 8),)),  # gap
            (((0, 4), (4, 4)), ((0, 8),), ((0, 8),)),  # empty range
        ],
    )
    def test_bad_ranges_rejected(self, bad):
        from repro.grid import StructuredGrid

        with pytest.raises(ValueError):
            CartesianDecomposition(StructuredGrid((8, 8, 8)), (2, 1, 1), ranges=bad)


def _setup(name="laplace27", shape=(16, 16, 16), cfg=FULL64, pg=(2, 2, 2),
           options=None, stats=None):
    p = build_problem(name, shape=shape)
    h = mg_setup(p.a, cfg, options or p.mg_options)
    dec = DistributedMG.aligned_decomposition(h, pg)
    return p, h, dec, DistributedMG(h, dec, stats=stats)


def _sha(array) -> str:
    data = np.ascontiguousarray(np.asarray(array, dtype=np.float64))
    return hashlib.sha256(data.tobytes()).hexdigest()[:16]


RANKS = ((1, 1, 1), (2, 1, 1), (2, 2, 2))

#: name -> (problem, shape, config, MGOptions or None for the problem's,
#: process grids)
HIERARCHIES = {
    "laplace27-fp16": (
        "laplace27", (16, 16, 16), K64P32D16_SETUP_SCALE, None, RANKS,
    ),
    "laplace27-full64": ("laplace27", (16, 16, 16), FULL64, None, RANKS),
    "laplace27-full64-jacobi": (
        "laplace27", (16, 16, 16), FULL64,
        MGOptions(smoother="jacobi", coarsen="full"), RANKS,
    ),
    # every level scaled (setup-scale), and the global entry/exit scaling
    # of scale-setup
    "laplace27e8-setup-scale": (
        "laplace27e8", (16, 16, 16), K64P32D16_SETUP_SCALE, None, RANKS,
    ),
    "laplace27e8-scale-setup": (
        "laplace27e8", (16, 16, 16), parse_config("K64P32D16-scale-setup"),
        None, RANKS,
    ),
    # 3x3 blocks, scaled levels
    "solid-3d": ("solid-3d", (16, 16, 16), K64P32D16_SETUP_SCALE, None, RANKS),
    # W- and F-cycles: the distributed cycle runs the hierarchy's kind
    "laplace27-fp16-w": (
        "laplace27", (16, 16, 16), K64P32D16_SETUP_SCALE,
        MGOptions(coarsen="full", cycle="w"), RANKS,
    ),
    "laplace27-fp16-f": (
        "laplace27", (16, 16, 16), K64P32D16_SETUP_SCALE,
        MGOptions(coarsen="full", cycle="f"), RANKS,
    ),
    "laplace27-full64-w": (
        "laplace27", (16, 16, 16), FULL64,
        MGOptions(coarsen="full", cycle="w"), RANKS,
    ),
    "laplace27-full64-f": (
        "laplace27", (16, 16, 16), FULL64,
        MGOptions(coarsen="full", cycle="f"), RANKS,
    ),
    # the coarsest level smoothed rank by rank instead of solved directly
    "laplace27-fp16-smoother-coarse": (
        "laplace27", (16, 16, 16), K64P32D16_SETUP_SCALE,
        MGOptions(coarsen="full", coarse_solver="smoother"), RANKS,
    ),
    # uneven: 20 cells over 2 ranks with 3 levels, alignment unit 4 -> 12+8
    "laplace27-20x16x16": (
        "laplace27", (20, 16, 16), FULL64, None, ((2, 2, 1),),
    ),
    # factor-1 axes: weather's semicoarsening, solid-3d keeping z; each
    # axis aligns to its own factors (x to 4, y to 1, z to 2 at 16x16x8)
    "weather-16x16x8": (
        "weather", (16, 16, 8), K64P32D16_SETUP_SCALE, None,
        ((2, 2, 1), (2, 1, 2)),
    ),
    "weather-32x32x16": (
        "weather", (32, 32, 16), K64P32D16_SETUP_SCALE, None, ((2, 2, 2),),
    ),
    "solid-3d-16x16x8": (
        "solid-3d", (16, 16, 8), K64P32D16_SETUP_SCALE, None, ((2, 2, 1),),
    ),
    # factor 4: its taps reach past the ghost layer, so one rank only
    "laplace27-factor4": (
        "laplace27", (16, 16, 16), FULL64,
        MGOptions(coarsen="full", coarsen_factor=4), ((1, 1, 1),),
    ),
}


@functools.lru_cache(maxsize=1)
def _hierarchy(name):
    problem, shape, cfg, options, _pgs = HIERARCHIES[name]
    p = build_problem(problem, shape=shape)
    return mg_setup(p.a, cfg, options or p.mg_options)


def _assert_sequential(name, pg, seed=0):
    """One distributed cycle and preconditioner application on the process
    grid pg equal the sequential hierarchy's byte for byte."""
    h = _hierarchy(name)
    dec = DistributedMG.aligned_decomposition(h, pg)
    dmg = DistributedMG(h, dec)
    bg = np.random.default_rng(seed).standard_normal(dec.grid.field_shape)
    cdtype = h.compute_dtype
    assert_same_bytes(dmg.cycle(bg.astype(cdtype)), h.cycle(bg.astype(cdtype)))
    assert_same_bytes(dmg.precondition(bg), h.precondition(bg))


class TestDistributedCycle:
    @pytest.mark.parametrize(
        "name,pg",
        [
            pytest.param(name, pg, id=f"{name}-{'x'.join(map(str, pg))}")
            for name in sorted(HIERARCHIES)
            for pg in HIERARCHIES[name][-1]
        ],
    )
    def test_byte_identical_to_sequential(self, name, pg):
        """On 1, 2 and 8 ranks, for scalar and block, unscaled and scaled
        hierarchies, factor-1 axes, V, W and F cycles, Jacobi smoothing and
        a smoothed coarsest level, one distributed cycle and preconditioner
        application equal the sequential ones byte for byte."""
        _assert_sequential(name, pg)

    # the 2x2x2 table entries once more, on another right-hand side
    def test_full64_cycle_matches_sequential(self):
        _assert_sequential("laplace27-full64", (2, 2, 2), seed=1)

    def test_fp16_cycle_matches_sequential(self):
        _assert_sequential("laplace27-fp16", (2, 2, 2), seed=1)

    def test_jacobi_smoother_variant(self):
        _assert_sequential("laplace27-full64-jacobi", (2, 2, 2), seed=1)

    def test_scaled_entries_scale(self):
        """The table's scaled entries reach the change of basis: setup-scale
        scales a level, scale-setup the global entry."""
        h = _hierarchy("laplace27e8-setup-scale")
        assert any(lev.stored.is_scaled for lev in h.levels)
        assert _hierarchy("laplace27e8-scale-setup").entry_scaling is not None

    def test_transfer_past_ghosts_rejected(self):
        h = _hierarchy("laplace27-factor4")
        dec = DistributedMG.aligned_decomposition(h, (2, 1, 1))
        with pytest.raises(ValueError, match="beyond the ghost layer"):
            DistributedMG(h, dec)

    def test_cycle_runs_the_kernel_table(self, monkeypatch):
        """Every rank's SpMV, sweep and transfer reach the active backend:
        the distributed engine has no kernels of its own."""
        ref = _backend._numpy_backend()
        log = []

        def spy(name):
            def call(*args, **kwargs):
                log.append(name)
                return getattr(ref, name)(*args, **kwargs)

            return call

        recording = dataclasses.replace(
            ref, name="recording", spmv=spy("spmv"), gs_sweep=spy("gs_sweep"),
            transfer=spy("transfer"),
        )
        monkeypatch.setitem(_backend._REGISTRY, "recording", recording)
        p, _h, _dec, dmg = _setup(cfg=K64P32D16_SETUP_SCALE)
        with use_backend("recording"):
            dmg.cycle(p.b.astype(np.float32))
        assert {"spmv", "gs_sweep", "transfer"} <= set(log)

    def test_comm_stats_pinned(self):
        """Halo and allreduce traffic of one 2x2x2 FP16 cycle, with the
        coarsest level solved directly and smoothed, and of one
        MG-preconditioned distributed CG solve, whose solution and history
        are pinned too.  The Figure-10 validation counts these; which
        kernels a rank runs must not change them."""
        stats = CommStats()
        p, _h, dec, dmg = _setup(cfg=K64P32D16_SETUP_SCALE, stats=stats)
        dmg.cycle(p.b.astype(np.float32))
        assert (stats.p2p_messages, stats.p2p_bytes, stats.allreduces) == (
            1680, 351488, 0
        )
        smoothed = CommStats()
        h = _hierarchy("laplace27-fp16-smoother-coarse")
        DistributedMG(
            h, DistributedMG.aligned_decomposition(h, (2, 2, 2)),
            stats=smoothed,
        ).cycle(p.b.astype(np.float32))
        assert (
            smoothed.p2p_messages, smoothed.p2p_bytes, smoothed.allreduces
        ) == (2448, 380160, 0)
        stats.reset()
        res, _ = distributed_cg(
            DistributedSGDIA.from_global(p.a, dec), p.b, rtol=p.rtol,
            maxiter=100, preconditioner=dmg.precondition, stats=stats,
        )
        assert (res.status, res.iterations) == ("converged", 8)
        assert (stats.p2p_messages, stats.p2p_bytes, stats.allreduces) == (
            13632, 2936832, 26
        )
        assert (_sha(res.x), _sha(res.history.norms)) == (
            "ed9692fd2c299fb3", "57bada51da2b86ac"
        )

    def test_smoother_bytes_modeled_match_sequential(self):
        """The modeled smoother traffic of a distributed cycle is the
        sequential cycle's: each level is charged for the smoother its rank
        wrapper runs (Jacobi here), not as SymGS."""
        h = _hierarchy("laplace27-full64-jacobi")
        dmg = DistributedMG(h, DistributedMG.aligned_decomposition(h, (2, 2, 2)))
        b = build_problem("laplace27", shape=(16, 16, 16)).b
        charged = []
        for mg in (h, dmg):
            with metrics.collecting() as m:
                mg.cycle(b.astype(np.float64))
            totals = m.totals()
            charged.append(
                (totals["mg.smoother.calls"], totals["mg.smoother.bytes_modeled"])
            )
        assert charged == [(5, 2_351_104), (5, 2_351_104)]

    def test_comm_stats_collected(self, rng):
        stats = CommStats()
        p, h, dec, dmg = _setup(stats=stats)
        dmg.cycle(rng.standard_normal(p.a.grid.field_shape))
        # SymGS: 8 exchanges/sweep x 2 sweeps x (nu1+nu2) + residual +
        # transfers, over multiple levels -> hundreds of messages
        assert stats.p2p_messages > 100
        assert stats.p2p_bytes > 0

    def test_fp16_cycle_halves_halo_bytes(self, rng):
        """Halo traffic is vector data: identical message counts, and FP32
        vectors mean the mixed cycle moves half the FP64 cycle's bytes."""
        s64, s16 = CommStats(), CommStats()
        p, h64, dec, dmg64 = _setup(cfg=FULL64, stats=s64)
        _, h16, _, dmg16 = _setup(cfg=K64P32D16_SETUP_SCALE, stats=s16)
        bg = rng.standard_normal(p.a.grid.field_shape)
        dmg64.cycle(bg)
        dmg16.cycle(bg)
        assert s64.p2p_messages == s16.p2p_messages
        assert s16.p2p_bytes == s64.p2p_bytes // 2

    def test_misaligned_decomposition_rejected(self):
        p = build_problem("laplace27", shape=(18, 16, 16))
        h = mg_setup(p.a, FULL64, p.mg_options)
        # balanced split of 18 over 4 gives starts 0,5,10,14 - misaligned
        dec = CartesianDecomposition(p.a.grid, (4, 1, 1))
        with pytest.raises(ValueError, match="aligned"):
            DistributedMG(h, dec)

    def test_unsupported_smoother_rejected(self):
        p = build_problem("laplace27", shape=(16, 16, 16))
        h = mg_setup(
            p.a, FULL64, MGOptions(smoother="chebyshev", coarsen="full")
        )
        dec = DistributedMG.aligned_decomposition(h, (2, 1, 1))
        with pytest.raises(NotImplementedError):
            DistributedMG(h, dec)


class TestDistributedWorkflow:
    def test_mg_preconditioned_distributed_cg(self, rng):
        """The full distributed workflow: decomposed CG in FP64 with the
        distributed FP16 multigrid as preconditioner, matching the
        sequential solve's iteration count."""
        p, h, dec, dmg = _setup(cfg=K64P32D16_SETUP_SCALE)
        res_d, stats = distributed_cg(
            DistributedSGDIA.from_global(p.a, dec), p.b, rtol=p.rtol,
            maxiter=100, preconditioner=dmg.precondition,
        )
        assert res_d.converged

        res_s = cg(
            p.a, p.b, preconditioner=h.precondition, rtol=p.rtol, maxiter=100
        )
        assert abs(res_d.iterations - res_s.iterations) <= 1
        # true solution reached
        r = p.b.ravel() - p.a.to_csr() @ res_d.x.ravel()
        assert np.linalg.norm(r) / np.linalg.norm(p.b.ravel()) < p.rtol * 10


class TestFailureAgreement:
    """Lockstep failure semantics: one rank's non-finite data must give every
    rank the same status, the same escalation decision, and no hang."""

    def test_failing_ranks_identifies_the_guilty_rank(self):
        p, h, dec, dmg = _setup(pg=(2, 2, 1))
        f = np.zeros(dec.grid.field_shape)
        f[dec.owned_slices(2)] = 1.0
        f[tuple(sl.start for sl in dec.owned_slices(2))] = np.nan
        stats = CommStats()
        assert failing_ranks(dec, f, stats) == [2]
        assert stats.allreduces == 1

    def test_healthy_field_has_no_failing_ranks(self):
        p, h, dec, dmg = _setup(pg=(2, 1, 1))
        assert failing_ranks(dec, np.zeros(dec.grid.field_shape)) == []

    def test_one_rank_nonfinite_poisons_every_rank_in_same_iteration(self):
        """A preconditioner fault local to one rank reaches all ranks through
        an allreduce: the solve terminates (no hang) with a globally agreed
        'diverged' status, and the guilty rank alone is attributed, before
        an SpMV spreads its inf to the neighbours."""
        p, h, dec, dmg = _setup(cfg=K64P32D16_SETUP_SCALE, pg=(2, 2, 1))
        bad_rank = 1

        def precond(r):
            e = dmg.precondition(r)
            e[tuple(sl.start for sl in dec.owned_slices(bad_rank))] = np.inf
            return e

        with np.errstate(invalid="ignore", over="ignore"):
            res, stats = distributed_cg(
                DistributedSGDIA.from_global(p.a, dec), p.b, rtol=p.rtol,
                maxiter=50, preconditioner=precond,
            )
        assert res.status == "diverged"
        assert res.iterations < 50  # left the loop, did not run dry
        assert res.detail["failed_ranks"] == [bad_rank]

    def test_agree_on_status_is_max_severity(self):
        stats = CommStats()
        assert (
            agree_on_status(["converged", "diverged", "converged"], stats)
            == "diverged"
        )
        assert agree_on_status(["converged"] * 4) == "converged"
        assert stats.allreduces == 1

    def test_robust_distributed_solve_escalates_in_lockstep(self):
        """Injected overflow fails the fp16 rungs; every (emulated) rank sees
        the same ladder and the single shared report records it once."""
        p = build_problem("laplace27", shape=(16, 16, 16))

        def post(hierarchy, k):
            FaultInjector(seed=13).inject_overflow(hierarchy)

        with np.errstate(invalid="ignore", over="ignore"):
            res, report, stats = robust_distributed_solve(
                p.a,
                p.b,
                proc_grid=(2, 2, 1),
                config=K64P32D16_SETUP_SCALE,
                options=p.mg_options,
                rtol=p.rtol,
                maxiter=100,
                post_setup=post,
            )
        assert res.converged
        assert 1 <= report.n_escalations <= EscalationPolicy().max_escalations
        # the agreed status sequence is deterministic across runs
        with np.errstate(invalid="ignore", over="ignore"):
            res2, report2, _ = robust_distributed_solve(
                p.a,
                p.b,
                proc_grid=(2, 2, 1),
                config=K64P32D16_SETUP_SCALE,
                options=p.mg_options,
                rtol=p.rtol,
                maxiter=100,
                post_setup=post,
            )
        def projection(rep):
            # final_residual is NaN for health-skipped attempts (NaN != NaN)
            return (
                [(a.config, a.status, a.iterations) for a in rep.attempts],
                [
                    (e.from_config, e.to_config, e.reason, e.iterations)
                    for e in rep.escalations
                ],
            )

        assert projection(report2) == projection(report)
        assert stats.allreduces > 0

    def test_distributed_clean_solve_no_escalation(self):
        p = build_problem("laplace27", shape=(16, 16, 16))
        res, report, stats = robust_distributed_solve(
            p.a,
            p.b,
            proc_grid=(2, 2, 2),
            config=K64P32D16_SETUP_SCALE,
            options=p.mg_options,
            rtol=p.rtol,
            maxiter=100,
        )
        assert res.converged
        assert report.n_escalations == 0
        assert report.final_config == K64P32D16_SETUP_SCALE.name
        # the attempt's preconditioner exchanges count too: the pinned
        # MG-preconditioned solve's traffic plus the status agreement
        assert (stats.p2p_messages, stats.p2p_bytes, stats.allreduces) == (
            13632, 2936832, 27
        )
