"""Backend registry behavior and numpy-vs-c bit parity.

Every compiled kernel must be byte-identical to the numpy reference and
charge the same counters.  The c cases are skipped when the library could
not be built on this host — the suite must pass without a C compiler
(graceful-fallback contract, also tested below by simulating each failure).
"""

import dataclasses
import functools
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.kernels import (
    COLORS8,
    available_backends,
    backend_status,
    compute_diag_inv,
    get_backend,
    gs_sweep_colored,
    jacobi_sweep,
    plan_for,
    set_backend,
    spmv,
    spmv_plain,
    sptrsv,
    use_backend,
)
from repro.kernels import backend as _backend
from repro.kernels import backend_c
from repro.mg import mg_setup
from repro.observability import metrics
from repro.precision import DiagonalScaling, get_format, parse_config
from repro.problems import build_problem
from repro.sgdia import StoredMatrix
from repro.solvers import solve

from tests.helpers import random_sgdia

HAVE_C = "c" in available_backends()
needs_c = pytest.mark.skipif(
    not HAVE_C,
    reason=f"c backend not built: {backend_status()['unavailable'].get('c')}",
)

PATTERNS = ("3d7", "3d15", "3d19", "3d27")
#: (payload format, compute dtype); fp64 -> fp32 converts, then multiplies
PAYLOADS = (
    ("fp16", np.float32),
    ("bf16", np.float32),
    ("fp32", np.float32),
    ("fp64", np.float64),
    ("fp64", np.float32),
)
#: odd shapes, a one-cell-wide grid, and a row longer than any C buffer
SHAPES = ((6, 5, 7), (1, 1, 9), (2, 2, 5000))
#: the scalar kernels also on rows of one full 8-cell vector plus a partial
#: tail (odd nx/ny) and on two-cell rows, shorter than any vector; and on
#: interior rows (nx, ny >= 3) of one vector, which is both the row's first
#: and last, of one vector plus a cell, of two vectors, of two plus a cell,
#: and of 300 cells
SCALAR_SHAPES = SHAPES + ((5, 3, 19), (4, 3, 2), (3, 3, 8), (4, 5, 9),
                          (3, 3, 16), (3, 4, 17), (3, 3, 300))
#: block sizes of the compiled block kernels, and their stencils
NCOMPS = (2, 3, 4)
BLOCK_PATTERNS = ("3d7", "3d15", "3d19", "3d27")
#: RHS columns: unbatched, one column, a partial 8-column pass, one full
#: pass, and more columns than one pass holds (a full pass, then a partial
#: one at a column offset)
COLUMNS = (None, 1, 2, 8, 11)
#: every (storage, compute) pair of the compiled kernels, including the
#: fp16 -> fp64 and fp32 -> fp64 pairs that PAYLOADS leaves out
ALL_PAIRS = (
    ("fp16", np.float32),
    ("fp16", np.float64),
    ("fp32", np.float32),
    ("fp32", np.float64),
    ("fp64", np.float64),
    ("fp64", np.float32),
)


@pytest.fixture(autouse=True)
def _reset_backend():
    yield
    set_backend(None)


@pytest.fixture
def no_registry(monkeypatch):
    """An empty registry: the next lookup re-registers from scratch."""
    monkeypatch.setattr(_backend, "_REGISTRY", {})
    monkeypatch.setattr(_backend, "_UNAVAILABLE", {})
    _backend._invalidate()
    yield
    _backend._invalidate()


class TestRegistry:
    def test_numpy_always_available(self):
        assert "numpy" in available_backends()

    def test_default_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        set_backend(None)
        expect = "c" if HAVE_C else "numpy"
        assert get_backend().name == expect

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            set_backend("cuda")

    def test_set_and_revert(self):
        set_backend("numpy")
        assert get_backend().name == "numpy"
        set_backend("auto")
        assert get_backend().name in available_backends()

    def test_use_backend_scoped(self):
        before = get_backend().name
        with use_backend("numpy") as be:
            assert be.name == "numpy"
            assert get_backend().name == "numpy"
        assert get_backend().name == before

    def test_env_var_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        set_backend(None)  # drop cached resolution
        assert get_backend().name == "numpy"

    @needs_c
    def test_env_var_selects_c(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "c")
        set_backend(None)
        assert get_backend().name == "c"

    def test_unusable_env_degrades_to_numpy(self, monkeypatch):
        """A REPRO_KERNEL_BACKEND the host can't satisfy must not crash."""
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "not-a-backend")
        set_backend(None)
        assert get_backend().name == "numpy"

    def test_status_shape(self):
        st = backend_status()
        assert "numpy" in st["registered"]
        assert st["resolved"] in st["registered"]
        assert HAVE_C == ("c" not in st["unavailable"])


class TestGracefulFallback:
    """No compiler, a failed compile or an unwritable cache: numpy resolves,
    nothing raises, and ``backend_status()`` says why."""

    def test_no_compiler(self, monkeypatch, no_registry):
        monkeypatch.setattr(backend_c, "_compiler", lambda: None)
        assert get_backend().name == "numpy"
        assert "no C compiler" in backend_status()["unavailable"]["c"]

    def test_compile_failure(self, monkeypatch, tmp_path, no_registry):
        broken = tmp_path / "broken.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(backend_c, "_SOURCE", broken)
        monkeypatch.setattr(backend_c, "cache_dir", lambda: tmp_path / "cache")
        if backend_c._compiler() is None:
            pytest.skip("no gcc on this host")
        assert get_backend().name == "numpy"
        assert "gcc failed" in backend_status()["unavailable"]["c"]
        assert not list((tmp_path / "cache").glob("*"))  # no partial files

    def test_unwritable_cache(self, monkeypatch, tmp_path, no_registry):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "sub"))
        if backend_c._compiler() is None:
            pytest.skip("no gcc on this host")
        assert get_backend().name == "numpy"
        assert "not writable" in backend_status()["unavailable"]["c"]

    def test_missing_kernel(self, monkeypatch, tmp_path, no_registry):
        """A library lacking a kernel of a pair leaves c unregistered, so a
        misnamed kernel cannot run on numpy unnoticed."""
        self._partial(monkeypatch, tmp_path, ("spmv",), "gs_sweep")

    def test_missing_stencil_kernel(self, monkeypatch, tmp_path, no_registry):
        """So does one lacking a per-stencil SpMV or sweep of a pair."""
        generic = ("spmv", "gs_sweep", "sptrsv", "bspmv", "bgs_sweep")
        spmvs = tuple(f"spmv_{s}" for s in ("3d7", "3d15", "3d19", "3d27"))
        self._partial(monkeypatch, tmp_path, generic + spmvs[:1], "spmv_3d15")
        _backend._REGISTRY.clear()
        _backend._UNAVAILABLE.clear()
        _backend._invalidate()
        self._partial(monkeypatch, tmp_path, generic + spmvs + ("gs_sweep_3d7",),
                      "gs_sweep_3d15")

    @staticmethod
    def _partial(monkeypatch, tmp_path, present, missing):
        partial = tmp_path / "partial.c"
        partial.write_text(
            "int repro_has_f16c(void) { return 0; }\n"
            "void repro_block_limits(int *mb, int *nd) { *mb = 4; *nd = 27; }\n"
            + "".join(f"void repro_{k}_ff(void) {{}}\n" for k in present)
        )
        monkeypatch.setattr(backend_c, "_SOURCE", partial)
        monkeypatch.setattr(backend_c, "cache_dir", lambda: tmp_path / "cache")
        if backend_c._compiler() is None:
            pytest.skip("no gcc on this host")
        assert get_backend().name == "numpy"
        assert f"lacks repro_{missing}_ff" in backend_status()["unavailable"]["c"]

    @needs_c
    def test_cache_hit_and_location(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert backend_c.cache_dir() == tmp_path / "repro"
        first = backend_c.build_library()
        stamp = first.stat().st_mtime_ns
        assert first.parent == tmp_path / "repro"
        assert backend_c.build_library() == first
        assert first.stat().st_mtime_ns == stamp  # loaded, not recompiled
        assert [p.name for p in first.parent.iterdir()] == [first.name]

    @needs_c
    @pytest.mark.skipif(platform.machine() != "x86_64", reason="x86 flags")
    def test_fp16_stays_on_numpy_without_f16c(self, monkeypatch, tmp_path):
        flags = tuple(
            "-march=x86-64" if f == "-march=native" else f for f in backend_c._FLAGS
        )
        monkeypatch.setattr(backend_c, "_FLAGS", flags)
        monkeypatch.setattr(backend_c, "cache_dir", lambda: tmp_path)
        be, status = backend_c.make_backend(_backend._numpy_backend())
        assert status == "ok" and be.extras["f16c"] is False
        assert not any("float16" in p for p in be.extras["pairs"])
        assert {"float32->float32", "block:float32->float32"} <= set(
            be.extras["pairs"]
        )
        for ncomp in (1, 3):  # scalar and block fp16 payloads
            a = random_sgdia((6, 5, 7), "3d27", ncomp=ncomp).astype("fp16")
            x = np.random.default_rng(0).standard_normal(a.grid.field_shape)
            x = x.astype(np.float32)
            plan = plan_for(a)
            ref = _backend._numpy_backend().spmv(plan, a, x)
            assert ref.tobytes() == be.spmv(plan, a, x).tobytes()


#: each public kernel entry point, the backend entry it must reach, and a
#: call of it without ``plan``
ENTRY_POINTS = {
    "spmv_plain": ("spmv", lambda a, b, x, dinv: spmv_plain(a, x)),
    "spmv": ("spmv", lambda a, b, x, dinv: spmv(a, x)),
    "gs_sweep_colored": ("gs_sweep", gs_sweep_colored),
    "jacobi_sweep": ("spmv", jacobi_sweep),
    "sptrsv": ("sptrsv", lambda a, b, x, dinv: sptrsv(a, b, part="lower")),
}


class TestDispatch:
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_call_without_plan_reaches_backend(self, entry, monkeypatch):
        """Without ``plan`` every entry point looks up the structure's plan
        and runs through the active backend: one kernel, one path."""
        ref = _backend._numpy_backend()
        log = []

        def spy(name):
            def call(plan, *args, **kwargs):
                log.append((name, plan))
                return getattr(ref, name)(plan, *args, **kwargs)

            return call

        recording = dataclasses.replace(
            ref, name="recording", spmv=spy("spmv"), gs_sweep=spy("gs_sweep"),
            sptrsv=spy("sptrsv"),
        )
        monkeypatch.setitem(_backend._REGISTRY, "recording", recording)
        kind, call = ENTRY_POINTS[entry]
        a, b, x, dinv = _case((6, 5, 7), "3d27", "fp16", np.float32)
        with use_backend("recording"):
            call(a, b, x.copy(), dinv)
        assert log == [(kind, plan_for(a))]


# ----------------------------------------------------------------------
# numpy-vs-c parity
# ----------------------------------------------------------------------


def _both(fn, warm=False):
    """Run ``fn()`` under numpy and under c, collecting counters for each;
    assert the counter totals match and return both results.

    With ``warm`` a first, uncounted numpy run builds any lazily planned
    SpTRSV scheme, which the compiled kernel never needs.
    """
    if warm:
        with use_backend("numpy"):
            fn()
    out = []
    for name in ("numpy", "c"):
        with use_backend(name), metrics.collecting() as m:
            out.append(fn())
        out.append(m.totals())
    ref, ref_counts, got, got_counts = out
    assert ref_counts == got_counts
    return ref, got


def _same(ref, got):
    assert ref.dtype == got.dtype and ref.shape == got.shape
    assert ref.tobytes() == got.tobytes()


@functools.lru_cache(maxsize=1)
def _operator(shape, pattern, fmt, cdtype, ncomp):
    """The test operator and its diagonal inverse; cached for the run of
    consecutive cases that differ only in the RHS columns."""
    a = random_sgdia(shape, pattern, ncomp=ncomp).astype(fmt)
    return a, compute_diag_inv(a, cdtype)


def _case(shape, pattern, fmt, cdtype, ncomp=1, k=None):
    a, dinv = _operator(shape, pattern, fmt, cdtype, ncomp)
    rng = np.random.default_rng(7)
    fs = a.grid.field_shape + ((k,) if k else ())
    x = rng.standard_normal(fs).astype(cdtype)
    b = rng.standard_normal(fs).astype(cdtype)
    return a, b, x, dinv


def _inf_at_row_ends(x):
    """Put inf at both ends of grid row (1, 1) of the scalar field ``x``
    (clamped to the grid).  The reference skips a row end's out-of-grid
    term; adding its zero coefficient's product instead would read
    0 * inf = NaN there."""
    x[min(1, x.shape[0] - 1), min(1, x.shape[1] - 1), [0, -1]] = np.inf


def _spmv(a, x, cdtype, **kw):
    plan = plan_for(a)
    return _both(lambda: spmv_plain(a, x, compute_dtype=cdtype, plan=plan, **kw))


def _gs(a, b, x, dinv, cdtype, forward):
    plan = plan_for(a)
    xs = []

    def run():
        xs.append(x.copy())
        gs_sweep_colored(a, b, xs[-1], dinv, forward=forward,
                         compute_dtype=cdtype, plan=plan)
        return xs[-1]

    return _both(run)


def _jacobi(a, b, x, dinv, cdtype):
    plan = plan_for(a)
    xs = []

    def run():
        xs.append(x.copy())
        return jacobi_sweep(a, b, xs[-1], dinv, weight=0.7,
                            compute_dtype=cdtype, plan=plan)

    return _both(run)


def _trsv(a, b, dinv, cdtype, lower):
    plan = plan_for(a)
    part = "lower" if lower else "upper"
    return _both(lambda: sptrsv(a, b, lower=lower, part=part, diag_inv=dinv,
                                compute_dtype=cdtype, plan=plan), warm=True)


@functools.lru_cache(maxsize=1)
def _spied_c():
    """A c backend built over a numpy reference that logs every ``spmv``,
    ``gs_sweep`` and ``sptrsv`` call reaching it (every call the compiled
    kernels handed back), and that log."""
    ref = _backend._numpy_backend()
    log = []

    def spy(name):
        def call(*args, **kwargs):
            log.append(name)
            return getattr(ref, name)(*args, **kwargs)

        return call

    be, status = backend_c.make_backend(
        dataclasses.replace(
            ref, spmv=spy("spmv"), gs_sweep=spy("gs_sweep"), sptrsv=spy("sptrsv")
        )
    )
    assert status == "ok", status
    return be, log


@pytest.fixture
def fallbacks(monkeypatch):
    """Make the spied backend "c" for one test; its log of fallbacks."""
    be, log = _spied_c()
    monkeypatch.setitem(_backend._REGISTRY, "c", be)
    log.clear()
    return log


def _ran_compiled(a, cdtype, fallbacks):
    """No call fell back if the library registered this pair (all twelve
    are, with F16C); otherwise (an fp16 payload without F16C) the calls ran
    on numpy.  A dispatch bug handing compiled calls back to numpy would
    otherwise compare numpy with itself."""
    block = "block:" if a.grid.ncomp != 1 else ""
    pair = f"{block}{a.data.dtype.name}->{np.dtype(cdtype).name}"
    if pair in _spied_c()[0].extras["pairs"]:
        assert fallbacks == [], (pair, fallbacks)
    else:
        assert fallbacks


@needs_c
class TestParity:
    """Scalar operators.  The SpMV, sweep and SpTRSV cases run on the spied
    backend and check that each call ran compiled."""

    @pytest.mark.parametrize("shape", SCALAR_SHAPES)
    @pytest.mark.parametrize("fmt,cdtype", PAYLOADS)
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_spmv(self, pattern, fmt, cdtype, shape, fallbacks):
        """With +0 and -0 among the x values, and inf at a row's ends."""
        a, _b, x, _dinv = _case(shape, pattern, fmt, cdtype)
        x.flat[::5] = 0.0
        x.flat[1::7] = -0.0
        _inf_at_row_ends(x)
        _same(*_spmv(a, x, cdtype))
        _ran_compiled(a, cdtype, fallbacks)

    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("shape", SCALAR_SHAPES)
    @pytest.mark.parametrize("fmt,cdtype", PAYLOADS)
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_gs_sweep(self, pattern, fmt, cdtype, shape, forward, fallbacks):
        """With -0 among the b values, and inf at a row's ends of x."""
        a, b, x, dinv = _case(shape, pattern, fmt, cdtype)
        b.flat[::3] = -0.0
        _inf_at_row_ends(x)
        _same(*_gs(a, b, x, dinv, cdtype, forward))
        _ran_compiled(a, cdtype, fallbacks)

    @pytest.mark.parametrize("ncomp", [1, 3])
    @pytest.mark.parametrize("fmt,cdtype", [("fp16", np.float32),
                                            ("fp64", np.float64)])
    def test_gs_sweep_one_color(self, fmt, cdtype, ncomp, fallbacks):
        """One-color calls (``color=``, as each rank of the distributed
        engine sweeps) run compiled and agree on both backends, and the
        eight calls in ``COLORS8`` order are one forward sweep: on rows
        shorter than a vector, and on interior rows of a first, a middle
        and a last vector."""
        for shape in ((6, 5, 7), (4, 5, 19)):
            a, b, x, dinv = _case(shape, "3d27", fmt, cdtype, ncomp)
            plan = plan_for(a)

            def by_color():
                xs = x.copy()
                for color in COLORS8:
                    gs_sweep_colored(a, b, xs, dinv, compute_dtype=cdtype,
                                     plan=plan, color=color)
                return xs

            ref, got = _both(by_color)
            _same(ref, got)
            _same(got, _gs(a, b, x, dinv, cdtype, True)[1])
            _ran_compiled(a, cdtype, fallbacks)

    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("shape", SCALAR_SHAPES)
    @pytest.mark.parametrize("fmt,cdtype", PAYLOADS)
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_sptrsv(self, pattern, fmt, cdtype, shape, lower, fallbacks):
        a, b, _x, dinv = _case(shape, pattern, fmt, cdtype)
        _same(*_trsv(a, b, dinv, cdtype, lower))
        _ran_compiled(a, cdtype, fallbacks)

    @pytest.mark.parametrize("fmt,cdtype", PAYLOADS)
    def test_sptrsv_triangular_all(self, fmt, cdtype):
        """``part="all"`` on a triangular 3d14 matrix, diag_inv computed."""
        a = random_sgdia((6, 5, 7), "3d14").astype(fmt)
        b = np.random.default_rng(3).standard_normal(a.grid.shape)
        plan = plan_for(a)
        _same(*_both(lambda: sptrsv(a, b, lower=True, compute_dtype=cdtype,
                                    plan=plan), warm=True))

    @pytest.mark.parametrize("fmt,cdtype", PAYLOADS)
    def test_jacobi(self, fmt, cdtype):
        """Scalar, and block (the compiled block SpMV inside) on a vector
        and on an 8-column block."""
        for pattern, ncomp, k in (("3d27", 1, None), ("3d19", 4, None),
                                  ("3d19", 4, 8)):
            a, b, x, dinv = _case((6, 5, 7), pattern, fmt, cdtype, ncomp, k)
            _same(*_jacobi(a, b, x, dinv, cdtype))

    @pytest.mark.parametrize("fmt", ["fp16", "fp32"])
    def test_non_contiguous_views(self, fmt):
        """Strided x/b views (every other cell of a wider array)."""
        a, _b, _x, dinv = _case((6, 5, 7), "3d27", fmt, np.float32)
        rng = np.random.default_rng(11)
        wide = rng.standard_normal((6, 5, 14)).astype(np.float32)
        xv, bv = wide[:, :, ::2], wide[:, :, 1::2]
        assert not xv.flags.c_contiguous
        _same(*_spmv(a, xv, np.float32))
        _same(*_gs(a, bv, xv, dinv, np.float32, True))
        _same(*_trsv(a, bv, dinv, np.float32, False))
        # a non-contiguous x is updated in place, like the reference's
        ref_x, got_x = wide.copy(), wide.copy()
        plan = plan_for(a)
        for name, arr in (("numpy", ref_x), ("c", got_x)):
            with use_backend(name):
                gs_sweep_colored(a, bv, arr[:, :, ::2], dinv, plan=plan)
        _same(ref_x, got_x)
        # block operator: x and b as every other column of a wider block
        a, _b, _x, dinv = _case((6, 5, 7), "3d27", fmt, np.float32, 3)
        wide = rng.standard_normal(a.grid.field_shape + (16,)).astype(np.float32)
        xv, bv = wide[..., ::2], wide[..., 1::2]
        assert not xv.flags.c_contiguous
        _same(*_spmv(a, xv, np.float32))
        _same(*_gs(a, bv, xv, dinv, np.float32, False))
        ref_x, got_x = wide.copy(), wide.copy()
        plan = plan_for(a)
        for name, arr in (("numpy", ref_x), ("c", got_x)):
            with use_backend(name):
                gs_sweep_colored(a, arr[..., 1::2], arr[..., ::2], dinv,
                                 plan=plan)
        _same(ref_x, got_x)

    @pytest.mark.parametrize("fmt", ["fp16", "fp32"])
    def test_x_as_own_rhs(self, fmt):
        """b aliasing x reads each color's b before it is overwritten."""
        for ncomp, k in ((1, None), (3, None), (3, 8)):
            a, _b, x, dinv = _case((6, 5, 7), "3d27", fmt, np.float32, ncomp, k)
            plan = plan_for(a)
            ref, got = x.copy(), x.copy()
            for name, arr in (("numpy", ref), ("c", got)):
                with use_backend(name):
                    gs_sweep_colored(a, arr, arr, dinv, plan=plan)
            _same(ref, got)

    @pytest.mark.parametrize("fmt", ["fp16", "fp32"])
    def test_scaled_spmv(self, fmt):
        """``spmv`` of a scaled StoredMatrix: q*x and y*=q in numpy around
        the backend's product (on a block, one q per dof broadcast over the
        columns)."""
        for pattern, ncomp, k in (("3d27", 1, None), ("3d15", 3, None),
                                  ("3d15", 3, 8)):
            a, _b, x, _dinv = _case((6, 5, 7), pattern, fmt, np.float32, ncomp, k)
            q = np.random.default_rng(5).uniform(0.5, 2.0, a.grid.field_shape)
            stored = StoredMatrix(
                a, DiagonalScaling(1.0, q.astype(np.float32)),
                get_format("fp32"), get_format(fmt),
            )
            plan = plan_for(a)
            _same(*_both(lambda: spmv(stored, x, plan=plan)))

    def test_flat_vector_and_out(self):
        a, _b, x, _dinv = _case((6, 5, 7), "3d27", "fp16", np.float32)
        _same(*_spmv(a, x.ravel(), np.float32))
        outs = [np.empty(a.grid.ndof, np.float64) for _ in range(2)]
        plan = plan_for(a)
        for name, out in zip(("numpy", "c"), outs):
            with use_backend(name):
                assert spmv_plain(a, x, out=out, plan=plan) is out
        _same(*outs)

    @pytest.mark.parametrize("kind", ["aos", "batched"])
    def test_fallback_cases(self, kind):
        """Cases outside the compiled set (AOS payloads, scalar RHS blocks)
        run the numpy kernels unchanged."""
        k = 3 if kind == "batched" else None
        a, b, x, dinv = _case((5, 4, 6), "3d7", "fp16", np.float32, 1, k)
        if kind == "aos":
            a = a.as_layout("aos")
        _same(*_spmv(a, x, np.float32))
        _same(*_gs(a, b, x, dinv, np.float32, True))
        _same(*_trsv(a, b, dinv, np.float32, True))


@needs_c
class TestBlockParity:
    """Block operators (ncomp 2-4) with any number of RHS columns: the
    compiled block SpMV and color sweep against the numpy reference, whose
    block products sum in ascending order from zero for every ``k``.  Each
    case runs on the spied backend and checks that its calls ran compiled."""

    @pytest.mark.parametrize("k", COLUMNS)
    @pytest.mark.parametrize("ncomp", NCOMPS)
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("fmt,cdtype", PAYLOADS)
    @pytest.mark.parametrize("pattern", BLOCK_PATTERNS)
    def test_spmv(self, pattern, fmt, cdtype, shape, ncomp, k, fallbacks):
        a, _b, x, _dinv = _case(shape, pattern, fmt, cdtype, ncomp, k)
        _same(*_spmv(a, x, cdtype))
        _ran_compiled(a, cdtype, fallbacks)

    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("k", COLUMNS)
    @pytest.mark.parametrize("ncomp", NCOMPS)
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("fmt,cdtype", PAYLOADS)
    @pytest.mark.parametrize("pattern", BLOCK_PATTERNS)
    def test_gs_sweep(self, pattern, fmt, cdtype, shape, ncomp, k, forward,
                      fallbacks):
        a, b, x, dinv = _case(shape, pattern, fmt, cdtype, ncomp, k)
        _same(*_gs(a, b, x, dinv, cdtype, forward))
        _ran_compiled(a, cdtype, fallbacks)

    @pytest.mark.parametrize("k", (None, 1, 11))
    @pytest.mark.parametrize("ncomp", NCOMPS)
    @pytest.mark.parametrize("fmt,cdtype", ALL_PAIRS)
    def test_every_pair(self, fmt, cdtype, ncomp, k, fallbacks):
        a, b, x, dinv = _case((6, 5, 7), "3d27", fmt, cdtype, ncomp, k)
        _same(*_spmv(a, x, cdtype))
        for forward in (True, False):
            _same(*_gs(a, b, x, dinv, cdtype, forward))
        _ran_compiled(a, cdtype, fallbacks)


#: Run in a subprocess by TestGuardPages: copies the payload, b, x and dinv
#: of scalar and block operators, the transfer inputs and tables, the setup
#: kernels' FP64 operators and per-dof fields, and the Galerkin passes' fine
#: arrays into fresh anonymous pages, each ending right before
#: (argv[1] == "end") or beginning right after ("start") a PROT_NONE page,
#: then runs the compiled kernels on them.  An SOA payload keeps its padded
#: planes: its last plane ends at the faulting page, or its first plane
#: begins right after it.  An out-of-bounds read faults.
_GUARD_SCRIPT = """
import copy, ctypes, dataclasses, mmap, sys
import numpy as np
from repro.coarsen import build_transfer, galerkin
from repro.grid import StructuredGrid
from repro.kernels import backend as _backend, backend_c, compute_diag_inv, plan_for
from repro.kernels import use_backend
from repro.sgdia import SGDIAMatrix
from repro.sgdia.layout import is_soa, soa_view
from tests.helpers import random_sgdia

PAGE, PROT_NONE = mmap.PAGESIZE, 0
libc = ctypes.CDLL(None, use_errno=True)
libc.mprotect.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
maps = []

# a copy of arr next to a faulting page; an SOA payload keeps its padded
# planes, the guard right after the last plane's end or right before the
# first plane's start
def guarded(arr, at_end):
    soa = is_soa(arr)
    extent = (len(arr) - 1) * arr.strides[0] + arr[0].nbytes if soa else arr.nbytes
    body = -(-extent // PAGE) * PAGE
    buf = mmap.mmap(-1, body + PAGE)
    maps.append(buf)
    base = ctypes.addressof(ctypes.c_char.from_buffer(buf))
    if libc.mprotect(base + body if at_end else base, PAGE, PROT_NONE):
        raise OSError(ctypes.get_errno(), "mprotect failed")
    offset = body - extent if at_end else PAGE
    if soa:
        view = soa_view(buf, offset, arr.shape, arr.dtype)
    else:
        view = np.frombuffer(buf, arr.dtype, arr.size, offset).reshape(arr.shape)
    view[...] = arr
    return view

def guarded_op(a, at_end):
    ag = SGDIAMatrix(a.grid, a.stencil, guarded(a.data, at_end))
    assert is_soa(ag.data) and not np.shares_memory(ag.data, a.data)
    return ag

def refuse(*args, **kwargs):
    raise AssertionError("fell back to numpy")

ref = _backend._numpy_backend()
be, status = backend_c.make_backend(dataclasses.replace(
    ref, spmv=refuse, gs_sweep=refuse, sptrsv=refuse, transfer=refuse,
    galerkin_group=refuse, truncate_audit=refuse, scaled_ratio=refuse))
assert status == "ok", status
at_end = sys.argv[1] == "end"
fmts = ["fp32"] + (["fp16"] if be.extras["f16c"] else [])
# scalar operators: every per-stencil SpMV and sweep (interior rows need
# 3 x 3 x 8 cells; in 3 x 3 x 8 the one interior row's single vector is its
# first and last, and its neighbour rows are the array's first and last),
# the sweep in both directions and SpTRSV; short and long rows
for pattern in ("3d7", "3d15", "3d19", "3d27"):
    for shape in ((5, 3, 19), (4, 3, 2), (3, 4, 10), (3, 3, 8)):
        for fmt in fmts:
            a = random_sgdia(shape, pattern).astype(fmt)
            plan = plan_for(a)
            rng = np.random.default_rng(0)
            b0, x0 = rng.standard_normal((2, *shape)).astype(np.float32)
            dinv0 = compute_diag_inv(a, np.float32)
            ag = guarded_op(a, at_end)
            b, dinv = guarded(b0, at_end), guarded(dinv0, at_end)
            x, xr = guarded(x0, at_end), x0.copy()
            for forward in (True, False):
                be.gs_sweep(plan, ag, b, x, dinv, forward)
                ref.gs_sweep(plan, a, b0, xr, dinv0, forward)
            assert x.tobytes() == xr.tobytes()
            y = be.spmv(plan, ag, x, compute_dtype=np.float32)
            assert y.tobytes() == ref.spmv(plan, a, xr, compute_dtype=np.float32).tobytes()
            be.sptrsv(plan, ag, b, lower=True, part="lower", diag_inv=dinv)

# block operators: SpMV and the sweep in both directions, on a vector and
# on a 3-column block
for shape, ncomp, k in (((5, 3, 7), 2, None), ((3, 2, 4), 3, 3)):
    for fmt in fmts:
        a = random_sgdia(shape, "3d27", ncomp=ncomp).astype(fmt)
        plan = plan_for(a)
        tail = (k,) if k else ()
        b0, x0 = rng.standard_normal((2, *a.grid.field_shape, *tail)).astype(np.float32)
        dinv0 = compute_diag_inv(a, np.float32)
        ag = guarded_op(a, at_end)
        b, dinv = guarded(b0, at_end), guarded(dinv0, at_end)
        x, xr = guarded(x0, at_end), x0.copy()
        for forward in (True, False):
            be.gs_sweep(plan, ag, b, x, dinv, forward)
            ref.gs_sweep(plan, a, b0, xr, dinv0, forward)
        assert x.tobytes() == xr.tobytes()
        y = be.spmv(plan, ag, x, compute_dtype=np.float32)
        assert y.tobytes() == ref.spmv(plan, a, xr, compute_dtype=np.float32).tobytes()

# restrict and prolong: the input and every table guarded; scalar and block
# grids, a vector and a 3-column block, short and long rows
for shape, ncomp, k, factors in (((5, 3, 19), 1, None, (2, 2, 2)),
                                 ((4, 3, 2), 3, 3, (2, 1, 2)),
                                 ((3, 4, 9), 2, None, (1, 4, 2))):
    t = build_transfer(StructuredGrid(shape, ncomp=ncomp), factors)
    for st in (t._restrict, t._prolong):
        gst = copy.copy(st)
        object.__setattr__(gst, "tables", tuple(guarded(a, at_end) for a in st.tables))
        for dtype in (np.float32, np.float64):
            x0 = rng.standard_normal(st.src.field_shape + ((k,) if k else ()))
            x0 = x0.astype(dtype)
            got = be.transfer(gst, guarded(x0, at_end), dtype)
            assert got.tobytes() == ref.transfer(st, x0, dtype).tobytes()

# the setup kernels: the FP64 operator, the weight and the diagonal's square
# root guarded; scalar and block grids, short and long rows, each payload
from repro.precision import get_format
for shape, ncomp in (((5, 3, 19), 1), ((4, 3, 2), 1), ((3, 2, 70), 3), ((2, 3, 5), 4)):
    a = random_sgdia(shape, "3d27", ncomp=ncomp)
    ag = guarded_op(a, at_end)
    w0 = rng.uniform(0.5, 2.0, a.grid.field_shape)
    for fmt in fmts + ["fp64"]:
        storage = get_format(fmt)
        for w in (None, w0):
            want = ref.truncate_audit(a, w, storage, storage)
            got = be.truncate_audit(ag, None if w is None else guarded(w, at_end),
                                    storage, storage)
            assert got[0].tobytes() == want[0].tobytes() and got[2] == want[2]
            assert w is None or got[1].tobytes() == want[1].tobytes()
    sd = np.sqrt(np.abs(a.dof_diagonal()))
    assert be.scaled_ratio(ag, guarded(sd, at_end)) == ref.scaled_ratio(a, sd)

# the Galerkin group kernel: every fine array of each pass guarded, on the
# chunked (long inner axis) and the row (short inner axis) paths
_backend._REGISTRY["c"] = be
_backend._invalidate()
for shape, ncomp, factors in (((6, 5, 70), 1, (2, 2, 2)), ((5, 4, 7), 2, (4, 2, 2))):
    a = random_sgdia(shape, "3d27", ncomp=ncomp)
    t = build_transfer(a.grid, factors)
    ops = {off: np.ascontiguousarray(a.diag_view(d))
           for d, off in enumerate(a.stencil.offsets)}
    for axis in range(3):
        band = galerkin._band(t.p1d[axis], factors[axis])
        got = galerkin._galerkin_pass(
            {o: guarded(v, at_end) for o, v in ops.items()}, axis, factors[axis], band)
        with use_backend("numpy"):
            want = galerkin._galerkin_pass(ops, axis, factors[axis], band)
        assert got.keys() == want.keys()
        assert all(got[o].tobytes() == want[o].tobytes() for o in want)
        ops = want
print("ok")
"""


@needs_c
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="libc mprotect")
class TestGuardPages:
    """The compiled scalar and block sweep (both directions) and SpMV (the
    per-stencil ones too), SpTRSV, restrict, prolong, Galerkin group,
    truncate-and-audit and scaled ratio read nothing outside their arrays:
    each array ends at, or begins after, a page that faults on access, an
    SOA payload on its padded planes.  Rows of a vector plus a tail,
    two-cell rows and an interior row of exactly one vector next to the
    array's first and last rows, whose end vectors and scalar paths are
    where an over-read hides from the parity cases."""

    @pytest.mark.parametrize("placement", ["end", "start"])
    def test_no_read_outside_arrays(self, placement):
        src = Path(repro.__file__).resolve().parents[1]
        root = Path(__file__).resolve().parents[1]
        path = os.pathsep.join(
            p for p in (str(src), str(root), os.environ.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", _GUARD_SCRIPT, placement],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0 and proc.stdout.strip() == "ok", (
            proc.returncode, proc.stderr[-2000:])


@needs_c
class TestOuterSpmv:
    """The outer Krylov SpMV takes the planned path."""

    def test_matvec_matches_csr(self):
        a = random_sgdia((6, 5, 7), "3d27")
        x = np.random.default_rng(2).standard_normal(a.grid.ndof)
        np.testing.assert_allclose(a.matvec(x), a.to_csr() @ x, rtol=1e-12)
        stored = StoredMatrix.truncate(a, "fp16", "fp32", scale=True)
        xs = x.astype(np.float32)
        ref = stored.recovered().to_csr(dtype=np.float64) @ xs.astype(np.float64)
        y = stored.matvec(xs)
        assert y.dtype == np.float32
        assert np.abs(y - ref).max() <= 1e-5 * np.abs(ref).max()

    def test_solve_builds_no_plan_after_setup(self):
        prob = build_problem("laplace27", (12, 12, 12), seed=0)
        h = mg_setup(prob.a, parse_config("K64P32D16-setup-scale"), prob.mg_options)
        with metrics.collecting() as m:
            res = solve("cg", prob.a, prob.b, preconditioner=h.precondition,
                        rtol=1e-8)
        assert res.status == "converged"
        assert m.get("kernel.plan.builds") == 0
