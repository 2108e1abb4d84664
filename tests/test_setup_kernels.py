"""The setup kernels of Algorithm 1 (``truncate_audit`` and ``scaled_ratio``,
:mod:`repro.kernels.truncate`): compiled against the numpy reference byte
for byte, and either backend against FP64 oracles that share no code with
them — the whole-array range formulas, numpy's own casts, the CSR product
``W A W`` and :func:`repro.precision.scaling.max_scaled_ratio` on CSR
triples.  The oracle cases run on the active backend, so CI's rerun under
``REPRO_KERNEL_BACKEND=numpy`` checks the reference itself."""

import dataclasses
import functools

import numpy as np
import pytest
import scipy.sparse as sp

from repro.grid import StructuredGrid
from repro.kernels import available_backends, backend_status, get_backend, use_backend
from repro.kernels import backend as _backend
from repro.kernels import backend_c
from repro.mg import mg_setup
from repro.precision import FP16, FP32, get_format, parse_config
from repro.precision.scaling import max_scaled_ratio
from repro.problems import build_problem
from repro.sgdia import SGDIAMatrix

from tests.helpers import random_sgdia

HAVE_C = "c" in available_backends()
needs_c = pytest.mark.skipif(
    not HAVE_C,
    reason=f"c backend not built: {backend_status()['unavailable'].get('c')}",
)

PATTERNS = ("3d7", "3d15", "3d19", "3d27")
NCOMPS = (1, 2, 3, 4)
STORAGE = ("fp16", "fp32")
#: odd shapes, a one-cell-wide grid, and rows longer than the kernel's chunk
SHAPES = ((6, 5, 7), (1, 1, 9), (2, 3, 700))


def _edge_values() -> np.ndarray:
    """FP64 values at every FP16 rounding edge, with both signs: each finite
    half, each midpoint between adjacent halves and the FP64 values either
    side of it, the overflow edge 65504..65520, values rounding to FP16
    subnormals or to zero, FP32-overflowing and FP64-subnormal values,
    ±0 and ±inf."""
    halves = np.arange(0x7C00, dtype=np.uint16).view(np.float16).astype(np.float64)
    mids = (halves[:-1] + halves[1:]) / 2
    special = [
        65504.0, 65519.99999, 65520.0, np.nextafter(65520.0, 0),
        np.nextafter(65520.0, np.inf), 1e5, 3.5e38, 1e300, np.inf, 0.0,
        5e-324, 1e-310, 2.0**-25, 3 * 2.0**-26, 2.0**-24, 2.0**-14,
    ]
    x = np.concatenate([
        halves, mids, np.nextafter(mids, 0), np.nextafter(mids, np.inf), special
    ])
    return np.concatenate([x, -x])


def _nan(sign: float = 1.0) -> float:
    return float(np.copysign(np.nan, sign))


def _operator(pattern, ncomp, shape, seed=0, planted=None) -> SGDIAMatrix:
    """A random operator whose magnitudes span 1e-10..1e8 (every count is
    nonzero), with ``planted`` values written over the first coefficients;
    its diagonal stays positive for the scaling."""
    a = random_sgdia(shape, pattern, ncomp=ncomp, seed=seed)
    rng = np.random.default_rng(seed + 1)
    d = a.stencil.diag_index
    off = np.ones(a.data.shape, dtype=bool)
    off[d] = False
    a.data[off] *= 10.0 ** rng.uniform(-10, 8, int(off.sum()))
    if planted is not None:
        flat = a.data[off]
        n = min(flat.size, planted.size)
        flat[:n] = planted[:n]
        a.data[off] = flat
    return a


def _weight(a, seed=2) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.25, 4.0, a.grid.field_shape)


def _sqrt_diag(a) -> np.ndarray:
    return np.sqrt(np.abs(a.dof_diagonal()))


@functools.lru_cache(maxsize=1)
def _spied_c():
    """A c backend built over a numpy reference that logs every call the
    compiled setup kernels hand back to it, and that log."""
    ref = _backend._numpy_backend()
    log = []

    def spy(name):
        def call(*args, **kwargs):
            log.append(name)
            return getattr(ref, name)(*args, **kwargs)

        return call

    be, status = backend_c.make_backend(dataclasses.replace(
        ref, truncate_audit=spy("truncate_audit"), scaled_ratio=spy("scaled_ratio")))
    assert status == "ok", status
    return be, log


def _both(name, *args):
    """``name`` on the reference and on the spied c backend; the c call must
    not fall back, except for an FP16 payload on a library without F16C
    (whose results then trivially agree)."""
    want = getattr(_backend._numpy_backend(), name)(*args)
    be, log = _spied_c()
    log.clear()
    got = getattr(be, name)(*args)
    storage = args[2] if name == "truncate_audit" else None
    assert log == [] or not _compiled(storage), log
    return want, got


def _same_arrays(want, got):
    if want is None:
        assert got is None
        return
    assert want.dtype == got.dtype and want.shape == got.shape
    assert want.tobytes() == got.tobytes()


def _compiled(storage) -> bool:
    """Whether the c library writes this payload format (FP16 needs F16C;
    without it the kernel hands FP16 payloads to numpy)."""
    if storage is None:
        return True
    name = get_format(storage).np_dtype.name
    return f"truncate_audit:float64->{name}" in _spied_c()[0].extras["setup"]


@needs_c
class TestParity:
    """Compiled against reference: payload, scaled FP64 operator, counts
    (``RangeCounts`` compares every field, ``max_abs`` exactly)."""

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("storage", STORAGE)
    @pytest.mark.parametrize("ncomp", NCOMPS)
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_truncate_audit(self, pattern, ncomp, storage, shape):
        a = _operator(pattern, ncomp, shape, planted=_edge_values())
        for weight in (None, _weight(a), np.ones(a.grid.field_shape)):
            for audit in (storage, "fp16"):
                want, got = _both("truncate_audit", a, weight, get_format(storage),
                                  get_format(audit))
                _same_arrays(want[0], got[0])
                _same_arrays(want[1], got[1])
                assert want[2] == got[2]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("ncomp", NCOMPS)
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_scaled_ratio(self, pattern, ncomp, shape):
        a = _operator(pattern, ncomp, shape)
        want, got = _both("scaled_ratio", a, _sqrt_diag(a))
        assert want == got and want > 0

    @pytest.mark.parametrize("storage", ("fp16", "fp32", "fp64", None))
    def test_audit_only_and_fp64_payload(self, storage):
        a = _operator("3d27", 3, (4, 3, 5))
        fmt = None if storage is None else get_format(storage)
        for weight in (None, _weight(a)):
            want, got = _both("truncate_audit", a, weight, fmt, FP16)
            _same_arrays(want[0], got[0])
            _same_arrays(want[1], got[1])
            assert want[2] == got[2]

    @pytest.mark.parametrize("storage", STORAGE)
    def test_edge_values_give_numpys_bits(self, storage):
        """Every edge value, quiet NaN of both signs and ±inf, unscaled and
        scaled by exact unit weights, give the bits of numpy's own cast."""
        x = np.concatenate([_edge_values(), [_nan(), _nan(-1.0)]])
        nz = 512
        data = np.zeros((1, -(-x.size // nz) * nz))
        data[0, : x.size] = x
        grid = StructuredGrid((data.shape[1] // nz, 1, nz))
        a = SGDIAMatrix(grid, "3d7", np.zeros((7, *grid.shape)))
        a.data[a.stencil.diag_index] = data.reshape(grid.shape)
        cast = a.data.astype(get_format(storage).np_dtype)
        for weight in (None, np.ones(grid.field_shape)):
            want, (payload, _, counts) = _both(
                "truncate_audit", a, weight, get_format(storage), FP16
            )
            assert payload.tobytes() == cast.tobytes()
            assert counts == want[2] and counts.n_nonfinite == 4

    def test_nan_and_inf_operator_entries(self):
        """Non-finite entries in a scaled block operator: NaN stays NaN with
        numpy's bits, inf stays inf, and an offset whose ratio is NaN is
        skipped the way numpy's max and Python's max skip it."""
        a = _operator("3d19", 2, (5, 4, 6))
        a.data[3, 2, 1, 1] = [[np.inf, _nan()], [-np.inf, _nan(-1.0)]]
        for storage in (FP16, FP32):
            want, got = _both("truncate_audit", a, _weight(a), storage, storage)
            _same_arrays(want[0], got[0])
            _same_arrays(want[1], got[1])
            assert want[2] == got[2] and got[2].n_nonfinite == 4
        sd = _sqrt_diag(a)
        for bad in (np.nan, np.inf):
            sd.flat[7] = bad
            want, got = _both("scaled_ratio", a, sd)
            assert want == got

    @pytest.mark.parametrize("case", ["bf16", "aos", "float32", "ncomp5"])
    def test_outside_the_compiled_set(self, case):
        """BF16 payloads, AOS layouts, non-FP64 data and blocks above 4x4
        run the numpy reference unchanged."""
        a = _operator("3d7", 5 if case == "ncomp5" else 1, (3, 4, 5))
        storage = FP16
        if case == "bf16":
            storage = get_format("bf16")
        elif case == "aos":
            a = a.as_layout("aos")
        elif case == "float32":
            a = SGDIAMatrix(a.grid, a.stencil, a.data.astype(np.float32))
        ref = _backend._numpy_backend()
        be, log = _spied_c()
        log.clear()
        args = (a, _weight(a), storage, FP16)
        want, got = ref.truncate_audit(*args), be.truncate_audit(*args)
        _same_arrays(want[0], got[0])
        assert want[2] == got[2]
        assert be.scaled_ratio(a, _sqrt_diag(a)) == ref.scaled_ratio(a, _sqrt_diag(a))
        # a BF16 payload leaves the FP64 operator itself to the ratio kernel
        assert log == ["truncate_audit"] + ["scaled_ratio"] * (case != "bf16")


class TestOracles:
    """The active backend against FP64 oracles that share no code with it."""

    @pytest.mark.parametrize("storage", STORAGE)
    @pytest.mark.parametrize("ncomp", NCOMPS)
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_scale_audit_truncate(self, pattern, ncomp, storage):
        """The scaled values are ``W A W`` of a CSR product (within 2 ulps:
        CSR rounds ``w_i a_ij w_j`` in its own order); the payload is
        numpy's cast of them; the counts are the whole-array formulas."""
        a = _operator(pattern, ncomp, (5, 4, 6), planted=_edge_values()[::401])
        a.data[a.stencil.diag_index].flat[3] = np.inf
        a.zero_boundary()  # CSR holds no out-of-grid entries
        w = _weight(a)
        fmt = get_format(storage)
        payload, scaled, counts = get_backend().truncate_audit(a, w, fmt, FP16)
        csr_w = sp.diags(w.ravel())
        oracle = SGDIAMatrix.from_csr(
            csr_w @ a.to_csr() @ csr_w, a.grid, a.stencil, strict=False
        ).data
        # FP64 subnormal products lose their ulps to either rounding order
        normal = np.isfinite(oracle) & (np.abs(oracle) > 1e-290)
        np.testing.assert_array_max_ulp(scaled[normal], oracle[normal], maxulp=2)
        np.testing.assert_array_equal(np.isfinite(scaled), np.isfinite(oracle))
        assert np.abs(scaled - oracle)[np.isfinite(oracle) & ~normal].max() < 1e-289
        assert payload.tobytes() == scaled.astype(fmt.np_dtype).tobytes()
        v = np.abs(scaled)
        fin = np.isfinite(v)
        assert counts.n_values == v.size
        assert counts.n_nonzero == np.count_nonzero(v)
        assert counts.n_nonfinite == v.size - np.count_nonzero(fin)
        assert counts.n_overflow == np.count_nonzero(fin & (v > FP16.max)) > 0
        assert counts.n_underflow == np.count_nonzero((v > 0) & (v < FP16.tiny)) > 0
        assert counts.n_subnormal == np.count_nonzero(
            (v >= FP16.tiny) & (v < FP16.min_normal)
        )
        assert counts.max_abs == v[fin].max()

    @pytest.mark.parametrize("ncomp", NCOMPS)
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_scaled_ratio_matches_csr_triples(self, pattern, ncomp):
        a = _operator(pattern, ncomp, (5, 4, 6))
        csr = a.to_csr().tocoo()
        diag = a.to_csr().diagonal()
        want = max_scaled_ratio(csr.data, diag[csr.row], diag[csr.col])
        assert a.max_scaled_ratio() == pytest.approx(want, rel=1e-14)

    def test_max_abs(self):
        a = _operator("3d27", 2, (4, 5, 3))
        a.data[0, 1, 1, 1, 0, 1] = -np.inf
        v = np.abs(a.data)
        assert a.max_abs() == v[np.isfinite(v)].max()


@needs_c
class TestSetupRunsCompiled:
    """A spied ``mg_setup`` on the c backend: no level's scale, audit or
    truncation may fall back to numpy, on scalar and block problems, for
    every strategy, with scaled levels, the auto shift and FP32 storage."""

    @pytest.mark.parametrize("config", [
        "K64P32D16-setup-scale", "K64P32D16-scale-setup", "K64P32D16-none",
        "K64P32D32", "Full64", "K64P32D16-setup-scale+sauto",
    ])
    @pytest.mark.parametrize("problem,shape", [
        ("laplace27", (10, 10, 10)), ("laplace27e8", (10, 10, 10)),
        ("solid-3d", (6, 6, 6)), ("oil-4c", (6, 6, 6)),
    ])
    def test_no_level_falls_back(self, problem, shape, config, monkeypatch):
        if not _compiled("fp16"):
            pytest.skip("no F16C: FP16 payloads are converted by numpy")

        def refuse(*args, **kwargs):
            raise AssertionError("fell back to numpy")

        ref = _backend._numpy_backend()
        be, status = backend_c.make_backend(
            dataclasses.replace(ref, truncate_audit=refuse, scaled_ratio=refuse)
        )
        assert status == "ok", status
        monkeypatch.setitem(_backend._REGISTRY, "c", be)
        prob = build_problem(problem, shape, seed=0)
        with use_backend("c"):
            h = mg_setup(prob.a, parse_config(config), prob.mg_options)
        with use_backend("numpy"):
            want = mg_setup(prob.a, parse_config(config), prob.mg_options)
        assert h.diagnostics == want.diagnostics
        for got_l, want_l in zip(h.levels, want.levels):
            assert got_l.stored.matrix.data.tobytes() == want_l.stored.matrix.data.tobytes()
        if problem != "laplace27" and "D16-s" in config:
            assert any(lv.stored.is_scaled for lv in h.levels) or h.entry_scaling
