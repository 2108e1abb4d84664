"""The padded SOA layout (repro.sgdia.layout) and every producer of it."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coarsen import build_transfer
from repro.coarsen.galerkin import galerkin_coarse_sgdia
from repro.kernels import available_backends, use_backend
from repro.mg import MGOptions, mg_setup
from repro.precision import parse_config
from repro.serve.cache import load_hierarchy, save_hierarchy
from repro.sgdia import (
    SGDIAMatrix,
    load_sgdia,
    load_stored,
    save_sgdia,
    save_stored,
)
from repro.sgdia.layout import is_soa, plane_stride, soa_empty, soa_view
from repro.sgdia.mixed import StoredMatrix
from tests.helpers import random_sgdia

CONFIG = parse_config("K64P32D16-setup-scale")


def assert_padded(data: np.ndarray, logical: np.ndarray) -> None:
    """``data`` is on padded planes and holds exactly ``logical``."""
    assert is_soa(data)
    plane = int(np.prod(data.shape[1:]))
    assert data.strides[0] == plane_stride(plane, data.itemsize) * data.itemsize
    assert data.strides[0] > data[0].nbytes
    assert data.dtype == logical.dtype and data.shape == logical.shape
    assert data.nbytes == logical.nbytes and data.size == logical.size
    assert data.tobytes() == np.ascontiguousarray(logical).tobytes()


class TestPlaneStride:
    @pytest.mark.parametrize("itemsize", [2, 4, 8])
    @pytest.mark.parametrize("plane", [1, 7, 512, 4096, 64**3, 30 * 31 * 17])
    def test_rule(self, plane, itemsize):
        s = plane_stride(plane, itemsize) * itemsize
        assert s % 128 == 64 and (s // 64) % 2 == 1  # an odd number of lines
        assert plane * itemsize + 192 <= s < plane * itemsize + 128 + 192

    @pytest.mark.parametrize("itemsize", [2, 4, 8])
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 13, 16, 32, 64, 128])
    def test_27_planes_in_distinct_sets(self, n, itemsize):
        """A grid's 27 planes start in 27 distinct sets of a 64-set L1
        (4 KiB period) and a 2048-set L2 (128 KiB period)."""
        s = plane_stride(n**3, itemsize) * itemsize
        for period in (4096, 128 * 1024):
            sets = {(d * s % period) // 64 for d in range(27)}
            assert len(sets) == 27

    def test_view_on_buffer(self):
        shape = (3, 4, 5, 6)
        s = plane_stride(120, 4)
        buf = bytearray(4 * (2 * s + 120) + 8)
        v = soa_view(buf, 8, shape, np.float32)
        v[...] = np.arange(360, dtype=np.float32).reshape(shape)
        assert is_soa(v)
        assert np.frombuffer(buf, np.float32, 120, 8 + 4 * s)[0] == 120.0

    def test_empty_is_aligned(self):
        for zero in (False, True):
            a = soa_empty((27, 5, 6, 7), np.float16, zero=zero)
            assert a.ctypes.data % 64 == 0 and is_soa(a)
        assert not soa_empty((2, 3, 3, 3), np.float64, zero=True).any()


class TestProducers:
    """Each SOA producer yields the padded stride, with ``tobytes()`` and
    ``nbytes`` of the logical array."""

    @pytest.mark.parametrize("ncomp", [1, 3])
    def test_zeros_copy_astype(self, ncomp):
        a = random_sgdia((5, 4, 6), "3d27", ncomp=ncomp)
        logical = np.ascontiguousarray(a.data)
        assert_padded(a.data, logical)  # zeros, then filled in place
        assert_padded(a.copy().data, logical)
        for fmt, dtype in (("fp16", np.float16), ("fp32", np.float32),
                           ("bf16", np.float32)):
            got = a.astype(fmt).data
            assert_padded(got, got.copy())
            if fmt != "bf16":
                assert got.tobytes() == logical.astype(dtype).tobytes()

    def test_constructor_copies_unpadded_once(self):
        a = random_sgdia((4, 3, 5), "3d19")
        plain = np.ascontiguousarray(a.data)
        b = SGDIAMatrix(a.grid, a.stencil, plain)
        assert_padded(b.data, plain)
        assert not np.shares_memory(b.data, plain)
        c = SGDIAMatrix(a.grid, a.stencil, b.data)  # already padded: no copy
        assert c.data is b.data

    def test_aos_not_padded(self):
        a = random_sgdia((4, 3, 5), "3d7")
        aos = a.as_layout("aos")
        assert aos.data.flags.c_contiguous
        back = aos.as_layout("soa")
        assert_padded(back.data, np.ascontiguousarray(a.data))

    def test_wrong_shape_rejected(self):
        a = random_sgdia((4, 3, 5), "3d7")
        with pytest.raises(ValueError, match="does not match"):
            SGDIAMatrix(a.grid, a.stencil, np.ascontiguousarray(a.data)[:, :-1])

    def test_galerkin(self):
        a = random_sgdia((8, 6, 10), "3d27")
        t = build_transfer(a.grid, (2, 2, 2))
        ref = None
        for name in available_backends():
            with use_backend(name):
                c = galerkin_coarse_sgdia(a, t)
            assert_padded(c.data, c.data.copy())
            if ref is None:
                ref = c.data.tobytes()
            assert c.data.tobytes() == ref

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("ncomp", [1, 2])
    def test_truncate_audit(self, backend, ncomp):
        a = random_sgdia((5, 4, 9), "3d27", ncomp=ncomp)
        w = np.random.default_rng(1).uniform(0.5, 2.0, a.grid.field_shape)
        with use_backend(backend) as be:
            for fmt in ("fp16", "fp32", "fp64"):
                payload, scaled, _ = be.truncate_audit(a, w, fmt, fmt)
                want = a.scaled_two_sided(w).data
                assert_padded(scaled, np.ascontiguousarray(want))
                assert_padded(payload, np.ascontiguousarray(want).astype(payload.dtype))
                stored = StoredMatrix.truncate(a, fmt, "fp32", scale=True)
                assert is_soa(stored.matrix.data)

    def test_io_loaders(self, tmp_path):
        a = random_sgdia((4, 5, 6), "3d27")
        for fmt in ("fp16", "fp64"):
            b = a.astype(fmt)
            path = save_sgdia(tmp_path / f"a_{fmt}.npz", b)
            assert_padded(load_sgdia(path).data, np.ascontiguousarray(b.data))
        stored = StoredMatrix.truncate(a, "fp16", "fp32", scale=True)
        path = save_stored(tmp_path / "s.npz", stored)
        assert_padded(load_stored(path).matrix.data,
                      np.ascontiguousarray(stored.matrix.data))

    def test_spill_restore(self, tmp_path):
        a = random_sgdia((10, 8, 12), "3d27", spd=True)
        h = mg_setup(a, CONFIG, MGOptions())
        path = save_hierarchy(tmp_path / "h.npz", h)
        restored = load_hierarchy(path, CONFIG, MGOptions())
        for lev, orig in zip(restored.levels, h.levels):
            assert_padded(lev.stored.matrix.data,
                          np.ascontiguousarray(orig.stored.matrix.data))

    def test_setup_levels_and_accounting(self):
        a = random_sgdia((10, 8, 12), "3d27", spd=True)
        h = mg_setup(a, CONFIG, MGOptions())
        for lev in h.levels:
            data = lev.stored.matrix.data
            assert is_soa(data)
            assert lev.stored.matrix.value_nbytes() == data.size * data.itemsize
