"""Loaders reject a coefficient record whose shape or dtype does not match
the grid, stencil, layout and storage format its record claims, with a
ValueError naming the record, before any solve runs on it."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mg import MGOptions, mg_setup
from repro.precision import parse_config
from repro.serve.cache import load_hierarchy, save_hierarchy
from repro.sgdia import load_sgdia, load_stored, save_sgdia, save_stored
from repro.sgdia.io import atomic_savez
from repro.sgdia.mixed import StoredMatrix
from tests.helpers import random_sgdia

CONFIG = parse_config("K64P32D16-setup-scale")


def rewrite(records: dict, name: str, edit) -> dict:
    out = {k: np.asarray(v) for k, v in records.items()}
    out[name] = edit(out[name])
    return out


def one_plane_short(arr):
    return np.ascontiguousarray(arr[:, :-1])


def read_npz(source) -> dict:
    with np.load(source) as npz:
        return {k: npz[k] for k in npz.files}


@pytest.fixture(scope="module")
def setup():
    """A hierarchy whose levels are scaled (values beyond FP16's range)."""
    a = random_sgdia((10, 8, 12), "3d27", spd=True)
    a.data[...] *= 1e6
    return a, mg_setup(a, CONFIG, MGOptions())


class TestStoredRecords:
    def test_load_stored_short_plane(self, tmp_path):
        stored = StoredMatrix.truncate(random_sgdia((5, 4, 6)), "fp16", "fp32")
        path = save_stored(tmp_path / "s.npz", stored)
        atomic_savez(path, **rewrite(read_npz(path), "data", one_plane_short))
        with pytest.raises(ValueError, match=r"record 'data'.*shape \(27, 4, 4, 6\)"):
            load_stored(path)

    def test_load_stored_wrong_dtype(self, tmp_path):
        stored = StoredMatrix.truncate(random_sgdia((5, 4, 6)), "fp16", "fp32")
        path = save_stored(tmp_path / "s.npz", stored)
        atomic_savez(path, **rewrite(read_npz(path), "data",
                                     lambda d: d.astype(np.float32)))
        with pytest.raises(ValueError, match=r"record 'data'.*float32"):
            load_stored(path)

    def test_load_sgdia_short_plane(self, tmp_path):
        path = save_sgdia(tmp_path / "a.npz", random_sgdia((5, 4, 6)))
        atomic_savez(path, **rewrite(read_npz(path), "data", one_plane_short))
        with pytest.raises(ValueError, match="record 'data'"):
            load_sgdia(path)


class TestHierarchyRecords:
    def test_spill_restore_short_plane(self, setup, tmp_path):
        _a, h = setup
        path = save_hierarchy(tmp_path / "h.npz", h)
        atomic_savez(path, **rewrite(read_npz(path), "L0_data", one_plane_short))
        with pytest.raises(ValueError, match=r"level 0 record 'L0_data'"):
            load_hierarchy(path, CONFIG, MGOptions())

    def test_spill_restore_sqrt_q_shape(self, setup, tmp_path):
        _a, h = setup
        path = save_hierarchy(tmp_path / "h.npz", h)
        records = read_npz(path)
        scaled = [k for k in records if k.endswith("_sqrt_q") and k.startswith("L")]
        assert scaled
        atomic_savez(path, **rewrite(records, scaled[0], one_plane_short))
        with pytest.raises(ValueError, match="sqrt_q of shape"):
            load_hierarchy(path, CONFIG, MGOptions())

    def test_spill_restore_level_dtype(self, setup, tmp_path):
        _a, h = setup
        path = save_hierarchy(tmp_path / "h.npz", h)
        atomic_savez(path, **rewrite(read_npz(path), "L1_data",
                                     lambda d: d.astype(np.float64)))
        with pytest.raises(ValueError, match=r"level 1 record 'L1_data'.*float64"):
            load_hierarchy(path, CONFIG, MGOptions())
