"""Persistence for SG-DIA matrices and problems.

The paper publishes its matrices on Zenodo; this module provides the
equivalent round-trip for the reproduction: a compact ``.npz`` container
for SG-DIA operators (coefficients + stencil + grid metadata, any value
precision) and a Matrix Market exporter for interoperability with other
solvers (hypre drivers, PETSc, Julia, ...).

Files hold the logical coefficient array.  The loaders check a record's
``.npy`` header against the grid, stencil and layout (and value format)
it claims, then read its values straight onto the padded planes of
:mod:`repro.sgdia.layout`.
"""

from __future__ import annotations

import json
import os
import uuid
import zipfile
import zlib
from pathlib import Path

import numpy as np

from ..grid import Stencil, StructuredGrid
from .layout import soa_empty
from .matrix import SGDIAMatrix, coefficient_shape

__all__ = [
    "atomic_savez",
    "open_npz_bytes",
    "save_sgdia",
    "load_sgdia",
    "save_stored",
    "load_stored",
    "savez_bytes",
    "stored_to_arrays",
    "read_coefficients",
    "stored_from_npz",
    "write_matrix_market",
]

_FORMAT_VERSION = 1
_STORED_VERSION = 1


def _fsync_dir(path: Path) -> None:
    """Best-effort directory fsync so a rename survives a crash."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. Windows, odd mounts
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def atomic_savez(path: "str | Path", **arrays) -> Path:
    """``np.savez_compressed`` with crash-safe temp-file + rename semantics.

    The container is written to a uniquely named sibling temp file, flushed
    and fsynced, then moved over ``path`` with :func:`os.replace` (atomic on
    POSIX).  A crash at any point leaves either the previous file or no
    file — never a truncated ``.npz`` a loader could half-trust.  Appends
    the ``.npz`` suffix like ``np.savez`` does when it is missing, and
    returns the final path.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    tmp = path.with_name(
        f".{path.name}.tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    )
    try:
        with open(tmp, "wb") as f:
            np.savez_compressed(f, **arrays)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
        _fsync_dir(path.parent)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def savez_bytes(**arrays) -> bytes:
    """Serialize arrays to an *uncompressed* in-memory ``.npz`` container.

    The shared-memory publication path uses this: segments live in RAM, so
    deflate would only add CPU time between a worker and its hierarchy.
    Integrity is not zip CRCs here — the segment header carries its own
    CRC32/sha256 over these exact bytes.
    """
    import io

    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def open_npz_bytes(data: bytes):
    """``np.load`` an in-memory ``.npz`` payload (see :func:`savez_bytes`).

    Raises :class:`ValueError` for anything unreadable, mirroring
    :func:`_open_npz` — a corrupt payload is one exception type, not a
    traceback lottery.
    """
    import io

    try:
        return np.load(io.BytesIO(data), allow_pickle=False)
    except (
        ValueError,
        OSError,
        EOFError,
        KeyError,
        zipfile.BadZipFile,
    ) as exc:
        raise ValueError(f"npz payload is corrupt or truncated: {exc}") from exc


def _open_npz(path: Path):
    """``np.load`` with the raw failure modes mapped to clear ``ValueError``s.

    A truncated download or a partially written spill file surfaces as
    ``zipfile.BadZipFile`` / ``OSError`` / ``EOFError`` deep inside numpy;
    callers (the hierarchy cache in particular) need a single exception type
    that says *this file is unusable*, not a traceback lottery.
    """
    if not path.exists():
        raise ValueError(f"sgdia file {path} does not exist")
    try:
        return np.load(path, allow_pickle=False)
    except (
        ValueError,
        OSError,
        EOFError,
        KeyError,
        zipfile.BadZipFile,
    ) as exc:
        raise ValueError(
            f"sgdia file {path} is corrupt or truncated: {exc}"
        ) from exc


def _npz_meta(npz, path: Path, *, expect_version: int, keys=("data", "offsets")) -> dict:
    """Decode and sanity-check the JSON meta record of a container."""
    if "meta" not in npz.files:
        raise ValueError(f"sgdia file {path} has no 'meta' record (corrupt header?)")
    try:
        meta = json.loads(bytes(npz["meta"]).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(
            f"sgdia file {path} has a corrupt meta header: {exc}"
        ) from exc
    if meta.get("version") != expect_version:
        raise ValueError(
            f"unsupported sgdia file version {meta.get('version')!r} in {path}"
        )
    missing = [k for k in keys if k not in npz.files]
    if missing:
        raise ValueError(
            f"sgdia file {path} is missing records {missing} (truncated?)"
        )
    return meta


#: the dtypes an SG-DIA coefficient record may hold
_VALUE_DTYPES = tuple(np.dtype(t) for t in (np.float16, np.float32, np.float64))


def _read_into(f, out: np.ndarray, where: str) -> None:
    """Fill the C-contiguous ``out`` from the stream ``f``."""
    view = memoryview(out).cast("B")
    got = 0
    while got < len(view):
        n = f.readinto(view[got:])
        if not n:
            raise ValueError(f"{where} is truncated")
        got += n


def read_coefficients(
    npz, name: str, grid: StructuredGrid, stencil: Stencil, layout: str,
    dtypes, where: str,
) -> np.ndarray:
    """Record ``name`` of an open npz as the coefficient array of an
    operator on ``grid`` with ``stencil`` in ``layout``.

    The record's header must give that operator's shape and one of
    ``dtypes``; a :class:`ValueError` naming ``where`` and the record says
    otherwise.  The values are then read straight into the array, onto
    padded planes for SOA.
    """
    label = f"{where} record {name!r}"
    if name not in npz.files:
        raise ValueError(f"{label} is missing (truncated?)")
    try:
        with npz.zip.open(f"{name}.npy") as f:
            version = np.lib.format.read_magic(f)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(f)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(f)
            else:
                raise ValueError(f"{label} has .npy format version {version}")
            if layout not in ("soa", "aos"):
                raise ValueError(f"{label} claims unknown layout {layout!r}")
            want = coefficient_shape(grid, stencil, layout)
            if shape != want or dtype not in dtypes or (fortran and len(shape) > 1):
                raise ValueError(
                    f"{label} holds a {dtype} array of shape {shape}"
                    f"{' in Fortran order' if fortran else ''}; its grid "
                    f"{grid.shape} (ncomp {grid.ncomp}), stencil {stencil.name} "
                    f"and layout {layout!r} need shape {want} and dtype "
                    f"{' or '.join(str(d) for d in dtypes)}"
                )
            if layout == "soa":
                out = soa_empty(shape, dtype)
                for plane in out:
                    _read_into(f, plane, label)
            else:
                out = np.empty(shape, dtype)
                _read_into(f, out, label)
    except (OSError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        raise ValueError(f"{label} is corrupt or truncated: {exc}") from exc
    return out


def _structure(meta: dict, offsets=None) -> tuple[StructuredGrid, Stencil]:
    """The grid and stencil a record's meta describes (``offsets`` from
    the meta unless given)."""
    grid = StructuredGrid(
        tuple(meta["shape"]),
        ncomp=int(meta["ncomp"]),
        spacing=tuple(meta["spacing"]),
    )
    offsets = meta["offsets"] if offsets is None else offsets
    stencil = Stencil(
        name=meta["stencil_name"],
        offsets=tuple(tuple(int(c) for c in off) for off in offsets),
    )
    return grid, stencil


def save_sgdia(path: "str | Path", a: SGDIAMatrix) -> Path:
    """Write an SG-DIA matrix to a compressed ``.npz`` file."""
    path = Path(path)
    meta = {
        "version": _FORMAT_VERSION,
        "shape": list(a.grid.shape),
        "ncomp": a.grid.ncomp,
        "spacing": list(a.grid.spacing),
        "stencil_name": a.stencil.name,
        "layout": a.layout,
    }
    return atomic_savez(
        path,
        data=a.data,
        offsets=a.stencil.offsets_array,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
    )


def load_sgdia(path: "str | Path") -> SGDIAMatrix:
    """Read an SG-DIA matrix written by :func:`save_sgdia`.

    Raises :class:`ValueError` with a clear message when the file is
    missing, truncated, or has a corrupt/unsupported header.
    """
    path = Path(path)
    with _open_npz(path) as npz:
        meta = _npz_meta(npz, path, expect_version=_FORMAT_VERSION)
        grid, stencil = _structure(meta, npz["offsets"])
        data = read_coefficients(
            npz, "data", grid, stencil, meta["layout"], _VALUE_DTYPES,
            f"sgdia file {path}",
        )
        return SGDIAMatrix(grid, stencil, data, layout=meta["layout"])


# ----------------------------------------------------------------------
# mixed-precision StoredMatrix persistence (hierarchy cache spill)
# ----------------------------------------------------------------------

def stored_to_arrays(stored) -> tuple[dict, dict]:
    """Flatten a :class:`~repro.sgdia.StoredMatrix` to ``(meta, arrays)``.

    The FP16 payload and the ``sqrt(Q)`` scaling vector are kept in their
    native dtypes, so a save/load round trip is bit-exact — a reloaded
    hierarchy must precondition *identically* to the one that was spilled,
    or cached and fresh solves drift apart.  (BF16 payloads are quantized
    values in a float32 array; the array round-trips exactly and ``storage``
    in the meta keeps the accounting honest.)
    """
    a = stored.matrix
    meta = {
        "shape": list(a.grid.shape),
        "ncomp": a.grid.ncomp,
        "spacing": list(a.grid.spacing),
        "stencil_name": a.stencil.name,
        "offsets": [list(off) for off in a.stencil.offsets],
        "layout": a.layout,
        "compute": stored.compute.name,
        "storage": stored.storage.name,
        "scaled": stored.is_scaled,
        "g": stored.scaling.g if stored.is_scaled else None,
    }
    arrays = {"data": a.data}
    if stored.is_scaled:
        arrays["sqrt_q"] = stored.scaling.sqrt_q
    return meta, arrays


def stored_from_npz(npz, meta: dict, prefix: str, where: str):
    """Rebuild a :class:`~repro.sgdia.StoredMatrix` from the records
    ``{prefix}data`` and ``{prefix}sqrt_q`` of an open npz whose meta
    record is ``meta`` (written by :func:`stored_to_arrays`).

    The payload is read straight onto padded planes
    (:func:`read_coefficients`); a record that does not fit the grid,
    stencil, layout and storage format of ``meta`` raises
    :class:`ValueError` naming ``where``.
    """
    from ..precision import DiagonalScaling, get_format
    from .mixed import StoredMatrix

    grid, stencil = _structure(meta)
    storage = get_format(meta["storage"])
    data = read_coefficients(npz, f"{prefix}data", grid, stencil, meta["layout"],
                             (storage.np_dtype,), where)
    scaling = None
    if meta["scaled"]:
        if f"{prefix}sqrt_q" not in npz.files:
            raise ValueError(
                f"{where} is missing the {prefix}sqrt_q record (truncated?)"
            )
        sqrt_q = npz[f"{prefix}sqrt_q"]
        if sqrt_q.shape != grid.field_shape:
            raise ValueError(
                f"{where} holds a sqrt_q of shape {sqrt_q.shape}; its grid "
                f"needs {grid.field_shape}"
            )
        scaling = DiagonalScaling(g=float(meta["g"]), sqrt_q=sqrt_q)
    return StoredMatrix(
        matrix=SGDIAMatrix(grid, stencil, data, layout=meta["layout"]),
        scaling=scaling,
        compute=get_format(meta["compute"]),
        storage=storage,
    )


def save_stored(path: "str | Path", stored) -> Path:
    """Write a mixed-precision stored operator to a ``.npz`` container."""
    path = Path(path)
    meta, arrays = stored_to_arrays(stored)
    meta["version"] = _STORED_VERSION
    return atomic_savez(
        path,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        **arrays,
    )


def load_stored(path: "str | Path"):
    """Read a stored operator written by :func:`save_stored` (bit-exact).

    Raises :class:`ValueError` on missing/truncated/corrupt files, like
    :func:`load_sgdia`.
    """
    path = Path(path)
    with _open_npz(path) as npz:
        meta = _npz_meta(npz, path, expect_version=_STORED_VERSION, keys=("data",))
        return stored_from_npz(npz, meta, "", f"sgdia file {path}")


def write_matrix_market(
    path: "str | Path", a: SGDIAMatrix, comment: str = ""
) -> Path:
    """Export to MatrixMarket coordinate format (1-based, general)."""
    import scipy.io as sio

    path = Path(path)
    csr = a.to_csr()
    header = (
        f"SG-DIA export: grid {a.grid}, stencil {a.stencil.name}"
        + (f"; {comment}" if comment else "")
    )
    sio.mmwrite(str(path), csr, comment=header)
    return path if path.suffix == ".mtx" else path.with_suffix(".mtx")
