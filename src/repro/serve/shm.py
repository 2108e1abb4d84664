"""Checksummed shared-memory segments for set-up hierarchies.

A :class:`~repro.mg.MGHierarchy` is immutable after construction, which
makes it an ideal cross-process artifact: the parent of a
:class:`~repro.serve.procpool.ProcessSolverService` builds (or restores)
the hierarchy once, serializes it with the bit-exact PR 3 spill format
(:func:`repro.serve.cache.hierarchy_to_arrays`), and publishes the bytes
into one ``multiprocessing.shared_memory`` segment that every worker
process attaches read-only.

Segments are *checksummed*, not trusted: a fixed binary header carries the
payload length plus a CRC32 **and** a sha256 over the payload bytes, and
every attach verifies both before a single array is deserialized.  A
mismatch raises :class:`ShmCorruption` — the caller detaches, rebuilds
from the source operator, and republishes under a fresh name; a damaged
segment can delay an answer but never change one.

Segment layout (little-endian)::

    offset  size  field
    ------  ----  --------------------------------------------------
         0     4  magic  b"SGMG"
         4     4  format version (u32)
         8     8  payload length in bytes (u64)
        16     4  CRC32 of payload (u32)
        20    32  sha256 of payload
        52     —  payload: uncompressed .npz (spill-format hierarchy
                  arrays + manifest + source-operator arrays)

Names encode the creating PID (``rshm-<pid>-<hex8>``) so
:func:`reap_orphans` can sweep ``/dev/shm`` at service startup and unlink
segments whose creator died without cleanup — the crash-hygiene half of
the lifetime contract (the other half is the service's ``atexit`` unlink).

Attaching from a worker suppresses that process's ``resource_tracker``
registration: on Python <= 3.12 every attach re-registers the segment,
and the first worker to exit would unlink memory its siblings still serve
from (bpo-39959; 3.13 grew ``track=False``).  Suppression — rather than
unregistering after the fact — also keeps the tracker's shared ledger
balanced when several workers attach the same segment concurrently (two
unregisters racing one effective set-add would log ``KeyError`` noise
from the tracker process).  The creator remains the sole owner of the
segment lifetime.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
import uuid
import zlib
from contextlib import contextmanager
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

import numpy as np

from ..grid import Stencil, StructuredGrid
from ..mg import MGHierarchy, MGOptions
from ..precision import PrecisionConfig
from ..sgdia import SGDIAMatrix
from ..sgdia.io import open_npz_bytes, read_coefficients, savez_bytes
from .cache import hierarchy_from_npz, hierarchy_to_arrays

__all__ = [
    "HEADER",
    "MAGIC",
    "SEGMENT_VERSION",
    "ShmCorruption",
    "attach_hierarchy",
    "hierarchy_payload",
    "payload_to_hierarchy",
    "publish_bytes",
    "publish_hierarchy",
    "read_bytes",
    "reap_orphans",
    "segment_exists",
    "segment_name",
    "unlink_segment",
]

MAGIC = b"SGMG"
SEGMENT_VERSION = 1

#: magic, version, payload length, CRC32, sha256.
HEADER = struct.Struct("<4sIQI32s")

_NAME_PREFIX = "rshm"
_SHM_DIR = Path("/dev/shm")


class ShmCorruption(ValueError):
    """A shared-memory segment failed its integrity check on attach."""


def segment_name() -> str:
    """A fresh segment name encoding the creating PID (for orphan sweeps)."""
    return f"{_NAME_PREFIX}-{os.getpid()}-{uuid.uuid4().hex[:8]}"


_TRACKER_LOCK = threading.Lock()


@contextmanager
def _untracked():
    """Suppress resource-tracker registration for the enclosed attach.

    ``shared_memory.SharedMemory`` looks ``register`` up on the
    ``resource_tracker`` module at call time, so swapping it for a no-op
    (under a lock — attaches can race across service threads) keeps the
    attach out of the tracker ledger entirely.  This is the <= 3.12
    equivalent of 3.13's ``track=False``.
    """
    with _TRACKER_LOCK:
        orig = resource_tracker.register
        resource_tracker.register = lambda name, rtype: None
        try:
            yield
        finally:
            resource_tracker.register = orig


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting its lifetime.

    The attach is not registered with this process's resource tracker, so
    a worker exit cannot unlink a segment the creator still serves.
    """
    try:
        with _untracked():
            shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        raise ShmCorruption(
            f"shm segment {name!r} does not exist (unlinked or never "
            "published)"
        ) from None
    return shm


def publish_bytes(
    payload: bytes, name: "str | None" = None
) -> shared_memory.SharedMemory:
    """Create a segment holding ``header + payload``; returns the handle.

    The caller (the publishing service) owns the handle and is responsible
    for :func:`unlink_segment` — workers only ever attach.
    """
    name = name or segment_name()
    header = HEADER.pack(
        MAGIC,
        SEGMENT_VERSION,
        len(payload),
        zlib.crc32(payload) & 0xFFFFFFFF,
        hashlib.sha256(payload).digest(),
    )
    shm = shared_memory.SharedMemory(
        create=True, size=HEADER.size + len(payload), name=name
    )
    shm.buf[: HEADER.size] = header
    shm.buf[HEADER.size : HEADER.size + len(payload)] = payload
    return shm


def read_bytes(name: str) -> bytes:
    """Attach, verify the header checksums, and copy out the payload.

    Raises :class:`ShmCorruption` on any mismatch (bad magic, impossible
    length, CRC32 or sha256 failure) or when the segment is gone.  The
    returned bytes are a private copy — the segment can be unlinked or
    republished while deserialization proceeds.
    """
    shm = _attach(name)
    try:
        buf = shm.buf
        if len(buf) < HEADER.size:
            raise ShmCorruption(
                f"shm segment {name!r} is smaller than its header "
                f"({len(buf)} < {HEADER.size} bytes)"
            )
        magic, version, plen, crc, sha = HEADER.unpack_from(buf, 0)
        if magic != MAGIC:
            raise ShmCorruption(f"shm segment {name!r} has a bad magic")
        if version != SEGMENT_VERSION:
            raise ShmCorruption(
                f"shm segment {name!r} has unsupported version {version}"
            )
        if plen > len(buf) - HEADER.size:
            raise ShmCorruption(
                f"shm segment {name!r} claims {plen} payload bytes but "
                f"holds {len(buf) - HEADER.size}"
            )
        payload = bytes(buf[HEADER.size : HEADER.size + plen])
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise ShmCorruption(f"shm segment {name!r} failed its CRC32")
        if hashlib.sha256(payload).digest() != sha:
            raise ShmCorruption(f"shm segment {name!r} failed its sha256")
        return payload
    finally:
        shm.close()


def _balanced_unlink(shm: shared_memory.SharedMemory) -> bool:
    # ``unlink()`` deregisters from the resource tracker exactly once;
    # since attaches are never registered (``_untracked``), the ledger
    # holds one entry per live segment — its creator's — and this removes
    # it.  An already-unlinked segment raises before the deregistration,
    # leaving the (already-empty) ledger untouched.
    try:
        shm.close()
        shm.unlink()
    except FileNotFoundError:
        return False
    return True


def unlink_segment(shm_or_name) -> bool:
    """Unlink a segment by handle or name; False when already gone."""
    if isinstance(shm_or_name, shared_memory.SharedMemory):
        return _balanced_unlink(shm_or_name)
    try:
        shm = _attach(str(shm_or_name))
    except ShmCorruption:
        return False
    return _balanced_unlink(shm)


def segment_exists(name: str) -> bool:
    if _SHM_DIR.is_dir():
        return (_SHM_DIR / name).exists()
    try:  # pragma: no cover - non-/dev/shm platforms
        _attach(name).close()
    except ShmCorruption:
        return False
    return True


# ----------------------------------------------------------------------
# hierarchy payloads
# ----------------------------------------------------------------------

def hierarchy_payload(a: SGDIAMatrix, h: MGHierarchy) -> bytes:
    """Serialize ``(operator, hierarchy)`` to one npz payload.

    The source operator rides along because workers need the FP64 ``A``
    for the Krylov SpMV (and for rebuilding on escalation) — the segment
    is the *whole* solve context for one fingerprint, not just the
    preconditioner.
    """
    manifest, arrays = hierarchy_to_arrays(h)
    manifest["operator"] = {
        "shape": list(a.grid.shape),
        "ncomp": a.grid.ncomp,
        "spacing": list(a.grid.spacing),
        "stencil_name": a.stencil.name,
        "offsets": [list(off) for off in a.stencil.offsets],
        "layout": a.layout,
    }
    arrays["op_data"] = a.data
    return savez_bytes(
        meta=np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8),
        **arrays,
    )


def payload_to_hierarchy(
    data: bytes,
    where: str,
    config: PrecisionConfig,
    options: MGOptions,
) -> tuple[SGDIAMatrix, MGHierarchy]:
    """Rebuild ``(operator, hierarchy)`` from a payload (bit-exact)."""
    npz = open_npz_bytes(data)
    try:
        manifest = json.loads(bytes(npz["meta"]).decode())
        op = manifest.get("operator")
        if op is None:
            raise ValueError(
                f"hierarchy container {where} has no operator record"
            )
        grid = StructuredGrid(
            tuple(op["shape"]),
            ncomp=int(op["ncomp"]),
            spacing=tuple(op["spacing"]),
        )
        stencil = Stencil(
            name=op["stencil_name"],
            offsets=tuple(tuple(int(c) for c in off) for off in op["offsets"]),
        )
        data = read_coefficients(
            npz, "op_data", grid, stencil, op["layout"], (np.dtype(np.float64),),
            f"hierarchy container {where}",
        )
        a = SGDIAMatrix(grid, stencil, data, layout=op["layout"])
        h = hierarchy_from_npz(npz, where, config, options)
    finally:
        npz.close()
    return a, h


def publish_hierarchy(
    a: SGDIAMatrix,
    h: MGHierarchy,
    name: "str | None" = None,
) -> shared_memory.SharedMemory:
    """Publish one operator's solve context; returns the owning handle."""
    return publish_bytes(hierarchy_payload(a, h), name=name)


def attach_hierarchy(
    name: str,
    config: PrecisionConfig,
    options: MGOptions,
) -> tuple[SGDIAMatrix, MGHierarchy]:
    """Verify + deserialize a published segment (worker-side attach).

    Every failure mode — missing segment, checksum mismatch, and (in
    depth) a payload that passes its checksums but no longer parses —
    surfaces as :class:`ShmCorruption`, the one signal the supervisor
    answers with detach → rebuild → republish.
    """
    payload = read_bytes(name)
    try:
        return payload_to_hierarchy(payload, f"shm:{name}", config, options)
    except ShmCorruption:
        raise
    except ValueError as exc:
        raise ShmCorruption(
            f"shm segment {name!r} payload did not deserialize: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# crash hygiene
# ----------------------------------------------------------------------

def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, other user
        return True
    return True


def reap_orphans(skip_pids=frozenset()) -> list[str]:
    """Unlink ``rshm-*`` segments whose creating process is dead.

    Called at service startup: a previous run that was SIGKILLed (no
    atexit) leaves its segments behind, and ``/dev/shm`` is a finite
    resource.  Only names matching this module's PID-encoded scheme are
    candidates, and only when the encoded PID no longer exists (or is
    explicitly listed in ``skip_pids`` — it never is skipped *from*
    reaping, ``skip_pids`` protects known-live publishers).  Returns the
    reaped names.
    """
    if not _SHM_DIR.is_dir():  # pragma: no cover - non-Linux
        return []
    reaped: list[str] = []
    for path in _SHM_DIR.glob(f"{_NAME_PREFIX}-*-*"):
        parts = path.name.split("-")
        if len(parts) != 3:
            continue
        try:
            pid = int(parts[1])
        except ValueError:
            continue
        if pid == os.getpid() or pid in skip_pids or _pid_alive(pid):
            continue
        try:
            path.unlink()
        except OSError:  # pragma: no cover - lost a race
            continue
        reaped.append(path.name)
    return reaped
