"""Fingerprinted LRU cache of set-up multigrid hierarchies.

The setup phase (Galerkin chain + per-level scale/truncate + smoother
setup) dominates cost when the same operator is solved repeatedly — the
time-stepping replay pattern of every real application in the paper
(weather assimilation windows, reservoir Newton steps).  This cache holds
finished :class:`~repro.mg.MGHierarchy` objects under
:func:`~repro.serve.fingerprint.cache_key` — ``(matrix_fingerprint,
config.cache_key, options_key)`` — and bounds the *modeled* resident bytes
(``memory_report()`` — the same accounting the perf model uses), evicting
least-recently-used entries.  A caller that already holds the key (a
:class:`~repro.serve.session.SolverSession`, which fingerprints each
operator once) passes it in; otherwise the cache hashes the operator.

Evicted entries can optionally spill to disk: the FP16 payloads, the
``sqrt(Q)`` scaling vectors, and the smoother state arrays round-trip
bit-exactly through :mod:`repro.sgdia.io`, so a restored hierarchy
preconditions identically to the one evicted.  Transfers are rebuilt from
their coarsening factors (their entries are exact dyadic rationals from a
deterministic construction).

All mutating operations are lock-protected; one cache may be shared by the
:class:`~repro.serve.service.SolverService` worker threads.
"""

from __future__ import annotations

import hashlib
import json
import threading
import zipfile
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..mg import MGHierarchy, MGOptions
from ..mg.level import Level
from ..mg.setup import _make_level_smoother, mg_setup
from ..coarsen import build_transfer
from ..observability import events as _events
from ..observability import metrics as _metrics
from ..precision import DiagonalScaling, PrecisionConfig, get_format
from ..sgdia.io import (
    _open_npz,
    atomic_savez,
    stored_from_npz,
    stored_to_arrays,
)
from .fingerprint import cache_key

__all__ = [
    "CacheStats",
    "HierarchyCache",
    "hierarchy_to_arrays",
    "hierarchy_from_npz",
    "save_hierarchy",
    "load_hierarchy",
]

_SPILL_VERSION = 1


@dataclass
class CacheStats:
    """Monotonic cache counters (mirrored into the metrics registry)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stale: int = 0
    spill_writes: int = 0
    spill_loads: int = 0
    spill_corrupt: int = 0

    @property
    def hit_rate(self) -> float:
        n = self.hits + self.misses
        return self.hits / n if n else 0.0


@dataclass
class _Entry:
    hierarchy: MGHierarchy
    nbytes: int


def hierarchy_nbytes(h: MGHierarchy) -> int:
    """Modeled resident bytes of one hierarchy (payload + aux + transfers)."""
    mem = h.memory_report()
    return int(
        mem["matrix_bytes"] + mem["smoother_bytes"] + mem["transfer_bytes"]
    )


class HierarchyCache:
    """LRU cache of set-up hierarchies, bounded by modeled bytes.

    Parameters
    ----------
    max_bytes:
        Resident budget.  A single hierarchy larger than the budget is still
        admitted (and evicts everything else) — refusing it would make the
        cache useless exactly when setup is most expensive.
    spill_dir:
        When given, evicted (and stale-invalidated) entries are written to
        ``<spill_dir>/<sha256(key)>.npz`` and restored from disk on the next
        request instead of rebuilt — a restore deserializes arrays instead
        of re-running Galerkin products.  Spill files are keyed by content
        fingerprint, so a stale file can never be returned for a changed
        operator.
    """

    def __init__(
        self,
        max_bytes: int = 1 << 30,
        spill_dir: "str | Path | None" = None,
    ) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = int(max_bytes)
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        if self.spill_dir is not None:
            self.spill_dir.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self._lock = threading.RLock()
        #: entries whose setup is running right now — concurrent requesters
        #: wait on the event instead of duplicating a multi-second build.
        self._building: "dict[tuple, threading.Event]" = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return sum(e.nbytes for e in self._entries.values())

    # ------------------------------------------------------------------
    def get_or_build(
        self,
        a,
        config: "PrecisionConfig | None" = None,
        options: "MGOptions | None" = None,
        key: "tuple | None" = None,
    ) -> tuple[MGHierarchy, tuple, str]:
        """Return ``(hierarchy, key, source)`` for an operator.

        ``source`` is ``"memory"`` (LRU hit), ``"disk"`` (restored from a
        spill file) or ``"build"`` (:func:`repro.mg.mg_setup` ran).
        ``key`` is ``cache_key(a, config, options)`` when the caller
        already holds it; omitted, the operator is hashed here.
        """
        config = config or PrecisionConfig()
        options = options or MGOptions()
        if key is None:
            key = cache_key(a, config, options)
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    _metrics.incr("serve.cache.hit")
                    return entry.hierarchy, key, "memory"
                pending = self._building.get(key)
                if pending is None:
                    spilled = self._spill_path(key)
                    if spilled is not None and spilled.exists():
                        try:
                            h = load_hierarchy(spilled, config, options)
                        except ValueError:
                            # Corrupt/truncated spill: drop it and fall
                            # through to a full rebuild — a damaged file is
                            # a cache miss, never an error surfaced to the
                            # solve path.
                            spilled.unlink(missing_ok=True)
                            self.stats.spill_corrupt += 1
                            _metrics.incr("serve.cache.spill_corrupt")
                            if _events.active():
                                _events.emit(
                                    "error",
                                    "serve.cache.spill_corrupt",
                                    "corrupt spill dropped; rebuilding",
                                    path=str(spilled),
                                )
                        else:
                            self.stats.hits += 1
                            self.stats.spill_loads += 1
                            _metrics.incr("serve.cache.hit")
                            _metrics.incr("serve.cache.spill_load")
                            self._admit(key, h)
                            return h, key, "disk"
                    self.stats.misses += 1
                    _metrics.incr("serve.cache.miss")
                    self._building[key] = threading.Event()
                    break
            # Another thread is setting this key up: wait, then re-check
            # (the entry may also have been evicted again — loop handles it).
            pending.wait()
        # Build outside the lock: setups are long and must not serialize
        # unrelated workers on other entries.
        try:
            h = mg_setup(a, config, options)
            with self._lock:
                self._admit(key, h)
        finally:
            with self._lock:
                self._building.pop(key).set()
        return h, key, "build"

    def invalidate(self, key: tuple, stale: bool = False) -> bool:
        """Drop an entry (and its spill file).

        ``stale=True`` marks the reason as operator drift — the entry was
        valid for the operator it was built from, but that operator is gone.
        """
        with self._lock:
            entry = self._entries.pop(key, None)
            spilled = self._spill_path(key)
            if spilled is not None and spilled.exists():
                spilled.unlink()
                if entry is None:
                    entry = True  # a disk-only entry still counts
            if entry is None:
                return False
            if stale:
                self.stats.stale += 1
                _metrics.incr("serve.cache.stale")
                if _events.active():
                    _events.emit(
                        "info",
                        "serve.cache.stale",
                        "stale entry invalidated (operator drift)",
                    )
            return True

    # ------------------------------------------------------------------
    def _admit(self, key, hierarchy) -> None:
        self._entries[key] = _Entry(
            hierarchy=hierarchy, nbytes=hierarchy_nbytes(hierarchy)
        )
        self._entries.move_to_end(key)
        self._evict_over_budget()

    def _evict_over_budget(self) -> None:
        total = sum(e.nbytes for e in self._entries.values())
        while total > self.max_bytes and len(self._entries) > 1:
            key, entry = self._entries.popitem(last=False)
            total -= entry.nbytes
            self.stats.evictions += 1
            _metrics.incr("serve.cache.evict")
            path = self._spill_path(key)
            if path is not None:
                save_hierarchy(path, entry.hierarchy)
                self.stats.spill_writes += 1
                _metrics.incr("serve.cache.spill_write")
            if _events.active():
                _events.emit(
                    "info",
                    "serve.cache.evict",
                    "LRU eviction over budget",
                    nbytes=int(entry.nbytes),
                    spilled=path is not None,
                )

    def _spill_path(self, key: tuple) -> "Path | None":
        if self.spill_dir is None:
            return None
        digest = hashlib.sha256("|".join(key).encode()).hexdigest()
        return self.spill_dir / f"{digest}.npz"


# ----------------------------------------------------------------------
# hierarchy spill format
# ----------------------------------------------------------------------

def hierarchy_to_arrays(h: MGHierarchy) -> tuple[dict, dict]:
    """Flatten a hierarchy to ``(manifest, arrays)`` in the spill format.

    Per level: the stored-matrix parts (FP16/BF16 payload + ``sqrt_q``
    vector, bit-exact via :mod:`repro.sgdia.io`), the smoother state arrays
    when the smoother supports spilling, and the transfer's coarsening
    factors.  The high-precision chain (``keep_high``) and the setup
    diagnostics are *not* persisted — a restored hierarchy serves solves,
    not autopsies.
    """
    arrays: dict[str, np.ndarray] = {}
    manifest: dict = {
        "version": _SPILL_VERSION,
        "n_levels": h.n_levels,
        "config_key": h.config.cache_key,
        "setup_seconds": h.setup_seconds,
        "levels": [],
    }
    for i, level in enumerate(h.levels):
        meta, parts = stored_to_arrays(level.stored)
        for name, arr in parts.items():
            arrays[f"L{i}_{name}"] = arr
        state = level.smoother.state_arrays()
        if state is not None:
            for name, arr in state.items():
                arrays[f"L{i}_sm_{name}"] = arr
        manifest["levels"].append(
            {
                "stored": meta,
                "smoother": type(level.smoother).__name__,
                "smoother_state": sorted(state) if state is not None else None,
                "transfer_factors": (
                    list(level.transfer.factors)
                    if level.transfer is not None
                    else None
                ),
                "nnz_actual": level.nnz_actual,
                "nnz_stored": level.nnz_stored,
            }
        )
    if h.entry_scaling is not None:
        manifest["entry_g"] = h.entry_scaling.g
        arrays["entry_sqrt_q"] = h.entry_scaling.sqrt_q
    return manifest, arrays


def save_hierarchy(path: "str | Path", h: MGHierarchy) -> Path:
    """Write a hierarchy to one ``.npz`` container (the spill format)."""
    path = Path(path)
    manifest, arrays = hierarchy_to_arrays(h)
    # Atomic write: an eviction spill racing a crash must leave either the
    # previous spill or nothing — a truncated file would poison the next
    # restore (it is deleted-and-rebuilt, but only after a failed parse).
    return atomic_savez(
        path,
        meta=np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8),
        **arrays,
    )


def load_hierarchy(
    path: "str | Path",
    config: PrecisionConfig,
    options: MGOptions,
) -> MGHierarchy:
    """Restore a hierarchy written by :func:`save_hierarchy`.

    ``config``/``options`` must be the pair the hierarchy was built with
    (the cache guarantees this — they are part of the key); a mismatched
    config is rejected.  Raises :class:`ValueError` for corrupt or
    truncated files — including corruption detected only when a member
    array is decompressed (zip CRC/zlib failures surface lazily, on read).
    """
    path = Path(path)
    try:
        with _open_npz(path) as npz:
            return hierarchy_from_npz(npz, str(path), config, options)
    except ValueError:
        raise
    except (zipfile.BadZipFile, zlib.error, OSError, EOFError, KeyError) as exc:
        raise ValueError(
            f"hierarchy file {path} is corrupt or truncated: {exc}"
        ) from exc


def hierarchy_from_npz(
    npz,
    where: str,
    config: PrecisionConfig,
    options: MGOptions,
) -> MGHierarchy:
    """Restore a hierarchy from an *open* npz mapping in the spill format.

    ``where`` names the source (the file path) in error messages.
    Raises :class:`ValueError` on any structural damage; the caller owns
    the npz handle.
    """
    if "meta" not in npz.files:
        raise ValueError(f"hierarchy container {where} has no manifest")
    try:
        manifest = json.loads(bytes(npz["meta"]).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(
            f"hierarchy container {where} has a corrupt manifest: {exc}"
        ) from exc
    if manifest.get("version") != _SPILL_VERSION:
        raise ValueError(
            f"unsupported hierarchy spill version "
            f"{manifest.get('version')!r} in {where}"
        )
    if manifest.get("config_key") != config.cache_key:
        raise ValueError(
            f"hierarchy container {where} was built under a different "
            "precision configuration"
        )
    n_levels = int(manifest["n_levels"])
    level_meta = manifest["levels"]
    if len(level_meta) != n_levels:
        raise ValueError(f"hierarchy container {where} is truncated")

    def record(name: str) -> np.ndarray:
        if name not in npz.files:
            raise ValueError(
                f"hierarchy container {where} is missing record {name!r} "
                "(truncated?)"
            )
        return npz[name]

    levels: list[Level] = []
    for i, lm in enumerate(level_meta):
        stored = stored_from_npz(
            npz, lm["stored"], f"L{i}_", f"hierarchy container {where} level {i}"
        )
        is_coarsest = i == n_levels - 1
        smoother = _make_level_smoother(options, stored.matrix, is_coarsest)
        state_names = lm.get("smoother_state")
        if (
            state_names is not None
            and type(smoother).__name__ == lm["smoother"]
        ):
            state = {n: record(f"L{i}_sm_{n}") for n in state_names}
            smoother.load_state(stored, state)
        else:
            # No spilled state (or the options now select a different
            # smoother class): re-fit from the recovered payload.  The
            # payload *is* the operator the solve phase sees, so the
            # refit matches what the kernels apply.
            smoother.setup(stored.matrix.astype(get_format("fp64")), stored)
        transfer = None
        if lm["transfer_factors"] is not None:
            transfer = build_transfer(
                stored.grid,
                tuple(int(f) for f in lm["transfer_factors"]),
                kind=options.interp,
            )
        level = Level(
            index=i,
            grid=stored.grid,
            stored=stored,
            smoother=smoother,
            transfer=transfer,
            high=None,
            nnz_actual=int(lm["nnz_actual"]),
            nnz_stored=int(lm["nnz_stored"]),
        )
        # kernel plans are not serialized (pure structure): rebuild —
        # or re-share via the structure cache — before first apply
        level.plan
        levels.append(level)
    entry_scaling = None
    if "entry_sqrt_q" in npz.files:
        entry_scaling = DiagonalScaling(
            g=float(manifest["entry_g"]), sqrt_q=npz["entry_sqrt_q"]
        )
    return MGHierarchy(
        levels=levels,
        config=config,
        options=options,
        entry_scaling=entry_scaling,
        setup_seconds=float(manifest.get("setup_seconds", 0.0)),
        diagnostics=None,
    )

