"""Deterministic fault injection for testing the recovery paths.

Four attack surfaces, matching where bits actually travel:

- **stored payloads**: corrupt the SG-DIA coefficient arrays a set-up
  hierarchy holds in storage precision (bit-flips, forced overflow to
  ``inf``, forced underflow to zero, multiplicative perturbations).  All
  injectors target *half-precision* levels only by default — the paper's
  risk surface — so a hierarchy escalated to FP32/FP64 storage presents no
  target and the same injector becomes a no-op.  That is exactly what makes
  ``robust_solve``'s escalation ladder testable end-to-end.
- **the V-cycle**: :func:`cycle_fault` wraps ``MGHierarchy.cycle`` to
  corrupt the cycle's input (or output) at a chosen application, emulating
  a transient fault during the solve phase rather than a persistent one in
  memory.
- **the communication layer**: :func:`halo_fault` drops or garbles one
  halo-exchange message (transient: the checksum-verified exchange
  retransmits and heals; persistent: the exchange classifies the solve as
  ``"corrupted"``).
- **the cache layer**: :meth:`FaultInjector.corrupt_spill` damages a
  spilled hierarchy file on disk, exercising the cache's
  detect-and-rebuild read path.

Everything is seeded: the same ``FaultInjector(seed=...)`` corrupts the
same entries of the same hierarchy in the same order.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..mg import MGHierarchy
from ..observability import events as _events

__all__ = ["FaultRecord", "FaultInjector", "cycle_fault", "halo_fault"]


def _emit_inject(site: str, **attrs) -> None:
    """Journal one injected fault (no-op without an installed journal).

    Every injection site announces itself under the single kind
    ``chaos.inject`` with a ``site`` attribute, so the chaos sweep's
    observability gate can assert injected-fault/journal-event pairing
    without a per-site kind taxonomy.
    """
    if _events.active():
        _events.emit(
            "warning",
            "chaos.inject",
            f"fault injected: {site}",
            site=site,
            **attrs,
        )


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault: where, what, and the before/after values."""

    kind: str
    level: int
    flat_index: int
    before: float
    after: float


def _half_levels(hierarchy: MGHierarchy) -> list[int]:
    return [
        i
        for i, lev in enumerate(hierarchy.levels)
        if lev.stored.storage.itemsize == 2
    ]


class FaultInjector:
    """Seeded, reproducible corruption of stored hierarchy payloads.

    Each ``inject_*`` method draws positions from a generator keyed on
    ``(seed, kind, level)``, so injection order across methods does not
    perturb determinism.  Methods return the list of :class:`FaultRecord`
    applied (empty when the hierarchy presents no half-precision target —
    the post-escalation case).
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.records: list[FaultRecord] = []

    # ------------------------------------------------------------------
    def _rng(self, kind: str, level: int) -> np.random.Generator:
        # crc32, not hash(): Python string hashing is salted per process
        # and would break cross-run determinism.
        salt = zlib.crc32(kind.encode("utf-8"))
        return np.random.default_rng([self.seed, salt, level])

    def _target_level(
        self, hierarchy: MGHierarchy, level: "int | None"
    ) -> "int | None":
        """Resolve the target level; None when there is nothing to corrupt.

        ``level=None`` picks the middle half-precision level (the paper's
        mid-hierarchy levels are where scaled FP16 payloads live).  An
        explicit level that is not stored in half precision is rejected as
        no-target: the fault model is a corruption of the 2-byte payload.
        """
        half = _half_levels(hierarchy)
        if not half:
            return None
        if level is None:
            return half[len(half) // 2]
        return level if level in half else None

    def _payload(self, hierarchy: MGHierarchy, level: int) -> np.ndarray:
        return hierarchy.levels[level].stored.matrix.data

    def _pick_nonzero(
        self, data: np.ndarray, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        flat = np.flatnonzero(np.asarray(data) != 0)
        if flat.size == 0:
            return np.empty(0, dtype=np.int64)
        count = min(count, flat.size)
        return flat[rng.choice(flat.size, size=count, replace=False)]

    def _record(self, kind, level, idx, before, after) -> FaultRecord:
        rec = FaultRecord(
            kind=kind,
            level=level,
            flat_index=int(idx),
            before=float(before),
            after=float(after),
        )
        self.records.append(rec)
        return rec

    # ------------------------------------------------------------------
    def inject_overflow(
        self,
        hierarchy: MGHierarchy,
        level: "int | None" = None,
        count: int = 1,
    ) -> list[FaultRecord]:
        """Force ``count`` stored entries to ``+/-inf`` (FP16 overflow)."""
        lev = self._target_level(hierarchy, level)
        if lev is None:
            return []
        data = self._payload(hierarchy, lev)
        rng = self._rng("overflow", lev)
        out = []
        for idx in self._pick_nonzero(data, rng, count):
            before = data.flat[idx]
            sign = 1.0 if before >= 0 else -1.0
            data.flat[idx] = sign * np.inf
            out.append(self._record("overflow", lev, idx, before, data.flat[idx]))
        if out:
            _emit_inject("payload.overflow", level=lev, count=len(out))
        return out

    def inject_underflow(
        self,
        hierarchy: MGHierarchy,
        level: "int | None" = None,
        count: int = 8,
    ) -> list[FaultRecord]:
        """Flush the ``count`` smallest nonzero stored entries to zero."""
        lev = self._target_level(hierarchy, level)
        if lev is None:
            return []
        data = self._payload(hierarchy, lev)
        a = np.abs(np.asarray(data, dtype=np.float64)).ravel()
        flat = np.flatnonzero((a > 0) & np.isfinite(a))
        if flat.size == 0:
            return []
        order = flat[np.argsort(a[flat], kind="stable")][: min(count, flat.size)]
        out = []
        for idx in order:
            before = data.flat[idx]
            data.flat[idx] = 0
            out.append(self._record("underflow", lev, idx, before, 0.0))
        if out:
            _emit_inject("payload.underflow", level=lev, count=len(out))
        return out

    def inject_bitflips(
        self,
        hierarchy: MGHierarchy,
        level: "int | None" = None,
        count: int = 1,
        bit: "int | None" = None,
    ) -> list[FaultRecord]:
        """Flip one storage-format bit in ``count`` random entries.

        ``bit`` indexes the 16 stored bits (0 = least-significant mantissa
        bit, 15 = sign); ``None`` draws it from the seeded generator per
        entry.  BF16 payloads (held in float32) flip within their upper 16
        bits — the bits a 2-byte BF16 store would actually keep.
        """
        lev = self._target_level(hierarchy, level)
        if lev is None:
            return []
        data = self._payload(hierarchy, lev)
        rng = self._rng("bitflip", lev)
        out = []
        for idx in self._pick_nonzero(data, rng, count):
            b = int(rng.integers(0, 16)) if bit is None else int(bit)
            if not 0 <= b <= 15:
                raise ValueError("bit must be in [0, 15]")
            before = data.flat[idx]
            if data.dtype == np.float16:
                raw = np.array([before], dtype=np.float16).view(np.uint16)
                raw ^= np.uint16(1 << b)
                data.flat[idx] = raw.view(np.float16)[0]
            else:  # BF16 payload held in float32: upper half of the word
                raw = np.array([before], dtype=np.float32).view(np.uint32)
                raw ^= np.uint32(1 << (b + 16))
                data.flat[idx] = raw.view(np.float32)[0]
            out.append(self._record("bitflip", lev, idx, before, data.flat[idx]))
        if out:
            _emit_inject("payload.bitflip", level=lev, count=len(out))
        return out

    def corrupt_spill(
        self,
        path: "str | Path",
        nbytes: int = 64,
        offset: "int | None" = None,
    ) -> int:
        """Overwrite ``nbytes`` of a spilled ``.npz`` file with seeded noise.

        Models a torn write or media corruption of a cache spill.  The
        damage lands mid-file by default (``offset=None``), which breaks the
        zip central directory or a member's CRC — the loader's parse then
        fails with :class:`ValueError` and the cache rebuilds.  Returns the
        number of bytes corrupted (0 when the file is missing or empty).
        """
        path = Path(path)
        if not path.exists():
            return 0
        size = path.stat().st_size
        if size == 0:
            return 0
        rng = self._rng("spill", 0)
        n = min(int(nbytes), size)
        off = (size - n) // 2 if offset is None else min(int(offset), size - n)
        garbage = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
        with open(path, "r+b") as f:
            f.seek(off)
            f.write(garbage)
        self.records.append(
            FaultRecord(
                kind="spill", level=-1, flat_index=off, before=float(size),
                after=float(n),
            )
        )
        _emit_inject("spill.corrupt", path=str(path), nbytes=n, offset=off)
        return n

    def inject_perturbation(
        self,
        hierarchy: MGHierarchy,
        level: "int | None" = None,
        count: int = 16,
        factor: float = 32.0,
    ) -> list[FaultRecord]:
        """Multiply ``count`` random stored entries by ``factor``."""
        lev = self._target_level(hierarchy, level)
        if lev is None:
            return []
        data = self._payload(hierarchy, lev)
        rng = self._rng("perturb", lev)
        out = []
        with np.errstate(over="ignore"):
            for idx in self._pick_nonzero(data, rng, count):
                before = data.flat[idx]
                data.flat[idx] = data.dtype.type(float(before) * factor)
                out.append(
                    self._record("perturb", lev, idx, before, data.flat[idx])
                )
        if out:
            _emit_inject("payload.perturb", level=lev, count=len(out))
        return out


@contextmanager
def cycle_fault(
    hierarchy: MGHierarchy,
    corrupt,
    at_application: int = 1,
    where: str = "input",
):
    """Intercept ``MGHierarchy.cycle`` to model a transient solve-phase fault.

    Within the context, the ``at_application``-th cycle invocation (1-based,
    counted from entry) has ``corrupt(array) -> array`` applied to its input
    right-hand side (``where="input"``) or to its returned correction
    (``where="output"``).  Other applications pass through untouched, and the
    hook is removed on exit — the hierarchy is not permanently modified.
    """
    if where not in ("input", "output"):
        raise ValueError("where must be 'input' or 'output'")
    orig = hierarchy.cycle
    calls = 0

    def wrapper(b, x=None, kind=None):
        nonlocal calls
        calls += 1
        if calls == at_application:
            _emit_inject("cycle.transient", where=where, application=calls)
        if calls == at_application and where == "input":
            b = corrupt(np.array(b, copy=True))
        out = orig(b, x, kind)
        if calls == at_application and where == "output":
            out = corrupt(out)
        return out

    # Instance attribute shadows the bound method for this hierarchy only.
    hierarchy.cycle = wrapper
    try:
        yield hierarchy
    finally:
        del hierarchy.cycle


@contextmanager
def halo_fault(
    kind: str = "garble",
    at_message: int = 1,
    persistent: bool = False,
    seed: int = 0,
):
    """Drop or garble one halo-exchange message inside the context.

    The ``at_message``-th first-attempt transmission (1-based, counted
    across all exchanges in the context) is faulted: ``kind="drop"``
    delivers nothing, ``kind="garble"`` perturbs one payload entry by a
    seeded large value.  The checksum-verified exchange detects either and
    retransmits once; with ``persistent=False`` (a transient link fault)
    the retransmission is clean and the exchange heals, with
    ``persistent=True`` the retransmission fails too and the exchange
    raises :class:`~repro.parallel.halo.HaloCorruption` (status
    ``"corrupted"``).  Installing the hook also switches the exchange into
    its verified mode — without a hook, delivery is a plain array copy.
    """
    if kind not in ("drop", "garble"):
        raise ValueError("kind must be 'drop' or 'garble'")
    from ..parallel.halo import install_message_fault

    rng = np.random.default_rng([int(seed), zlib.crc32(b"halo"), at_message])
    count = [0]
    hit: list = [None]

    def hook(payload, key, attempt):
        if attempt == 0:
            count[0] += 1
            if count[0] != at_message:
                return payload
            hit[0] = key
            _emit_inject(
                "halo." + kind, at_message=at_message, persistent=persistent
            )
        elif key != hit[0] or not persistent:
            return payload
        if kind == "drop":
            return None
        idx = int(rng.integers(0, payload.size)) if payload.size else 0
        if payload.size:
            flat = payload.reshape(-1)
            flat[idx] = flat[idx] + flat.dtype.type(
                1e3 * (1.0 + abs(float(flat[idx])))
            )
        return payload

    install_message_fault(hook)
    try:
        yield hook
    finally:
        install_message_fault(None)
