"""Structured event journal for operational incidents.

The metrics layer counts incidents (``service.worker.respawn``,
``serve.shm.corrupt``, ...) but cannot say *which* worker died, *which*
segment was corrupt, or *when* — the journal does.  Every operational
incident emits one severity-tagged :class:`Event` into the process-global
:class:`EventJournal`: a thread-safe ring buffer (bounded retention) with
an optional JSONL sink for durable tails (``repro events --tail``).

The global accessors mirror :mod:`.metrics`: with no journal installed,
:func:`emit` is a dict lookup + ``None`` check — hot paths hoist
:func:`active` exactly like they do for metrics, so the disabled fast
path stays zero-cost.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "Event",
    "EventJournal",
    "SEVERITIES",
    "active",
    "capturing",
    "emit",
    "format_events",
    "get_journal",
    "install",
    "load_journal",
    "uninstall",
]

#: Allowed severities, in increasing order of operator attention required.
SEVERITIES = ("debug", "info", "warning", "error", "critical")
_SEVERITY_SET = frozenset(SEVERITIES)


@dataclass
class Event:
    """One operational incident.

    ``kind`` is a dotted, machine-matchable identifier
    (``service.worker.respawn``, ``serve.shm.corrupt``, ``chaos.inject``);
    ``message`` is the human line; ``attrs`` carries the specifics
    (worker index, pid, segment name, fault site, ...).
    """

    severity: str
    kind: str
    message: str = ""
    ts: float = field(default_factory=time.time)
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {
            "ts": self.ts,
            "severity": self.severity,
            "kind": self.kind,
            "message": self.message,
        }
        if self.attrs:
            # late import avoids a cycle: export imports nothing from here
            from .export import _jsonable

            d["attrs"] = {k: _jsonable(v) for k, v in self.attrs.items()}
        return d


class EventJournal:
    """Bounded ring buffer of :class:`Event` with an optional JSONL sink.

    Retention is ``capacity`` events in memory (oldest dropped first);
    when ``sink`` names a file, every event is additionally appended as
    one JSON line, so the durable record outlives the ring.
    """

    def __init__(self, capacity: int = 1024, sink: "str | None" = None):
        if capacity < 1:
            raise ValueError("journal capacity must be >= 1")
        self._events: "deque[Event]" = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.capacity = capacity
        self.sink = sink
        self.dropped = 0  # events evicted from the ring (still in sink)
        self.emitted = 0

    def emit(
        self, severity: str, kind: str, message: str = "", **attrs
    ) -> Event:
        if severity not in _SEVERITY_SET:
            raise ValueError(
                f"unknown event severity {severity!r}; "
                f"expected one of {SEVERITIES}"
            )
        ev = Event(severity=severity, kind=kind, message=message, attrs=attrs)
        with self._lock:
            if len(self._events) == self.capacity:
                self.dropped += 1
            self._events.append(ev)
            self.emitted += 1
        if self.sink:
            line = json.dumps(ev.to_dict())
            try:
                with open(self.sink, "a", encoding="utf-8") as f:
                    f.write(line + "\n")
            except OSError:
                pass  # a full disk must never take the service down
        return ev

    def tail(self, n: int = 20) -> "list[Event]":
        with self._lock:
            evs = list(self._events)
        return evs[-n:] if n >= 0 else evs

    def events(self) -> "list[Event]":
        with self._lock:
            return list(self._events)

    def to_dicts(self, n: int = -1) -> "list[dict]":
        return [e.to_dict() for e in (self.tail(n) if n >= 0 else self.events())]

    def counts_by_severity(self) -> dict:
        out = {s: 0 for s in SEVERITIES}
        for e in self.events():
            out[e.severity] += 1
        return out

    def clear(self) -> None:
        with self._lock:
            self._events.clear()


# ----------------------------------------------------------------------
# process-global journal (same no-op discipline as metrics/trace)
# ----------------------------------------------------------------------

_JOURNAL: "EventJournal | None" = None


def install(journal: "EventJournal | None" = None) -> EventJournal:
    """Install ``journal`` (or a fresh one) as the process-global journal."""
    global _JOURNAL
    _JOURNAL = journal if journal is not None else EventJournal()
    return _JOURNAL


def uninstall() -> None:
    global _JOURNAL
    _JOURNAL = None


def get_journal() -> "EventJournal | None":
    return _JOURNAL


def active() -> bool:
    return _JOURNAL is not None


def emit(severity: str, kind: str, message: str = "", **attrs) -> None:
    """Emit into the global journal; no-op when none is installed.

    Unknown severities raise even with no journal installed, so a typo
    at an emit site fails in tests rather than only under capture.
    """
    if severity not in _SEVERITY_SET:
        raise ValueError(
            f"unknown event severity {severity!r}; expected one of {SEVERITIES}"
        )
    j = _JOURNAL
    if j is not None:
        j.emit(severity, kind, message, **attrs)


class capturing:
    """Scoped journal install: ``with capturing() as j: ...``.

    Restores the previously installed journal (if any) on exit, so
    nested captures and test isolation compose.
    """

    def __init__(self, journal: "EventJournal | None" = None):
        self.journal = journal if journal is not None else EventJournal()
        self._prev: "EventJournal | None" = None

    def __enter__(self) -> EventJournal:
        global _JOURNAL
        self._prev = _JOURNAL
        _JOURNAL = self.journal
        return self.journal

    def __exit__(self, *exc) -> None:
        global _JOURNAL
        _JOURNAL = self._prev
        self._prev = None


# ----------------------------------------------------------------------
# JSONL sink helpers (the `repro events` read side)
# ----------------------------------------------------------------------

def load_journal(path: str, tail: int = -1) -> "list[dict]":
    """Read events back from a JSONL sink; bad lines are skipped."""
    events = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return events[-tail:] if tail >= 0 else events


def format_events(events: "list[dict]") -> str:
    """Human-readable rendering of event dicts, one line each."""
    lines = []
    for e in events:
        when = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(e.get("ts", 0))
        )
        attrs = e.get("attrs") or {}
        suffix = (
            " " + " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
            if attrs
            else ""
        )
        lines.append(
            f"{when} {e.get('severity', '?'):<8s} "
            f"{e.get('kind', '?'):<32s} {e.get('message', '')}{suffix}"
        )
    return "\n".join(lines)


def validate_events(events: "list[dict]") -> "list[str]":
    """Schema check for event dicts (severity, kind and timestamp of each);
    returns the list of violations.  Snapshot validation does not use it:
    snapshots carry metric counters, not journal events."""
    violations = []
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            violations.append(f"events[{i}]: not an object")
            continue
        sev = e.get("severity")
        if sev not in _SEVERITY_SET:
            violations.append(
                f"events[{i}].severity: unknown severity {sev!r}"
            )
        if not isinstance(e.get("kind"), str) or not e.get("kind"):
            violations.append(f"events[{i}].kind: missing or empty")
        ts = e.get("ts")
        if not isinstance(ts, (int, float)):
            violations.append(f"events[{i}].ts: not a number")
    return violations
