"""Span-based tracing for the solve and setup paths.

A :class:`Tracer` records nested *spans* — named wall-clock intervals with
a parent pointer — so a solve can explain where its time went:
``setup -> level -> galerkin/scale/truncate`` during Algorithm 1 and
``solve -> iteration -> precond -> vcycle -> level -> smoother/spmv/
restrict/prolong`` during the solve phase, plus ``halo_exchange`` spans in
the distributed engine.

Tracing is off by default and designed for near-zero overhead when
disabled: the module-global tracer is ``None``, :func:`span` returns one
shared no-op context manager (an identity fast path — no allocation, no
clock read), and hot loops may additionally guard attribute computation
with :func:`enabled`.

The recorded spans export to JSON-lines, the Chrome ``chrome://tracing``
trace-event format, and an aligned text summary (:mod:`.export`).

The tracer is process-global, and each thread nests its spans on its own
stack: the worker threads of a :class:`~repro.serve.SolverService` trace
concurrently, and a job span one of them opens is a root, never a child of
whatever span another thread holds open.  Appending a span to the shared
list takes the tracer's one lock.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Tracer",
    "enabled",
    "get_tracer",
    "install",
    "span",
    "tracing",
    "uninstall",
]


@dataclass
class Span:
    """One finished (or open) named interval.

    Times are seconds relative to the owning tracer's epoch
    (``perf_counter`` at tracer creation), so traces are comparable across
    exporters without leaking absolute clock values.
    """

    name: str
    index: int
    parent: "int | None"
    depth: int
    t_start: float
    t_end: "float | None" = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in seconds (0.0 while still open)."""
        if self.t_end is None:
            return 0.0
        return self.t_end - self.t_start

    def set(self, **attrs) -> "Span":
        """Attach attributes after the span was opened."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "index": self.index,
            "parent": self.parent,
            "depth": self.depth,
            "t_start": self.t_start,
            "duration": self.duration,
            "attrs": self.attrs,
        }


class _NullSpan:
    """Shared no-op span handle/context manager (the disabled fast path).

    A single instance serves every ``span()`` call while tracing is off;
    tests assert the identity so the fast path cannot silently regress
    into per-call allocation.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Context manager that opens a span on enter and closes it on exit."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span: "Span | None" = None

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name, self._attrs)
        return self._span

    def __exit__(self, *exc) -> bool:
        self._tracer._close(self._span)
        return False


class _ThreadStack(threading.local):
    """The indices of the calling thread's open spans, innermost last."""

    def __init__(self) -> None:
        self.stack: list[int] = []


class Tracer:
    """Records a tree of spans against one monotonic epoch."""

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.spans: list[Span] = []
        self._local = _ThreadStack()
        self._lock = threading.Lock()  # guards appends to ``spans``

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> _SpanHandle:
        """Context manager recording one nested span."""
        return _SpanHandle(self, name, attrs)

    def _open(self, name: str, attrs: dict) -> Span:
        stack = self._local.stack
        with self._lock:
            s = Span(
                name=name,
                index=len(self.spans),
                parent=stack[-1] if stack else None,
                depth=len(stack),
                t_start=time.perf_counter() - self.epoch,
                attrs=attrs,
            )
            self.spans.append(s)
        stack.append(s.index)
        return s

    def _close(self, s: "Span | None") -> None:
        if s is None:  # pragma: no cover - defensive
            return
        s.t_end = time.perf_counter() - self.epoch
        stack = self._local.stack
        if stack and stack[-1] == s.index:
            stack.pop()
        elif s.index in stack:  # pragma: no cover - defensive
            stack.remove(s.index)

    # ------------------------------------------------------------------
    def finished(self) -> list[Span]:
        """Spans that have been closed, in opening order."""
        return [s for s in self.spans if s.t_end is not None]

    def children(self, index: "int | None") -> list[Span]:
        return [s for s in self.spans if s.parent == index]

    def roots(self) -> list[Span]:
        return self.children(None)

    def consistent(self, slack: float = 1e-6) -> bool:
        """True when every parent covers the sum of its children.

        The property the acceptance check relies on: for each span, the
        summed duration of its direct children must not exceed the parent
        duration (within ``slack`` seconds of clock granularity).
        """
        for s in self.finished():
            child_total = sum(c.duration for c in self.children(s.index))
            if child_total > s.duration + slack:
                return False
        return True

    def total(self, name: str) -> float:
        """Summed duration of all finished spans with ``name``."""
        return sum(s.duration for s in self.finished() if s.name == name)


# ----------------------------------------------------------------------
# process-global tracer
# ----------------------------------------------------------------------

_TRACER: "Tracer | None" = None


def get_tracer() -> "Tracer | None":
    return _TRACER


def enabled() -> bool:
    """True when a tracer is installed (hot paths gate extra work on it)."""
    return _TRACER is not None


def install(tracer: "Tracer | None" = None) -> Tracer:
    """Install (and return) a process-global tracer."""
    global _TRACER
    _TRACER = tracer if tracer is not None else Tracer()
    return _TRACER


def uninstall() -> "Tracer | None":
    """Remove the global tracer; returns it for inspection/export."""
    global _TRACER
    t = _TRACER
    _TRACER = None
    return t


def span(name: str, **attrs):
    """Open a span on the global tracer — the shared no-op when disabled."""
    t = _TRACER
    if t is None:
        return NULL_SPAN
    return t.span(name, **attrs)


@contextmanager
def tracing(tracer: "Tracer | None" = None):
    """Scoped install: ``with tracing() as t: ...`` then inspect ``t``.

    Restores whatever tracer (or ``None``) was installed before.
    """
    global _TRACER
    prev = _TRACER
    t = tracer if tracer is not None else Tracer()
    _TRACER = t
    try:
        yield t
    finally:
        _TRACER = prev
