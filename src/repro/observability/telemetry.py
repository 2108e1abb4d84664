"""Service latency telemetry: log-bucketed histograms, SLO counters, `top`.

The counters in :mod:`.metrics` say *how much* work ran; this module says
*how long callers waited* for it.  A :class:`Histogram` records a latency
distribution in logarithmic buckets (factor-2 bounds from 1 microsecond
up), cheap enough to update on every job and small enough to embed in a
``BENCH_serve.json`` snapshot.  A :class:`ServiceStats` bundles one
histogram per serving stage —

========== ==========================================================
queue_wait submit → dispatch to a worker
solve      the solver attempt itself (hierarchy setup or cache hit
           included)
e2e        submit → terminal state (what the caller experiences)
========== ==========================================================

— plus the SLO counters (deadline misses, redeliveries, retries) and
derives their rates in :meth:`ServiceStats.snapshot`, the document the
benchmark gates and the ``latency`` snapshot section consume.

The module also hosts the ``repro top`` data plane: services publish a
small JSON status document (:func:`write_status`, atomic rename) that
:func:`render_top` turns into the live dashboard — per-worker in-flight
jobs, queue depth, cache hit ratio, latency percentiles, and the last
journal events.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time

__all__ = [
    "Histogram",
    "ServiceStats",
    "STAGES",
    "read_status",
    "render_top",
    "write_status",
]

#: Serving stages tracked by :class:`ServiceStats`, in pipeline order.
STAGES = ("queue_wait", "solve", "e2e")

#: SLO counters tracked alongside the histograms.
COUNTERS = (
    "completed",
    "failed",
    "deadline_miss",
    "redelivered",
    "retried",
    "cancelled",
)

#: Histogram bucket upper bounds (seconds): factor-2 from 1 us to ~97 days,
#: plus one overflow bucket.  44 buckets cover every latency this code can
#: plausibly produce while keeping the serialized form tiny.
_BOUNDS = tuple(1e-6 * 2.0 ** i for i in range(44))


def _fmt_bound(b: float) -> str:
    return "inf" if math.isinf(b) else f"{b:.9g}"


class Histogram:
    """Log-bucketed latency histogram with percentile readout.

    Buckets are fixed (factor-2 bounds, see :data:`_BOUNDS`).
    """

    __slots__ = ("counts", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self.counts = [0] * (len(_BOUNDS) + 1)  # +1: overflow (le=inf)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = 0.0

    # ------------------------------------------------------------------
    def record(self, seconds: float) -> None:
        v = float(seconds)
        if v < 0.0 or not math.isfinite(v):
            return  # clock glitches must not poison the distribution
        # branchless-ish bucket search: exponent of the value relative to
        # the 1us base (bucket i covers (base*2^(i-1), base*2^i])
        if v <= _BOUNDS[0]:
            i = 0
        else:
            i = min(int(math.log2(v / 1e-6)) + 1, len(_BOUNDS))
            if i <= len(_BOUNDS) - 1 and v > _BOUNDS[i]:  # fp rounding
                i += 1
            elif i >= 1 and v <= _BOUNDS[i - 1]:
                i -= 1
        self.counts[i] += 1
        self.count += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    def percentile(self, q: float) -> float:
        """Upper-bound estimate of the ``q``-quantile (0 < q <= 1).

        Returns the upper edge of the bucket holding the quantile, clamped
        to the observed maximum; 0.0 for an empty histogram.
        """
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target:
                bound = _BOUNDS[i] if i < len(_BOUNDS) else self.max
                return min(bound, self.max)
        return self.max  # pragma: no cover - defensive

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "buckets": {
                _fmt_bound(_BOUNDS[i] if i < len(_BOUNDS) else math.inf): c
                for i, c in enumerate(self.counts)
                if c
            },
        }


class ServiceStats:
    """Per-stage latency histograms + SLO counters for one service.

    Thread-safe: the serving layer records from worker and control
    threads concurrently.  :meth:`snapshot` is the ``latency``
    section of the serve benchmark snapshots.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.histograms = {s: Histogram() for s in STAGES}
        self.counters = {c: 0 for c in COUNTERS}

    def record(self, stage: str, seconds: float) -> None:
        h = self.histograms.get(stage)
        if h is None:
            raise ValueError(
                f"unknown latency stage {stage!r}; expected one of {STAGES}"
            )
        with self._lock:
            h.record(seconds)

    def count(self, name: str, n: int = 1) -> None:
        if name not in self.counters:
            raise ValueError(
                f"unknown SLO counter {name!r}; expected one of {COUNTERS}"
            )
        with self._lock:
            self.counters[name] += n

    def snapshot(self) -> dict:
        """The ``latency`` snapshot section: histograms, counts, rates."""
        with self._lock:
            hist = {s: h.to_dict() for s, h in self.histograms.items()}
            counts = dict(self.counters)
        finished = counts["completed"] + counts["failed"]
        denom = max(1, finished)
        return {
            "histograms": hist,
            "counts": counts,
            "rates": {
                "deadline_miss": counts["deadline_miss"] / denom,
                "redelivery": counts["redelivered"] / denom,
                "retry": counts["retried"] / denom,
            },
        }


# ----------------------------------------------------------------------
# status documents (the `repro top` data plane)
# ----------------------------------------------------------------------

#: Schema tag of the status documents services publish for ``repro top``.
STATUS_SCHEMA = "repro-top/1"


def write_status(path: str, doc: dict) -> str:
    """Atomically publish one status document (write-temp + rename).

    ``repro top`` polls the file; the rename guarantees a reader never
    sees a half-written JSON object.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    os.replace(tmp, path)
    return path


def read_status(path: str) -> "dict | None":
    """Read a status document; ``None`` when absent or unparseable."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return None


def _age(ts: "float | None") -> str:
    if ts is None:
        return "-"
    return f"{max(0.0, time.time() - ts):.1f}s"


def render_top(doc: dict, events_lines: int = 8) -> str:
    """Render one ``repro top`` dashboard frame from a status document."""
    lines = []
    ts = doc.get("ts")
    stamp = (
        time.strftime("%H:%M:%S", time.localtime(ts)) if ts else "--:--:--"
    )
    lines.append(
        f"repro top — {doc.get('mode', '?')} service pid {doc.get('pid', '?')}"
        f" @ {stamp} (status age {_age(ts)})"
    )
    counts = doc.get("counts", {})
    lines.append(
        f"jobs: submitted={counts.get('submitted', 0)} "
        f"completed={counts.get('completed', 0)} "
        f"failed={counts.get('failed', 0)} "
        f"deadline={counts.get('deadline', 0)} "
        f"cancelled={counts.get('cancelled', 0)} "
        f"poisoned={counts.get('poisoned', 0)} "
        f"queue_depth={doc.get('queue_depth', 0)}"
    )
    cache = doc.get("cache", {})
    if cache:
        lines.append(
            f"cache: hit_ratio={cache.get('hit_rate', 0.0):.3f} "
            f"hits={cache.get('hits', 0)} misses={cache.get('misses', 0)} "
            f"evictions={cache.get('evictions', 0)} "
            f"entries={cache.get('entries', 0)}"
        )
    workers = doc.get("workers", [])
    if workers:
        lines.append("workers:")
        lines.append(
            f"  {'idx':>3s} {'pid':>8s} {'alive':>5s} {'ready':>5s} "
            f"{'inflight':>8s}"
        )
        for w in workers:
            lines.append(
                f"  {w.get('index', '?'):>3} {str(w.get('pid', '-')):>8s} "
                f"{str(bool(w.get('alive'))):>5s} "
                f"{str(bool(w.get('ready'))):>5s} "
                f"{w.get('inflight', 0):>8d}"
            )
    latency = (doc.get("latency") or {}).get("histograms", {})
    if latency:
        lines.append("latency (s):")
        lines.append(
            f"  {'stage':<10s} {'count':>7s} {'p50':>10s} {'p95':>10s} "
            f"{'p99':>10s} {'max':>10s}"
        )
        for stage in STAGES:
            h = latency.get(stage)
            if not h:
                continue
            lines.append(
                f"  {stage:<10s} {h.get('count', 0):>7d} "
                f"{h.get('p50', 0.0):>10.4g} {h.get('p95', 0.0):>10.4g} "
                f"{h.get('p99', 0.0):>10.4g} {h.get('max', 0.0):>10.4g}"
            )
        rates = (doc.get("latency") or {}).get("rates", {})
        if rates:
            lines.append(
                "  rates: "
                + " ".join(f"{k}={v:.3f}" for k, v in sorted(rates.items()))
            )
    events = doc.get("events", [])
    if events:
        lines.append("recent events:")
        for e in events[-events_lines:]:
            when = time.strftime(
                "%H:%M:%S", time.localtime(e.get("ts", 0))
            )
            lines.append(
                f"  {when} {e.get('severity', '?'):<8s} "
                f"{e.get('kind', '?'):<28s} {e.get('message', '')}"
            )
    return "\n".join(lines)
