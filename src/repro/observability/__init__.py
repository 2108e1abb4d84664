"""Solver telemetry: span tracing, event metrics, benchmark snapshots.

The paper's claims are *measured* claims; this package gives every run the
machinery to explain its own precision and performance behaviour:

- :mod:`.trace` — nested spans over the whole solve path
  (``setup -> level -> galerkin/scale/truncate``,
  ``solve -> iteration -> precond -> vcycle -> level -> ...``) with a
  no-op fast path when disabled and one span stack per thread;
- :mod:`.metrics` — per-level counters for kernel invocations, modeled
  bytes moved, fp16<->fp32 conversions, and overflow/underflow/subnormal
  precision events;
- :mod:`.telemetry` — log-bucketed latency histograms (p50/p95/p99/max),
  per-stage :class:`~.telemetry.ServiceStats` with SLO counters, and the
  ``repro top`` status-document plane;
- :mod:`.events` — severity-tagged structured event journal for
  operational incidents (worker respawn, poison quarantine, spill
  corruption, ...) with ring-buffer retention and a JSONL sink;
- :mod:`.export` — JSON-lines, Chrome ``chrome://tracing``, Prometheus
  text exposition, and aligned text summaries;
- :mod:`.snapshot` — machine-readable ``BENCH_<name>.json`` bench
  snapshots (schema ``repro-bench/2``): the required ``solve``,
  ``setup``, ``memory``, ``modeled``, ``events``, ``spans`` and
  ``kernels`` sections, the run's pass/fail verdicts in one ``gates`` map,
  and the optional ``topology``, ``latency``, ``policy``, ``krylov`` and
  ``extra.serve`` / ``extra.tuner`` sections a bench
  adds, all validated by one declarative table.

All collectors are process-global and disabled by default; ``repro
profile`` and ``repro solve --trace`` install them for one run.
"""

from . import events, export, metrics, snapshot, telemetry, trace
from .events import Event, EventJournal, capturing, emit
from .export import (
    load_jsonl,
    prometheus_text,
    spans_to_chrome_events,
    text_summary,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from .metrics import Metrics, collecting
from .snapshot import (
    SCHEMA,
    assert_valid_snapshot,
    build_snapshot,
    snapshot_filename,
    validate_snapshot,
    write_snapshot,
)
from .telemetry import Histogram, ServiceStats, read_status, render_top, write_status
from .trace import Span, Tracer, get_tracer, span, tracing

__all__ = [
    "Event",
    "EventJournal",
    "Histogram",
    "Metrics",
    "SCHEMA",
    "ServiceStats",
    "Span",
    "Tracer",
    "assert_valid_snapshot",
    "build_snapshot",
    "capturing",
    "collecting",
    "emit",
    "events",
    "export",
    "get_tracer",
    "load_jsonl",
    "metrics",
    "prometheus_text",
    "read_status",
    "render_top",
    "snapshot",
    "snapshot_filename",
    "span",
    "spans_to_chrome_events",
    "telemetry",
    "text_summary",
    "trace",
    "tracing",
    "validate_snapshot",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
    "write_snapshot",
    "write_status",
]
