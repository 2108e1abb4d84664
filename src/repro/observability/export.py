"""Trace exporters: JSON-lines, Chrome trace-event format, text summary.

The Chrome exporter emits the ``chrome://tracing`` / Perfetto trace-event
JSON (one complete ``"ph": "X"`` event per span, microsecond timestamps,
one ``tid`` lane per recording thread), so a ``repro solve --trace
out.json`` artifact loads directly into ``chrome://tracing`` or
https://ui.perfetto.dev.  The JSON-lines exporter round-trips the span tree
(parent indices, attributes and threads included) for programmatic
consumers; :func:`load_jsonl` reads it back.

:func:`write_prometheus` emits the Prometheus text exposition format
(counters from :class:`~.metrics.Metrics`, histograms/gauges from a
:class:`~.telemetry.ServiceStats` snapshot) for scrape-based monitoring.
"""

from __future__ import annotations

import json

from .trace import Span, Tracer

__all__ = [
    "load_jsonl",
    "prometheus_text",
    "spans_to_chrome_events",
    "text_summary",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
]


def write_jsonl(tracer: Tracer, path: str) -> str:
    """One JSON object per finished span, in opening order."""
    with open(path, "w", encoding="utf-8") as f:
        for s in tracer.finished():
            d = s.to_dict()
            d["attrs"] = {k: _jsonable(v) for k, v in d["attrs"].items()}
            f.write(json.dumps(d, sort_keys=True) + "\n")
    return path


def load_jsonl(path: str) -> list[Span]:
    """Rebuild :class:`Span` objects from a :func:`write_jsonl` file."""
    spans = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            spans.append(
                Span(
                    name=d["name"],
                    index=d["index"],
                    parent=d["parent"],
                    depth=d["depth"],
                    t_start=d["t_start"],
                    t_end=d["t_start"] + d["duration"],
                    attrs=d.get("attrs", {}),
                    thread=d.get("thread", 0),
                )
            )
    return spans


def spans_to_chrome_events(tracer: Tracer) -> list[dict]:
    """Complete-event (``ph: "X"``) list in chronological order.

    Each thread's spans get their own ``tid`` lane, numbered in order of
    first appearance, so concurrent spans never overlap on one row without
    nesting; a single-threaded trace is all lane 0.
    """
    lanes: dict[int, int] = {}
    events = []
    for s in tracer.finished():
        args = {k: _jsonable(v) for k, v in s.attrs.items()}
        args["span_index"] = s.index
        if s.parent is not None:
            args["parent"] = s.parent
        events.append(
            {
                "name": s.name,
                "ph": "X",
                "ts": round(s.t_start * 1e6, 3),
                "dur": round(s.duration * 1e6, 3),
                "pid": 0,
                "tid": lanes.setdefault(s.thread, len(lanes)),
                "cat": "repro",
                "args": args,
            }
        )
    events.sort(key=lambda e: e["ts"])
    return events


def write_chrome_trace(tracer: Tracer, path: str) -> str:
    """Write a ``chrome://tracing``-loadable JSON trace file."""
    doc = {
        "traceEvents": spans_to_chrome_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.observability"},
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return path


def _jsonable(v):
    if isinstance(v, (str, bool)) or v is None:
        return v
    if isinstance(v, (int, float)):
        # bare Python numbers pass through; numpy scalars fall to the
        # duck-typed branches below (np.float32 subclasses neither)
        return v
    # numpy scalars expose item(); arrays expose tolist() — handle both
    # without importing numpy so export stays dependency-light
    if hasattr(v, "item") and not hasattr(v, "__len__"):
        try:
            return _jsonable(v.item())
        except (TypeError, ValueError):  # pragma: no cover - defensive
            return str(v)
    if hasattr(v, "tolist"):
        try:
            return v.tolist()
        except (TypeError, ValueError):  # pragma: no cover - defensive
            return str(v)
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return str(v)


def aggregate(tracer: Tracer) -> dict:
    """Per-name aggregates: calls, total time, self time (children removed).

    ``self`` is the span's own duration minus its direct children — the
    quantity that attributes time to the level of the tree where it was
    actually spent.
    """
    child_time: dict[int, float] = {}
    for s in tracer.finished():
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out: dict[str, dict] = {}
    for s in tracer.finished():
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += max(0.0, s.duration - child_time.get(s.index, 0.0))
    return out


def text_summary(tracer: Tracer) -> str:
    """Aligned per-span-name table sorted by total time, descending."""
    rows = aggregate(tracer)
    if not rows:
        return "(no spans recorded)"
    width = max(len(n) for n in rows)
    lines = [
        f"{'span':<{width}s} {'calls':>7s} {'total':>12s} {'self':>12s} {'mean':>12s}"
    ]
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["total_s"]):
        mean = row["total_s"] / row["calls"]
        lines.append(
            f"{name:<{width}s} {row['calls']:>7d} "
            f"{_fmt_s(row['total_s']):>12s} {_fmt_s(row['self_s']):>12s} "
            f"{_fmt_s(mean):>12s}"
        )
    return "\n".join(lines)


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f} ms"
    return f"{seconds * 1e6:.1f} us"


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

def _prom_name(name: str) -> str:
    """``kernel.spmv.calls`` -> ``repro_kernel_spmv_calls``."""
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return f"repro_{safe}"


def _prom_num(v: float) -> str:
    f = float(v)
    if f == float("inf"):
        return "+Inf"
    if f != f:  # NaN
        return "NaN"
    if float(f).is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def prometheus_text(metrics=None, stats=None, extra_gauges=None) -> str:
    """Prometheus text exposition (format version 0.0.4).

    ``metrics`` is a :class:`~.metrics.Metrics` registry (counters, with
    per-level buckets exported as a ``level`` label); ``stats`` is a
    :class:`~.telemetry.ServiceStats` (latency histograms in the native
    Prometheus histogram convention plus SLO counters); ``extra_gauges``
    maps name -> value for one-off gauges (queue depth, cache hit ratio).
    """
    lines: list[str] = []
    if metrics is not None:
        for name, rec in metrics.to_dict().items():
            pname = _prom_name(name)
            lines.append(f"# TYPE {pname} counter")
            lines.append(f"{pname}_total {_prom_num(rec['total'])}")
            for level, v in rec["by_level"].items():
                lines.append(
                    f'{pname}_total{{level="{level}"}} {_prom_num(v)}'
                )
    if stats is not None:
        snap = stats.snapshot() if hasattr(stats, "snapshot") else stats
        for stage, h in snap.get("histograms", {}).items():
            pname = _prom_name(f"serve.latency.{stage}.seconds")
            lines.append(f"# TYPE {pname} histogram")
            cumulative = 0
            for le, c in sorted(
                h.get("buckets", {}).items(),
                key=lambda kv: float("inf") if kv[0] == "inf" else float(kv[0]),
            ):
                if le == "inf":  # folded into the final +Inf line below
                    continue
                cumulative += c
                lines.append(f'{pname}_bucket{{le="{le}"}} {cumulative}')
            lines.append(
                f'{pname}_bucket{{le="+Inf"}} {h.get("count", 0)}'
            )
            lines.append(f"{pname}_sum {_prom_num(h.get('sum', 0.0))}")
            lines.append(f"{pname}_count {h.get('count', 0)}")
        for counter, v in snap.get("counts", {}).items():
            pname = _prom_name(f"serve.jobs.{counter}")
            lines.append(f"# TYPE {pname} counter")
            lines.append(f"{pname}_total {_prom_num(v)}")
        for rate, v in snap.get("rates", {}).items():
            pname = _prom_name(f"serve.rate.{rate}")
            lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname} {_prom_num(v)}")
    for name, v in (extra_gauges or {}).items():
        pname = _prom_name(name)
        lines.append(f"# TYPE {pname} gauge")
        lines.append(f"{pname} {_prom_num(v)}")
    return "\n".join(lines) + "\n"


def write_prometheus(path: str, metrics=None, stats=None, extra_gauges=None) -> str:
    """Write :func:`prometheus_text` output to ``path``."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(prometheus_text(metrics=metrics, stats=stats, extra_gauges=extra_gauges))
    return path
