"""Solver service layer: cached hierarchies, warm sessions, batched jobs.

The paper's FP16 preconditioner wins by shrinking the *solve* phase's
memory traffic; real deployments (Section 7's weather/oil workloads) then
spend their time in *repeated* solves against slowly-changing operators.
This package turns the one-shot solver into a serving stack:

- :mod:`repro.serve.fingerprint` — content hashes for operators and
  canonical keys for configurations, plus a cheap operator-drift metric;
- :mod:`repro.serve.cache` — an LRU :class:`HierarchyCache` bounded by
  modeled bytes, with bit-exact disk spill of FP16 payloads and scaling
  vectors;
- :mod:`repro.serve.session` — :class:`SolverSession`, warm-started
  solves, drift-aware operator refresh, batched ``solve_many``;
- :mod:`repro.serve.service` — :class:`SolverService`: worker threads
  with warm sessions over one shared cache, behind one job lifecycle
  (bounded-queue admission, deadlines, cancel, retry backoff on a heap,
  worker respawn with bounded redelivery, counters, status document,
  graceful ``close()``).
"""

from .cache import CacheStats, HierarchyCache, load_hierarchy, save_hierarchy
from .fingerprint import (
    OperatorSignature,
    cache_key,
    config_key,
    matrix_fingerprint,
    operator_drift,
    options_key,
)
from .service import (
    ServiceClosed,
    ServiceSaturated,
    SolveJob,
    SolverService,
    run_serve_bench,
)
from .session import SolverSession

__all__ = [
    "CacheStats",
    "HierarchyCache",
    "OperatorSignature",
    "ServiceClosed",
    "ServiceSaturated",
    "SolveJob",
    "SolverService",
    "SolverSession",
    "cache_key",
    "config_key",
    "load_hierarchy",
    "matrix_fingerprint",
    "operator_drift",
    "options_key",
    "run_serve_bench",
    "save_hierarchy",
]
