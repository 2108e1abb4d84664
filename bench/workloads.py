"""The benchmark's workloads: inputs from the seed, steps timed from outside.

Every workload is a closed loop with one caller: the next step starts only
after the previous solve returned, like a time-stepping application that
waits for each solution.  Inputs come from the workload seed alone —
coefficients from ``build_problem(seed=...)``, right-hand sides
``b = A u*`` from smooth random ``u*`` drawn with the benchmark's own
generator — and input generation and the answer check run outside the
timed calls.

Each answer is checked against an FP64 oracle that shares no code with
the library's kernels: the true residual ``||b - A x|| / ||b||`` is
recomputed with scipy on ``a.to_csr()``.  Each step carries the speed
factor of the calibrations bracketing it (see :mod:`calibrate`).
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from calibrate import Calibration, speed
from repro.kernels import spmv
from repro.mg import mg_setup
from repro.observability import metrics as _metrics
from repro.observability import trace as _trace
from repro.perf.bytes_model import spmv_volume
from repro.precision import parse_config
from repro.problems import build_problem, smooth_random_field
from repro.serve import SolverSession
from repro.solvers import solve

#: Direct kernel calls timed per probe (after one warm-up call).
PROBE_CALLS = 20
#: Columns of the multi-RHS block (solid-batch8 and the k8 SpMV probe).
BLOCK = 8


def timed(name: str, fn, *args, **kwargs):
    """Call ``fn`` under a ``bench.*`` span; return ``(result, seconds)``.

    Untraced, the span is the tracer's shared no-op.  When a counter
    registry is installed, the call's counter deltas ride on the span.
    """
    m = _metrics.get_metrics()
    before = m.totals() if m is not None else None
    with _trace.span(name) as sp:
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        seconds = perf_counter() - t0
        if before is not None:
            sp.set(counters=m.delta_since(before))
    return out, seconds


def true_relres(csr, b, x) -> list:
    """FP64 ``||b - A x|| / ||b||`` per column, computed with scipy only."""
    n = csr.shape[0]
    b2 = np.asarray(b, dtype=np.float64).reshape(n, -1)
    x2 = np.asarray(x, dtype=np.float64).reshape(n, -1)
    r = b2 - csr @ x2
    return [float(v) for v in np.linalg.norm(r, axis=0) / np.linalg.norm(b2, axis=0)]


def smooth_field(grid, rng) -> np.ndarray:
    """A smooth random dof field (one independent field per component)."""
    if grid.ncomp == 1:
        return smooth_random_field(grid.shape, rng)
    return np.stack(
        [smooth_random_field(grid.shape, rng) for _ in range(grid.ncomp)], axis=-1
    )


@dataclass
class Step:
    """One closed-loop step: wall times of the timed calls and the answers."""

    setup_s: float
    solve_s: float
    step_s: float
    rhs: int
    iterations: list
    relres: list
    converged: list
    #: wall seconds -> calibrated seconds, set by :func:`closed_loop`
    speed: float = 1.0


class Workload:
    """Shared loop state; subclasses define the inputs and :meth:`step`."""

    problem: str
    rtol: float
    #: Steps an untraced pass runs at least, whatever its time budget.
    min_steps = 3

    def __init__(self, seed: int, shape: tuple, config: str) -> None:
        self.seed = seed
        self.p = build_problem(self.problem, shape, seed=seed)
        self.a = self.p.a
        self.csr = self.a.to_csr()
        self.config = parse_config(config)
        self.options = self.p.mg_options
        self.hierarchy = None
        self.rep = 0
        self.rhs_hash = None

    def rng(self, rep: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, rep])

    def next(self) -> Step:
        self.rep += 1
        return self.step(self.rep)

    def step(self, rep: int) -> Step:
        raise NotImplementedError

    def _record(self, rep, b, setup_s, solve_s, step_s, results, csr=None) -> Step:
        if rep == 0:
            self.rhs_hash = hashlib.sha256(np.ascontiguousarray(b).tobytes()).hexdigest()
        x = np.stack([np.asarray(r.x).reshape(-1) for r in results], axis=1)
        return Step(
            setup_s=setup_s,
            solve_s=solve_s,
            step_s=step_s,
            rhs=len(results),
            iterations=[r.iterations for r in results],
            relres=true_relres(self.csr if csr is None else csr, b, x),
            converged=[r.status == "converged" for r in results],
        )

    def describe(self) -> dict:
        """Inputs and their hash, for the result file."""
        h = hashlib.sha256(self.a.data.tobytes())
        h.update((self.rhs_hash or "").encode())
        report = self.hierarchy.memory_report()
        return {
            "problem": self.problem,
            "shape": list(self.a.grid.shape),
            "ndof": int(self.a.grid.ndof),
            "config": self.config.name,
            "solver": self.p.solver,
            "rtol": self.rtol,
            "levels": self.hierarchy.n_levels,
            "scaled_levels": sum(lv["scaled"] for lv in report["levels"]),
            "hierarchy_mb": (
                report["matrix_bytes"] + report["smoother_bytes"] + report["transfer_bytes"]
            ) / 2**20,
            "input_sha256": h.hexdigest(),
        }

    def session_counts(self) -> dict:
        return {"rebuilds": 0, "warm_starts": 0}


class Poisson(Workload):
    """laplace27 (3d27), one ``mg_setup`` and one CG solve per step."""

    problem = "laplace27"
    rtol = 1e-9

    def step(self, rep: int) -> Step:
        b = (self.csr @ smooth_field(self.a.grid, self.rng(rep)).ravel()).reshape(
            self.a.grid.field_shape
        )
        h, setup_s = timed("bench.setup", mg_setup, self.a, self.config, self.options)
        res, solve_s = timed(
            "bench.solve", solve, "cg", self.a, b,
            preconditioner=h.precondition, rtol=self.rtol,
        )
        self.hierarchy = h
        return self._record(rep, b, setup_s, solve_s, setup_s + solve_s, [res])


class WeatherStream(Workload):
    """weather (3d19, GMRES): a new operator each step through a session."""

    problem = "weather"
    rtol = 1e-10
    #: 60 steps leave 12 beyond the 80th percentile of the step time.
    min_steps = 60
    #: Per-step drift of the exact solution, relative to its unit range.
    drift = 1e-2

    def __init__(self, seed: int, shape: tuple, config: str) -> None:
        super().__init__(seed, shape, config)
        self.session = SolverSession(
            self.a, self.config, self.options, solver=self.p.solver, rtol=self.rtol
        )
        self.u = smooth_field(self.a.grid, self.rng(0))

    def step(self, rep: int) -> Step:
        if rep == 0:
            a, csr = self.a, self.csr
        else:
            a = build_problem(self.problem, self.a.grid.shape, seed=self.seed + rep).a
            csr = a.to_csr()
            self.u = self.u + self.drift * smooth_field(a.grid, self.rng(rep))
        b = (csr @ self.u.ravel()).reshape(a.grid.field_shape)
        s = self.session
        _, update_s = timed("bench.update_operator", s.update_operator, a)
        self.hierarchy, setup_s = timed("bench.hierarchy", lambda: s.hierarchy)
        res, solve_s = timed("bench.solve", s.solve, b)
        return self._record(
            rep, b, setup_s, solve_s, update_s + setup_s + solve_s, [res], csr
        )

    def session_counts(self) -> dict:
        return {"rebuilds": self.session.n_rebuilds, "warm_starts": self.session.n_warm_starts}


class SolidBatch(Workload):
    """solid-3d (3-component 3d15): a session set up per step, then one
    block of 8 right-hand sides through ``solve_many`` -> ``batched_cg``."""

    problem = "solid-3d"
    rtol = 1e-9
    rebuilds = 0

    def step(self, rep: int) -> Step:
        rng = self.rng(rep)
        u = np.stack(
            [smooth_field(self.a.grid, rng).ravel() for _ in range(BLOCK)], axis=1
        )
        b = self.csr @ u
        s = SolverSession(self.a, self.config, self.options, rtol=self.rtol)
        self.hierarchy, setup_s = timed("bench.hierarchy", lambda: s.hierarchy)
        results, solve_s = timed("bench.solve", s.solve_many, b)
        self.rebuilds += s.n_rebuilds
        return self._record(rep, b, setup_s, solve_s, setup_s + solve_s, results)

    def session_counts(self) -> dict:
        return {"rebuilds": self.rebuilds, "warm_starts": 0}


#: name -> (class, full shape, smoke shape, precision config)
WORKLOADS = {
    "poisson64-fp16": (Poisson, (64, 64, 64), (16, 16, 16), "K64P32D16-setup-scale"),
    "poisson64-fp32": (Poisson, (64, 64, 64), (16, 16, 16), "K64P32D32"),
    "weather-stream": (WeatherStream, (32, 32, 16), (16, 16, 8), "K64P32D16-setup-scale"),
    "solid-batch8": (SolidBatch, (24, 24, 16), (8, 8, 8), "K64P32D16-setup-scale"),
}


def make(name: str, seed: int, smoke: bool) -> Workload:
    cls, shape, smoke_shape, config = WORKLOADS[name]
    return cls(seed, smoke_shape if smoke else shape, config)


def closed_loop(wl: Workload, seconds: float, min_steps: int, cal: Calibration) -> list:
    """Run steps back to back until ``min_steps`` ran and ``seconds`` passed,
    with a calibration between consecutive steps."""
    steps = []
    t_end = perf_counter() + seconds
    before = cal.measure()
    while len(steps) < min_steps or perf_counter() < t_end:
        step = wl.next()
        after = cal.measure()
        step.speed = speed(before, after)
        steps.append(step)
        before = after
    return steps


def _median_call_s(fn, cal: Calibration) -> float:
    """Median calibrated seconds of :data:`PROBE_CALLS` calls after one warm-up."""
    fn()
    times = []
    before = cal.measure()
    for _ in range(PROBE_CALLS):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times) * speed(before, cal.measure())


def probe_kernels(h, seed: int, cal: Calibration) -> dict:
    """Median calibrated time of direct finest-level kernel calls.

    The SpMV bandwidth is *computed*: the minimal byte volume of
    :func:`repro.perf.bytes_model.spmv_volume` over the measured time.
    """
    lvl = h.levels[0]
    cdtype = lvl.compute_dtype
    rng = np.random.default_rng([seed, 2**31])
    x = rng.standard_normal(lvl.grid.field_shape).astype(cdtype)
    xk = rng.standard_normal((lvl.ndof, BLOCK)).astype(cdtype)
    f = rng.standard_normal(lvl.grid.field_shape).astype(cdtype)
    u = np.zeros_like(f)
    spmv_s = _median_call_s(lambda: spmv(lvl.stored, x, plan=lvl.plan), cal)
    spmv_k8_s = _median_call_s(lambda: spmv(lvl.stored, xk, plan=lvl.plan), cal)
    smooth_s = _median_call_s(lambda: lvl.smoother.smooth(f, u, forward=True), cal)
    volume = spmv_volume(
        lvl.nnz_stored,
        lvl.ndof,
        lvl.stored.storage.itemsize,
        np.dtype(cdtype).itemsize,
        lvl.stored.is_scaled,
    )
    return {
        "kernels.spmv_probe_s.L0": spmv_s,
        "kernels.spmv_probe_s.L0.k8": spmv_k8_s,
        "kernels.smooth_probe_s.L0": smooth_s,
        "kernels.spmv_gbps.L0": volume / spmv_s / 1e9,
    }
