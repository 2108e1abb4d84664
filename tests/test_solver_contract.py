"""One contract suite over every registered solver and CG's block mode.

Every solver runs on the shared driver loop, so every solver owes the same
contract.  Each case below is checked for:

- bit-identical resume from *every* emitted checkpoint, in memory and
  through ``save_checkpoint``/``load_checkpoint``;
- a pre-expired deadline, a pre-cancelled token, and a cancel at an
  arbitrary (Hypothesis-chosen) callback give ``deadline``/``cancelled``
  with a finite partial iterate;
- a checkpoint of another solver is rejected with ``ValueError``;
- a callback that keeps requesting restarts still converges;
- an ``x0`` already within ``rtol`` costs 0 iterations and 0
  preconditioner applications;
- every converged result has an FP64 true residual within ``10 * rtol``.

``FIXTURES`` pins sha256 digests of ``x`` and ``history`` for every case on
two problems, so the numerics are checked bit for bit against a reference
recording, not just against each other.  ``HIERARCHY_DIGESTS`` pins the
stored hierarchies those runs precondition with, and
``EXACT_HIERARCHY_DIGESTS`` those of two operators built without any
transcendental function, which never skip.  Regenerate all of them with
``PYTHONPATH=src python -m tests.test_solver_contract`` after a deliberate
change to the numerics.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import StructuredGrid
from repro.mg import MGOptions, mg_setup
from repro.precision import parse_config
from repro.problems import build_problem
from repro.problems.operators import diffusion_3d7
from repro.resilience.runtime import (
    CancelToken,
    Deadline,
    ExecContext,
    SolverCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.sgdia import SGDIAMatrix
from repro.solvers import batched_cg, cg, fgmres, gmres, gmres_ir, richardson

PROBLEMS = ("weather", "oil")
SHAPE = (12, 12, 8)
MAXITER = 60

#: case id -> (solver, solver-specific options)
CASES = {
    "cg": (cg, {}),
    "gmres": (gmres, {"restart": 4}),
    "fgmres": (fgmres, {"restart": 4}),
    "fgmres-nested": (fgmres, {"restart": 4, "inner": "gmres"}),
    "gmres_ir": (gmres_ir, {"inner_maxiter": 4}),
    "richardson": (richardson, {}),
    "batched_cg": (batched_cg, {}),
}


_SIBLING = {
    "cg": "batched_cg", "batched_cg": "cg", "gmres": "fgmres",
    "fgmres": "gmres", "fgmres-nested": "gmres", "gmres_ir": "gmres",
    "richardson": "cg",
}


@functools.lru_cache(maxsize=None)
def _system(problem):
    prob = build_problem(problem, SHAPE, seed=0)
    hierarchy = mg_setup(
        prob.a, parse_config("K64P32D16-setup-scale"), prob.mg_options
    )
    return prob, hierarchy, prob.a.to_csr()


def _rhs(case, prob):
    if case != "batched_cg":
        return prob.b
    b = prob.b.ravel()
    other = np.random.default_rng(1).standard_normal(b.shape)
    return np.stack([b, other], axis=-1)


def _run(case, problem="oil", **kwargs):
    fn, options = CASES[case]
    prob, hierarchy, _ = _system(problem)
    kwargs.setdefault("maxiter", MAXITER)
    return fn(
        prob.a, _rhs(case, prob), preconditioner=hierarchy.precondition,
        rtol=prob.rtol, **options, **kwargs,
    )


def _columns(result):
    return result if isinstance(result, list) else [result]


def _sha(array) -> str:
    data = np.ascontiguousarray(np.asarray(array, dtype=np.float64))
    return hashlib.sha256(data.tobytes()).hexdigest()[:16]


def _fingerprint(result):
    return [
        (r.status, r.iterations, r.precond_applications, _sha(r.x),
         _sha(r.history.norms))
        for r in _columns(result)
    ]


def _checkpoints(case):
    sink = []
    full = _run(case, checkpoint_every=1, checkpoint_sink=sink.append)
    return full, sink


def _assert_true_residual(case, result, problem="oil"):
    prob, _, csr = _system(problem)
    b = _rhs(case, prob).reshape(csr.shape[0], -1)
    for j, r in enumerate(_columns(result)):
        if r.converged:
            true = np.linalg.norm(b[:, j] - csr @ r.x.ravel())
            assert true <= 10 * prob.rtol * np.linalg.norm(b[:, j]), r.solver


@functools.lru_cache(maxsize=None)
def _callback_count(case) -> int:
    """How many times a plain run of ``case`` calls its callback."""
    calls = []

    def count(it, rel, x):
        calls.append(it)

    _run(case, callback=count)
    assert len(calls) >= 2, "case converges too fast to interrupt"
    return len(calls)


def _same(a, b):
    for ra, rb in zip(_columns(a), _columns(b), strict=True):
        assert ra.status == rb.status
        assert ra.iterations == rb.iterations
        assert ra.precond_applications == rb.precond_applications
        assert ra.x.tobytes() == rb.x.tobytes()
        assert ra.history.norms == rb.history.norms


@pytest.mark.parametrize("case", CASES)
class TestContract:
    def test_converged_true_residual(self, case):
        for problem in PROBLEMS:
            result = _run(case, problem)
            assert all(r.converged for r in _columns(result))
            _assert_true_residual(case, result, problem)

    def test_resume_from_every_checkpoint(self, case, tmp_path):
        full, sink = _checkpoints(case)
        assert sink, "no checkpoint emitted"
        for cp in sink:
            assert cp.solver == case.replace("-nested", "")
            _same(_run(case, resume_from=cp), full)
            path = save_checkpoint(tmp_path / f"{cp.iteration}.npz", cp)
            _same(_run(case, resume_from=load_checkpoint(path)), full)
        # the run that emitted them is the plain run, bit for bit
        _same(full, _run(case))
        assert all(
            r.detail["checkpoint"] is sink[-1] for r in _columns(full)
        )

    @pytest.mark.parametrize("stop", ["deadline", "cancelled"])
    def test_pre_stopped_runtime(self, case, stop):
        token = CancelToken()
        token.cancel()
        ctx = (
            ExecContext(deadline=Deadline(at=0.0, clock=lambda: 1.0))
            if stop == "deadline" else ExecContext(cancel=token)
        )
        result = _run(case, runtime=ctx)
        for r in _columns(result):
            assert r.status == stop
            assert r.precond_applications == 0
            assert np.isfinite(r.x).all()

    @settings(max_examples=4)
    @given(data=st.data())
    def test_cancel_at_any_callback(self, case, data):
        calls = _callback_count(case)
        stop_at = data.draw(st.integers(1, calls - 1), label="stop_at")
        token = CancelToken()
        seen = [0]

        def cb(it, rel, x):
            seen[0] += 1
            if seen[0] == stop_at:
                token.cancel()

        result = _run(case, runtime=ExecContext(cancel=token), callback=cb)
        statuses = {r.status for r in _columns(result)}
        assert "cancelled" in statuses
        assert statuses <= {"cancelled", "converged"}
        assert seen[0] == stop_at
        for r in _columns(result):
            assert np.isfinite(r.x).all()
            assert 1 <= r.iterations
            assert np.linalg.norm(r.x) > 0  # real partial progress

    def test_wrong_solver_checkpoint_rejected(self, case):
        with pytest.raises(ValueError, match="cannot resume"):
            _run(case, resume_from=SolverCheckpoint(solver="bogus", iteration=1))
        # the nearest sibling: same code path, different solver name
        _, sink = _checkpoints(_SIBLING[case])
        with pytest.raises(ValueError, match="cannot resume"):
            _run(case, resume_from=sink[0])

    def test_truthy_callback_restart_converges(self, case):
        requests = [0]

        def cb(it, rel, x):
            requests[0] += 1
            return requests[0] % 2 == 0

        result = _run(case, callback=cb, maxiter=200)
        assert requests[0] >= 2
        assert all(r.converged for r in _columns(result))
        _assert_true_residual(case, result)

    def test_exact_x0_costs_nothing(self, case):
        prob, _, csr = _system("oil")
        b = _rhs(case, prob)
        blocks = b.reshape(csr.shape[0], -1)
        exact = np.stack(
            [spla.spsolve(csr.tocsc(), blocks[:, j])
             for j in range(blocks.shape[1])],
            axis=-1,
        ).reshape(b.shape)
        for r in _columns(_run(case, x0=exact)):
            assert r.status == "converged"
            assert r.iterations == 0
            assert r.precond_applications == 0


# ----------------------------------------------------------------------
# reference recordings
# ----------------------------------------------------------------------

def _canary():
    """Digest of the kernels the fixtures depend on (SpMV, V-cycle, BLAS-1).

    The fixtures were recorded on one platform; a different SIMD width or
    BLAS changes rounding everywhere, which this digest detects first.
    """
    prob, hierarchy, _ = _system("weather")
    b = prob.b
    parts = [
        prob.a.matvec(b), hierarchy.precondition(b),
        np.array([np.linalg.norm(b.ravel()), np.vdot(b.ravel(), b.ravel())]),
    ]
    return _sha(np.concatenate([np.ravel(p) for p in parts]))


CANARY = "e01305434b91665a"

FIXTURES = {
    ('cg', 'weather'): [
        ('converged', 6, 6, '213ac64e9e930e55', '6238becb4e971696'),
    ],
    ('gmres', 'weather'): [
        ('converged', 6, 6, 'db5db5e76822d5d4', 'dee7055fa53b315c'),
    ],
    ('fgmres', 'weather'): [
        ('converged', 6, 6, 'db5db5e76822d5d4', 'dee7055fa53b315c'),
    ],
    ('fgmres-nested', 'weather'): [
        ('converged', 6, 6, '9ee0f079a2b924ed', 'e95161b60b88e061'),
    ],
    ('gmres_ir', 'weather'): [
        ('converged', 8, 8, 'ca863903d24900b7', '5204a88e25d9e36f'),
    ],
    ('richardson', 'weather'): [
        ('converged', 8, 8, '568b8b9b74f24770', '5fe63adcbf20b706'),
    ],
    ('batched_cg', 'weather'): [
        ('converged', 6, 6, '213ac64e9e930e55', '6238becb4e971696'),
        ('converged', 6, 6, '09da32224baf04cf', 'bd7d217412f6d688'),
    ],
    ('cg', 'oil'): [
        ('converged', 15, 15, 'e407e5c43c403653', '87f67529b27945ee'),
    ],
    ('gmres', 'oil'): [
        ('converged', 18, 18, '71bac4edbc452d9c', 'c3f70d83d924f766'),
    ],
    ('fgmres', 'oil'): [
        ('converged', 18, 18, '71bac4edbc452d9c', 'c3f70d83d924f766'),
    ],
    ('fgmres-nested', 'oil'): [
        ('converged', 9, 16, '9f1c464abe1be3b5', '8b215b140ae2513f'),
    ],
    ('gmres_ir', 'oil'): [
        ('converged', 20, 20, 'dd3832ecf76a0464', 'a6977e3421860ed4'),
    ],
    ('richardson', 'oil'): [
        ('converged', 58, 58, '907881159bfde8a6', 'ec88b717c66d60e3'),
    ],
    ('batched_cg', 'oil'): [
        ('converged', 15, 18, 'e407e5c43c403653', '87f67529b27945ee'),
        ('converged', 18, 18, '96bb5e5fa6bbdb92', 'eaa117e029db6673'),
    ],
    ('batched_cg', 'oil-4c'): [
        ('converged', 18, 24, '3a650061a27e555c', '68ff5d6479712c1a'),
        ('converged', 24, 24, '8894d4de5c096d27', 'aa282791e8d98a5a'),
    ],
}

#: Every recorded run: the ``CASES x PROBLEMS`` grid, plus a 4x4-block
#: operator through the block kernels, numpy or compiled, with k = 2 columns.
RECORDINGS = [(case, problem) for problem in PROBLEMS for case in CASES] + [
    ("batched_cg", "oil-4c"),
]


@pytest.mark.parametrize("case,problem", RECORDINGS)
def test_matches_reference_recording(case, problem):
    if _canary() != CANARY:
        pytest.skip("reference recorded with different floating-point kernels")
    assert _fingerprint(_run(case, problem)) == FIXTURES[(case, problem)]


def _hierarchy_digest(hierarchy):
    """Digest of every level's stored payload and ``sqrt_q``."""
    h = hashlib.sha256()
    for level in hierarchy.levels:
        h.update(np.ascontiguousarray(level.stored.matrix.data).tobytes())
        if level.stored.is_scaled:
            h.update(np.ascontiguousarray(level.stored.scaling.sqrt_q).tobytes())
    return h.hexdigest()[:16]


#: problem -> (digest of its FP64 operator, digest of its stored hierarchy)
HIERARCHY_DIGESTS = {
    "weather": ("9c83441ab8024f35", "a8f828c47c008785"),
    "oil": ("6aff1059b9a4b1c3", "d592411a852871f7"),
    "oil-4c": ("e94972e9653f0de0", "4f76200acff8e57d"),
}


@pytest.mark.parametrize("problem", sorted(HIERARCHY_DIGESTS))
def test_hierarchy_matches_reference_digest(problem):
    """The recording problems' hierarchies, whatever the solve kernels.

    Setup applies only +, -, *, /, sqrt and casts, all correctly rounded,
    so a setup change that alters a stored hierarchy fails here instead of
    turning the recordings into skips through the canary.  The generators
    of these operators call ``10.0 ** u`` and ``np.sin``, which numpy may
    route through SIMD math libraries that are not correctly rounded, so
    the check skips only when the operator itself differs.
    """
    prob, hierarchy, _ = _system(problem)
    operator_digest, digest = HIERARCHY_DIGESTS[problem]
    if _sha(prob.a.data) != operator_digest:
        pytest.skip("operator generated by different math-library rounding")
    assert _hierarchy_digest(hierarchy) == digest


def _exact_operator(ncomp):
    """Heterogeneous 3d7 diffusion built from +, *, / and ``ldexp`` only.

    Its coefficients are powers of two from 2^-4 to 2^20, beyond FP16, so
    setup-scale scales every level.  With ``ncomp = 3`` three copies are
    coupled through a fixed SPD block.  Nothing platform-dependent enters.
    """
    rng = np.random.default_rng(0)
    kappa = np.ldexp(1.0, rng.integers(-4, 21, SHAPE))
    a = diffusion_3d7(StructuredGrid(SHAPE), kappa)
    if ncomp == 1:
        return a
    block = np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]])
    out = SGDIAMatrix.zeros(StructuredGrid(SHAPE, ncomp=ncomp), a.stencil)
    out.data[...] = a.data[..., None, None] * block
    return out


def _exact_hierarchy(ncomp):
    return mg_setup(
        _exact_operator(ncomp), parse_config("K64P32D16-setup-scale"),
        MGOptions(coarsen="auto"),
    )


#: ncomp -> digest of the stored hierarchy of ``_exact_operator(ncomp)``
EXACT_HIERARCHY_DIGESTS = {
    1: "47629a3f03a32156",
    3: "ee961fbbb0a32b05",
}


@pytest.mark.parametrize("ncomp", sorted(EXACT_HIERARCHY_DIGESTS))
def test_exact_operator_hierarchy_digest(ncomp):
    """Setup of a platform-independent operator: must match everywhere."""
    hierarchy = _exact_hierarchy(ncomp)
    assert _hierarchy_digest(hierarchy) == EXACT_HIERARCHY_DIGESTS[ncomp]


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    print("HIERARCHY_DIGESTS = {")
    for problem in sorted(HIERARCHY_DIGESTS):
        prob, hierarchy, _ = _system(problem)
        print(f'    "{problem}": ("{_sha(prob.a.data)}", '
              f'"{_hierarchy_digest(hierarchy)}"),')
    print("}")
    print("EXACT_HIERARCHY_DIGESTS = {")
    for ncomp in sorted(EXACT_HIERARCHY_DIGESTS):
        print(f'    {ncomp}: "{_hierarchy_digest(_exact_hierarchy(ncomp))}",')
    print("}")
    print(f'CANARY = "{_canary()}"')
    print("FIXTURES = {")
    for case, problem in RECORDINGS:
        print(f"    ({case!r}, {problem!r}): [")
        for entry in _fingerprint(_run(case, problem)):
            print(f"        {entry!r},")
        print("    ],")
    print("}")
