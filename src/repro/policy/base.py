"""Precision policy protocol and the deterministic rule engines.

A *precision policy* decides, during the solve, which storage tier each
multigrid level should use — FP16, BF16 or the compute precision — and
when the diagonal scaling ``Q`` should be refreshed.  The paper's knobs
(``shift_levid``, ``fp16_start_level``) fix these choices at setup time;
the policy layer closes the loop at runtime using the telemetry the setup
and solve phases already collect (per-level underflow/overflow counts,
outer residual reduction, per-level cycle residuals).

Three engines live here:

``StaticPolicy``
    The default.  Never emits a decision, so the solve path is
    *bit-identical* to a solve with no policy attached — the parity gate
    ``repro tune`` enforces.

``LevelMapPolicy``
    Pins an explicit ``{level: format}`` map at solve start.  Used by the
    auto-tuner to replay an adaptive run's final state, and by tests.

``AdaptivePolicy`` (in :mod:`.adaptive`)
    The closed-loop controller: escalates a stalling level to the next
    wider tier, demotes it back when escalation did not pay, and requests
    a re-scale on operator drift or range pressure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "DECISION_KINDS",
    "PolicyDecision",
    "PrecisionPolicy",
    "StaticPolicy",
    "LevelMapPolicy",
]

#: Decision kinds a policy may emit (event kinds are ``policy.<kind>``).
DECISION_KINDS = ("escalate", "demote", "rescale")


@dataclass(frozen=True)
class PolicyDecision:
    """One runtime precision decision.

    ``kind`` is one of :data:`DECISION_KINDS`; ``level`` the 0-based
    hierarchy level it applies to (``rescale`` targets the finest level);
    ``to`` the target storage-format name (``None`` for rescale);
    ``reason`` a short machine-greppable cause (``"stall"``,
    ``"preflight"``, ``"no-gain"``, ``"drift"``, ``"range"``);
    ``iteration`` the outer iteration the decision fired at (-1 for
    decisions made before the first iteration).
    """

    kind: str
    level: int
    to: "str | None" = None
    reason: str = ""
    iteration: int = -1

    def __post_init__(self) -> None:
        if self.kind not in DECISION_KINDS:
            raise ValueError(
                f"decision kind must be one of {DECISION_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.level < 0:
            raise ValueError("decision level must be >= 0")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "level": self.level,
            "to": self.to,
            "reason": self.reason,
            "iteration": self.iteration,
        }


class PrecisionPolicy:
    """Base protocol for runtime precision policies.

    A policy is a pure decision engine: it *observes* telemetry and
    *returns* :class:`PolicyDecision` lists; it never touches the
    hierarchy itself (the :class:`~repro.policy.controller.PolicyController`
    applies decisions and owns the payload cache).  All engines shipped
    here are deterministic: identical telemetry streams produce identical
    decision streams.
    """

    #: Name recorded in snapshots (``BENCH_policy.json`` ``policy.name``).
    name = "base"

    def start(self, controller) -> "list[PolicyDecision]":
        """Called once when the controller attaches; may emit preflight
        decisions (e.g. escalate a level whose setup telemetry already
        shows heavy underflow)."""
        return []

    def observe_outer(self, it: int, rel: float, controller) -> "list[PolicyDecision]":
        """Called once per outer Krylov iteration with the relative
        residual; returns the decisions to apply before the next
        preconditioner application."""
        return []

    def observe_drift(self, drift: float, controller) -> "list[PolicyDecision]":
        """Called by the serving session when the operator stream drifted
        by ``drift`` (relative, see ``OperatorSignature.drift``) but the
        hierarchy is being reused."""
        return []

    def reset(self) -> None:
        """Clear per-solve state (between solves of one session)."""


class StaticPolicy(PrecisionPolicy):
    """The do-nothing policy: today's static behavior, bit for bit."""

    name = "static"


class LevelMapPolicy(PrecisionPolicy):
    """Pin an explicit per-level storage map at solve start.

    ``level_formats`` maps 0-based level indices to storage-format names
    (``"fp16"`` / ``"bf16"`` / ``"fp32"`` / ...); unlisted levels keep
    their setup-time format.  Decisions are emitted once, as ``escalate``
    with reason ``"pinned"`` (the controller treats escalate/demote
    identically — both re-materialize the level in the target format).
    """

    name = "level-map"

    def __init__(self, level_formats: "dict[int, str]"):
        self.level_formats = {int(k): str(v) for k, v in level_formats.items()}
        self._fired = False

    def start(self, controller) -> "list[PolicyDecision]":
        if self._fired:
            return []
        self._fired = True
        return [
            PolicyDecision(kind="escalate", level=lev, to=fmt, reason="pinned")
            for lev, fmt in sorted(self.level_formats.items())
            if lev < controller.n_levels
            and controller.level_storage(lev) != fmt
        ]

    def reset(self) -> None:
        self._fired = False
