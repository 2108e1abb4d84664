"""The closed-loop adaptive precision policy.

Decision logic (all thresholds are constructor knobs, all decisions are
deterministic functions of the observed telemetry):

Preflight (at attach)
    A half-stored level whose setup telemetry shows non-finite payload
    values, or an underflow fraction above ``preflight_underflow``, is
    escalated immediately — the hierarchy is known-degraded before the
    first iteration (this automates the manual ``shift_levid`` fix for
    the Section-4.3 underflow hazard).

Stall escalation (per outer iteration)
    The windowed residual-reduction factor
    ``rho = (rel_k / rel_{k-w})^{1/w}`` is the convergence-rate signal.
    When ``rho > stall_ratio`` (the solve is stalling) and no escalation
    is currently on probation, the policy escalates *one* level — the
    half-stored candidate with the highest setup underflow fraction,
    coarsest first on ties (coarse levels are where the paper's underflow
    hazard lives).  The tier ladder is FP16 -> BF16 when the level shows
    range pressure (underflow dominates, and BF16 buys FP32's exponent
    range at the same 2 bytes/value), FP16 -> compute otherwise (a stall
    without range pressure is a mantissa problem BF16 would worsen), and
    BF16 -> compute.

Hysteresis demotion
    ``hysteresis`` iterations after an escalation, the new ``rho`` is
    compared against the pre-escalation one.  If the escalation did not
    improve the rate by at least ``min_gain``, the level is demoted back
    to the tier it came from and blacklisted for the rest of the solve —
    one probe per level per solve, so the search over levels terminates
    and never oscillates.

Rescale
    ``observe_drift`` (fed by the serving session's ``OperatorSignature``
    comparison) requests a dynamic re-scale of the finest level's ``Q``
    when the relative drift exceeds ``rescale_drift`` — the hierarchy is
    still a good preconditioner (the session only reuses it below its
    rebuild threshold) but the scaling was chosen for the old values.
"""

from __future__ import annotations

from .base import PolicyDecision, PrecisionPolicy

__all__ = ["AdaptivePolicy"]


class AdaptivePolicy(PrecisionPolicy):
    """Escalate stalling levels, demote failed probes, rescale on drift.

    Parameters
    ----------
    window:
        Outer iterations in the residual-reduction window for ``rho``.
    stall_ratio:
        ``rho`` above which the solve counts as stalling (a healthy
        FP16-preconditioned CG sits well below 0.9 on the paper's suite).
    min_gain:
        Minimum ``rho`` improvement an escalation must deliver within the
        hysteresis window to be kept.
    hysteresis:
        Outer iterations an escalation stays on probation before the
        keep/demote verdict (also the cooldown between escalations).
    preflight_underflow:
        Setup underflow fraction above which a level is escalated at
        attach time, before any iteration runs.
    range_underflow:
        Underflow fraction above which a stalling level's problem is
        classified as *range* (escalate to BF16 first) rather than
        *precision* (escalate straight to compute).
    rescale_drift:
        Relative operator drift above which ``observe_drift`` requests a
        re-scale of the finest level.
    """

    name = "adaptive"

    def __init__(
        self,
        window: int = 6,
        stall_ratio: float = 0.9,
        min_gain: float = 0.02,
        hysteresis: int = 8,
        preflight_underflow: float = 0.02,
        range_underflow: float = 0.005,
        rescale_drift: float = 0.02,
    ):
        if window < 1:
            raise ValueError("window must be >= 1")
        if hysteresis < 1:
            raise ValueError("hysteresis must be >= 1")
        self.window = int(window)
        self.stall_ratio = float(stall_ratio)
        self.min_gain = float(min_gain)
        self.hysteresis = int(hysteresis)
        self.preflight_underflow = float(preflight_underflow)
        self.range_underflow = float(range_underflow)
        self.rescale_drift = float(rescale_drift)
        self.reset()

    def reset(self) -> None:
        self._rels: "list[float]" = []
        #: level -> (from_fmt, escalated_at_iteration, rho_before)
        self._probation: "dict[int, tuple[str, int, float]]" = {}
        self._blacklist: "set[int]" = set()
        self._kept: "set[int]" = set()

    # ------------------------------------------------------------------
    def _rho(self) -> "float | None":
        """Windowed per-iteration residual reduction factor."""
        w = self.window
        if len(self._rels) <= w:
            return None
        new, old = self._rels[-1], self._rels[-1 - w]
        if not (new > 0.0 and old > 0.0):
            return None
        return (new / old) ** (1.0 / w)

    def _next_tier(self, controller, level: int) -> "str | None":
        """One rung up the FP16 -> BF16 -> compute ladder for ``level``."""
        current = controller.level_storage(level)
        compute = controller.compute_format_name
        if current == compute:
            return None
        if current == "bf16":
            return compute
        stats = controller.level_stats(level)
        under = stats.underflow_fraction if stats is not None else 0.0
        if under > self.range_underflow:
            return "bf16"
        return compute

    # ------------------------------------------------------------------
    def start(self, controller) -> "list[PolicyDecision]":
        decisions = []
        compute = controller.compute_format_name
        for lev in range(controller.n_levels):
            if controller.level_storage(lev) == compute:
                continue
            stats = controller.level_stats(lev)
            if stats is None:
                continue
            if stats.n_nonfinite > 0 or stats.n_overflow > 0:
                # Overflowed truncation clamps payload values to inf — the
                # hierarchy is already broken; only compute precision (or a
                # re-scale) recovers it.  BF16 would fix the *range* but
                # costs mantissa; the preflight signal cannot tell whether
                # mantissa matters, so take the safe tier.
                decisions.append(
                    PolicyDecision(
                        kind="escalate", level=lev, to=compute,
                        reason="preflight",
                    )
                )
                self._kept.add(lev)
            elif stats.underflow_fraction > self.preflight_underflow:
                decisions.append(
                    PolicyDecision(
                        kind="escalate", level=lev, to="bf16",
                        reason="preflight",
                    )
                )
                self._kept.add(lev)
        return decisions

    def observe_outer(self, it: int, rel: float, controller) -> "list[PolicyDecision]":
        self._rels.append(float(rel))
        rho = self._rho()
        decisions: "list[PolicyDecision]" = []

        # Probation verdicts first: demote a probe that did not pay.
        for lev, (from_fmt, at, rho_before) in list(self._probation.items()):
            if it - at < self.hysteresis:
                continue
            del self._probation[lev]
            if rho is not None and rho_before - rho < self.min_gain:
                self._blacklist.add(lev)
                decisions.append(
                    PolicyDecision(
                        kind="demote", level=lev, to=from_fmt,
                        reason="no-gain", iteration=it,
                    )
                )
            else:
                self._kept.add(lev)
        if decisions:
            # A demotion changes the convergence signal; restart the
            # stall clock before probing the next candidate.
            return decisions

        if self._probation or rho is None or rho <= self.stall_ratio:
            return decisions

        # Stalling and no probe outstanding: escalate one candidate.
        candidates = []
        for lev in range(controller.n_levels):
            if lev in self._blacklist or lev in self._kept:
                continue
            to = self._next_tier(controller, lev)
            if to is None:
                continue
            stats = controller.level_stats(lev)
            under = stats.underflow_fraction if stats is not None else 0.0
            candidates.append((under, lev, to))
        if not candidates:
            return decisions
        # Highest underflow fraction first; coarsest level on ties.
        under, lev, to = max(candidates, key=lambda c: (c[0], c[1]))
        from_fmt = controller.level_storage(lev)
        self._probation[lev] = (from_fmt, it, rho)
        decisions.append(
            PolicyDecision(
                kind="escalate", level=lev, to=to, reason="stall",
                iteration=it,
            )
        )
        return decisions

    def observe_drift(self, drift: float, controller) -> "list[PolicyDecision]":
        if drift > self.rescale_drift:
            return [
                PolicyDecision(kind="rescale", level=0, reason="drift")
            ]
        return []
