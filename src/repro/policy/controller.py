"""The policy controller: applies decisions to a live hierarchy.

The controller is the only component that touches the hierarchy.  It

- snapshots every level's setup-time payload so ``demote`` (and
  :meth:`PolicyController.restore`) are *bit-exact* returns to the
  original state, not re-truncations;
- re-materializes a single level in a new storage tier from that level's
  high-precision operator (``Level.high`` when the hierarchy was built
  with ``keep_high``, else the payload recovered to compute precision),
  leaving every other level untouched;
- memoizes materialized payloads by ``(level, format)`` so an
  escalate/demote/escalate sequence rebinds cached objects instead of
  re-truncating — repeated visits to a tier are bit-identical;
- emits one ``policy.escalate`` / ``policy.demote`` / ``policy.rescale``
  event and metric per applied decision, and records everything for the
  ``policy`` snapshot section.

When the policy never fires (``StaticPolicy``), the controller applies
nothing and the solve is bit-identical to an un-attached solve — the
``repro tune`` parity gate and the test suite both enforce this.
"""

from __future__ import annotations

import numpy as np

from ..observability import events as _events
from ..observability import metrics as _metrics
from ..precision import get_format
from .base import PolicyDecision, PrecisionPolicy, StaticPolicy

__all__ = ["PolicyController", "attach_policy", "make_policy"]


class PolicyController:
    """Bind a :class:`~repro.policy.base.PrecisionPolicy` to a hierarchy.

    Construction does not touch the hierarchy; :meth:`attach` applies the
    policy's preflight decisions.  The solver wires :meth:`on_iteration`
    as its per-iteration callback.
    """

    def __init__(self, hierarchy, policy: "PrecisionPolicy | None" = None):
        self.hierarchy = hierarchy
        self.policy = policy if policy is not None else StaticPolicy()
        self.decisions: "list[PolicyDecision]" = []
        self.escalations = 0
        self.demotions = 0
        self.rescales = 0
        #: (level, format-name) -> (StoredMatrix, Smoother); seeded with
        #: the setup-time payloads so demotion restores the original
        #: object, bit for bit.
        self._payloads: "dict[tuple[int, str], tuple]" = {}
        for lev in hierarchy.levels:
            self._payloads[(lev.index, lev.stored.storage.name)] = (
                lev.stored,
                lev.smoother,
            )
        self._original_storage = {
            lev.index: lev.stored.storage.name for lev in hierarchy.levels
        }
        self._attached = False

    # ------------------------------------------------------------------
    # telemetry accessors the policy reads
    # ------------------------------------------------------------------
    @property
    def n_levels(self) -> int:
        return self.hierarchy.n_levels

    @property
    def compute_format_name(self) -> str:
        return self.hierarchy.config.compute.name

    def level_storage(self, level: int) -> str:
        """Current storage-format name of one level."""
        return self.hierarchy.levels[level].stored.storage.name

    def level_stats(self, level: int):
        """Setup-time :class:`~repro.mg.setup.LevelSetupStats` (or None)."""
        diag = self.hierarchy.diagnostics
        if diag is None or level >= len(diag.levels):
            return None
        return diag.levels[level]

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def attach(self) -> "PolicyController":
        """Apply the policy's preflight decisions (once)."""
        if self._attached:
            return self
        self._attached = True
        for d in self.policy.start(self):
            self.apply(d)
        return self

    def on_iteration(self, it: int, rel: float, x=None) -> bool:
        """Outer-solver callback: feed the policy, apply its decisions.

        Returns ``True`` when any decision was applied — the solver uses
        this as a direction-restart request, since a re-tiered level
        means the preconditioner the Krylov recurrence assumed is gone.
        """
        applied = False
        for d in self.policy.observe_outer(it, float(rel), self):
            self.apply(d)
            applied = True
        return applied

    def on_drift(self, drift: float, a_new=None) -> "list[PolicyDecision]":
        """Serving-session hook: operator drifted but hierarchy is reused.

        ``a_new`` is the refreshed operator; a ``rescale`` decision
        re-materializes the finest level from it (new values, new ``Q``)
        while the coarse chain — still a good preconditioner at this
        drift — is kept.
        """
        applied = []
        for d in self.policy.observe_drift(float(drift), self):
            self.apply(d, source=a_new)
            applied.append(d)
        return applied

    # ------------------------------------------------------------------
    # decision application
    # ------------------------------------------------------------------
    def _high_operator(self, level: int):
        """High-precision source for re-materializing one level."""
        lev = self.hierarchy.levels[level]
        if lev.high is not None:
            return lev.high
        # No retained FP64 chain: recover the represented operator from
        # the *original* payload (not the currently bound one, which may
        # already be an escalated re-materialization).
        stored, _sm = self._payloads[(level, self._original_storage[level])]
        return stored.recovered().astype("fp64")

    def _materialize(self, level: int, fmt_name: str):
        key = (level, fmt_name)
        if key not in self._payloads:
            from ..mg.setup import build_level_payload

            lev = self.hierarchy.levels[level]
            stored, smoother = build_level_payload(
                self._high_operator(level),
                get_format(fmt_name),
                self.hierarchy.config,
                self.hierarchy.options,
                is_coarsest=level == self.n_levels - 1,
            )
            self._payloads[key] = (stored, smoother)
        return self._payloads[key]

    def apply(self, decision: PolicyDecision, source=None) -> None:
        """Apply one decision to the hierarchy and record it."""
        if decision.kind == "rescale":
            self._apply_rescale(decision, source)
        else:
            self._apply_retier(decision)
        self.decisions.append(decision)
        kind = decision.kind
        if _metrics.active():
            _metrics.incr(f"policy.{kind}", level=decision.level)
        if _events.active():
            _events.emit(
                "info",
                f"policy.{kind}",
                f"level {decision.level} {kind}"
                + (f" -> {decision.to}" if decision.to else "")
                + (f" ({decision.reason})" if decision.reason else ""),
                level=decision.level,
                to=decision.to,
                reason=decision.reason,
                iteration=decision.iteration,
            )

    def _apply_retier(self, decision: PolicyDecision) -> None:
        if decision.to is None:
            raise ValueError(f"{decision.kind} decision needs a target format")
        fmt_name = get_format(decision.to).name
        if not 0 <= decision.level < self.n_levels:
            raise ValueError(f"decision targets unknown level {decision.level}")
        stored, smoother = self._materialize(decision.level, fmt_name)
        self.hierarchy.levels[decision.level].rebind(stored, smoother)
        if decision.kind == "escalate":
            self.escalations += 1
        else:
            self.demotions += 1

    def _apply_rescale(self, decision: PolicyDecision, source) -> None:
        """Re-materialize the finest level from a refreshed operator.

        The payload cache is cleared for the touched level: it now
        represents a *different* operator, so memoized tiers of the old
        one must not be rebound later.
        """
        lev = self.hierarchy.levels[decision.level]
        if source is None:
            source = self._high_operator(decision.level)
        else:
            source = source.astype("fp64") if source.dtype != np.float64 else source
        from ..mg.setup import build_level_payload

        fmt = lev.stored.storage
        stored, smoother = build_level_payload(
            source,
            fmt,
            self.hierarchy.config,
            self.hierarchy.options,
            is_coarsest=decision.level == self.n_levels - 1,
        )
        for key in [k for k in self._payloads if k[0] == decision.level]:
            del self._payloads[key]
        self._payloads[(decision.level, fmt.name)] = (stored, smoother)
        if lev.high is not None:
            lev.high = source
        lev.rebind(stored, smoother)
        self.rescales += 1

    # ------------------------------------------------------------------
    def restore(self) -> None:
        """Rebind every level to its setup-time payload (bit-exact)."""
        for lev in self.hierarchy.levels:
            stored, smoother = self._payloads[
                (lev.index, self._original_storage[lev.index])
            ]
            if lev.stored is not stored or lev.smoother is not smoother:
                lev.rebind(stored, smoother)

    def reset(self) -> None:
        """Clear per-solve state (decisions stay recorded)."""
        self.policy.reset()

    def final_levels(self) -> "list[dict]":
        return [
            {"index": lev.index, "storage": lev.stored.storage.name}
            for lev in self.hierarchy.levels
        ]

    def snapshot(self) -> dict:
        """The ``policy`` section of a benchmark snapshot."""
        return {
            "name": self.policy.name,
            "decisions": [d.to_dict() for d in self.decisions],
            "final_levels": self.final_levels(),
            "escalations": self.escalations,
            "demotions": self.demotions,
            "rescales": self.rescales,
        }


def make_policy(name: "str | PrecisionPolicy | None", **kwargs) -> PrecisionPolicy:
    """Resolve a policy by name (``"static"`` / ``"adaptive"``)."""
    if name is None:
        return StaticPolicy()
    if isinstance(name, PrecisionPolicy):
        return name
    from .adaptive import AdaptivePolicy

    engines = {"static": StaticPolicy, "adaptive": AdaptivePolicy}
    try:
        return engines[str(name).lower()](**kwargs)
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; known: {sorted(engines)}"
        ) from None


def attach_policy(hierarchy, policy: "str | PrecisionPolicy | None" = None) -> PolicyController:
    """Create a controller for ``hierarchy`` and attach it.

    ``policy`` may be an engine instance, a name, or ``None`` (resolved
    from ``hierarchy.config.policy``).  Returns the attached controller;
    wire ``controller.on_iteration`` as the solver callback to close the
    loop.
    """
    if policy is None:
        policy = hierarchy.config.policy
    controller = PolicyController(hierarchy, make_policy(policy))
    return controller.attach()
