"""Runtime precision policy engine.

Turns the paper's static precision knobs (``shift_levid``,
``fp16_start_level``) into a closed-loop runtime controller: a
:class:`PrecisionPolicy` observes convergence-rate and range telemetry
and emits :class:`PolicyDecision`\\ s; the :class:`PolicyController`
applies them to a live hierarchy by re-materializing single levels
across the FP16 / BF16 / compute storage tiers (bit-exact payload
memoization, events and metrics per decision); and the auto-tuner
(``repro tune``) distils an adaptive run back into the best static
``+s<L>/+f<L>/+bf16<L>`` config string.

The default :class:`StaticPolicy` never fires — solves under it are
bit-identical to pre-policy behavior, which the tuner's parity gate and
the test suite both enforce.
"""

from .adaptive import AdaptivePolicy
from .base import (
    DECISION_KINDS,
    LevelMapPolicy,
    PolicyDecision,
    PrecisionPolicy,
    StaticPolicy,
)
from .controller import (
    PolicyController,
    attach_policy,
    make_policy,
)
from .tuner import derive_static_config, format_tuner_report, run_tuner

__all__ = [
    "DECISION_KINDS",
    "AdaptivePolicy",
    "LevelMapPolicy",
    "PolicyController",
    "PolicyDecision",
    "PrecisionPolicy",
    "StaticPolicy",
    "attach_policy",
    "derive_static_config",
    "format_tuner_report",
    "make_policy",
    "run_tuner",
]
