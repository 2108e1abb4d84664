"""Communication accounting for the in-process distributed engine.

All "ranks" live in one Python process, so communication is structured
copying — but every copy is routed through :class:`CommStats` so that the
engine produces *measured* message/byte counts.  These counters validate
the alpha-beta terms of the Figure-10 strong-scaling model against an
actually-executing decomposed solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CommStats"]


@dataclass
class CommStats:
    """Message/byte counters, in the spirit of an MPI profiler.

    ``p2p_messages``/``p2p_bytes`` count point-to-point halo traffic (each
    directed transfer is one message); ``allreduces``/``allreduce_bytes``
    count collective reductions (one collective per call, regardless of
    rank count — latency modelling multiplies by ``log2 P`` separately).
    """

    p2p_messages: int = 0
    p2p_bytes: int = 0
    allreduces: int = 0
    allreduce_bytes: int = 0
    by_phase: dict = field(default_factory=dict)
    _phase: str = "default"

    def set_phase(self, phase: str) -> None:
        self._phase = phase

    def _phase_bucket(self, phase: "str | None" = None) -> dict:
        """The counters of ``phase`` (the current phase by default)."""
        return self.by_phase.setdefault(
            self._phase if phase is None else phase,
            dict.fromkeys(
                ("p2p_messages", "p2p_bytes", "allreduces", "allreduce_bytes"),
                0,
            ),
        )

    def record_p2p(self, nbytes: int) -> None:
        self.p2p_messages += 1
        self.p2p_bytes += int(nbytes)
        b = self._phase_bucket()
        b["p2p_messages"] += 1
        b["p2p_bytes"] += int(nbytes)

    def record_allreduce(self, nbytes: int) -> None:
        self.allreduces += 1
        self.allreduce_bytes += int(nbytes)
        b = self._phase_bucket()
        b["allreduces"] += 1
        # bytes must land in the phase bucket too, or by_phase can never
        # reconcile with the global counters (Figure-10 comm validation)
        b["allreduce_bytes"] += int(nbytes)

    def reset(self) -> None:
        self.p2p_messages = 0
        self.p2p_bytes = 0
        self.allreduces = 0
        self.allreduce_bytes = 0
        self.by_phase.clear()

    def merge(self, other: "CommStats") -> None:
        """Accumulate another profile's counters into this one (used when a
        guarded solve aggregates traffic across escalation attempts)."""
        self.p2p_messages += other.p2p_messages
        self.p2p_bytes += other.p2p_bytes
        self.allreduces += other.allreduces
        self.allreduce_bytes += other.allreduce_bytes
        for phase, bucket in other.by_phase.items():
            mine = self._phase_bucket(phase)
            for key, value in bucket.items():
                mine[key] = mine.get(key, 0) + value

    def to_dict(self) -> dict:
        """Machine-readable counters for traces and solve telemetry."""
        return {
            "p2p_messages": self.p2p_messages,
            "p2p_bytes": self.p2p_bytes,
            "allreduces": self.allreduces,
            "allreduce_bytes": self.allreduce_bytes,
            "by_phase": {phase: dict(b) for phase, b in self.by_phase.items()},
        }

    def modeled_time(self, machine, ranks_per_node: "int | None" = None) -> float:
        """Alpha-beta time of the recorded traffic on a machine model.

        Off-node latency/bandwidth applies to every message (a conservative
        upper bound; intra-node messages are cheaper in reality).
        """
        alpha = machine.net_latency_s
        beta = machine.net_bytes_per_s
        t = self.p2p_messages * alpha + self.p2p_bytes / beta
        t += self.allreduces * 2 * alpha
        return t

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CommStats(p2p={self.p2p_messages} msgs / {self.p2p_bytes} B, "
            f"allreduce={self.allreduces})"
        )
