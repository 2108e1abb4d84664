"""Distributed fields with ghost (halo) layers and staged exchange.

A :class:`DistributedField` holds one ghost-padded local array per rank:
the private halo buffer the distributed operators copy their global-layout
input into before they exchange its ghosts.
Halo exchange uses the standard three-stage scheme: axes are exchanged in
order, each stage sending slabs that span the *already-exchanged* extent of
earlier axes — which propagates edge and corner ghost values with only six
face messages per rank, exactly the message count the paper's radius-1
stencils (up to 3d27) require.  The slabs and neighbours of every stage
are the decomposition's :attr:`~repro.parallel.decomp.CartesianDecomposition.halo_plan`,
built once per decomposition; an exchange only walks it.

Ghost cells beyond the physical domain stay zero, consistent with the
SG-DIA boundary convention (out-of-domain coefficients are zero), so no
special boundary handling is needed in the distributed kernels.
"""

from __future__ import annotations

import numpy as np

from ..observability import metrics as _metrics
from ..observability import trace as _trace
from ..resilience.runtime import SolveInterrupted
from .comm import CommStats
from .decomp import GHOST, CartesianDecomposition

__all__ = ["DistributedField", "HaloCorruption", "install_message_fault"]

#: Optional message-level fault hook, installed by
#: :func:`repro.resilience.faults.halo_fault`.  Called as
#: ``hook(payload, key, attempt)`` per transmission; it may return the
#: payload unchanged, a garbled copy, or ``None`` (message dropped).
#: ``key = (axis, side, rank)`` identifies the message, ``attempt`` counts
#: retransmissions — a transient fault model corrupts attempt 0 only.
_message_fault = None


def install_message_fault(hook) -> None:
    """Install (or, with ``None``, remove) the global message fault hook."""
    global _message_fault
    _message_fault = hook


class HaloCorruption(SolveInterrupted):
    """A halo message failed its checksum twice (dropped/garbled twice).

    Status ``"corrupted"``: the communication layer could not deliver a
    verified message even after one retransmission, so the enclosing solve
    classifies instead of silently iterating on bad ghost values.
    """

    def __init__(self, key, message: str = ""):
        super().__init__(
            "corrupted",
            message or f"halo message {key} failed checksum after retransmit",
        )
        self.key = key


class DistributedField:
    """Per-rank ghost-padded local arrays representing one global field."""

    GHOST = GHOST  # the width the decomposition's halo plan uses

    def __init__(self, decomp: CartesianDecomposition, dtype=np.float32) -> None:
        self.decomp = decomp
        self.dtype = np.dtype(dtype)
        g = self.GHOST
        ncomp = decomp.grid.ncomp
        self.locals: list[np.ndarray] = []
        for local_shape in decomp.rank_shapes:
            shape = tuple(n + 2 * g for n in local_shape)
            if ncomp > 1:
                shape = (*shape, ncomp)
            self.locals.append(np.zeros(shape, dtype=self.dtype))

    # ------------------------------------------------------------------
    def owned_view(self, rank: int) -> np.ndarray:
        """Writable view of the rank's owned (non-ghost) region."""
        g = self.GHOST
        sl = tuple(slice(g, -g) for _ in range(3))
        return self.locals[rank][sl]

    @classmethod
    def scatter(
        cls,
        global_field: np.ndarray,
        decomp: CartesianDecomposition,
        dtype=None,
    ) -> "DistributedField":
        """Distribute a global field array over the ranks."""
        global_field = np.asarray(global_field).reshape(
            decomp.grid.field_shape
        )
        f = cls(decomp, dtype=dtype or global_field.dtype)
        for rank, sl in enumerate(decomp.rank_slices):
            f.owned_view(rank)[...] = global_field[sl]
        return f

    def gather(self, out: "np.ndarray | None" = None) -> np.ndarray:
        """Assemble the global field from the owned regions (into ``out``,
        a global field array, when given)."""
        if out is None:
            out = np.zeros(self.decomp.grid.field_shape, dtype=self.dtype)
        for rank, sl in enumerate(self.decomp.rank_slices):
            out[sl] = self.owned_view(rank)
        return out

    # ------------------------------------------------------------------
    def exchange_halos(self, stats: "CommStats | None" = None) -> None:
        """Fill all ghost layers from neighbouring ranks (6 messages/rank),
        walking the decomposition's :attr:`~CartesianDecomposition.halo_plan`."""
        arrays = self.locals
        messages = 0
        nbytes = 0
        with _trace.span("halo_exchange") as sp:
            for axis, (zero, sends) in enumerate(self.decomp.halo_plan):
                for rank, ghost in zero:
                    arrays[rank][ghost] = 0  # physical boundary
                for side, rank, send_idx, nbr, recv_idx in sends:
                    send = arrays[rank][send_idx]
                    if _message_fault is None:
                        arrays[nbr][recv_idx] = send
                    else:
                        arrays[nbr][recv_idx] = self._verified_transmit(
                            send, (axis, side, rank)
                        )
                    messages += 1
                    nbytes += send.nbytes
                    if stats is not None:
                        stats.record_p2p(send.nbytes)
            sp.set(messages=messages, bytes=nbytes)
        _metrics.incr("comm.halo.exchanges")
        if nbytes:
            _metrics.incr("comm.halo.bytes", nbytes)
            _metrics.incr("comm.halo.messages", messages)

    @staticmethod
    def _verified_transmit(send: np.ndarray, key) -> np.ndarray:
        """Checksum-verified message delivery with one retransmission.

        The sender-side FP64 sum travels with the payload (the classic
        piggy-backed message checksum); a receive whose sum differs — or a
        dropped message — triggers exactly one retransmit.  A second failure
        raises :class:`HaloCorruption` (status ``"corrupted"``) rather than
        handing the solver silently wrong ghost values.
        """
        checksum = float(np.sum(send, dtype=np.float64))
        if not np.isfinite(checksum):
            # A legitimately non-finite field (diverging solve) cannot be
            # checksummed; deliver as-is and let the norm checks classify it.
            payload = _message_fault(send.copy(), key, 0)
            return send if payload is None else payload
        for attempt in (0, 1):
            payload = _message_fault(send.copy(), key, attempt)
            if payload is not None and float(
                np.sum(payload, dtype=np.float64)
            ) == checksum:
                if attempt:
                    _metrics.incr("comm.halo.retransmits")
                return payload
            _metrics.incr(
                "comm.halo.dropped" if payload is None else "comm.halo.garbled"
            )
        _metrics.incr("comm.halo.corrupted")
        raise HaloCorruption(key)
