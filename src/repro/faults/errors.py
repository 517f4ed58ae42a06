"""Typed error taxonomy for the in-transit transport.

The seed raised bare ``TimeoutError`` / ``RuntimeError`` / ``ValueError``
from deep inside the SST broker and the marshaling layer, which made
"endpoint died" indistinguishable from "programming error" at the
degradation sites.  These types carry the distinction:

- :class:`TransportError` — base for anything the transport can throw
  at the simulation; the graceful-degradation layer catches exactly
  this and nothing else.
- :class:`StreamTimeout` — a blocking put/get exceeded its (per
  attempt) timeout.  Subclasses :class:`TimeoutError` so pre-existing
  callers keep working.
- :class:`EndpointDownError` — the retry budget is spent (or the
  broker was marked down); the consumer side is considered dead.
- :class:`CorruptPayloadError` — a BP payload failed its CRC32 check
  or is structurally unreadable.  Subclasses :class:`ValueError` for
  compatibility with the seed's marshaling errors.
- :class:`RankStallError` — a thread-SPMD collective did not complete:
  this rank timed out waiting for its peers, or the group was aborted
  because another rank failed (the ``detail`` text says which).
  Subclasses :class:`TimeoutError` so the SPMD driver's "prefer the
  root-cause exception" logic still holds.
"""

from __future__ import annotations


class TransportError(RuntimeError):
    """Base class for in-transit transport failures."""


class StreamTimeout(TransportError, TimeoutError):
    """A blocking stream operation exceeded its timeout."""


class EndpointDownError(TransportError):
    """The consumer endpoint is unreachable past the retry budget."""


class CorruptPayloadError(TransportError, ValueError):
    """A step payload failed integrity verification."""


class RankStallError(TimeoutError):
    """A rank failed to reach a collective within the stall timeout."""

    def __init__(self, rank: int, channel: str, timeout: float, detail: str = ""):
        self.rank = rank
        self.channel = channel
        self.timeout = timeout
        msg = (
            f"rank {rank} (channel {channel!r}) stalled at a collective "
            f"past {timeout:g}s"
        )
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
