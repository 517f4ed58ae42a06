"""Deterministic fault injection for the in-transit pipeline.

A :class:`FaultInjector` decides — reproducibly — whether a fault
fires at a given *site* (e.g. ``broker.put``) for a given *step* and
*key* (usually the writer rank).  Decisions are derived from a
stateless seeded draw over ``(seed, kind, site, step, key)`` rather
than a shared sequential RNG, so the schedule is identical no matter
how the SPMD threads interleave their calls — the property the
determinism tests pin down.

Faults it knows how to inject (``FAULT_KINDS``):

- ``endpoint_crash``  — the consumer endpoint dies mid-run;
- ``slow_consumer``   — the endpoint's get is delayed;
- ``corrupt_payload`` — a payload byte is flipped in flight (detected
  by the CRC32 check in :mod:`repro.adios.marshal`);
- ``drop_step``       — a staged step vanishes from the transport;
- ``writer_stall``    — the writer's put is delayed.

Every injected fault is recorded in a :class:`FaultLog`, and every
fault must eventually be *resolved* into exactly one of three
outcomes — ``detected`` (seen and skipped), ``recovered`` (survived,
possibly after retries), or ``degraded`` (the pipeline fell back).
:meth:`FaultLog.try_resolve` clamps resolutions at the injected count
per kind, so the accounting identity ``injected == detected +
recovered + degraded`` holds whenever each fault gets at least one
resolution attempt.
"""

from __future__ import annotations

import random
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

FAULT_KINDS = (
    "endpoint_crash",
    "slow_consumer",
    "corrupt_payload",
    "drop_step",
    "writer_stall",
)

_OUTCOMES = ("detected", "recovered", "degraded")

#: default injected delay per delaying fault kind [s]
_DEFAULT_DELAYS = {"slow_consumer": 0.02, "writer_stall": 0.02}


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault occurrence."""

    kind: str
    site: str
    step: int
    key: int = 0
    delay: float = 0.0


@dataclass
class FaultLog:
    """Thread-safe ledger of injected faults and their outcomes."""

    injected: Counter = field(default_factory=Counter)
    detected: Counter = field(default_factory=Counter)
    recovered: Counter = field(default_factory=Counter)
    degraded: Counter = field(default_factory=Counter)
    retries: int = 0
    events: list = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record_injected(self, event: FaultEvent) -> None:
        with self._lock:
            self.injected[event.kind] += 1
            self.events.append(event)

    def record_retry(self, n: int = 1) -> None:
        with self._lock:
            self.retries += n

    def try_resolve(self, kind: str, outcome: str) -> bool:
        """Resolve one outstanding fault of `kind` into `outcome`.

        Returns False (and records nothing) when every injected fault
        of that kind already has an outcome — callers may attempt a
        resolution opportunistically without double counting.
        """
        if outcome not in _OUTCOMES:
            raise ValueError(f"outcome must be one of {_OUTCOMES}, got {outcome!r}")
        with self._lock:
            resolved = (
                self.detected[kind] + self.recovered[kind] + self.degraded[kind]
            )
            if resolved >= self.injected[kind]:
                return False
            getattr(self, outcome)[kind] += 1
            return True

    @property
    def accounted(self) -> bool:
        """injected == detected + recovered + degraded, per kind."""
        with self._lock:
            return all(
                self.injected[k]
                == self.detected[k] + self.recovered[k] + self.degraded[k]
                for k in set(self.injected) | set(self.detected)
                | set(self.recovered) | set(self.degraded)
            )

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "injected": dict(self.injected),
                "detected": dict(self.detected),
                "recovered": dict(self.recovered),
                "degraded": dict(self.degraded),
                "retries": self.retries,
            }


class FaultInjector:
    """Seeded, per-site fault decisions plus the shared :class:`FaultLog`.

    `probabilities` maps fault kind -> per-call firing probability;
    `schedule` maps fault kind -> collection of entries at which the
    fault fires unconditionally — either bare step indices (``3``:
    fire at step 3 for every key) or ``(step, key)`` pairs (``(3, 1)``:
    fire at step 3 only for key 1 — "kill endpoint 1, and only 1, at
    its third step", the form the fleet recovery tests use).  Both may
    be combined with probabilities.
    """

    def __init__(
        self,
        seed: int = 0,
        probabilities: dict[str, float] | None = None,
        schedule: dict[str, tuple[int, ...]] | None = None,
        delays: dict[str, float] | None = None,
        log: FaultLog | None = None,
    ):
        for kind in (probabilities or {}):
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        for kind in (schedule or {}):
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        self.seed = seed
        self.probabilities = dict(probabilities or {})
        self.schedule = {k: frozenset(v) for k, v in (schedule or {}).items()}
        self.delays = {**_DEFAULT_DELAYS, **(delays or {})}
        self.log = log if log is not None else FaultLog()

    # -- decisions ---------------------------------------------------------
    def _rng(self, kind: str, site: str, step: int, key: int) -> random.Random:
        # string seeding is deterministic across processes (sha512 path)
        return random.Random(f"{self.seed}|{kind}|{site}|{step}|{key}")

    def fires(self, kind: str, site: str, step: int, key: int = 0) -> bool:
        """Would `kind` fire here?  Pure function of (seed, args)."""
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
        scheduled = self.schedule.get(kind, ())
        if step in scheduled or (step, key) in scheduled:
            return True
        prob = self.probabilities.get(kind, 0.0)
        if prob <= 0.0:
            return False
        return self._rng(kind, site, step, key).random() < prob

    def maybe(
        self, kind: str, site: str, step: int, key: int = 0
    ) -> FaultEvent | None:
        """Fire-and-record: returns the event if the fault fires."""
        if not self.fires(kind, site, step, key):
            return None
        event = FaultEvent(
            kind=kind, site=site, step=step, key=key,
            delay=self.delays.get(kind, 0.0),
        )
        self.log.record_injected(event)
        return event

    # -- effect helpers ----------------------------------------------------
    def sleep(self, event: FaultEvent) -> None:
        if event.delay > 0.0:
            time.sleep(event.delay)

    def corrupt(self, data: bytes, event: FaultEvent) -> bytes:
        """Flip one byte at a seed-determined position (never a no-op)."""
        if not data:
            return data
        rng = self._rng(event.kind, event.site, event.step, event.key)
        pos = rng.randrange(len(data))
        flip = rng.randrange(1, 256)
        out = bytearray(data)
        out[pos] ^= flip
        return bytes(out)
