"""Render-step work queues with deterministic work stealing.

A :class:`RenderTask` is one fully assembled stream step — every live
writer's CRC-checked payload for that step — ready to be rendered (or
checkpointed) by exactly one endpoint.  Tasks are queued per endpoint;
an idle endpoint *steals* from the hottest peer using a deterministic
victim-selection protocol (deepest queue, ties broken by lowest
endpoint id; the **oldest** task is taken so per-step completion order
stays close to FIFO).  Determinism matters: the chaos tests replay a
seeded fault schedule and expect the same steal decisions every run
for a given interleaving of queue depths.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field


@dataclass
class RenderTask:
    """One assembled stream step, the unit of endpoint work."""

    step: int
    payloads: dict = field(default_factory=dict)   # writer -> StepPayload
    attempts: int = field(default=0, init=False)   # delivery attempts (replay)

    @property
    def nbytes(self) -> int:
        return sum(p.nbytes for p in self.payloads.values())


class WorkQueues:
    """Per-endpoint task queues plus the stealing protocol."""

    def __init__(self, endpoint_ids):
        self._lock = threading.Lock()
        self._queues: dict[int, deque] = {eid: deque() for eid in endpoint_ids}
        self.stolen = 0
        self.pushed = 0

    def push(self, eid: int, task: RenderTask) -> None:
        with self._lock:
            self._queues[eid].append(task)
            self.pushed += 1

    def pop(self, eid: int) -> RenderTask | None:
        """This endpoint's own oldest task, or None."""
        with self._lock:
            q = self._queues[eid]
            return q.popleft() if q else None

    def steal(self, thief: int, candidates=None) -> tuple[RenderTask, int] | None:
        """Steal the oldest task from the deterministically chosen victim.

        Victim selection: among `candidates` (default: every other
        endpoint) with a non-empty queue, the one with the deepest
        queue; ties break toward the lowest endpoint id.  Returns
        ``(task, victim)`` or None when there is nothing to steal.
        """
        with self._lock:
            pool = self._queues if candidates is None else {
                eid: self._queues[eid] for eid in candidates if eid in self._queues
            }
            victim = None
            depth = 0
            for eid in sorted(pool):
                if eid == thief:
                    continue
                if len(pool[eid]) > depth:
                    victim, depth = eid, len(pool[eid])
            if victim is None:
                return None
            task = self._queues[victim].popleft()
            self.stolen += 1
            return task, victim

    def drain(self, eid: int) -> list[RenderTask]:
        """Remove and return everything queued for `eid` (its requeue set)."""
        with self._lock:
            q = self._queues[eid]
            tasks = list(q)
            q.clear()
            return tasks

    def depth(self, eid: int) -> int:
        with self._lock:
            return len(self._queues[eid])

    def total_depth(self) -> int:
        with self._lock:
            return sum(len(q) for q in self._queues.values())
