"""Retry with exponential backoff and deterministic jitter.

The seed's transport did single-shot blocking operations: one
``queue`` timeout and the whole SPMD world deadlocked or died.  A
:class:`RetryPolicy` turns those into bounded retry loops — per
attempt timeout, exponential backoff with jitter, a bounded number of
attempts — and converts exhaustion into a typed
:class:`~repro.faults.errors.EndpointDownError` that the degradation
layer can catch.

Jitter is derived from the attempt number rather than global RNG state
so a given policy produces the same backoff sequence every run
(the same determinism contract as the injector).

Every attempt increments ``repro_retry_attempts_total`` and every
exhaustion ``repro_retry_exhausted_total`` through
:func:`repro.observe.get_telemetry`, so retry pressure shows up next
to the transport gauges it explains.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.faults.errors import EndpointDownError, StreamTimeout

#: each backoff is this many times the one before, up to `_MAX_DELAY`
#: seconds, then scaled by a deterministic factor in ``1 +/- _JITTER``
_MULTIPLIER = 2.0
_MAX_DELAY = 1.0
_JITTER = 0.25


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs for a bounded retry loop around a transport operation."""

    max_attempts: int = 4
    base_delay: float = 0.02       # backoff before attempt 2 [s]
    attempt_timeout: float | None = None  # per-attempt blocking timeout [s]

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0:
            raise ValueError("delays must be >= 0")

    def backoff(self, attempt: int) -> float:
        """Sleep before retry number `attempt` (1-based, deterministic)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        delay = min(self.base_delay * _MULTIPLIER ** (attempt - 1), _MAX_DELAY)
        rng = random.Random(f"0|backoff|{attempt}")
        return delay * (1.0 + _JITTER * (2.0 * rng.random() - 1.0))

    def call(self, fn, on_retry=None, describe: str = "transport operation"):
        """Run ``fn(attempt)`` until it succeeds or `max_attempts` are spent.

        A :class:`StreamTimeout` triggers backoff-and-retry (calling
        ``on_retry(attempt, exc)`` before each sleep); anything else
        propagates immediately.  Exhaustion raises
        :class:`EndpointDownError` chained to the last failure.
        """
        from repro.observe.session import get_telemetry

        tel = get_telemetry()
        last: BaseException | None = None
        for attempt in range(1, self.max_attempts + 1):
            if tel.enabled:
                tel.metrics.counter(
                    "repro_retry_attempts_total",
                    "Transport operation attempts made under a RetryPolicy",
                ).inc()
            try:
                return fn(attempt)
            except StreamTimeout as exc:
                last = exc
                if attempt == self.max_attempts:
                    break
                if on_retry is not None:
                    on_retry(attempt, exc)
                time.sleep(self.backoff(attempt))
        if tel.enabled:
            tel.metrics.counter(
                "repro_retry_exhausted_total",
                "Retry loops that exhausted their attempt or deadline budget",
            ).inc()
        tel.live.event("retry_exhausted")
        raise EndpointDownError(
            f"{describe} failed after {attempt} attempt(s), exhausting "
            f"{self.max_attempts} attempts (last error: {last})"
        ) from last
