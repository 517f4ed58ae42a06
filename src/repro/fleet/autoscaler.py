"""Autoscaler: pick the sim:endpoint ratio from queue-depth gauges.

The paper fixes 4:1 sim:endpoint nodes; this picks the ratio *live*.
Input signals are the ones :mod:`repro.observe` already meters for the
transport — staged stream steps per endpoint (queue depth) and writer
stalls (blocked puts / retries).  The policy is deliberately boring:

- queue depth per active endpoint above ``high_water`` (or any new
  stalls) for ``patience`` consecutive observations -> scale **up**
  (activate a parked endpoint, ratio decreases);
- depth below ``low_water`` for ``patience`` observations -> scale
  **down** (planned leave, ratio increases);
- the resulting ratio is clamped to ``[min_ratio, max_ratio]``
  (2:1 .. 16:1 by default) and decisions are rate-limited by a
  ``cooldown`` observation count so membership never flaps.

Every observation publishes ``repro_fleet_queue_depth`` /
``repro_fleet_ratio`` gauges; the ``repro_fleet_scale_{up,down}_total``
counters read ``scale_ups`` / ``scale_downs``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.observe.session import get_telemetry


@dataclass(frozen=True)
class AutoscalerConfig:
    min_ratio: float = 2.0      # never more endpoints than num_sim / 2
    max_ratio: float = 16.0     # never fewer endpoints than num_sim / 16
    high_water: float = 2.0     # staged steps per endpoint that mean "hot"
    low_water: float = 0.25     # staged steps per endpoint that mean "idle"
    patience: int = 2           # consecutive observations before acting
    cooldown: int = 4           # observations to hold after a decision

    def __post_init__(self):
        if not 1.0 <= self.min_ratio <= self.max_ratio:
            raise ValueError("need 1 <= min_ratio <= max_ratio")
        if self.low_water >= self.high_water:
            raise ValueError("low_water must be < high_water")


class Autoscaler:
    """Queue-depth-driven endpoint count controller."""

    def __init__(self, num_sim: int, config: AutoscalerConfig | None = None):
        if num_sim < 1:
            raise ValueError("num_sim must be >= 1")
        self.num_sim = num_sim
        self.config = config or AutoscalerConfig()
        self._hot_streak = 0
        self._cold_streak = 0
        self._cooldown = 0
        self._last_stalls = 0
        self.scale_ups = 0
        self.scale_downs = 0
        self.decisions: list[tuple[int, int]] = []   # (before, after) counts
        metrics = get_telemetry().metrics
        metrics.counter(
            "repro_fleet_scale_up_total", "Autoscaler membership changes",
            read=lambda: self.scale_ups,
        )
        metrics.counter(
            "repro_fleet_scale_down_total", "Autoscaler membership changes",
            read=lambda: self.scale_downs,
        )

    # -- bounds ------------------------------------------------------------
    def bounds(self, pool_size: int) -> tuple[int, int]:
        """(min_active, max_active) honoring the ratio clamp and the pool."""
        lo = max(1, -(-self.num_sim // int(self.config.max_ratio)))  # ceil div
        hi = max(lo, int(self.num_sim // self.config.min_ratio) or 1)
        return lo, min(hi, pool_size)

    def clamp(self, active: int, pool_size: int) -> int:
        lo, hi = self.bounds(pool_size)
        return min(max(active, lo), hi)

    def ratio(self, active: int) -> float:
        return self.num_sim / max(active, 1)

    # -- policy ------------------------------------------------------------
    def observe(
        self,
        staged_steps: int,
        active: int,
        pool_size: int,
        stalls: int = 0,
    ) -> int:
        """Feed one observation; return the target active endpoint count.

        `staged_steps` is the fleet-wide staged/queued step count,
        `stalls` a monotonically increasing writer-stall counter.  The
        return value equals `active` when no change is warranted.
        """
        cfg = self.config
        depth = staged_steps / max(active, 1)
        new_stalls = max(0, stalls - self._last_stalls)
        self._last_stalls = max(stalls, self._last_stalls)

        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.gauge(
                "repro_fleet_queue_depth",
                "Staged stream steps per active endpoint", agg="max",
            ).set(depth)
            tel.metrics.gauge(
                "repro_fleet_ratio", "Current sim:endpoint ratio", agg="last",
            ).set(self.ratio(active))

        if depth > cfg.high_water or new_stalls:
            self._hot_streak += 1
            self._cold_streak = 0
        elif depth < cfg.low_water:
            self._cold_streak += 1
            self._hot_streak = 0
        else:
            self._hot_streak = self._cold_streak = 0

        if self._cooldown > 0:
            self._cooldown -= 1
            return active

        target = active
        if self._hot_streak >= cfg.patience:
            target = self.clamp(active + 1, pool_size)
        elif self._cold_streak >= cfg.patience:
            target = self.clamp(active - 1, pool_size)
        else:
            return self.clamp(active, pool_size)

        if target != active:
            self._cooldown = cfg.cooldown
            self._hot_streak = self._cold_streak = 0
            self.decisions.append((active, target))
            if target > active:
                self.scale_ups += 1
            else:
                self.scale_downs += 1
            tel.tracer.instant(
                "fleet.autoscale", before=active, after=target,
                depth=round(depth, 3),
            )
        return target
