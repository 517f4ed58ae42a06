"""Declarative SLO watchdogs with rolling-window burn-rate evaluation.

An :class:`SLOSpec` states an objective the live pipeline must hold
(step latency, publish stalls, frame staleness, recovery time, retry
exhaustion) plus the error budget it may burn.  The
:class:`SLOWatchdog` evaluates every spec against the
:class:`~repro.observe.live.aggregate.LiveAggregator` each time a
snapshot lands, firing typed :class:`Alert` objects when the **burn
rate** — consumed budget over allowed budget in the rolling window —
reaches 1.0.

Firing alerts set ``/healthz`` to ``degraded``, and a
:class:`~repro.serve.steering.SteeringBus`, when attached, gets each
newly fired alert as an ``advisory`` steer command, so connected
viewers see operator guidance inline with the stream.

Recovery-time is event-driven rather than windowed: the coordinator
reports detection (`recovery_started`, which fires the alert
immediately — an in-progress recovery *is* the condition operators
must see) and completion (`recovery_finished`, which resolves it, or
escalates when the measured recovery time blew the objective).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

__all__ = ["SLOSpec", "Alert", "SLOWatchdog", "default_slos", "SLO_KINDS"]

SLO_KINDS = (
    "step_latency",
    "publish_stall",
    "frame_staleness",
    "recovery_time",
    "retry_exhaustion",
)


@dataclass(frozen=True)
class SLOSpec:
    """One objective + budget over a rolling window.

    `objective` is kind-specific: a latency bound in seconds
    (``step_latency``, ``frame_staleness``, ``recovery_time``) or an
    allowed count in the window (``publish_stall``,
    ``retry_exhaustion``).  `budget` is the tolerated violation
    fraction for windowed latency SLOs (0.1 = 10% of recent steps may
    exceed the objective).
    """

    name: str
    kind: str
    objective: float
    budget: float = 0.1
    window_s: float = 30.0
    min_count: int = 4
    severity: str = "warn"

    def __post_init__(self):
        if self.kind not in SLO_KINDS:
            raise ValueError(
                f"slo kind must be one of {SLO_KINDS}, got {self.kind!r}"
            )
        if self.objective < 0:
            raise ValueError("objective must be >= 0")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "objective": self.objective,
            "budget": self.budget,
            "window_s": self.window_s,
            "severity": self.severity,
        }


@dataclass
class Alert:
    """One typed SLO violation."""

    slo: str
    kind: str
    severity: str
    value: float
    objective: float
    burn_rate: float
    message: str
    at: float
    resolved_at: float | None = None
    extra: dict = field(default_factory=dict)

    @property
    def active(self) -> bool:
        return self.resolved_at is None

    def as_dict(self) -> dict:
        return {
            "slo": self.slo,
            "kind": self.kind,
            "severity": self.severity,
            "value": self.value,
            "objective": self.objective,
            "burn_rate": self.burn_rate,
            "message": self.message,
            "at": self.at,
            "resolved_at": self.resolved_at,
            "active": self.active,
            **({"extra": self.extra} if self.extra else {}),
        }


def default_slos(
    step_latency_s: float = 0.5,
    frame_staleness_s: float = 5.0,
    recovery_time_s: float = 1.0,
) -> tuple[SLOSpec, ...]:
    """The stock budget set for an in-transit fleet run."""
    return (
        SLOSpec(name="step_latency", kind="step_latency",
                objective=step_latency_s, budget=0.1),
        SLOSpec(name="publish_stall", kind="publish_stall",
                objective=0.0, severity="page"),
        SLOSpec(name="frame_staleness", kind="frame_staleness",
                objective=frame_staleness_s),
        SLOSpec(name="recovery_time", kind="recovery_time",
                objective=recovery_time_s, severity="page"),
        SLOSpec(name="retry_exhaustion", kind="retry_exhaustion",
                objective=0.0, severity="page"),
    )


#: aggregator count keys per count-kind SLO
_COUNT_KEYS = {
    "publish_stall": "publish_stall",
    "retry_exhaustion": "retry_exhausted",
}


class SLOWatchdog:
    """Evaluates SLO specs against live aggregator state."""

    def __init__(self, specs=None, bus=None, clock=time.perf_counter):
        self.specs = tuple(specs if specs is not None else default_slos())
        names = [s.name for s in self.specs]
        if len(set(names)) != len(names):
            raise ValueError("slo names must be unique")
        self.bus = bus
        self._clock = clock
        self._lock = threading.Lock()
        self.active: dict[str, Alert] = {}
        self.history: list[Alert] = []
        self.fired = 0
        self.evaluations = 0
        self._burn: dict[str, float] = {s.name: 0.0 for s in self.specs}
        self._recovering: dict[int, Alert] = {}

    # -- evaluation ----------------------------------------------------
    def evaluate(self, aggregator, now: float | None = None) -> list[Alert]:
        """One burn-rate pass; returns alerts fired *this* call."""
        now = self._clock() if now is None else now
        fired: list[Alert] = []
        with self._lock:
            self.evaluations += 1
            for spec in self.specs:
                if spec.kind == "recovery_time":
                    continue        # event-driven (recovery_started/finished)
                burn, value, enough = self._measure(spec, aggregator, now)
                self._burn[spec.name] = burn
                alert = self.active.get(spec.name)
                if burn >= 1.0 and enough:
                    if alert is None:
                        alert = Alert(
                            slo=spec.name, kind=spec.kind,
                            severity=spec.severity, value=value,
                            objective=spec.objective, burn_rate=burn,
                            message=self._describe(spec, value, burn), at=now,
                        )
                        self.active[spec.name] = alert
                        self.history.append(alert)
                        self.fired += 1
                        fired.append(alert)
                    else:
                        alert.value = value
                        alert.burn_rate = burn
                elif alert is not None and burn < 1.0:
                    alert.resolved_at = now
                    del self.active[spec.name]
        for alert in fired:
            self._advise(alert)
        return fired

    def _measure(self, spec: SLOSpec, aggregator, now: float):
        """(burn_rate, observed_value, enough_samples) for one spec."""
        if spec.kind == "step_latency":
            stats = aggregator.window_stats("solve")
            window = stats["window"]
            if window == 0:
                return 0.0, 0.0, False
            values = aggregator.window_values("solve")
            violating = sum(1 for v in values if v > spec.objective)
            frac = violating / len(values)
            burn = frac / max(spec.budget, 1e-9)
            return burn, stats["p99_s"], window >= spec.min_count
        if spec.kind == "frame_staleness":
            staleness = aggregator.frame_staleness(now)
            if not staleness:
                return 0.0, 0.0, False
            worst = max(staleness.values())
            return worst / max(spec.objective, 1e-9), worst, True
        count_key = _COUNT_KEYS[spec.kind]
        count = aggregator.count_in_window(count_key, now, spec.window_s)
        if spec.objective <= 0:
            return float(count), count, True   # zero budget: any hit fires
        return count / spec.objective, count, True

    @staticmethod
    def _describe(spec: SLOSpec, value: float, burn: float) -> str:
        if spec.kind in ("step_latency", "frame_staleness"):
            return (f"{spec.name}: {value:.3f}s vs {spec.objective:.3f}s "
                    f"objective (burn {burn:.1f}x)")
        return (f"{spec.name}: {value:.0f} in {spec.window_s:.0f}s window "
                f"(budget {spec.objective:.0f})")

    # -- event-driven recovery SLO -------------------------------------
    def recovery_started(self, eid: int, at: float | None = None) -> Alert:
        """An unplanned endpoint loss was detected; fire immediately."""
        spec = self._spec("recovery_time")
        at = self._clock() if at is None else at
        alert = Alert(
            slo=spec.name, kind=spec.kind, severity=spec.severity,
            value=0.0, objective=spec.objective, burn_rate=1.0,
            message=f"recovery_time: endpoint {eid} lost, replay in flight",
            at=at, extra={"eid": eid, "phase": "in_progress"},
        )
        with self._lock:
            self._recovering[eid] = alert
            self.active[f"{spec.name}:{eid}"] = alert
            self.history.append(alert)
            self.fired += 1
        self._advise(alert)
        return alert

    def recovery_finished(self, eid: int, seconds: float,
                          at: float | None = None) -> Alert | None:
        """Replay drained; resolve, or escalate a blown objective."""
        spec = self._spec("recovery_time")
        at = self._clock() if at is None else at
        with self._lock:
            alert = self._recovering.pop(eid, None)
            if alert is not None:
                alert.value = seconds
                alert.burn_rate = seconds / max(spec.objective, 1e-9)
                alert.extra["phase"] = "complete"
                alert.resolved_at = at
                self.active.pop(f"{spec.name}:{eid}", None)
            if seconds <= spec.objective:
                return None
            breach = Alert(
                slo=spec.name, kind=spec.kind, severity=spec.severity,
                value=seconds, objective=spec.objective,
                burn_rate=seconds / max(spec.objective, 1e-9),
                message=(f"recovery_time: endpoint {eid} took {seconds:.3f}s "
                         f"vs {spec.objective:.3f}s objective"),
                at=at, resolved_at=at,
                extra={"eid": eid, "phase": "breach"},
            )
            self.history.append(breach)
            self.fired += 1
        self._advise(breach)
        return breach

    def _spec(self, name: str) -> SLOSpec:
        for spec in self.specs:
            if spec.name == name:
                return spec
        raise KeyError(f"no SLO named {name!r}")

    # -- consumers -----------------------------------------------------
    def _advise(self, alert: Alert) -> None:
        if self.bus is None:
            return
        # deferred: repro.serve.steering imports repro.observe.session,
        # so a module-level import here would be circular
        from repro.serve.steering import SteerCommand

        self.bus.submit(SteerCommand(
            kind="advisory", value=alert.message, client="slo-watchdog"
        ))

    def burn_rates(self) -> dict[str, float]:
        with self._lock:
            return dict(self._burn)

    def to_json(self) -> dict:
        with self._lock:
            return {
                "specs": [s.as_dict() for s in self.specs],
                "burn_rates": dict(self._burn),
                "active": [a.as_dict() for a in self.active.values()],
                "history": [a.as_dict() for a in self.history],
                "fired": self.fired,
                "evaluations": self.evaluations,
            }
