"""Fleet bench: time-to-recover and elastic weak scaling.

Two measurements for the endpoint fleet (:mod:`repro.fleet`):

**Recovery** — a synthetic in-transit pipeline (marshaled payloads,
no solver) loses 1 of 2 endpoints mid-stream.  The survivor detects
the lapsed lease, the dead member's streams rebalance over the hash
ring, and its queued steps replay on the survivor — every step
commits.  (What the same loss cost before endpoints could take over
each other's streams is recorded in ``docs/fault_tolerance.md``.)

**Weak scaling** — Fig 5/6 analogs with the autoscaler on: the
simulation side doubles while the autoscaler picks the endpoint count
inside the 2:1..16:1 ratio clamp; per-step time should stay flat.

``python -m repro bench fleet`` prints both tables.
"""

from __future__ import annotations

import tempfile
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.util.tables import Table

#: synthetic stream geometry for the recovery scenario
_WRITERS = 4
_POOL = 2
_STEPS = 8
_ELEMS = 2048
_CRASH_AT = 0          # endpoint 1 dies on its first poll — deterministic
                       # (later crash points race against how fast the
                       # survivor drains the synthetic stream), and its ring
                       # arcs still hold staged steps that must be recovered
_LEASE_S = 0.1


def _producers(broker, steps: int, elems: int):
    """Start one writer thread per stream; return (threads, counters)."""
    from repro.adios.engine import SSTWriterEngine
    from repro.faults.errors import EndpointDownError
    from repro.faults.retry import RetryPolicy

    # the retry window must outlive lease detection (~_LEASE_S) so the
    # reroute lands before any writer burns its budget
    retry = RetryPolicy(
        max_attempts=12, base_delay=0.01, attempt_timeout=0.05,
        max_elapsed_s=1.0,
    )
    sent = [0] * broker.num_writers
    degraded = [0] * broker.num_writers

    def body(writer: int) -> None:
        engine = SSTWriterEngine("fleet-bench", broker, writer, retry=retry)
        data = np.full(elems, float(writer))
        for step in range(steps):
            try:
                engine.begin_step()
            except EndpointDownError:
                degraded[writer] += 1
                continue
            engine.set_step_info(step, step * 1e-2)
            engine.put("data", data)
            try:
                engine.end_step()
                sent[writer] += 1
            except EndpointDownError:
                # retry budget spent: the consumer side is gone.  Mirror
                # Bridge._degrade — mark the transport down and drop.
                broker.mark_endpoint_down()
                degraded[writer] += 1
        try:
            engine.close()
        except Exception:
            pass

    threads = [
        threading.Thread(target=body, args=(w,), name=f"fleet-writer-{w}",
                         daemon=True)
        for w in range(broker.num_writers)
    ]
    return threads, sent, degraded


class _CountSink:
    """Cheapest possible fleet sink: touch the payloads, count the step."""

    def __init__(self):
        self.steps = 0
        self.recv_bytes = 0
        self.staging_peak = 0

    def process(self, task, coordinator) -> bool:
        nbytes = task.nbytes
        self.recv_bytes += nbytes
        self.staging_peak = max(self.staging_peak, nbytes)
        self.steps += 1
        return True

    def finalize(self) -> None:
        pass


def _run_fleet_recovery(
    steps: int = _STEPS, elems: int = _ELEMS, lease_timeout: float = _LEASE_S
) -> dict:
    """Endpoint 1 crashes; endpoint 0 takes over everything."""
    from repro.adios.engine import SSTBroker
    from repro.faults.injector import FaultInjector
    from repro.fleet import FleetCoordinator, FleetEndpoint

    injector = FaultInjector(schedule={"endpoint_crash": ((_CRASH_AT, 1),)})
    broker = SSTBroker(num_writers=_WRITERS, queue_limit=2, injector=injector)
    # seed 1 splits the 4 writer keys 2/2 across the 2-member ring
    # (seed 0 happens to hash all four onto endpoint 0, which would
    # leave the crashed member with nothing to recover)
    coordinator = FleetCoordinator(
        broker, num_writers=_WRITERS, pool_size=_POOL,
        lease_timeout=lease_timeout, seed=1,
    )
    producers, sent, degraded = _producers(broker, steps, elems)
    sinks = [_CountSink() for _ in range(_POOL)]
    endpoints = [
        FleetEndpoint(eid, coordinator, sinks[eid], injector=injector,
                      poll_interval=0.001)
        for eid in range(_POOL)
    ]
    reports = [None] * _POOL

    def endpoint_body(eid: int) -> None:
        reports[eid] = endpoints[eid].run()

    consumers = [
        threading.Thread(target=endpoint_body, args=(eid,),
                         name=f"fleet-endpoint-{eid}", daemon=True)
        for eid in range(_POOL)
    ]
    for t in consumers:
        t.start()
    # the scenario is "a member dies": both must have joined before data
    # flows, or the survivor can drain the whole synthetic stream (~4 ms)
    # before the victim's thread has even registered
    while len(coordinator.membership.snapshot()["states"]) < _POOL:
        time.sleep(0.001)
    t0 = time.perf_counter()
    for t in producers:
        t.start()
    for t in producers + consumers:
        t.join()
    seconds = time.perf_counter() - t0
    recoveries = coordinator.stats()["recoveries"]
    return {
        "seconds": seconds,
        "sent": sum(sent),
        "degraded": sum(degraded),
        "committed": len(coordinator.committed),
        "expected": steps,
        "recovery_seconds": max(
            (r["recovery_seconds"] or 0.0 for r in recoveries), default=0.0
        ),
        "streams_moved": sum(r["streams_moved"] for r in recoveries),
        "tasks_replayed": sum(
            r["tasks_requeued"] + r["steps_backlogged"] for r in recoveries
        ),
        "crashes_detected": coordinator.crashes_detected,
    }


def recovery_slo() -> Table:
    """Outcome of losing 1 of 2 endpoints mid-stream."""
    fleet = _run_fleet_recovery()
    table = Table(
        ["path", "makespan [s]", "steps committed", "steps degraded",
         "recovery [s]", "streams moved", "steps replayed"],
        title=(
            f"Endpoint-loss recovery — {_WRITERS} writers : {_POOL} endpoints, "
            f"{_STEPS} steps, endpoint 1 dies at its first poll "
            f"(lease {_LEASE_S:g}s)"
        ),
    )
    table.add_row([
        "fleet (reroute + replay)",
        f"{fleet['seconds']:.3f}",
        f"{fleet['committed']}/{fleet['expected']}",
        fleet["degraded"],
        f"{fleet['recovery_seconds']:.3f}",
        fleet["streams_moved"],
        fleet["tasks_replayed"],
    ])
    return table


def weak_scaling(
    totals: tuple[int, ...] = (3, 6),
    steps: int = 4,
    elements_per_rank: int = 2,
) -> Table:
    """Fig 5/6 analog with the autoscaler enabled."""
    from repro.fleet import FleetConfig
    from repro.insitu import InTransitRunner
    from repro.nekrs.cases import weak_scaled_rbc_case
    from repro.parallel import run_spmd

    table = Table(
        ["ranks (sim+end)", "autoscale ratio", "sim CPU/step [s/rank]",
         "endpoint steps", "stolen", "rebalances"],
        title=(
            "Weak scaling, elastic fleet — RBC "
            f"{elements_per_rank} elements/rank, {steps} steps, "
            "autoscaler on (clamp 2:1..16:1)"
        ),
    )
    base = None
    for total in totals:
        def case_builder(nsim):
            case = weak_scaled_rbc_case(
                nsim, elements_per_rank=elements_per_rank, order=3, dt=1e-3
            )
            return case.with_overrides(num_steps=steps)

        runner = InTransitRunner(
            case_builder,
            mode="checkpoint",
            ratio=2,
            num_steps=steps,
            stream_interval=1,
            arrays=("temperature", "velocity_magnitude"),
            output_dir=tempfile.mkdtemp(prefix="repro-fleet-ws-"),
            fleet=FleetConfig(
                lease_timeout=0.5, initial_active=1, autoscale=True,
                autoscale_every=2,
            ),
        )

        # Rank threads share the host's cores, so wall time per step
        # grows linearly with the rank count no matter how good the
        # scaling is.  Charge each rank its own CPU time instead
        # (``thread_time`` excludes time spent descheduled): under
        # weak scaling the per-rank work is constant, so this column
        # should stay flat.  Fig 5 proper uses the machine model
        # (:mod:`repro.bench.fig5`) for the same reason.
        def body(comm):
            t0 = time.thread_time()
            result = runner.run(comm)
            result.extra["cpu_seconds"] = time.thread_time() - t0
            return result

        results = run_spmd(total, body)
        sims = [r for r in results if r.role == "simulation"]
        ends = [r for r in results if r.role == "endpoint"]
        stats = runner.last_coordinator.stats()
        mean_step = sum(
            r.extra["cpu_seconds"] / steps for r in sims
        ) / len(sims)
        if base is None:
            base = mean_step
        auto = runner.last_coordinator.autoscaler
        ratios = sorted(
            {auto.ratio(n) for pair in auto.decisions for n in pair}
            | {auto.ratio(stats["active"] or 1)}
        )
        ratio_txt = (
            f"{ratios[0]:g}:1..{ratios[-1]:g}:1" if len(ratios) > 1
            else f"{ratios[0]:g}:1"
        )
        table.add_row([
            f"{len(sims)}+{len(ends)}",
            ratio_txt,
            f"{mean_step:.4f} ({mean_step / base:.2f}x)",
            stats["committed"],
            stats["stolen"],
            stats["rebalances"],
        ])
    return table


@dataclass
class _Sections:
    tables: list

    def render(self) -> str:
        return "\n\n".join(t.render() for t in self.tables)


def run(**_kwargs) -> _Sections:
    """CLI entry: ``python -m repro bench fleet``."""
    return _Sections([recovery_slo(), weak_scaling()])


if __name__ == "__main__":
    print(run().render())
