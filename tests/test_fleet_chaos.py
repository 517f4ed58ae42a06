"""Chaos soak: a seeded randomized fault schedule over a full
pebble-bed in-transit run on the elastic fleet.

One run, every fault class at once: a scheduled endpoint crash plus
seeded probabilistic slow-consumer delays, in-flight payload
corruption, and writer stalls.  The invariants:

- the run terminates (the per-test watchdog is the deadlock oracle);
- the fault ledger balances exactly:
  ``injected == detected + recovered + degraded`` per kind;
- every simulation rank completes every timestep;
- every streamed step commits exactly once despite the endpoint loss
  (corrupted payloads are detected, skipped, and the step still
  assembles under the high-water rule).
"""

from __future__ import annotations

import pytest

from repro.faults import FaultInjector, RetryPolicy
from repro.insitu import InTransitRunner
from repro.nekrs.cases import pebble_bed_case
from repro.parallel import run_spmd

pytestmark = [pytest.mark.fleet, pytest.mark.faults]

_STEPS = 4
_TOTAL = 9          # 6 sim + 3 endpoints at ratio 2


def _chaos_injector(seed: int) -> FaultInjector:
    return FaultInjector(
        seed=seed,
        # seeded randomized pressure on every delivered payload / put
        probabilities={
            "slow_consumer": 0.2,
            "corrupt_payload": 0.1,
            "writer_stall": 0.1,
        },
        # the crash is pinned so the run always loses endpoint 1 (and
        # only endpoint 1) at its first poll
        schedule={"endpoint_crash": ((0, 1),)},
        delays={"slow_consumer": 0.005, "writer_stall": 0.005},
    )


@pytest.mark.timeout(240)
def test_chaos_soak_pebble_bed_fleet(tmp_path):
    injector = _chaos_injector(seed=1234)

    def case_builder(_nsim):
        return pebble_bed_case(
            num_pebbles=2, elements_per_unit=2, order=3, num_steps=_STEPS,
        )

    runner = InTransitRunner(
        case_builder,
        mode="checkpoint",
        ratio=2,
        num_steps=_STEPS,
        stream_interval=1,
        arrays=("pressure", "velocity_magnitude"),
        output_dir=tmp_path,
        injector=injector,
        retry=RetryPolicy(max_attempts=20, base_delay=0.01,
                          attempt_timeout=0.1),
    )
    results = run_spmd(_TOTAL, runner.run)

    sims = [r for r in results if r.role == "simulation"]
    ends = [r for r in results if r.role == "endpoint"]
    assert len(sims) == 6 and len(ends) == 3

    # every simulation rank completed every timestep
    assert all(r.steps == _STEPS for r in sims)
    # exactly the scheduled endpoint died
    assert [r.rank for r in ends if r.extra.get("crashed")] == [1]

    log = injector.log
    snap = log.snapshot()
    # the schedule really exercised every chaos class
    assert snap["injected"].get("endpoint_crash") == 1
    assert snap["injected"].get("slow_consumer", 0) >= 1
    assert snap["injected"].get("corrupt_payload", 0) >= 1
    assert snap["injected"].get("writer_stall", 0) >= 1

    # the accounting identity, per kind and in aggregate:
    #   injected == detected + recovered + degraded
    assert log.accounted, snap
    for kind, injected in snap["injected"].items():
        resolved = (
            snap["detected"].get(kind, 0)
            + snap["recovered"].get(kind, 0)
            + snap["degraded"].get(kind, 0)
        )
        assert injected == resolved, (kind, snap)

    # zero lost committed steps: despite the crash, every streamed
    # step (solver steps are 1-based) committed on some endpoint
    coord = runner.last_coordinator
    assert coord.committed == set(range(1, _STEPS + 1))
    stats = coord.stats()
    assert stats["crashes_detected"] == 1
    assert stats["recoveries"][0]["eid"] == 1


@pytest.mark.timeout(240)
def test_chaos_schedule_is_deterministic(tmp_path):
    """Two runs with the same seed inject the identical fault mix."""
    snaps = []
    for run in range(2):
        injector = _chaos_injector(seed=77)

        def case_builder(_nsim):
            return pebble_bed_case(
                num_pebbles=2, elements_per_unit=2, order=3,
                num_steps=_STEPS,
            )

        runner = InTransitRunner(
            case_builder,
            mode="checkpoint",
            ratio=2,
            num_steps=_STEPS,
            stream_interval=1,
            arrays=("pressure", "velocity_magnitude"),
            output_dir=tmp_path / str(run),
            injector=injector,
            retry=RetryPolicy(max_attempts=20, base_delay=0.01,
                              attempt_timeout=0.1),
        )
        run_spmd(_TOTAL, runner.run)
        assert injector.log.accounted
        snaps.append(injector.log.snapshot()["injected"])
    assert snaps[0] == snaps[1]
