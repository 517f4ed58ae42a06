"""Scaled-down measurement workloads shared by the figure drivers.

The pb146 and RBC analogs are measured once per parameter set (module
cache) and reused by every figure that replays them — Figures 2, 3 and
the storage table all share one set of pb146 profiles, exactly as the
paper derives them from one set of runs.
"""

from __future__ import annotations

from repro.bench.measure import measure_insitu_profile, measure_intransit_profiles
from repro.nekrs.cases import pebble_bed_case, weak_scaled_rbc_case

#: pb146 production-scale problem size (gridpoints).  Calibrated to the
#: paper's 19 GB checkpoint volume: 30 dumps x 4 fields x 8 B x G = 19 GB
#: => G ~ 19.8e6, consistent with the public pb146 mesh at N=7.
PB146_GRIDPOINTS = 19.8e6

#: The paper's run shape: 3000 steps, in situ / checkpoint every 100.
PB146_STEPS = 3000
PB146_INTERVAL = 100

_profile_cache: dict = {}


def measurement_pebble_case(
    num_pebbles: int = 5,
    elements_per_unit: int = 3,
    order: int = 3,
    num_steps: int = 4,
):
    """A laptop-scale pb146 analog for instrumented measurement."""
    return pebble_bed_case(
        num_pebbles=num_pebbles,
        elements_per_unit=elements_per_unit,
        order=order,
        dt=1e-3,
        num_steps=num_steps,
        viscosity=5e-2,
    )


def pb146_profiles(
    ranks: int = 4,
    steps: int = 4,
    interval: int = 2,
    num_pebbles: int = 5,
    order: int = 3,
    image_size: int = 256,
) -> dict:
    """Measured profiles for the Section 4.1 modes plus the
    device-resident Catalyst variant (cached)."""
    key = ("pb146", ranks, steps, interval, num_pebbles, order, image_size)
    if key not in _profile_cache:
        case = measurement_pebble_case(num_pebbles, order=order, num_steps=steps)
        _profile_cache[key] = {
            mode: measure_insitu_profile(
                case,
                mode,
                ranks=ranks,
                steps=steps,
                interval=interval,
                isovalue=0.5,
                array="velocity_magnitude",
                color_array="temperature",
                image_size=image_size,
            )
            for mode in (
                "original", "checkpoint", "catalyst", "catalyst_device"
            )
        }
    return _profile_cache[key]


def rbc_profiles(
    total_ranks: int = 5,
    steps: int = 4,
    stream_interval: int = 2,
    ratio: int = 4,
    order: int = 3,
    elements_per_rank: int = 4,
) -> dict:
    """Measured profiles for the three Section 4.2 modes (cached)."""
    key = ("rbc", total_ranks, steps, stream_interval, ratio, order, elements_per_rank)
    if key not in _profile_cache:

        def case_builder(nsim):
            c = weak_scaled_rbc_case(
                nsim, elements_per_rank=elements_per_rank, order=order, dt=1e-3
            )
            return c.with_overrides(num_steps=steps)

        _profile_cache[key] = {
            mode: measure_intransit_profiles(
                case_builder,
                mode,
                total_ranks=total_ranks,
                steps=steps,
                stream_interval=stream_interval,
                ratio=ratio,
                image_size=128,
            )
            for mode in ("none", "checkpoint", "catalyst")
        }
    return _profile_cache[key]
