#!/usr/bin/env python
"""Quickstart: instrument a small flow with SENSEI-style in situ analysis.

This is the 60-second tour of the stack:

1. build a lid-driven-cavity case (the classic incompressible benchmark),
2. run the NekRS-analog solver on 2 in-process ranks with its fields on
   a simulated CUDA device,
3. attach the SENSEI bridge, configured *purely through XML* (paper
   Listing 1): a histogram every 2 steps and Catalyst image rendering
   every 5 steps,
4. report what the in situ machinery observed, moved, and wrote.

Run:  python examples/quickstart.py
"""

from pathlib import Path

from repro.insitu import Bridge
from repro.nekrs import NekRSSolver
from repro.nekrs.cases import lid_cavity_case
from repro.observe import TelemetrySession
from repro.occa import Device
from repro.parallel import run_spmd
from repro.util.sizes import format_bytes

OUTPUT = Path("quickstart_output")

SENSEI_XML = f"""
<sensei>
  <analysis type="histogram" mesh="mesh" array="pressure"
            bins="24" frequency="2" />
  <analysis type="catalyst" mesh="uniform" array="velocity_magnitude"
            isovalue="0.2" slice_axis="y" colormap="viridis"
            width="320" height="320" frequency="5" />
</sensei>
"""


def rank_body(comm, session):
    case = lid_cavity_case(reynolds=400, elements=3, order=5, dt=5e-3,
                           num_steps=20)
    with session.activate(comm.rank):      # spans time every phase
        device = Device("cuda-sim")        # forces explicit GPU->CPU copies
        solver = NekRSSolver(case, comm, device)
        bridge = Bridge(solver, config_xml=SENSEI_XML, output_dir=OUTPUT)

        reports = solver.run(observer=bridge.observer)
        bridge.finalize()

    return {
        "final_cfl": reports[-1].cfl,
        "kinetic_energy": solver.kinetic_energy(),
        "insitu_seconds": session.span_total("bridge.execute", comm.rank)[1],
        "d2h_bytes": device.transfers.d2h_bytes,
        "staging_peak": bridge.adaptor.staging_bytes_peak,
    }


def main():
    session = TelemetrySession("quickstart")
    results = run_spmd(2, rank_body, args=(session,))

    print("=== quickstart: lid-driven cavity with in situ analysis ===")
    for rank, r in enumerate(results):
        print(
            f"rank {rank}: KE={r['kinetic_energy']:.5f} "
            f"CFL={r['final_cfl']:.3f} "
            f"in-situ={r['insitu_seconds'] * 1e3:.1f} ms "
            f"GPU->CPU={format_bytes(r['d2h_bytes'])} "
            f"staging peak={format_bytes(r['staging_peak'])}"
        )
    images = sorted(OUTPUT.glob("*.png"))
    print(f"\nrendered images ({len(images)}):")
    for img in images:
        print(f"  {img}  ({format_bytes(img.stat().st_size)})")
    hist = OUTPUT / "histogram_pressure.txt"
    print(f"\nhistogram report: {hist} ({hist.stat().st_size} bytes)")
    print("\nEdit SENSEI_XML above — e.g. swap 'catalyst' for 'PosthocIO' —")
    print("and the analysis changes without touching a line of solver code.")


if __name__ == "__main__":
    main()
