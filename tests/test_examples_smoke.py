"""Smoke tests: the example scripts' core bodies run end to end.

Full example runs take minutes; these tests execute the same rank
bodies with the smallest viable parameters, asserting each example's
headline behavior rather than its full output.
"""

from repro.insitu import Bridge, InTransitRunner
from repro.nekrs import NekRSSolver
from repro.nekrs.cases import (
    lid_cavity_case,
    pebble_bed_case,
    rayleigh_benard_case,
    weak_scaled_rbc_case,
)
from repro.occa import Device
from repro.parallel import run_spmd


class TestQuickstartFlow:
    def test_xml_instrumented_cavity(self, tmp_path):
        xml = f"""
        <sensei>
          <analysis type="histogram" mesh="mesh" array="pressure"
                    bins="8" frequency="2"/>
          <analysis type="catalyst" mesh="uniform"
                    array="velocity_magnitude" isovalue="0.2"
                    slice_axis="y" width="64" height="64" frequency="2"/>
        </sensei>
        """

        def body(comm):
            case = lid_cavity_case(reynolds=100, elements=2, order=3,
                                   dt=5e-3, num_steps=2)
            solver = NekRSSolver(case, comm, Device("cuda-sim"))
            bridge = Bridge(solver, config_xml=xml, output_dir=tmp_path)
            solver.run(observer=bridge.observer)
            bridge.finalize()
            return solver.device.transfers.d2h_bytes

        d2h = run_spmd(2, body)
        assert all(b > 0 for b in d2h)
        assert list(tmp_path.glob("*.png"))
        assert (tmp_path / "histogram_pressure.txt").exists()


class TestPebbleBedFlow:
    def test_catalyst_images_smaller_than_checkpoints(self, tmp_path):
        from repro.nekrs.checkpoint import write_checkpoint

        case = pebble_bed_case(num_pebbles=2, elements_per_unit=2, order=3,
                               dt=1e-3, num_steps=2, viscosity=5e-2)
        xml = (
            '<sensei><analysis type="catalyst" mesh="uniform" '
            'array="temperature" isovalue="0.45" width="96" height="96" '
            'frequency="2"/></sensei>'
        )

        def body(comm):
            solver = NekRSSolver(case, comm, Device("cuda-sim"))
            bridge = Bridge(solver, config_xml=xml, output_dir=tmp_path)
            ckpt = 0
            for _ in range(2):
                r = solver.step()
                if r.step % 2 == 0:
                    _, n = write_checkpoint(
                        tmp_path / "fld", case.name, r.step, r.time,
                        comm.rank, comm.size,
                        {"pressure": solver.p, "temperature": solver.T,
                         "velocity_x": solver.u, "velocity_y": solver.v,
                         "velocity_z": solver.w},
                    )
                    ckpt += n
                    bridge.update(r.step, r.time)
            bridge.finalize()
            images = bridge.analysis.adaptors[0][1].image_bytes
            return ckpt, images

        results = run_spmd(2, body)
        total_ckpt = sum(r[0] for r in results)
        total_img = sum(r[1] for r in results)
        assert 0 < total_img < total_ckpt


class TestRBCFlow:
    def test_convection_grows(self):
        case = rayleigh_benard_case(
            rayleigh=2e5, aspect=(2, 1), elements_per_unit=2, order=3,
            dt=4e-3, num_steps=8,
        )

        def body(comm):
            solver = NekRSSolver(case, comm)
            flux = []
            for _ in range(8):
                solver.step()
                flux.append(solver.ops.integrate(solver.w * solver.T))
            return flux

        flux = run_spmd(1, body)[0]
        assert flux[-1] > flux[0] > 0  # buoyant flux switching on


class TestInTransitFlow:
    def test_three_modes_one_pass(self, tmp_path):
        def case_builder(nsim):
            c = weak_scaled_rbc_case(nsim, elements_per_rank=4, order=2,
                                     dt=1e-3)
            return c.with_overrides(num_steps=2)

        results = {}
        for mode in ("none", "catalyst"):
            runner = InTransitRunner(
                case_builder, mode=mode, ratio=2, num_steps=2,
                stream_interval=1, arrays=("temperature",),
                output_dir=tmp_path / mode, image_size=48,
            )
            out = run_spmd(3, runner.run)
            results[mode] = out
        none_mem = max(
            r.memory_bytes for r in results["none"] if r.role == "simulation"
        )
        cat_mem = max(
            r.memory_bytes for r in results["catalyst"] if r.role == "simulation"
        )
        # streaming adds bounded staging, not a copy of the endpoint's work
        assert cat_mem < 3 * none_mem


class TestSteeringFlow:
    def test_steady_state_stops_early(self, tmp_path):
        xml = (
            '<sensei><analysis type="steady_state" '
            'array="velocity_magnitude" tolerance="0.5" patience="2" '
            'frequency="1"/></sensei>'
        )

        def body(comm):
            case = lid_cavity_case(reynolds=100, elements=2, order=3,
                                   dt=1e-2, num_steps=50)
            solver = NekRSSolver(case, comm)
            bridge = Bridge(solver, config_xml=xml, output_dir=tmp_path)
            taken = 0
            for _ in range(case.num_steps):
                r = solver.step()
                taken = r.step
                if not bridge.update(r.step, r.time):
                    break
            return taken

        taken = run_spmd(1, body)[0]
        assert taken < 50  # the loose tolerance trips well before budget
