"""Tests for the bridge (Listing 3) and the streamed endpoint adaptor."""

import numpy as np
import pytest

from repro.adios import SSTBroker, SSTWriterEngine
from repro.fleet import Directive, FleetCoordinator
from repro.insitu import Bridge, NekDataAdaptor, StreamedDataAdaptor
from repro.insitu import bridge as bridge_mod
from repro.nekrs import NekRSSolver
from repro.nekrs.cases import lid_cavity_case
from repro.parallel import SerialCommunicator
from repro.sensei.analyses.adios_adaptor import ADIOSAnalysisAdaptor
from repro.sensei.analysis_adaptor import AnalysisAdaptor


class _Recorder(AnalysisAdaptor):
    def __init__(self):
        self.steps = []
        self.finalized = False

    def execute(self, data):
        self.steps.append((data.get_data_time_step(), data.get_data_time()))
        return True

    def finalize(self):
        self.finalized = True


class TestBridge:
    def test_observer_drives_analysis(self, tiny_solver):
        rec = _Recorder()
        bridge = Bridge(tiny_solver, analysis=rec)
        tiny_solver.run(3, observer=bridge.observer)
        bridge.finalize()
        assert [s for s, _ in rec.steps] == [1, 2, 3]
        assert rec.finalized
        assert bridge.invocations == 3
        assert bridge.insitu_seconds > 0

    def test_requires_exactly_one_config(self, tiny_solver):
        with pytest.raises(ValueError):
            Bridge(tiny_solver)
        with pytest.raises(ValueError):
            Bridge(tiny_solver, analysis=_Recorder(), config_xml="<sensei/>")

    def test_xml_config_path(self, tiny_solver, tmp_path):
        xml = (
            '<sensei><analysis type="histogram" array="pressure" '
            'bins="4" frequency="2"/></sensei>'
        )
        bridge = Bridge(tiny_solver, config_xml=xml, output_dir=tmp_path)
        tiny_solver.run(4, observer=bridge.observer)
        hist = bridge.analysis.adaptors[0][1]
        assert len(hist.results) == 2  # steps 2 and 4

    def test_release_called_each_update(self, tiny_solver):
        bridge = Bridge(tiny_solver, analysis=_Recorder())
        bridge.update(1, 0.1)
        assert bridge.adaptor.staging_bytes_current == 0

    def test_stop_request_recorded(self, tiny_solver):
        class Stopper(AnalysisAdaptor):
            def execute(self, data):
                return False

        bridge = Bridge(tiny_solver, analysis=Stopper())
        assert bridge.update(1, 0.0) is False
        assert bridge.stop_requested


class TestFunctionalFacade:
    def test_initialize_update_finalize(self, tiny_solver):
        bridge = bridge_mod.initialize(tiny_solver, "<sensei></sensei>")
        assert bridge_mod.update(1, 0.1) is True
        bridge_mod.finalize()

    def test_double_initialize_raises(self, tiny_solver):
        bridge_mod.initialize(tiny_solver, "<sensei></sensei>")
        try:
            with pytest.raises(RuntimeError):
                bridge_mod.initialize(tiny_solver, "<sensei></sensei>")
        finally:
            bridge_mod.finalize()

    def test_update_without_initialize_raises(self):
        with pytest.raises(RuntimeError):
            bridge_mod.update(1, 0.0)


def _stream_solver_steps(mesh_name, arrays, steps=2):
    """Drive solver -> ADIOS adaptor -> SST -> the fleet coordinator;
    return payload dicts per streamed step."""
    comm = SerialCommunicator()
    case = lid_cavity_case(reynolds=100, elements=2, order=3, dt=5e-3)
    solver = NekRSSolver(case, comm)
    broker = SSTBroker(num_writers=1, queue_limit=8)
    writer = SSTWriterEngine("s", broker, 0)
    adios = ADIOSAnalysisAdaptor(comm, writer, mesh_name=mesh_name, arrays=arrays)
    bridge = Bridge(solver, analysis=adios)
    solver.run(steps, observer=bridge.observer)
    bridge.finalize()

    coord = FleetCoordinator(broker, num_writers=1, pool_size=1)
    coord.join(0)
    received = []
    while (task := coord.poll(0)) is not Directive.STOP:
        received.append(task.payloads)
        coord.commit(0, task)
    return received


class TestStreamedDataAdaptor:
    def test_unstructured_roundtrip(self):
        received = _stream_solver_steps("mesh", ("pressure", "velocity_x"))
        assert len(received) == 2
        endpoint = StreamedDataAdaptor(SerialCommunicator())
        endpoint.consume(received[0])
        assert endpoint.get_number_of_meshes() == 1
        md = endpoint.get_mesh_metadata(0)
        assert md.name == "mesh"
        assert set(md.array_names) == {"pressure", "velocity_x"}
        mesh = endpoint.get_mesh("mesh")
        endpoint.add_array(mesh, "mesh", "point", "pressure")
        block = mesh.get_block(0)
        assert block.num_points == 8 * 4**3
        assert "pressure" in block.point_data

    def test_geometry_cached_across_steps(self):
        received = _stream_solver_steps("mesh", ("pressure",))
        first_bytes = sum(p.nbytes for p in received[0].values())
        second_bytes = sum(p.nbytes for p in received[1].values())
        # step 2 carries no geometry, so it is much smaller
        assert second_bytes < 0.5 * first_bytes
        endpoint = StreamedDataAdaptor(SerialCommunicator())
        endpoint.consume(received[0])
        endpoint.release_data()
        endpoint.consume(received[1])
        mesh = endpoint.get_mesh("mesh")     # geometry from the cache
        assert mesh.get_block(0) is not None
        endpoint.add_array(mesh, "mesh", "point", "pressure")

    def test_uniform_roundtrip(self):
        received = _stream_solver_steps("uniform", ("pressure",), steps=1)
        endpoint = StreamedDataAdaptor(SerialCommunicator())
        endpoint.consume(received[0])
        md = endpoint.get_mesh_metadata(0)
        assert md.extra["global_dims"] == [8, 8, 8]
        mesh = endpoint.get_mesh("uniform")
        endpoint.add_array(mesh, "uniform", "point", "pressure")
        from repro.vtkdata.dataset import ImageData

        blocks = mesh.local_blocks()
        assert len(blocks) == 8
        assert all(isinstance(b, ImageData) for b in blocks)

    def test_step_metadata_propagates(self):
        received = _stream_solver_steps("mesh", ("pressure",), steps=1)
        endpoint = StreamedDataAdaptor(SerialCommunicator())
        endpoint.consume(received[0])
        assert endpoint.get_data_time_step() == 1
        assert endpoint.get_data_time() > 0

    def test_missing_array_raises(self):
        received = _stream_solver_steps("mesh", ("pressure",), steps=1)
        endpoint = StreamedDataAdaptor(SerialCommunicator())
        endpoint.consume(received[0])
        mesh = endpoint.get_mesh("mesh")
        with pytest.raises(KeyError):
            endpoint.add_array(mesh, "mesh", "point", "enstrophy")

    def test_wrong_mesh_name_raises(self):
        received = _stream_solver_steps("mesh", ("pressure",), steps=1)
        endpoint = StreamedDataAdaptor(SerialCommunicator())
        endpoint.consume(received[0])
        with pytest.raises(KeyError):
            endpoint.get_mesh("uniform")

    def test_consume_empty_is_noop(self):
        # an empty stream step (all payloads dropped/corrupt) must not
        # crash the endpoint loop: skipped and counted instead
        adaptor = StreamedDataAdaptor(SerialCommunicator())
        assert adaptor.consume({}) is False
        assert adaptor.empty_steps == 1
        assert adaptor.get_number_of_meshes() == 0
