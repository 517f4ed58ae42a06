"""Tests for file-staged in transit: XML-configured BPFile streaming,
read back through the BP reader into a SENSEI consumer."""

import numpy as np

from repro.adios.engine import BPFileReaderEngine, StepStatus
from repro.insitu import Bridge
from repro.insitu.streamed import StreamedDataAdaptor
from repro.nekrs import NekRSSolver
from repro.nekrs.cases import lid_cavity_case
from repro.parallel import SerialCommunicator, run_spmd
from repro.sensei.analyses import VTKPosthocIO
from repro.sensei.analysis_adaptor import AnalysisAdaptor


def _replay(directory, stream_name, num_writers, analysis, comm):
    """Drive `analysis` over every staged step, all writers at once, in
    step order; return the number of steps consumed."""
    readers = [BPFileReaderEngine(stream_name, directory, writer_rank=w)
               for w in range(num_writers)]
    adaptor = StreamedDataAdaptor(comm)
    steps = 0
    while all(r.begin_step() is StepStatus.OK for r in readers):
        adaptor.consume({w: r.get() for w, r in enumerate(readers)})
        analysis.execute(adaptor)
        adaptor.release_data()
        steps += 1
        for reader in readers:
            reader.end_step()
    analysis.finalize()
    return steps


class _Collector(AnalysisAdaptor):
    def __init__(self):
        self.steps = []
        self.finalized = False

    def execute(self, data):
        mesh = data.get_mesh("mesh")
        data.add_array(mesh, "mesh", "point", "pressure")
        self.steps.append(
            (data.get_data_time_step(),
             mesh.get_block(0).point_data["pressure"].values.copy())
        )
        return True

    def finalize(self):
        self.finalized = True


def _stage_run(tmp_path, comm, steps=3):
    """Simulate + stage BP files via the XML adios analysis."""
    xml = (
        f'<sensei><analysis type="adios" engine="BPFile" stream="stage" '
        f'directory="{tmp_path}" arrays="pressure,velocity_x" '
        f'frequency="1"/></sensei>'
    )
    case = lid_cavity_case(reynolds=100, elements=2, order=3, dt=5e-3)
    solver = NekRSSolver(case, comm)
    bridge = Bridge(solver, config_xml=xml, output_dir=tmp_path)
    solver.run(steps, observer=bridge.observer)
    bridge.finalize()
    return solver


class TestFileStaged:
    def test_xml_adios_analysis_writes_bp_files(self, tmp_path, comm):
        _stage_run(tmp_path, comm, steps=2)
        files = sorted(tmp_path.glob("stage.step*.bp"))
        assert len(files) == 2

    def test_replay_reconstructs_every_step(self, tmp_path, comm):
        solver = _stage_run(tmp_path, comm, steps=3)
        collector = _Collector()
        consumed = _replay(tmp_path, "stage", 1, collector, comm)
        assert consumed == 3
        assert collector.finalized
        assert [s for s, _ in collector.steps] == [1, 2, 3]
        # the final staged state equals the live final state
        np.testing.assert_array_equal(
            collector.steps[-1][1], solver.p.ravel()
        )

    def test_replay_into_vtu_writer(self, tmp_path, comm):
        """The full degraded-mode pipeline: stage to files, replay the
        endpoint later, write VTU — no live endpoint required."""
        _stage_run(tmp_path / "bp", comm, steps=2)
        io = VTKPosthocIO(
            comm, tmp_path / "vtu", arrays=("pressure", "velocity_x")
        )
        consumed = _replay(tmp_path / "bp", "stage", 1, io, comm)
        assert consumed == 2
        assert len(list((tmp_path / "vtu").glob("*.vtu"))) == 2

    def test_multi_writer_staging(self, tmp_path):
        """Two sim ranks stage independently; one consumer replays both."""

        def body(comm):
            _stage_run(tmp_path, comm, steps=2)
            return None

        run_spmd(2, body)
        collector = _Collector()
        consumed = _replay(
            tmp_path, "stage", 2, collector, SerialCommunicator()
        )
        assert consumed == 2
