"""Tests for error-bounded stored fields: ``delta-rle`` frames in
deflated BP files, and the ``compressed_io`` dump analysis built on them."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.adios.engine import pack_bp_file, unpack_bp_file
from repro.adios.marshal import StepPayload, marshal_step, unmarshal_step
from repro.codec import CodecSpec
from repro.faults.errors import CorruptPayloadError
from repro.insitu import NekDataAdaptor
from repro.insitu.streamed import replay_file_staged
from repro.sensei.analyses import default_factories
from repro.sensei.analysis_adaptor import AnalysisAdaptor


def _store(arr, bound) -> bytes:
    """`arr` as a dump stores it: ``delta-rle`` under an absolute bound,
    in one deflated BP file."""
    spec = CodecSpec.from_cli("delta-rle", f"abs:{bound}")
    return pack_bp_file(marshal_step(StepPayload(0, 0.0, 0, {"f": arr}),
                                     codec=spec))


def _load(data) -> np.ndarray:
    return unmarshal_step(unpack_bp_file(data)).variables["f"]


def _ratio(arr, bound) -> float:
    return arr.nbytes / len(_store(arr, bound))


class TestCompressField:
    def test_error_bound_respected(self, rng):
        arr = rng.normal(size=(8, 6, 6, 6))
        bound = 1e-3
        out = _load(_store(arr, bound))
        assert out.shape == arr.shape
        assert np.abs(out - arr).max() <= bound + 1e-12

    def test_smooth_field_compresses_hard(self):
        x = np.linspace(0, 1, 64)
        smooth = np.sin(2 * np.pi * x)[None, :] * np.ones((64, 1))
        assert _ratio(smooth, 1e-4) > 10.0

    def test_noise_compresses_worse_than_smooth(self, rng):
        noise = rng.normal(size=(64, 64))
        x = np.linspace(0, 1, 64)
        smooth = np.sin(2 * np.pi * x)[None, :] * np.ones((64, 1))
        assert _ratio(smooth, 1e-4) > _ratio(noise, 1e-4)

    def test_looser_bound_smaller_output(self, rng):
        arr = rng.normal(size=(32, 32))
        assert len(_store(arr, 1e-2)) < len(_store(arr, 1e-8))

    def test_zeros(self):
        np.testing.assert_array_equal(_load(_store(np.zeros(100), 1e-6)), 0.0)

    def test_empty(self):
        assert _load(_store(np.zeros(0), 1e-6)).size == 0

    def test_huge_values_lossless_fallback(self):
        arr = np.array([1e30, -1e30, 5e29])
        np.testing.assert_array_equal(_load(_store(arr, 1e-6)), arr)

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            _store(np.zeros(4), 0.0)

    def test_nan_stored_exactly(self):
        arr = np.array([np.nan, 1.0, 2.0])
        np.testing.assert_array_equal(_load(_store(arr, 1e-6)), arr)

    def test_bad_magic(self):
        with pytest.raises(CorruptPayloadError, match="bad magic"):
            _load(b"nope" + bytes(8))

    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=200
        ),
        bound=st.floats(1e-9, 1.0),
    )
    # half a quantum step plus the rounding of q * step once overshot
    # the bound by half an ulp of 34.8
    @example(values=[0.0, 34.833984375], bound=1e-09)
    def test_property_error_bound(self, values, bound):
        arr = np.asarray(values)
        out = _load(_store(arr, bound))
        assert np.abs(out - arr).max() <= bound * (1 + 1e-9) + 1e-15


def _compressed_io(comm, tmp_path, **attrs):
    attrs.setdefault("output", str(tmp_path))
    return default_factories()["compressed_io"](comm, attrs, tmp_path)


class _Collector(AnalysisAdaptor):
    def __init__(self):
        self.pressure = {}

    def execute(self, data):
        mesh = data.get_mesh("mesh")
        data.add_array(mesh, "mesh", "point", "pressure")
        self.pressure[data.get_data_time_step()] = \
            mesh.get_block(0).point_data["pressure"].values.copy()
        return True


class TestCompressedIO:
    def test_writes_and_beats_raw(self, comm, tiny_solver, tmp_path):
        adaptor = NekDataAdaptor(tiny_solver)
        io = _compressed_io(comm, tmp_path, arrays="pressure,velocity_x",
                            error_bound="1e-5")
        for step in (1, 2):
            tiny_solver.step()
            adaptor.set_data_time_step(step)
            io.execute(adaptor)
            adaptor.release_data()
        files = sorted(tmp_path.glob("dump.step*.rank0000.bp"))
        assert len(files) == 2
        assert io.engine.bytes_written == sum(p.stat().st_size for p in files)
        # the second dump holds the arrays alone; smooth SEM fields compress
        arrays = 2 * tiny_solver.p.nbytes
        assert arrays / files[1].stat().st_size > 1.5

    def test_reconstruction_within_bound(self, comm, tiny_solver, tmp_path):
        """A dump replays through the file-staged consumer, every
        element of every step within its bound."""
        adaptor = NekDataAdaptor(tiny_solver)
        bound = 1e-6
        io = _compressed_io(comm, tmp_path, arrays="pressure",
                            error_bound=repr(bound))
        truth = {}
        for step in (1, 2, 3):
            tiny_solver.step()
            adaptor.set_data_time_step(step)
            io.execute(adaptor)
            adaptor.release_data()
            truth[step] = tiny_solver.p.ravel().copy()
        io.finalize()
        collector = _Collector()
        assert replay_file_staged(tmp_path, "dump", 1, collector, comm) == 3
        assert list(collector.pressure) == [1, 2, 3]
        for step, want in truth.items():
            got = collector.pressure[step]
            assert np.abs(got - want).max() <= bound + 1e-12

    def test_xml_construction(self, comm, tiny_solver, tmp_path):
        from repro.insitu import Bridge

        xml = (
            f'<sensei><analysis type="compressed_io" arrays="pressure" '
            f'error_bound="1e-4" output="{tmp_path}" frequency="1"/></sensei>'
        )
        bridge = Bridge(tiny_solver, config_xml=xml, output_dir=tmp_path)
        tiny_solver.run(2, observer=bridge.observer)
        assert len(list(tmp_path.glob("dump.step*.bp"))) == 2

    def test_invalid_bound(self, comm, tmp_path):
        with pytest.raises(ValueError):
            _compressed_io(comm, tmp_path, error_bound="-1.0")
