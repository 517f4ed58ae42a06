"""Tests for BP marshaling, SST streaming, and BPFile engines."""

import struct
import sys
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest

import repro.adios
from repro.adios import (
    BPFileReaderEngine,
    BPFileWriterEngine,
    EndOfStream,
    EndpointDownError,
    SSTBroker,
    SSTWriterEngine,
    StepPayload,
    StepStatus,
    marshal_step,
    unmarshal_step,
)
from repro.adios.engine import pack_bp_file, unpack_bp_file
from repro.codec import CodecContext, CodecSpec
from repro.faults.errors import CorruptPayloadError


class TestMarshal:
    def test_roundtrip(self, rng):
        payload = StepPayload(
            step=42, time=1.25, rank=3,
            variables={
                "u": rng.normal(size=(2, 3, 4)),
                "ids": np.arange(5, dtype=np.int64),
                "img": rng.integers(0, 255, size=(4, 4), dtype=np.uint8),
            },
            attributes={"mesh": "uniform", "extra": "{}"},
        )
        out = unmarshal_step(marshal_step(payload))
        assert out.step == 42 and out.time == 1.25 and out.rank == 3
        assert out.attributes == payload.attributes
        assert set(out.variables) == set(payload.variables)
        for k in payload.variables:
            np.testing.assert_array_equal(out.variables[k], payload.variables[k])
            assert out.variables[k].dtype == payload.variables[k].dtype

    def test_empty_variables(self):
        out = unmarshal_step(marshal_step(StepPayload(0, 0.0, 0)))
        assert out.variables == {}

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0, 4)], ids=str)
    @pytest.mark.parametrize("codec", [
        None, CodecSpec.lossless(), CodecSpec.from_cli("delta-rle", "1e-3"),
    ], ids=["plain", "lossless", "delta-rle"])
    def test_empty_nd_variable_roundtrip(self, shape, codec):
        """An empty block's ``points`` is ``(0, 3)``: every frame
        version carries a zero-size N-d variable, shape and dtype kept."""
        for dtype in (np.float64, np.int32):
            payload = StepPayload(3, 0.5, 1, {
                "points": np.empty(shape, dtype),
                "after": np.arange(4, dtype=dtype),
            })
            wire = marshal_step(payload, codec=codec, context=CodecContext())
            out = unmarshal_step(wire, context=CodecContext())
            assert out.variables["points"].shape == shape
            assert out.variables["points"].dtype == dtype
            # the variable behind it still lands (lossy bound: 1e-3 of 3)
            np.testing.assert_allclose(out.variables["after"], np.arange(4),
                                       atol=3e-3)

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            unmarshal_step(b"nope" + b"\x00" * 40)

    def test_trailing_bytes_rejected(self):
        data = marshal_step(StepPayload(0, 0.0, 0))
        with pytest.raises(ValueError, match="trailing"):
            unmarshal_step(data + b"x")

    def test_unsupported_dtype(self):
        payload = StepPayload(0, 0.0, 0, {"c": np.zeros(2, dtype=complex)})
        with pytest.raises(TypeError):
            marshal_step(payload)

    def test_nbytes(self):
        p = StepPayload(0, 0.0, 0, {"u": np.zeros(10)})
        assert p.nbytes == 80


class TestSSTBroker:
    def test_put_get_order(self):
        broker = SSTBroker(num_writers=1, queue_limit=4)
        broker.put(0, b"step0")
        broker.put(0, b"step1")
        assert broker.get(0) == b"step0"
        assert broker.get(0) == b"step1"

    def test_end_of_stream(self):
        broker = SSTBroker(num_writers=1)
        broker.close_writer(0)
        with pytest.raises(EndOfStream):
            broker.get(0)

    def test_discard_policy_drops_oldest(self):
        broker = SSTBroker(num_writers=1, queue_limit=2, queue_full_policy="Discard")
        for i in range(5):
            broker.put(0, f"s{i}".encode())
        assert broker.stats.steps_discarded == 3
        assert broker.get(0) == b"s3"
        assert broker.get(0) == b"s4"

    def test_block_policy_backpressure(self):
        broker = SSTBroker(num_writers=1, queue_limit=1, timeout=5.0)
        broker.put(0, b"a")
        unblocked = threading.Event()

        def writer():
            broker.put(0, b"b")   # blocks until reader drains
            unblocked.set()

        t = threading.Thread(target=writer, daemon=True)
        t.start()
        assert not unblocked.wait(timeout=0.2)
        assert broker.get(0) == b"a"
        assert unblocked.wait(timeout=5.0)
        t.join()

    def test_stats_bytes(self):
        broker = SSTBroker(num_writers=2)
        broker.put(0, b"xxxx")
        broker.put(1, b"yy")
        broker.get(0)
        assert broker.stats.bytes_put == 6
        assert broker.stats.bytes_got == 4

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SSTBroker(0)
        with pytest.raises(ValueError):
            SSTBroker(1, queue_limit=0)
        with pytest.raises(ValueError):
            SSTBroker(1, queue_full_policy="Panic")

    def test_close_writer_never_blocks_and_trails_the_staged_steps(self):
        broker = SSTBroker(num_writers=1, queue_limit=1, timeout=30.0)
        broker.put(0, b"a")
        broker.close_writer(0)         # full queue: the end mark takes no slot
        assert broker.get(0) == b"a"
        with pytest.raises(EndOfStream):
            broker.get(0)

    def test_every_change_a_consumer_can_act_on_is_one_event(self):
        broker = SSTBroker(num_writers=1, queue_limit=4)
        seen = broker.events
        assert not broker.wait(seen, timeout=0)
        broker.put(0, b"a")
        assert broker.wait(seen, timeout=0)
        seen = broker.events
        broker.get(0)      # frees room for a writer; nothing for a consumer
        assert broker.events == seen
        for change in (
            lambda: broker.close_writer(0), broker.notify,
            lambda: broker.mark_writer_down(0), broker.close,
            broker.mark_endpoint_down,
        ):
            change()
            seen += 1
            assert broker.events == seen

    def test_marking_the_endpoint_down_wakes_a_blocked_writer(self):
        broker = SSTBroker(num_writers=1, queue_limit=1, timeout=30.0)
        broker.put(0, b"a")
        caught = []

        def writer():
            try:
                broker.put(0, b"b")            # blocks: the queue is full
            except EndpointDownError as exc:
                caught.append(exc)

        t = threading.Thread(target=writer, daemon=True)
        t.start()
        broker.mark_endpoint_down()
        t.join(timeout=10.0)
        assert not t.is_alive() and len(caught) == 1

    def test_threaded_writers_and_readers_deliver_every_step_once(self):
        """More threads than cores on one condition, switching every few
        bytecodes: each Block-policy step arrives exactly once, in order."""
        writers, steps = 6, 100
        broker = SSTBroker(num_writers=writers, queue_limit=1, timeout=30.0)
        got = {w: [] for w in range(writers)}

        def write(w):
            for s in range(steps):
                broker.put(w, b"%d" % s)
            broker.close_writer(w)

        def read(w):
            while True:
                try:
                    got[w].append(int(broker.get(w)))
                except EndOfStream:
                    return

        threads = [
            threading.Thread(target=fn, args=(w,), daemon=True)
            for w in range(writers) for fn in (write, read)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == {w: list(range(steps)) for w in range(writers)}
        assert broker.stats.steps_put == broker.stats.steps_got == writers * steps


def test_the_stream_waits_on_one_condition():
    """Source scan: the broker's condition is the in-transit stream's one
    wait primitive; no Event sits beside it in ``repro.adios`` or
    ``repro.fleet``."""
    adios = Path(repro.adios.__file__).parent
    assert (adios / "engine.py").read_text().count("threading.Condition(") == 1
    for path in [*adios.glob("*.py"), *(adios.parent / "fleet").glob("*.py")]:
        assert "threading.Event(" not in path.read_text(), path.name


class TestSSTEngines:
    def test_writer_reader_roundtrip(self, rng):
        broker = SSTBroker(num_writers=2)
        writers = [SSTWriterEngine("s", broker, w) for w in range(2)]

        data = {w: rng.normal(size=4) for w in range(2)}
        for w, eng in enumerate(writers):
            eng.set_step_info(1, 0.5)
            eng.begin_step()
            eng.put("field", data[w])
            eng.put_attribute("who", f"writer{w}")
            eng.end_step()

        payloads = {w: unmarshal_step(broker.get(w)) for w in range(2)}
        for w in range(2):
            np.testing.assert_array_equal(payloads[w].variables["field"], data[w])
            assert payloads[w].attributes["who"] == f"writer{w}"
            assert payloads[w].step == 1

    def test_reader_sees_end_of_stream(self):
        broker = SSTBroker(num_writers=1)
        writer = SSTWriterEngine("s", broker, 0)
        writer.begin_step()
        writer.put("x", np.zeros(1))
        writer.end_step()
        writer.close()
        assert unmarshal_step(broker.get(0)).variables["x"].shape == (1,)
        with pytest.raises(EndOfStream):
            broker.get(0)

    def test_put_outside_step_raises(self):
        broker = SSTBroker(num_writers=1)
        writer = SSTWriterEngine("s", broker, 0)
        with pytest.raises(RuntimeError):
            writer.put("x", np.zeros(1))

    def test_double_begin_step_raises(self):
        broker = SSTBroker(num_writers=1)
        writer = SSTWriterEngine("s", broker, 0)
        writer.begin_step()
        with pytest.raises(RuntimeError):
            writer.begin_step()

    def test_closed_engine_rejects_steps(self):
        broker = SSTBroker(num_writers=1)
        writer = SSTWriterEngine("s", broker, 0)
        writer.close()
        with pytest.raises(RuntimeError):
            writer.begin_step()

    def test_get_specific_writer(self):
        broker = SSTBroker(num_writers=2)
        writer = SSTWriterEngine("s", broker, 1)
        writer.begin_step()
        writer.put("x", np.arange(3.0))
        writer.end_step()
        assert broker.ready(1) and not broker.ready(0)
        np.testing.assert_array_equal(
            unmarshal_step(broker.get(1)).variables["x"], [0, 1, 2]
        )


class TestBPFileEngines:
    def test_file_roundtrip(self, tmp_path, rng):
        writer = BPFileWriterEngine("run", tmp_path, writer_rank=2)
        for step in (1, 2):
            writer.set_step_info(step, step * 0.1)
            writer.begin_step()
            writer.put("u", rng.normal(size=3))
            writer.end_step()
        assert writer.bytes_written > 0
        assert len(list(tmp_path.glob("*.bp"))) == 2

        reader = BPFileReaderEngine("run", tmp_path, writer_rank=2)
        assert reader.begin_step() is StepStatus.OK
        assert reader.get().step == 1
        reader.end_step()
        assert reader.begin_step() is StepStatus.OK
        assert reader.get().step == 2
        reader.end_step()
        assert reader.begin_step() is StepStatus.END_OF_STREAM

    def test_failed_write_does_not_wedge_the_engine(self, tmp_path, monkeypatch):
        """A write error surfaces once; the step it hit is dropped with
        its staged variables and the next step goes out clean."""
        writer = BPFileWriterEngine("run", tmp_path)
        real_write = Path.write_bytes

        def disk_full(self, data):
            monkeypatch.setattr(Path, "write_bytes", real_write)  # fail once
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", disk_full)
        writer.set_step_info(1, 0.1)
        writer.begin_step()
        writer.put("lost", np.ones(3))
        with pytest.raises(OSError, match="disk full"):
            writer.end_step()
        assert writer.bytes_written == 0 and not list(tmp_path.glob("*.bp"))

        writer.set_step_info(2, 0.2)
        assert writer.begin_step() is StepStatus.OK
        writer.put("kept", np.arange(3.0))
        writer.end_step()
        (path,) = tmp_path.glob("*.bp")
        assert writer.bytes_written == path.stat().st_size
        out = unmarshal_step(unpack_bp_file(path.read_bytes()))
        assert out.step == 2 and set(out.variables) == {"kept"}

    def test_files_are_deflated_and_the_wire_is_not(self, tmp_path):
        spec = CodecSpec.from_cli("delta-rle", "1e-3")
        payload = StepPayload(1, 0.1, 0, {"u": np.linspace(0, 1, 4096)})
        frame = bytes(marshal_step(payload, codec=spec))
        bp = BPFileWriterEngine("run", tmp_path, codec=spec)
        broker = SSTBroker(num_writers=1)
        sst = SSTWriterEngine("run", broker, 0, codec=spec)
        for engine in (bp, sst):
            engine.set_step_info(1, 0.1)
            engine.begin_step()
            engine.put("u", payload.variables["u"])
            engine.end_step()
        assert broker.get(0) == frame
        (path,) = tmp_path.glob("*.bp")
        assert path.read_bytes() == pack_bp_file(frame)
        assert bp.bytes_written < len(frame)

    def test_rank_separation(self, tmp_path):
        for rank in (0, 1):
            w = BPFileWriterEngine("run", tmp_path, writer_rank=rank)
            w.begin_step()
            w.put("r", np.array([float(rank)]))
            w.end_step()
        r1 = BPFileReaderEngine("run", tmp_path, writer_rank=1)
        r1.begin_step()
        np.testing.assert_array_equal(r1.get().variables["r"], [1.0])


class TestBPFileContainer:
    """``unpack_bp_file`` accepts one zlib stream that inflates to exactly
    its declared length and ends the file; everything else is a corrupt
    payload, raised before any frame parsing."""

    FRAME = bytes(marshal_step(StepPayload(
        4, 0.5, 0, {"u": np.linspace(0, 1, 512)}, {"a": "b"})))

    def _file(self, declared=None, stream=None):
        stream = zlib.compress(self.FRAME) if stream is None else stream
        declared = len(self.FRAME) if declared is None else declared
        return b"RBPZ" + struct.pack("<Q", declared) + stream

    def test_roundtrip(self):
        assert unpack_bp_file(pack_bp_file(self.FRAME)) == self.FRAME
        assert self._file() == pack_bp_file(self.FRAME)

    @pytest.mark.parametrize("delta", [-1, 1, -len(FRAME) // 2, 10**6])
    def test_a_lie_about_the_inflated_length(self, delta):
        with pytest.raises(CorruptPayloadError):
            unpack_bp_file(self._file(declared=len(self.FRAME) + delta))

    @pytest.mark.parametrize("declared", [0, 2**63, 2**64 - 1])
    def test_impossible_declared_lengths(self, declared):
        with pytest.raises(CorruptPayloadError):
            unpack_bp_file(self._file(declared=declared))

    def test_a_truncated_stream(self):
        data = self._file()
        for n in range(len(data)):
            with pytest.raises(CorruptPayloadError):
                unpack_bp_file(data[:n])

    @pytest.mark.parametrize("extra", [b"\0", b"junk", pack_bp_file(b"x")])
    def test_trailing_bytes_after_the_stream(self, extra):
        with pytest.raises(CorruptPayloadError):
            unpack_bp_file(self._file() + extra)

    def test_a_stream_that_inflates_past_its_declared_length(self):
        bomb = zlib.compress(self.FRAME + bytes(1 << 20), 9)
        with pytest.raises(CorruptPayloadError):
            unpack_bp_file(self._file(stream=bomb))

    def test_reader_rejects_before_parsing_the_frame(self, tmp_path):
        path = tmp_path / "run.step000001.rank0000.bp"
        path.write_bytes(self._file(declared=len(self.FRAME) - 1))
        reader = BPFileReaderEngine("run", tmp_path)
        with pytest.raises(CorruptPayloadError, match="declared length"):
            reader.begin_step()
