"""Tests for .fld checkpoint encode/decode and file round-trips."""

import numpy as np
import pytest

from repro.nekrs.checkpoint import (
    CheckpointHeader,
    checkpoint_filename,
    encode_checkpoint,
    read_checkpoint,
    write_checkpoint,
)


@pytest.fixture
def fields(rng):
    shape = (3, 4, 4, 4)
    return {
        "velocity_x": rng.normal(size=shape),
        "velocity_y": rng.normal(size=shape),
        "pressure": rng.normal(size=shape),
    }


class TestHeader:
    def test_roundtrip(self):
        h = CheckpointHeader("pb146", 100, 0.125, 3, 8, (2, 5, 5, 5), ("u", "p"))
        out = CheckpointHeader.decode(h.encode())
        assert out == h

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            CheckpointHeader.decode(b"#wrong stuff\n")

    def test_space_in_case_rejected(self):
        h = CheckpointHeader("bad case", 0, 0.0, 0, 1, (1, 2, 2, 2), ("u",))
        with pytest.raises(ValueError):
            h.encode()


class TestEncodeDecode:
    def test_file_roundtrip(self, tmp_path, fields):
        path, nbytes = write_checkpoint(
            tmp_path, "tc", 42, 1.5, rank=1, size=4, fields=fields
        )
        assert path.exists()
        assert path.stat().st_size == nbytes
        header, out = read_checkpoint(path)
        assert header.step == 42
        assert header.time == 1.5
        assert header.rank == 1
        assert set(out) == set(fields)
        for name in fields:
            np.testing.assert_array_equal(out[name], fields[name])

    def test_field_order_preserved(self, tmp_path, fields):
        path, _ = write_checkpoint(tmp_path, "tc", 0, 0.0, 0, 1, fields)
        header, _ = read_checkpoint(path)
        assert list(header.field_names) == list(fields)

    def test_empty_fields_raises(self):
        with pytest.raises(ValueError):
            encode_checkpoint("c", 0, 0.0, 0, 1, {})

    def test_mismatched_shapes_raise(self, fields):
        fields["odd"] = np.zeros((1, 2, 2, 2))
        with pytest.raises(ValueError):
            encode_checkpoint("c", 0, 0.0, 0, 1, fields)

    def test_non_4d_raises(self):
        with pytest.raises(ValueError):
            encode_checkpoint("c", 0, 0.0, 0, 1, {"u": np.zeros((4, 4))})

    def test_truncated_detected(self, tmp_path, fields):
        path, _ = write_checkpoint(tmp_path, "tc", 0, 0.0, 0, 1, fields)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(ValueError, match="truncated"):
            read_checkpoint(path)

    def test_trailing_bytes_detected(self, tmp_path, fields):
        path, _ = write_checkpoint(tmp_path, "tc", 0, 0.0, 0, 1, fields)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ValueError, match="trailing"):
            read_checkpoint(path)


class TestSizing:
    def test_filename_format(self):
        assert checkpoint_filename("pb146", 100, 3) == "pb1460.f00100.r0003"

    def test_restart_reproduces_solver_state(self, tmp_path, tiny_solver):
        """Write a checkpoint mid-run, restart from it, states match."""
        from repro.nekrs import NekRSSolver
        from repro.parallel import SerialCommunicator

        tiny_solver.run(2)
        fields = {"u": tiny_solver.u, "v": tiny_solver.v,
                  "w": tiny_solver.w, "p": tiny_solver.p}
        path, _ = write_checkpoint(tmp_path, "c", 2, tiny_solver.time, 0, 1, fields)
        _, restored = read_checkpoint(path)
        fresh = NekRSSolver(tiny_solver.case, SerialCommunicator())
        fresh.u[:] = restored["u"]
        fresh.v[:] = restored["v"]
        fresh.w[:] = restored["w"]
        fresh.p[:] = restored["p"]
        np.testing.assert_array_equal(fresh.u, tiny_solver.u)
        np.testing.assert_array_equal(fresh.p, tiny_solver.p)
