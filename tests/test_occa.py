"""Tests for the OCCA-style device layer."""

import numpy as np
import pytest

from repro.machine import POLARIS, PcieModel
from repro.occa import Device, DeviceMemory


def _upload(dev, host):
    """A device buffer holding `host`, copied H2D."""
    mem = DeviceMemory(dev, np.empty_like(host))
    mem.copy_from_host(host)
    return mem


class TestDeviceBasics:
    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            Device("vulkan")


class TestTransfers:
    def test_roundtrip(self):
        dev = Device("cuda-sim")
        src = np.arange(12, dtype=float).reshape(3, 4)
        mem = _upload(dev, src)
        np.testing.assert_array_equal(mem.copy_to_host(), src)

    def test_cuda_sim_copy_is_not_alias(self):
        dev = Device("cuda-sim")
        mem = _upload(dev, np.ones(5))
        host = mem.copy_to_host()
        host[0] = 99.0
        np.testing.assert_array_equal(mem.copy_to_host(), 1.0)

    def test_ledger_counts_bytes(self):
        dev = Device("cuda-sim")
        mem = _upload(dev, np.zeros(10))   # h2d: 80 bytes
        mem.copy_to_host()                  # d2h: 80 bytes
        mem.copy_to_host()
        assert dev.transfers.h2d_bytes == 80
        assert dev.transfers.d2h_bytes == 160
        assert dev.transfers.h2d_count == 1
        assert dev.transfers.d2h_count == 2
        assert dev.transfers.total_bytes == 240

    def test_serial_mode_charges_nothing(self):
        dev = Device("serial")
        mem = _upload(dev, np.zeros(10))
        mem.copy_to_host()
        assert dev.transfers.total_bytes == 0

    def test_shape_mismatch_raises(self):
        dev = Device("cuda-sim")
        mem = DeviceMemory(dev, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            mem.copy_from_host(np.zeros(5))

    def test_copy_to_host_into_buffer(self):
        dev = Device("cuda-sim")
        mem = _upload(dev, np.arange(4.0))
        out = np.empty(4)
        result = mem.copy_to_host(out)
        assert result is out
        np.testing.assert_array_equal(out, np.arange(4.0))

    def test_copy_to_host_buffer_mismatch(self):
        dev = Device("cuda-sim")
        mem = DeviceMemory(dev, np.zeros(4))
        with pytest.raises(ValueError):
            mem.copy_to_host(np.empty(5))

    def test_modeled_seconds_with_pcie(self):
        pcie = PcieModel(POLARIS.node.gpu)
        dev = Device("cuda-sim", pcie=pcie)
        mem = _upload(dev, np.zeros(10**6))
        mem.copy_to_host()
        assert dev.transfers.modeled_seconds > 0

    def test_fill_runs_device_side(self):
        dev = Device("cuda-sim")
        mem = DeviceMemory(dev, np.zeros(3))
        before = dev.transfers.total_bytes
        mem.fill(7.0)
        assert dev.transfers.total_bytes == before
        np.testing.assert_array_equal(mem.copy_to_host(), 7.0)
