"""Tests for repro.bender.transport (the PCIe hop)."""

import numpy as np
import pytest

from repro.bender.host import HostInterface
from repro.bender.program import ProgramBuilder
from repro.bender.transport import PcieTransport
from repro.dram.address import DramAddress
from repro.errors import ConfigurationError

from tests.conftest import make_vulnerable_device


def build_hosts(seed=4):
    """A direct host and a transported host over identical devices."""
    direct_device = make_vulnerable_device(seed=seed)
    direct_device.set_ecc_enabled(False)
    direct = HostInterface(direct_device)

    wired_device = make_vulnerable_device(seed=seed)
    wired_device.set_ecc_enabled(False)
    transport = PcieTransport(wired_device)
    wired = HostInterface(wired_device, transport=transport)
    return direct, wired, transport


def hammer_program(device, count=5000):
    builder = ProgramBuilder()
    builder.act(0, 0, 0, 20)
    builder.wr_row(0, 0, 0, b"\x00" * device.geometry.row_bytes)
    builder.pre(0, 0, 0)
    with builder.loop(count):
        builder.act(0, 0, 0, 19)
        builder.pre(0, 0, 0)
        builder.act(0, 0, 0, 21)
        builder.pre(0, 0, 0)
    builder.act(0, 0, 0, 20)
    builder.rd_row(0, 0, 0)
    builder.pre(0, 0, 0)
    return builder.build()


class TestEquivalence:
    def test_wire_format_preserves_results(self):
        direct, wired, __ = build_hosts()
        program = hammer_program(direct.device)
        direct_result = direct.run(program)
        wired_result = wired.run(program)
        assert np.array_equal(direct_result.row_reads[0],
                              wired_result.row_reads[0])
        assert direct_result.duration_cycles == \
            wired_result.duration_cycles

    def test_row_helpers_work_through_the_wire(self):
        __, wired, __ = build_hosts()
        address = DramAddress(0, 0, 0, 12)
        payload = b"\x3c" * wired.device.geometry.row_bytes
        wired.write_row(address, payload)
        assert np.packbits(wired.read_row(address)).tobytes() == payload


class TestAccounting:
    def test_statistics_accumulate(self):
        __, wired, transport = build_hosts()
        address = DramAddress(0, 0, 0, 12)
        wired.write_row(address, b"\x00" * wired.device.geometry.row_bytes)
        wired.read_row(address)
        stats = transport.statistics
        assert stats.programs_sent == 2
        assert stats.bytes_up > wired.device.geometry.row_bytes  # hex text
        assert stats.bytes_down >= wired.device.geometry.row_bytes
        assert stats.transfer_time_s > 0

    def test_reads_dominate_downstream(self):
        __, wired, transport = build_hosts()
        address = DramAddress(0, 0, 0, 12)
        wired.write_row(address, b"\x00" * wired.device.geometry.row_bytes)
        up_after_write = transport.statistics.bytes_down
        wired.read_row(address)
        assert transport.statistics.bytes_down > up_after_write

    def test_bandwidth_validation(self):
        device = make_vulnerable_device(seed=4)
        with pytest.raises(ConfigurationError):
            PcieTransport(device, bandwidth_bytes_per_s=0)

    def test_readback_rounds_partial_bytes_up(self):
        """A row read whose bit count is not byte-aligned still occupies
        whole bytes on the wire: 13 bits bill as 2 bytes, not 1."""
        from repro.bender.interpreter import ExecutionResult

        transport = PcieTransport(make_vulnerable_device(seed=4))
        result = ExecutionResult(column_reads=[b"\x00" * 3],
                                 row_reads=[np.zeros(13, dtype=np.uint8)])
        assert transport._readback_bytes(result) == \
            3 + 2 + PcieTransport.TRANSFER_OVERHEAD_BYTES


class TestCorruptionCheck:
    def test_wire_corruption_detected(self, monkeypatch):
        device = make_vulnerable_device(seed=4)
        transport = PcieTransport(device)
        import repro.bender.transport as transport_module
        monkeypatch.setattr(
            transport_module, "disassemble",
            lambda program: "WAIT 1\n")  # lies about every program
        builder = ProgramBuilder()
        builder.act(0, 0, 0, 20)
        builder.pre(0, 0, 0)
        with pytest.raises(ConfigurationError):
            transport.run(builder.build())
