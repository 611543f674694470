"""Tests for repro.dram.device (the top-level command interface)."""

import numpy as np
import pytest

from repro.dram.commands import (
    Activate,
    Precharge,
    PrechargeAll,
    Read,
    Refresh,
    Write,
)
from repro.dram.subarrays import SubarrayLayout
from repro.dram.trr import TrrConfig
from repro.errors import CommandError

from tests.conftest import (make_small_device, make_vulnerable_device,
                            row_is_written)


@pytest.fixture
def device():
    device = make_small_device(seed=9)
    device.set_ecc_enabled(False)
    return device


def fill_bits(device, byte):
    return np.unpackbits(np.full(device.geometry.row_bytes, byte,
                                 dtype=np.uint8))


def write_logical_row(device, channel, pc, bank, row, byte):
    device.activate(channel, pc, bank, row)
    device.write_open_row(channel, pc, bank, fill_bits(device, byte))
    device.precharge(channel, pc, bank)


class TestClockAndScheduling:
    def test_clock_starts_at_zero(self, device):
        assert device.now == 0

    def test_commands_advance_the_clock(self, device):
        device.activate(0, 0, 0, 10)
        after_act = device.now
        assert after_act >= 1
        device.precharge(0, 0, 0)
        assert device.now > after_act

    def test_act_act_same_bank_spaced_by_trc(self, device):
        first = device.activate(0, 0, 0, 10)
        device.precharge(0, 0, 0)
        second = device.activate(0, 0, 0, 11)
        assert second - first == device.timing.rc_cycles

    def test_wait_advances_exactly(self, device):
        device.wait(1234)
        assert device.now == 1234

    def test_negative_wait_rejected(self, device):
        with pytest.raises(CommandError):
            device.wait(-1)

    def test_now_seconds(self, device):
        device.wait(600)
        assert device.timing.seconds(device.now) == pytest.approx(1e-6)

    def test_command_counters(self, device):
        device.activate(0, 0, 0, 10)
        device.precharge(0, 0, 0)
        device.activate(0, 0, 0, 10)
        assert device.command_counts["ACT"] == 2
        assert device.command_counts["PRE"] == 1


class TestLogicalPhysicalIndirection:
    def test_data_lands_at_physical_row(self, device):
        """Writing logical row L must store into physical row P(L)."""
        logical = 8  # the default mapper scrambles this one (8 -> 14)
        physical = device.mapper.logical_to_physical(logical)
        assert physical != logical
        write_logical_row(device, 0, 0, 0, logical, 0xFF)
        bank = device.bank(0, 0, 0)
        assert row_is_written(bank, physical)
        assert not row_is_written(bank, logical)

    def test_readback_through_same_mapping(self, device):
        write_logical_row(device, 0, 0, 0, 8, 0xC3)
        device.activate(0, 0, 0, 8)
        bits = device.read_open_row(0, 0, 0)
        device.precharge(0, 0, 0)
        assert np.array_equal(bits, fill_bits(device, 0xC3))


class TestDataPath:
    def test_column_write_read(self, device):
        device.activate(0, 0, 0, 10)
        payload = bytes(range(device.geometry.column_bytes))
        device.write(0, 0, 0, 2, payload)
        assert device.read(0, 0, 0, 2) == payload

    def test_execute_dispatch(self, device):
        geometry = device.geometry
        payload = b"\xa5" * geometry.column_bytes
        device.execute(Activate(0, 0, 0, 10))
        device.execute(Write(0, 0, 0, 0, payload))
        assert device.execute(Read(0, 0, 0, 0)) == payload
        device.execute(Precharge(0, 0, 0))
        device.execute(PrechargeAll(0, 0))
        device.execute(Refresh(0, 0))

    def test_execute_unknown_command_raises(self, device):
        with pytest.raises(CommandError):
            device.execute("ACT")


class TestRefresh:
    def test_refresh_with_open_bank_raises(self, device):
        device.activate(0, 0, 0, 10)
        with pytest.raises(CommandError):
            device.refresh(0, 0)

    def test_refresh_advances_by_trfc(self, device):
        before = device.now
        device.refresh(0, 0)
        assert device.now - before >= device.timing.rfc_cycles

    def test_refresh_resets_disturbance_of_swept_rows(self, device):
        bank = device.bank(0, 0, 0)
        pc_state = device.channel(0).pseudo_channels[0]
        step = pc_state.rows_per_ref
        bank.disturbance.add(0, 0, 1e6)
        bank.disturbance.add(step, 0, 1e6)  # outside the first REF range
        device.refresh(0, 0)
        assert bank.disturbance.get_total(0) == 0.0
        assert bank.disturbance.get_total(step) == 1e6

    def test_refresh_preserves_data(self, device):
        write_logical_row(device, 0, 0, 0, 0, 0x3C)
        for __ in range(4):
            device.refresh(0, 0)
        device.activate(0, 0, 0, 0)
        bits = device.read_open_row(0, 0, 0)
        assert np.array_equal(bits, fill_bits(device, 0x3C))


class TestHiddenTrrIntegration:
    def test_trr_refreshes_sampled_victims_every_period(self):
        device = make_small_device(
            seed=9, trr_config=TrrConfig(refresh_period=5))
        device.set_ecc_enabled(False)
        aggressor_physical = 40
        aggressor_logical = device.mapper.physical_to_logical(
            aggressor_physical)
        victim_physical = 41
        bank = device.bank(0, 0, 0)
        # Load disturbance onto the victim, bait the sampler, then REF
        # 5 times: the engine must internally refresh the victim,
        # clearing its disturbance.
        bank.disturbance.add(victim_physical, 0, 123.0)
        device.activate(0, 0, 0, aggressor_logical)
        device.precharge(0, 0, 0)
        loaded = bank.disturbance.get_total(victim_physical)
        assert loaded >= 123.0  # the bait ACT itself adds a little more
        for __ in range(4):
            device.refresh(0, 0)
        assert bank.disturbance.get_total(victim_physical) == loaded
        device.refresh(0, 0)  # the 5th REF fires TRR
        assert bank.disturbance.get_total(victim_physical) == 0.0

    def test_disabled_trr_never_refreshes_victims(self):
        device = make_small_device(
            seed=9, trr_config=TrrConfig(enabled=False))
        victim_physical = 41
        bank = device.bank(0, 0, 0)
        bank.disturbance.add(victim_physical, 0, 123.0)
        device.activate(0, 0, 0,
                        device.mapper.physical_to_logical(40))
        device.precharge(0, 0, 0)
        loaded = bank.disturbance.get_total(victim_physical)
        for __ in range(40):
            device.refresh(0, 0)
        assert bank.disturbance.get_total(victim_physical) == loaded


class TestBulkActivations:
    def test_bulk_matches_unrolled_loop(self):
        """The defining property of the fast path: same end state."""
        results = []
        for use_bulk in (False, True):
            device = make_vulnerable_device(seed=4)
            device.set_ecc_enabled(False)
            victim_physical = 20
            aggressors = [device.mapper.physical_to_logical(row)
                          for row in (19, 21)]
            victim_logical = device.mapper.physical_to_logical(20)
            write_logical_row(device, 0, 0, 0, victim_logical, 0x00)
            for row in aggressors:
                write_logical_row(device, 0, 0, 0, row, 0xFF)
            iterations = 300
            if use_bulk:
                period = 2 * device.timing.rc_cycles
                device.bulk_activations(
                    [(0, 0, 0, aggressors[0]), (0, 0, 0, aggressors[1])],
                    iterations, iterations * period)
            else:
                for __ in range(iterations):
                    for row in aggressors:
                        device.activate(0, 0, 0, row)
                        device.precharge(0, 0, 0)
            bank = device.bank(0, 0, 0)
            results.append(bank.disturbance.get_sides(victim_physical))
        assert results[0] == results[1]

    def test_bulk_zero_iterations_is_noop(self, device):
        before = device.now
        device.bulk_activations([(0, 0, 0, 10)], 0, 0)
        assert device.now == before

    def test_bulk_counts_commands(self, device):
        device.bulk_activations([(0, 0, 0, 10)], 50, 50 * 29)
        assert device.command_counts["ACT"] == 50

    def test_bulk_negative_iterations_rejected(self, device):
        with pytest.raises(CommandError):
            device.bulk_activations([(0, 0, 0, 10)], -1, 0)


class TestEnvironment:
    def test_set_temperature(self, device):
        device.set_temperature(55.0)
        assert device.temperature_c == 55.0

    def test_set_ecc_single_channel(self, device):
        device.set_ecc_enabled(True, channel=1)
        assert device.mode_registers(1).ecc_enabled
        assert not device.mode_registers(0).ecc_enabled

    def test_mismatched_subarray_layout_rejected(self):
        with pytest.raises(CommandError):
            make_small_device(subarray_layout=SubarrayLayout([10]))
