"""Tests for repro.dram.bank (row buffer, storage, flip materialization)."""

import numpy as np
import pytest

from repro.dram.bank import Bank, DeviceEnvironment
from repro.dram.cellmodel import GroundTruthProvider
from repro.dram.subarrays import SubarrayLayout
from repro.dram.timing import TimingParameters
from repro.errors import CommandError

from tests.conftest import SMALL_GEOMETRY, row_is_written, vulnerable_profile


def make_bank(profile=None, seed=5, geometry=None):
    geometry = geometry or SMALL_GEOMETRY
    profile = profile or vulnerable_profile()
    layout = SubarrayLayout.paper_default(geometry.rows)
    truth = GroundTruthProvider(geometry, profile, layout, seed)
    environment = DeviceEnvironment(temperature_c=85.0)
    bank = Bank((0, 0, 0), geometry, profile, layout, truth,
                TimingParameters(), environment)
    return bank, geometry


def fill_bits(geometry, byte):
    return np.unpackbits(np.full(geometry.row_bytes, byte, dtype=np.uint8))


def write_row(bank, geometry, physical_row, byte, cycle=0):
    bank.activate(physical_row, cycle)
    bank.write_open_row_bits(fill_bits(geometry, byte), cycle + 1)
    bank.precharge(cycle + 2)


class TestRowBuffer:
    def test_activate_opens_row(self):
        bank, __ = make_bank()
        bank.activate(10, 0)
        assert bank.is_open

    def test_activate_while_open_raises(self):
        bank, __ = make_bank()
        bank.activate(10, 0)
        with pytest.raises(CommandError):
            bank.activate(11, 100)

    def test_precharge_closes(self):
        bank, __ = make_bank()
        bank.activate(10, 0)
        bank.precharge(50)
        assert not bank.is_open

    def test_read_without_open_row_raises(self):
        bank, __ = make_bank()
        with pytest.raises(CommandError):
            bank.read_column(0, 0, ecc_enabled=False)

    def test_write_without_open_row_raises(self):
        bank, geometry = make_bank()
        with pytest.raises(CommandError):
            bank.write_column(0, bytes(geometry.column_bytes), 0)


class TestDataPath:
    def test_column_write_read_roundtrip(self):
        bank, geometry = make_bank()
        bank.activate(5, 0)
        payload = bytes(range(geometry.column_bytes))
        bank.write_column(2, payload, 1)
        assert bank.read_column(2, 2, ecc_enabled=False) == payload

    def test_row_write_read_roundtrip(self):
        bank, geometry = make_bank()
        bank.activate(5, 0)
        bits = fill_bits(geometry, 0xA7)
        bank.write_open_row_bits(bits, 1)
        assert np.array_equal(
            bank.read_open_row_bits(2, ecc_enabled=False), bits)

    def test_column_write_affects_only_its_slice(self):
        bank, geometry = make_bank()
        bank.activate(5, 0)
        bank.write_open_row_bits(fill_bits(geometry, 0x00), 1)
        bank.write_column(1, b"\xff" * geometry.column_bytes, 2)
        bits = bank.read_open_row_bits(3, ecc_enabled=False)
        column_bits = geometry.column_bytes * 8
        assert bits[:column_bits].sum() == 0
        assert bits[column_bits:2 * column_bits].sum() == column_bits
        assert bits[2 * column_bits:].sum() == 0

    def test_wrong_column_size_rejected(self):
        bank, geometry = make_bank()
        bank.activate(5, 0)
        with pytest.raises(CommandError):
            bank.write_column(0, b"\x00", 1)

    def test_wrong_row_shape_rejected(self):
        bank, __ = make_bank()
        bank.activate(5, 0)
        with pytest.raises(CommandError):
            bank.write_open_row_bits(np.zeros(7, dtype=np.uint8), 1)

    def test_unwritten_row_reads_powerup_values(self):
        bank, geometry = make_bank()
        bank.activate(33, 0)
        bits = bank.read_open_row_bits(1, ecc_enabled=False)
        # Power-up content is the per-cell discharged value: a mix of 0s
        # and 1s (true and anti cells), deterministic per row.
        assert 0 < bits.sum() < geometry.row_bits
        bank.precharge(2)
        bank.activate(33, 100)
        assert np.array_equal(
            bank.read_open_row_bits(101, ecc_enabled=False), bits)


class TestHammerMaterialization:
    def hammer(self, bank, victim, count):
        """Apply double-sided disturbance directly at the tracker level."""
        bank.disturbance.record_activation(victim - 1, count)
        bank.disturbance.record_activation(victim + 1, count)

    def test_enough_disturbance_flips_cells(self):
        bank, geometry = make_bank()
        victim = 20
        for row in (victim - 1, victim, victim + 1):
            write_row(bank, geometry, row, 0x00)
        write_row(bank, geometry, victim - 1, 0xFF)
        write_row(bank, geometry, victim + 1, 0xFF)
        self.hammer(bank, victim, 120_000)
        bank.activate(victim, 1000)
        bits = bank.read_open_row_bits(1001, ecc_enabled=False)
        assert bits.sum() > 0, "victim should have 0->1 flips"

    def test_small_disturbance_flips_nothing(self):
        bank, geometry = make_bank()
        victim = 20
        for row in (victim - 1, victim + 1):
            write_row(bank, geometry, row, 0xFF)
        write_row(bank, geometry, victim, 0x00)
        self.hammer(bank, victim, 1_000)
        bank.activate(victim, 1000)
        assert bank.read_open_row_bits(1001, ecc_enabled=False).sum() == 0

    def test_flips_lock_in_on_sense(self):
        """Once sensed, flipped values persist even after disturbance
        resets (the sense amplifier rewrote the row)."""
        bank, geometry = make_bank()
        victim = 20
        write_row(bank, geometry, victim, 0x00)
        for row in (victim - 1, victim + 1):
            write_row(bank, geometry, row, 0xFF)
        self.hammer(bank, victim, 120_000)
        bank.activate(victim, 1000)
        first = bank.read_open_row_bits(1001, ecc_enabled=False)
        bank.precharge(1002)
        bank.activate(victim, 2000)
        second = bank.read_open_row_bits(2001, ecc_enabled=False)
        assert first.sum() > 0
        assert np.array_equal(first, second)

    def test_own_activation_resets_disturbance(self):
        bank, geometry = make_bank()
        victim = 20
        write_row(bank, geometry, victim, 0x00)
        for row in (victim - 1, victim + 1):
            write_row(bank, geometry, row, 0xFF)
        # 14K hammers per aggressor side is below this victim's weakest
        # threshold (~31K disturbance); two such doses back-to-back would
        # flip, but a restore between them resets the accumulation.
        self.hammer(bank, victim, 14_000)
        bank.restore_row(victim, 500)
        self.hammer(bank, victim, 14_000)
        bank.activate(victim, 1000)
        assert bank.read_open_row_bits(1001, ecc_enabled=False).sum() == 0

    def test_unsplit_double_dose_flips(self):
        """Control for the reset test: the same total dose without the
        intervening restore does flip."""
        bank, geometry = make_bank()
        victim = 20
        write_row(bank, geometry, victim, 0x00)
        for row in (victim - 1, victim + 1):
            write_row(bank, geometry, row, 0xFF)
        self.hammer(bank, victim, 28_000)
        bank.activate(victim, 1000)
        assert bank.read_open_row_bits(1001, ecc_enabled=False).sum() > 0

    def test_unwritten_rows_never_flip(self):
        """A never-written row is fully discharged: nothing to disturb."""
        bank, geometry = make_bank()
        victim = 20
        write_row(bank, geometry, victim - 1, 0xFF)
        write_row(bank, geometry, victim + 1, 0xFF)
        self.hammer(bank, victim, 500_000)
        bank.activate(victim, 1000)
        bits = bank.read_open_row_bits(1001, ecc_enabled=False)
        bank.precharge(1002)
        bank.activate(victim, 2000)
        assert np.array_equal(
            bank.read_open_row_bits(2001, ecc_enabled=False), bits)

    def test_aggressor_data_dependence(self):
        """Aggressors holding the same value as the victim disturb it
        far less (same_bit_coupling) — observation from §1/§4."""
        flips = {}
        for aggressor_byte in (0xFF, 0x00):
            bank, geometry = make_bank()
            victim = 20
            write_row(bank, geometry, victim, 0x00)
            for row in (victim - 1, victim + 1):
                write_row(bank, geometry, row, aggressor_byte)
            self.hammer(bank, victim, 150_000)
            bank.activate(victim, 1000)
            flips[aggressor_byte] = int(
                bank.read_open_row_bits(1001, ecc_enabled=False).sum())
        assert flips[0xFF] > 0
        assert flips[0x00] == 0


class TestRetentionMaterialization:
    def test_long_idle_causes_retention_flips(self):
        bank, geometry = make_bank()
        timing = TimingParameters()
        write_row(bank, geometry, 20, 0xFF, cycle=0)
        # Idle for 300 simulated seconds (far beyond weak-cell retention).
        late = int(300.0 * timing.frequency_hz)
        bank.activate(20, late)
        bits = bank.read_open_row_bits(late + 1, ecc_enabled=False)
        assert (bits == 0).sum() > 0, "charged true cells should decay"

    def test_short_idle_is_safe(self):
        bank, geometry = make_bank()
        timing = TimingParameters()
        write_row(bank, geometry, 20, 0xFF, cycle=0)
        soon = int(0.020 * timing.frequency_hz)  # 20 ms < any retention
        bank.activate(20, soon)
        bits = bank.read_open_row_bits(soon + 1, ecc_enabled=False)
        assert np.array_equal(bits, fill_bits(geometry, 0xFF))

    def test_refresh_resets_retention_clock(self):
        bank, geometry = make_bank()
        timing = TimingParameters()
        write_row(bank, geometry, 20, 0xFF, cycle=0)
        half = int(150.0 * timing.frequency_hz)
        bank.refresh_rows(20, 21, half)
        bank.activate(20, 2 * half)
        # 150 s after the refresh: decayed cells are those with
        # retention under 150 s, not 300 s — strictly fewer than without
        # the refresh, but the cheap check: data written at 0 and
        # refreshed at 150 s must equal data aged 150 s from scratch.
        aged = bank.read_open_row_bits(2 * half + 1, ecc_enabled=False)
        fresh_bank, __ = make_bank()
        write_row(fresh_bank, geometry, 20, 0xFF, cycle=0)
        fresh_bank.activate(20, half)
        reference = fresh_bank.read_open_row_bits(half + 1,
                                                  ecc_enabled=False)
        assert np.array_equal(aged, reference)


class TestEccReadPath:
    def test_ecc_masks_single_flip_per_word(self):
        bank, geometry = make_bank()
        victim = 20
        write_row(bank, geometry, victim, 0x00)
        for row in (victim - 1, victim + 1):
            write_row(bank, geometry, row, 0xFF)
        # 20K hammers per side: sparse flips (about one per ECC word),
        # the regime where SEC correction is effective.
        bank.disturbance.record_activation(victim - 1, 20_000)
        bank.disturbance.record_activation(victim + 1, 20_000)
        bank.activate(victim, 1000)
        raw = bank.read_open_row_bits(1001, ecc_enabled=False)
        corrected = bank.read_open_row_bits(1002, ecc_enabled=True)
        assert raw.sum() > 0
        assert corrected.sum() < raw.sum(), \
            "ECC should correct some single-bit-per-word flips"

    def test_ecc_read_does_not_modify_storage(self):
        bank, geometry = make_bank()
        victim = 20
        write_row(bank, geometry, victim, 0x00)
        for row in (victim - 1, victim + 1):
            write_row(bank, geometry, row, 0xFF)
        bank.disturbance.record_activation(victim - 1, 20_000)
        bank.disturbance.record_activation(victim + 1, 20_000)
        bank.activate(victim, 1000)
        raw_before = bank.read_open_row_bits(1001, ecc_enabled=False)
        bank.read_open_row_bits(1002, ecc_enabled=True)
        raw_after = bank.read_open_row_bits(1003, ecc_enabled=False)
        assert np.array_equal(raw_before, raw_after)

    def test_column_read_with_ecc(self):
        bank, geometry = make_bank()
        bank.activate(5, 0)
        payload = bytes(range(geometry.column_bytes))
        bank.write_column(1, payload, 1)
        assert bank.read_column(1, 2, ecc_enabled=True) == payload


class TestMaintenance:
    def test_release_all_rows_returns_to_powerup(self):
        bank, geometry = make_bank()
        write_row(bank, geometry, 7, 0xFF)
        bank.release_all_rows()
        assert not row_is_written(bank, 7)

    def test_trr_refresh_out_of_range_is_noop(self):
        bank, __ = make_bank()
        bank.trr_refresh(-1, 0)
        bank.trr_refresh(10**6, 0)

    def test_mark_restored_resets_disturbance(self):
        bank, __ = make_bank()
        bank.disturbance.record_activation(9, 1000)
        bank.mark_restored(10, 50)
        assert bank.disturbance.get_total(10) == 0.0
