"""Tests for the HBM2 standard's documented TRR mode (§2 footnote 1).

Distinct from the hidden mechanism of §5: in the documented mode the
memory controller *tells* the chip which row it considers an aggressor,
and every subsequent REF preventively refreshes that row's neighbours.
"""

import pytest

from repro.dram.modereg import ModeRegisters
from repro.dram.trr import TrrConfig
from repro.errors import ConfigurationError

from tests.conftest import make_vulnerable_device


class TestModeRegisterEncoding:
    def test_target_roundtrip(self):
        registers = ModeRegisters()
        registers.set_documented_trr_target(bank=5, row=0x1234)
        assert registers.documented_trr_target == (5, 0x1234)

    def test_target_preserves_mode_bit(self):
        registers = ModeRegisters()
        registers.set_documented_trr_mode(True)
        registers.set_documented_trr_target(bank=3, row=100)
        assert registers.documented_trr_mode

    def test_bank_field_bounds(self):
        registers = ModeRegisters()
        with pytest.raises(ConfigurationError):
            registers.set_documented_trr_target(bank=16, row=0)

    def test_row_field_bounds(self):
        registers = ModeRegisters()
        with pytest.raises(ConfigurationError):
            registers.set_documented_trr_target(bank=0, row=0x10000)


class TestDocumentedTrrBehaviour:
    def make_device(self):
        # Disable the hidden TRR so the documented mode is isolated.
        device = make_vulnerable_device(
            seed=9, trr_config=TrrConfig(enabled=False))
        device.set_ecc_enabled(False)
        return device

    def test_ref_refreshes_flagged_neighbours(self):
        device = self.make_device()
        aggressor_logical = 100
        physical = device.mapper.logical_to_physical(aggressor_logical)
        bank = device.bank(0, 0, 0)
        bank.disturbance.add(physical - 1, 0, 500.0)
        bank.disturbance.add(physical + 1, 0, 500.0)

        registers = device.mode_registers(0)
        registers.set_documented_trr_mode(True)
        registers.set_documented_trr_target(bank=0, row=aggressor_logical)
        device.refresh(0, 0)
        assert bank.disturbance.get_total(physical - 1) == 0.0
        assert bank.disturbance.get_total(physical + 1) == 0.0

    def test_mode_off_means_no_preventive_refresh(self):
        device = self.make_device()
        physical = device.mapper.logical_to_physical(100)
        bank = device.bank(0, 0, 0)
        bank.disturbance.add(physical - 1, 0, 500.0)
        registers = device.mode_registers(0)
        registers.set_documented_trr_target(bank=0, row=100)  # mode off
        device.refresh(0, 0)
        assert bank.disturbance.get_total(physical - 1) == 500.0

    def test_only_the_flagged_bank_is_refreshed(self):
        device = self.make_device()
        physical = device.mapper.logical_to_physical(100)
        flagged = device.bank(0, 0, 0)
        other = device.bank(0, 0, 1)
        flagged.disturbance.add(physical - 1, 0, 500.0)
        other.disturbance.add(physical - 1, 0, 500.0)
        registers = device.mode_registers(0)
        registers.set_documented_trr_mode(True)
        registers.set_documented_trr_target(bank=0, row=100)
        device.refresh(0, 0)
        assert flagged.disturbance.get_total(physical - 1) == 0.0
        assert other.disturbance.get_total(physical - 1) == 500.0

    def test_documented_mode_protects_against_hammering(self):
        """End-to-end: flagging the aggressor and refreshing at tREFI
        cadence prevents the flips an unprotected run shows."""
        from repro.bender.board import BenderBoard
        from repro.bender.program import ProgramBuilder
        from repro.dram.address import DramAddress
        from repro.dram.device import Device
        from tests.conftest import SMALL_GEOMETRY, vulnerable_profile

        flips = {}
        for protect in (False, True):
            # The miniature bank's refresh pointer alone is 64x more
            # protective than on the 16K-row bank; lower thresholds to
            # keep the attack physics in the paper-scale regime (as in
            # the TRR-bypass tests).
            device = Device(
                geometry=SMALL_GEOMETRY,
                profile=vulnerable_profile(threshold_floor=4_000.0,
                                           weak_median=3.0e4),
                seed=9, trr_config=TrrConfig(enabled=False))
            device.set_temperature(85.0)
            board = BenderBoard(device)
            board.host.set_ecc_enabled(False)
            victim_logical = device.mapper.physical_to_logical(100)
            victim = DramAddress(0, 0, 0, victim_logical)
            aggressors = [device.mapper.physical_to_logical(row)
                          for row in (99, 101)]
            board.host.write_row(victim,
                                 b"\x00" * device.geometry.row_bytes)
            for row in aggressors:  # Rowstripe0 fill: max coupling
                board.host.write_row(victim.with_row(row),
                                     b"\xff" * device.geometry.row_bytes)
            if protect:
                registers = device.mode_registers(0)
                registers.set_documented_trr_mode(True)
                # Flag one aggressor; its neighbours include the victim.
                registers.set_documented_trr_target(
                    bank=0, row=aggressors[0])
            builder = ProgramBuilder()
            with builder.loop(2000):
                with builder.loop(40):
                    for row in aggressors:
                        builder.act(0, 0, 0, row)
                        builder.pre(0, 0, 0)
                builder.ref(0, 0)
            board.host.run(builder.build())
            bits = board.host.read_row(victim)
            flips[protect] = int(bits.sum())
        assert flips[False] > 0
        assert flips[True] == 0
