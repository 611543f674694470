"""Tests for repro.bender.host and repro.bender.board."""

import numpy as np
import pytest

from repro.bender.board import BenderBoard, make_paper_setup
from repro.dram.address import DramAddress
from repro.errors import ProgramError

from tests.conftest import make_vulnerable_device
from tests.dram.dense_truth import dense_row


@pytest.fixture
def board():
    device = make_vulnerable_device(seed=6)
    device.set_temperature(85.0)
    board = BenderBoard(device)
    board.host.set_ecc_enabled(False)
    return board


class TestRowHelpers:
    def test_write_read_roundtrip(self, board):
        address = DramAddress(0, 0, 0, 12)
        payload = bytes(range(board.device.geometry.row_bytes % 256)) or \
            b"\x5a" * board.device.geometry.row_bytes
        payload = (b"\x5a" * board.device.geometry.row_bytes)
        board.host.write_row(address, payload)
        assert np.packbits(board.host.read_row(address)).tobytes() == payload

    def test_read_row_returns_bits(self, board):
        address = DramAddress(0, 0, 0, 12)
        board.host.write_row(address,
                             b"\xff" * board.device.geometry.row_bytes)
        bits = board.host.read_row(address)
        assert bits.sum() == board.device.geometry.row_bits

    def test_wrong_row_size_rejected(self, board):
        with pytest.raises(ProgramError):
            board.host.write_row(DramAddress(0, 0, 0, 12), b"\x00")

    def test_activate_precharge_counts_commands(self, board):
        board.host.activate_precharge(DramAddress(0, 0, 0, 3), count=5)
        assert board.device.command_counts["ACT"] == 5

    def test_refresh_helper(self, board):
        board.host.refresh(0, 0, count=3)
        assert board.device.command_counts["REF"] == 3

    def test_wait_seconds_advances_clock(self, board):
        board.host.wait_seconds(0.001)
        assert board.device.timing.seconds(board.device.now) >= 0.001

    def test_elapsed_seconds_since(self, board):
        start = board.device.now
        board.host.wait_seconds(0.002)
        elapsed = board.device.timing.seconds(board.device.now - start)
        assert elapsed == pytest.approx(0.002, rel=1e-3)


class TestEccControl:
    def test_set_ecc_toggles_every_channel(self, board):
        board.host.set_ecc_enabled(True)
        for channel in range(board.device.geometry.channels):
            assert board.device.mode_registers(channel).ecc_enabled
        board.host.set_ecc_enabled(False)
        for channel in range(board.device.geometry.channels):
            assert not board.device.mode_registers(channel).ecc_enabled


class TestBoard:
    def test_thermal_loop_drives_device_temperature(self, board):
        board.set_target_temperature(60.0)
        assert board.device.temperature_c == pytest.approx(60.0, abs=0.5)
        assert board.temperature_c == board.device.temperature_c

    def test_paper_setup_defaults(self):
        paper = make_paper_setup(seed=0, settle_thermals=False)
        assert paper.device.geometry.channels == 8
        assert paper.device.geometry.rows == 16384
        assert paper.device.temperature_c == 85.0

    def test_paper_setup_settles_to_85c(self):
        paper = make_paper_setup(seed=0)
        assert paper.device.temperature_c == pytest.approx(85.0, abs=0.5)

    def test_different_seeds_are_different_chips(self):
        chip_a = make_paper_setup(seed=1, settle_thermals=False)
        chip_b = make_paper_setup(seed=2, settle_thermals=False)
        truth_a = dense_row(chip_a.device._truth, 0, 0, 0, 0)
        truth_b = dense_row(chip_b.device._truth, 0, 0, 0, 0)
        assert not np.array_equal(truth_a.thresholds, truth_b.thresholds)
