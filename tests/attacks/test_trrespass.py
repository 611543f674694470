"""Tests for repro.attacks.trrespass (hidden-TRR bypass)."""

import pytest

from repro.attacks.trrespass import TrrBypassAttack
from repro.dram.address import DramAddress
from repro.dram.trr import TrrConfig
from repro.errors import ExperimentError

from tests.conftest import SMALL_GEOMETRY, vulnerable_profile
from repro.bender.board import BenderBoard
from repro.dram.device import Device

VICTIM = DramAddress(0, 0, 0, 100)


def make_board(trr_config=None, seed=8):
    # The miniature 256-row bank makes the regular refresh pointer 64x
    # more protective than on the real 16K-row bank (a full sweep every
    # 256 REFs instead of every 8192), so thresholds are lowered to keep
    # the attack physics in the same regime as the paper-scale device.
    profile = vulnerable_profile(threshold_floor=4_000.0,
                                 weak_median=3.0e4)
    device = Device(geometry=SMALL_GEOMETRY, profile=profile,
                        seed=seed, trr_config=trr_config)
    device.set_temperature(85.0)
    board = BenderBoard(device)
    board.host.set_ecc_enabled(False)
    return board


class TestTrrBypass:
    def test_naive_attack_is_stopped_by_trr(self):
        board = make_board()
        attack = TrrBypassAttack(board.host, board.device.mapper,
                                 decoy_distance=64)
        outcome = attack.run(VICTIM, hammer_count=120_000, use_decoy=False)
        assert outcome.flips == 0
        assert outcome.refs_issued > 0

    def test_decoy_attack_defeats_trr(self):
        board = make_board()
        attack = TrrBypassAttack(board.host, board.device.mapper,
                                 decoy_distance=64)
        outcome = attack.run(VICTIM, hammer_count=120_000, use_decoy=True)
        assert outcome.flips > 0
        assert outcome.bypassed_trr

    def test_compare_shapes(self):
        board = make_board()
        attack = TrrBypassAttack(board.host, board.device.mapper,
                                 decoy_distance=64)
        outcomes = attack.compare(VICTIM, hammer_count=120_000)
        assert outcomes["naive"].flips == 0
        assert outcomes["decoy"].flips > 0

    def test_without_trr_both_variants_flip(self):
        """Control: on a chip with no hidden TRR, the naive refresh-
        interleaved attack flips too (refresh alone cannot keep up)."""
        board = make_board(trr_config=TrrConfig(enabled=False))
        attack = TrrBypassAttack(board.host, board.device.mapper,
                                 decoy_distance=64)
        outcome = attack.run(VICTIM, hammer_count=120_000, use_decoy=False)
        assert outcome.flips > 0

    def test_decoy_must_be_far(self, vulnerable_board):
        with pytest.raises(ExperimentError):
            TrrBypassAttack(vulnerable_board.host,
                            vulnerable_board.device.mapper,
                            decoy_distance=2)

    def test_decoy_near_bank_end_flips_direction(self):
        """A victim near the top of the bank places its decoy below."""
        board = make_board()
        rows = board.device.geometry.rows
        victim = DramAddress(0, 0, 0, rows - 80)
        attack = TrrBypassAttack(board.host, board.device.mapper,
                                 decoy_distance=64)
        outcome = attack.run(victim, hammer_count=2_000, use_decoy=True)
        assert outcome.refs_issued > 0  # ran without address errors
