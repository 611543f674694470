"""Tests for repro.dram.timing."""

import pytest

from repro.dram.timing import BankTimingState, TimingChecker, TimingParameters
from repro.errors import ConfigurationError, TimingViolationError


def hammer_duration_cycles(timing, hammer_count):
    """Cycles of ``hammer_count`` double-sided hammers: one ACT/PRE
    cycle on each of the two aggressors per hammer, 2 x tRC."""
    return 2 * hammer_count * timing.rc_cycles


def bank_is_open(checker, key):
    return checker._bank(key).is_open


class TestTimingParameters:
    def test_paper_clock_is_600mhz(self):
        timing = TimingParameters()
        assert timing.frequency_hz == 600e6
        assert timing.clock_period_ns == pytest.approx(1.6667, rel=1e-3)

    def test_trc_is_tras_plus_trp(self):
        timing = TimingParameters()
        assert timing.rc_cycles == timing.ras_cycles + timing.rp_cycles

    def test_cycles_round_up(self):
        timing = TimingParameters()
        # 33 ns at 600 MHz = 19.8 cycles -> 20.
        assert timing.ras_cycles == 20

    def test_256k_hammers_fit_27ms_budget(self):
        """The paper's §3.1 claim: BER experiments finish within 27 ms."""
        timing = TimingParameters()
        duration = timing.seconds(
            hammer_duration_cycles(timing, 256 * 1024))
        assert duration < 27e-3
        # And they are not trivially short either — refresh-disabled
        # hammering really does use most of the window.
        assert duration > 20e-3

    def test_refi_count_per_window(self):
        timing = TimingParameters()
        assert round(timing.t_refw / timing.t_refi) == pytest.approx(
            8205, abs=10)

    def test_zero_frequency_rejected(self):
        with pytest.raises(ConfigurationError):
            TimingParameters(frequency_hz=0)

    def test_negative_timing_rejected(self):
        with pytest.raises(ConfigurationError):
            TimingParameters(t_ras=-1)

    def test_seconds_of_cycles(self):
        timing = TimingParameters()
        assert timing.seconds(600_000_000) == pytest.approx(1.0)


class TestTimingChecker:
    @pytest.fixture
    def checker(self):
        return TimingChecker(TimingParameters())

    BANK = (0, 0, 0)
    OTHER_BANK = (0, 0, 1)

    def test_first_activate_is_immediate(self, checker):
        assert checker.earliest_activate(self.BANK, now=5) == 5

    def test_act_to_act_same_bank_waits_trc(self, checker):
        timing = TimingParameters()
        checker.record_activate(self.BANK, 0)
        assert checker.earliest_activate(self.BANK, 1) == timing.rc_cycles

    def test_act_to_act_other_bank_waits_trrd(self, checker):
        timing = TimingParameters()
        checker.record_activate(self.BANK, 0)
        assert checker.earliest_activate(self.OTHER_BANK, 1) == \
            timing.rrd_cycles

    def test_act_to_pre_waits_tras(self, checker):
        timing = TimingParameters()
        checker.record_activate(self.BANK, 0)
        assert checker.earliest_precharge(self.BANK, 1) == timing.ras_cycles

    def test_act_to_read_waits_trcd(self, checker):
        timing = TimingParameters()
        checker.record_activate(self.BANK, 0)
        assert checker.earliest_rdwr(self.BANK, 1) == timing.rcd_cycles

    def test_early_activate_raises(self, checker):
        checker.record_activate(self.BANK, 0)
        with pytest.raises(TimingViolationError):
            checker.record_activate(self.BANK, 1)

    def test_early_precharge_raises(self, checker):
        checker.record_activate(self.BANK, 0)
        with pytest.raises(TimingViolationError):
            checker.record_precharge(self.BANK, 1)

    def test_write_recovery_extends_precharge(self, checker):
        timing = TimingParameters()
        checker.record_activate(self.BANK, 0)
        # A late write pushes the earliest precharge past tRAS by tWR.
        write_cycle = timing.ras_cycles
        checker.record_rdwr(self.BANK, write_cycle, is_write=True)
        assert checker.earliest_precharge(self.BANK, write_cycle) == \
            write_cycle + timing.wr_cycles

    def test_refresh_blocks_pseudo_channel(self, checker):
        timing = TimingParameters()
        checker.record_refresh((0, 0), 0)
        assert checker.earliest_activate(self.BANK, 1) == timing.rfc_cycles

    def test_refresh_does_not_block_other_pseudo_channel(self, checker):
        checker.record_refresh((0, 0), 0)
        assert checker.earliest_activate((0, 1, 0), 1) == 1

    def test_bank_open_state_tracks_act_pre(self, checker):
        timing = TimingParameters()
        assert not bank_is_open(checker, self.BANK)
        checker.record_activate(self.BANK, 0)
        assert bank_is_open(checker, self.BANK)
        checker.record_precharge(self.BANK, timing.ras_cycles)
        assert not bank_is_open(checker, self.BANK)

    def test_steady_state_hammer_period_is_trc(self, checker):
        """Back-to-back ACT/PRE on one bank settles at one ACT per tRC."""
        timing = TimingParameters()
        act_cycles = []
        now = 0
        for _ in range(4):
            act = checker.earliest_activate(self.BANK, now)
            checker.record_activate(self.BANK, act)
            pre = checker.earliest_precharge(self.BANK, act + 1)
            checker.record_precharge(self.BANK, pre)
            act_cycles.append(act)
            now = pre + 1
        deltas = [second - first
                  for first, second in zip(act_cycles, act_cycles[1:])]
        assert deltas == [timing.rc_cycles] * 3


class TestBankTimingState:
    def test_initial_state(self):
        state = BankTimingState()
        assert not state.is_open
        assert state.next_act == 0
