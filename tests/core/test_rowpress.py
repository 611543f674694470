"""Tests for repro.core.rowpress (aggressor-on-time sensitivity)."""

import pytest

from repro.bender import isa
from repro.core.hammer import build_hammer_program
from repro.core.rowpress import RowPressExperiment
from repro.dram.address import DramAddress
from repro.errors import ExperimentError

VICTIM = DramAddress(0, 0, 0, 20)


class TestProgramConstruction:
    def test_zero_extra_open_matches_standard_kernel(self):
        program = build_hammer_program(VICTIM, [19, 21], 100, 0)
        (loop,) = program.instructions
        assert len(loop.body) == 4  # ACT/PRE per aggressor, no WAITs

    def test_extra_open_inserts_waits(self):
        program = build_hammer_program(VICTIM, [19, 21], 100, 500)
        (loop,) = program.instructions
        kinds = [type(instruction) for instruction in loop.body]
        assert kinds == [isa.Act, isa.Wait, isa.Pre,
                         isa.Act, isa.Wait, isa.Pre]
        assert loop.body[1].cycles == 500

    def test_validation(self):
        with pytest.raises(ExperimentError):
            build_hammer_program(VICTIM, [], 10, 0)
        with pytest.raises(ExperimentError):
            build_hammer_program(VICTIM, [19], -1, 0)
        with pytest.raises(ExperimentError):
            build_hammer_program(VICTIM, [19], 10, -1)


class TestRowPressEffect:
    @pytest.fixture
    def experiment(self, vulnerable_board):
        return RowPressExperiment(vulnerable_board.host,
                                  vulnerable_board.device.mapper)

    def test_longer_open_time_flips_more(self, experiment):
        """The RowPress effect: same hammer count, more flips when the
        aggressors stay open longer."""
        baseline = experiment.run_point(VICTIM, 20_000, 0)
        pressed = experiment.run_point(VICTIM, 20_000, 2_000)
        assert pressed.flips > baseline.flips

    def test_longer_open_time_takes_longer(self, experiment):
        baseline = experiment.run_point(VICTIM, 5_000, 0)
        pressed = experiment.run_point(VICTIM, 5_000, 2_000)
        assert pressed.duration_s > 5 * baseline.duration_s

    def test_sweep_is_monotone_in_flips(self, experiment):
        points = experiment.sweep(VICTIM, 20_000, [0, 500, 2_000, 8_000])
        flips = [point.flips for point in points]
        assert flips == sorted(flips)
        assert flips[-1] > flips[0]

    def test_first_flip_hammers_drop_with_open_time(self, experiment):
        """RowPress headline: HC_first falls by ~an order of magnitude
        at microsecond-scale aggressor-on times."""
        base_hc = experiment.first_flip_hammers(VICTIM, 0,
                                                max_hammers=128 * 1024)
        pressed_hc = experiment.first_flip_hammers(VICTIM, 4_096,
                                                   max_hammers=128 * 1024)
        assert base_hc is not None and pressed_hc is not None
        assert pressed_hc < base_hc / 4

    def test_point_metadata(self, experiment, vulnerable_board):
        point = experiment.run_point(VICTIM, 1_000, 300)
        ras = vulnerable_board.device.timing.ras_cycles
        assert point.aggressor_on_cycles == ras + 300
        assert point.hammer_count == 1_000
        assert point.flips_per_second >= 0
