"""Tests for the extended pattern set (§6 future work 2.3)."""

import pytest

from repro.core.ber import BerExperiment
from repro.core.experiment import ExperimentConfig
from repro.core.patterns import (
    COLSTRIPE0,
    EXTENDED_PATTERNS,
    ROWSTRIPE0,
    SOLID0,
    SOLID1,
    STANDARD_PATTERNS,
    pattern_by_name,
)
from repro.dram.address import DramAddress

VICTIM = DramAddress(0, 0, 0, 20)


class TestPatternDefinitions:
    def test_extended_set_extends_table1(self):
        assert EXTENDED_PATTERNS[:4] == STANDARD_PATTERNS
        assert len(EXTENDED_PATTERNS) == 8

    def test_solid_aggressors_match_victim(self):
        assert SOLID0.aggressor_byte == SOLID0.victim_byte
        assert SOLID1.aggressor_byte == SOLID1.victim_byte

    def test_extended_patterns_resolvable_by_name(self):
        for pattern in EXTENDED_PATTERNS:
            assert pattern_by_name(pattern.name) is pattern


class TestControlGroupBehaviour:
    """The extended patterns exist to expose data-dependence: solid and
    colstripe patterns (aggressor == victim) must induce far fewer flips
    than the rowstripe patterns — the charge-coupling control group."""

    @pytest.fixture
    def experiment(self, vulnerable_board):
        return BerExperiment(vulnerable_board.host,
                             vulnerable_board.device.mapper,
                             ExperimentConfig(ber_hammer_count=150_000))

    def test_solid_patterns_barely_flip(self, experiment):
        rowstripe = experiment.run_row(VICTIM, ROWSTRIPE0)
        solid0 = experiment.run_row(VICTIM, SOLID0)
        solid1 = experiment.run_row(VICTIM, SOLID1)
        assert rowstripe.flips > 0
        assert solid0.flips + solid1.flips < rowstripe.flips / 4

    def test_colstripe_weaker_than_rowstripe(self, experiment):
        rowstripe = experiment.run_row(VICTIM, ROWSTRIPE0)
        colstripe = experiment.run_row(VICTIM, COLSTRIPE0)
        assert colstripe.flips < rowstripe.flips
