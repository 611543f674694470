"""Tests for repro.core.orientation_re (flip-direction analysis)."""

import pytest

from repro.core.orientation_re import (
    ChannelOrientationProfile,
    OrientationAnalysis,
    render_orientation_table,
)
from repro.dram.address import DramAddress
from repro.errors import AnalysisError, ExperimentError

from tests.dram.dense_truth import dense_row

VICTIM = DramAddress(0, 0, 0, 20)


@pytest.fixture
def analysis(vulnerable_board):
    return OrientationAnalysis(vulnerable_board.host,
                               vulnerable_board.device.mapper,
                               hammer_count=150_000)


class TestFlipDirections:
    def test_no_anomalous_flips(self, analysis):
        """Charge loss only: every flip must point toward discharge."""
        observation = analysis.observe_row(VICTIM)
        assert observation.anomalous_flips == 0
        assert observation.anti_flips + observation.true_flips > 0

    def test_directions_partition_the_cells(self, analysis,
                                            vulnerable_board):
        """The cells flipping under RS0 and RS1 are disjoint populations
        (anti vs true) — their ground truth confirms it."""
        observation = analysis.observe_row(VICTIM)
        device = vulnerable_board.device
        physical = device.mapper.logical_to_physical(VICTIM.row)
        true_cell = dense_row(device._truth, 0, 0, 0, physical).true_cell
        n = device.geometry.row_bits
        anti_cells = int((~true_cell[:n]).sum())
        true_cells = int(true_cell[:n].sum())
        assert observation.anti_flips <= anti_cells
        assert observation.true_flips <= true_cells


class TestChannelProfiles:
    def test_profile_aggregates_rows(self, analysis):
        profile = analysis.profile_channel(0, rows=range(18, 30, 4))
        assert profile.rows_measured == 3
        assert profile.total_flips > 0

    def test_channel_0_prefers_rowstripe0(self, analysis):
        """Die 0's anti cells are calibrated weaker (anti scale 0.89 vs
        true 1.22), the microscopic basis of observation O7."""
        profile = analysis.profile_channel(0, rows=range(18, 58, 4))
        assert profile.anti_fraction > 0.5
        assert profile.preferred_rowstripe == "Rowstripe0"

    def test_bank_edge_rows_skipped(self, analysis):
        profile = analysis.profile_channel(0, rows=[0])
        assert profile.rows_measured in (0, 1)

    def test_profile_channels_covers_all(self, analysis):
        profiles = analysis.profile_channels([0, 1], rows=range(18, 26, 4))
        assert set(profiles) == {0, 1}

    def test_render_table(self, analysis):
        profiles = analysis.profile_channels([0], rows=range(18, 26, 4))
        text = render_orientation_table(profiles)
        assert "anti frac" in text
        assert "Rowstripe" in text


class TestValidation:
    def test_zero_hammer_count_rejected(self, vulnerable_board):
        with pytest.raises(ExperimentError):
            OrientationAnalysis(vulnerable_board.host,
                                vulnerable_board.device.mapper,
                                hammer_count=0)

    def test_empty_profile_fraction_raises(self):
        profile = ChannelOrientationProfile(channel=0, rows_measured=0,
                                            anti_flips=0, true_flips=0,
                                            anomalous_flips=0)
        with pytest.raises(AnalysisError):
            profile.anti_fraction
