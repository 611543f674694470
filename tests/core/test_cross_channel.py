"""Tests for repro.core.cross_channel and the inter-die coupling model."""

import pytest

from repro.core.cross_channel import CrossChannelExperiment
from repro.dram.address import DramAddress
from repro.errors import ExperimentError

from tests.conftest import SMALL_GEOMETRY, vulnerable_profile
from repro.bender.board import BenderBoard
from repro.dram.device import Device

VICTIM = DramAddress(0, 0, 0, 100)


def make_board(coupling=0.0, seed=8):
    profile = vulnerable_profile(cross_channel_coupling=coupling)
    device = Device(geometry=SMALL_GEOMETRY, profile=profile, seed=seed)
    device.set_temperature(85.0)
    board = BenderBoard(device)
    board.host.set_ecc_enabled(False)
    return board


class TestVerticalAdjacency:
    def test_neighbors_step_by_channels_per_die(self):
        board = make_board()
        experiment = CrossChannelExperiment(board.host,
                                            board.device.mapper)
        # Small geometry: 2 channels, channels_per_die=2 -> no stack
        # neighbours for channel 1 upward, channel 0 downward.
        assert experiment.vertical_neighbor_channels(0) == []

    def test_paper_geometry_neighbors(self, paper_board):
        experiment = CrossChannelExperiment(paper_board.host,
                                            paper_board.device.mapper)
        assert experiment.vertical_neighbor_channels(0) == [2]
        assert experiment.vertical_neighbor_channels(3) == [1, 5]
        assert experiment.vertical_neighbor_channels(7) == [5]


class TestCouplingModel:
    def test_direct_disturbance_routed_on_precharge(self):
        board = make_board(coupling=0.1)
        device = board.device
        # The small geometry has one die pair (channels 0,1 on die 0):
        # channels_per_die=2 means no vertical neighbour exists, so use
        # a 4-channel geometry instead.
        from repro.dram.geometry import Geometry
        geometry = Geometry(channels=4, pseudo_channels=1, banks=2,
                                rows=256, columns=4, column_bytes=8,
                                channels_per_die=2)
        device = Device(geometry=geometry,
                            profile=vulnerable_profile(
                                cross_channel_coupling=0.1),
                            seed=8)
        physical = device.mapper.logical_to_physical(100)
        device.activate(0, 0, 0, 100)
        device.precharge(0, 0, 0)
        victim_bank = device.bank(2, 0, 0)
        assert victim_bank.disturbance.get_direct(physical) == \
            pytest.approx(0.1)

    def test_no_coupling_no_routing(self):
        from repro.dram.geometry import Geometry
        geometry = Geometry(channels=4, pseudo_channels=1, banks=2,
                                rows=256, columns=4, column_bytes=8)
        device = Device(geometry=geometry,
                            profile=vulnerable_profile(), seed=8)
        device.activate(0, 0, 0, 100)
        device.precharge(0, 0, 0)
        # With zero coupling the vertical bank must not even be created.
        assert device.channel(2).existing_bank(0, 0) is None

    def test_coupling_validation(self):
        with pytest.raises(Exception):
            vulnerable_profile(cross_channel_coupling=1.5)


class TestDifferentialExperiment:
    @pytest.fixture
    def four_channel_board(self):
        from repro.dram.geometry import Geometry

        def build(coupling):
            geometry = Geometry(channels=4, pseudo_channels=1, banks=2,
                                    rows=256, columns=4, column_bytes=8)
            device = Device(geometry=geometry,
                                profile=vulnerable_profile(
                                    cross_channel_coupling=coupling),
                                seed=8)
            device.set_temperature(85.0)
            board = BenderBoard(device)
            board.host.set_ecc_enabled(False)
            return board

        return build

    def test_no_interference_on_default_chip(self, four_channel_board):
        """Future work 3, answered for the modelled chip: an idle-vs-
        stressed differential shows no cross-channel flips."""
        board = four_channel_board(0.0)
        experiment = CrossChannelExperiment(board.host,
                                            board.device.mapper)
        outcome = experiment.run(VICTIM, activations=400_000)
        assert not outcome.interference_detected
        assert outcome.excess_flips == 0

    def test_detector_catches_hypothetical_coupling(self,
                                                    four_channel_board):
        """The same experiment detects coupling when it exists."""
        board = four_channel_board(0.2)
        experiment = CrossChannelExperiment(board.host,
                                            board.device.mapper)
        outcome = experiment.run(VICTIM, activations=400_000)
        assert outcome.interference_detected
        assert outcome.stressed_flips > outcome.control_flips

    def test_rejects_non_adjacent_aggressor(self, four_channel_board):
        board = four_channel_board(0.0)
        experiment = CrossChannelExperiment(board.host,
                                            board.device.mapper)
        with pytest.raises(ExperimentError):
            experiment.run(VICTIM, aggressor_channel=1)

    def test_rejects_zero_activations(self, four_channel_board):
        board = four_channel_board(0.0)
        experiment = CrossChannelExperiment(board.host,
                                            board.device.mapper)
        with pytest.raises(ExperimentError):
            experiment.run(VICTIM, activations=0)
