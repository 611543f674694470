"""Integration: a characterization campaign through the PCIe transport.

Everything the methodology does must survive the serialized wire format
unchanged — results bit-identical to direct execution, with the link
statistics reflecting the campaign's real I/O profile.
"""

from repro.bender import isa
from repro.bender.board import BenderBoard
from repro.bender.host import HostInterface
from repro.bender.transport import PcieTransport
from repro.core.experiment import ExperimentConfig
from repro.core.patterns import ROWSTRIPE0, ROWSTRIPE1
from repro.core.sweeps import SpatialSweep, SweepConfig
from repro.core.utrr import UTrrExperiment
from repro.dram.address import DramAddress
from repro.errors import TransportFault
from repro.faults.inject import build_link
from repro.faults.plan import FaultSpec

from tests.conftest import make_vulnerable_device


def make_wired_board(seed=6):
    device = make_vulnerable_device(seed=seed)
    device.set_temperature(85.0)
    board = BenderBoard(device)
    transport = PcieTransport(device)
    board.host = HostInterface(device, transport=transport)
    board.host.set_ecc_enabled(False)
    return board, transport


def make_direct_board(seed=6):
    device = make_vulnerable_device(seed=seed)
    device.set_temperature(85.0)
    board = BenderBoard(device)
    board.host.set_ecc_enabled(False)
    return board


def small_config():
    return SweepConfig(
        channels=(0,), region_size=64, rows_per_region=3,
        hcfirst_rows_per_region=1,
        patterns=(ROWSTRIPE0, ROWSTRIPE1),
        experiment=ExperimentConfig(ber_hammer_count=80_000,
                                    hcfirst_max_hammers=128 * 1024))


class TestTransportCampaign:
    def test_sweep_results_identical_through_the_wire(self):
        wired_board, __ = make_wired_board()
        direct_board = make_direct_board()
        wired = SpatialSweep(wired_board, small_config()).run()
        direct = SpatialSweep(direct_board, small_config()).run()
        assert [(r.row_key, r.pattern, r.flips)
                for r in wired.ber_records] == \
               [(r.row_key, r.pattern, r.flips)
                for r in direct.ber_records]
        assert [(r.row_key, r.pattern, r.hc_first)
                for r in wired.hcfirst_records] == \
               [(r.row_key, r.pattern, r.hc_first)
                for r in direct.hcfirst_records]

    def test_link_faults_retry_whole_probes(self, monkeypatch):
        """Each hammer test is one program, so a dropped or corrupted
        upload resends the whole probe — fill, hammer and readback —
        which is safe because nothing of it ran; the campaign's results
        stay those of the direct board."""
        device = make_vulnerable_device(seed=6)
        device.set_temperature(85.0)
        board = BenderBoard(device)
        link = build_link(device, FaultSpec(seed=11, link_drop=0.05,
                                            link_corrupt=0.05,
                                            link_poison=0.05))
        faulty = link.transport
        resent = []
        send = faulty.run

        def spy(program):
            try:
                return send(program)
            except TransportFault:
                resent.append(program)
                raise

        monkeypatch.setattr(faulty, "run", spy)
        board.host = HostInterface(device, transport=link)
        board.host.set_ecc_enabled(False)
        wired = SpatialSweep(board, small_config()).run()
        direct = SpatialSweep(make_direct_board(), small_config()).run()
        assert wired.fingerprint() == direct.fingerprint()
        assert faulty.injected["poison"] > 0

        def whole_probe(program):
            kinds = {type(instruction)
                     for instruction in program.instructions}
            return {isa.WrRow, isa.Loop, isa.RdRow} <= kinds

        assert sum(map(whole_probe, resent)) >= 3

    def test_link_statistics_reflect_the_campaign(self):
        wired_board, transport = make_wired_board()
        SpatialSweep(wired_board, small_config()).run()
        stats = transport.statistics
        assert stats.programs_sent > 100  # writes, hammers, reads
        assert stats.bytes_down > 0
        assert stats.transfer_time_s > 0

    def test_utrr_works_through_the_wire(self):
        wired_board, __ = make_wired_board()
        experiment = UTrrExperiment(wired_board.host,
                                    wired_board.device.mapper)
        result = experiment.run(DramAddress(0, 0, 0, 100), iterations=60)
        assert result.inferred_period == 17
