"""Tests for the analytic effect-summary fast path (FastPathBackend).

The contract under test: for every summarized program, applying the
effect summary is *state-identical* to the oracle (a station without
engine services, interpreting every program) — same flips, same clock,
same command counts — and every program the shipped drivers emit is
summarized (fallbacks are the exception path, counted and tested,
never the campaign path).
"""

import gc
import weakref

import numpy as np
import pytest

from repro.bender.board import BenderBoard, make_paper_setup
from repro.bender.host import HostInterface
from repro.bender.program import Program, ProgramBuilder
from repro.bender.transport import PcieTransport
from repro.core.hammer import DoubleSidedHammer
from repro.core.patterns import CHECKERED0, ROWSTRIPE0
from repro.core.sweeps import SpatialSweep, SweepConfig
from repro.dram.address import DramAddress
from repro.dram.ecc import encode_words
from repro.engine.backend import FastPathBackend
from repro.engine.cache import ProgramCache
from repro.engine.session import EngineSession
from repro.envutil import FASTPATH_VAR
from repro.errors import EngineError
from repro.faults.plan import FaultSpec
from repro.obs import MetricsRegistry, use_metrics
from tests.conftest import make_vulnerable_device

VICTIMS = (20, 40, 60)
PATTERNS = (ROWSTRIPE0, CHECKERED0)
HAMMERS = 100_000


@pytest.fixture(autouse=True)
def production_path(monkeypatch):
    """Sessions install the production path even under the oracle job."""
    monkeypatch.delenv(FASTPATH_VAR, raising=False)


def make_station(fastpath: bool, seed: int = 5) -> BenderBoard:
    """The production station, or (``fastpath=False``) the oracle: the
    same bare board with no engine services installed."""
    board = BenderBoard(make_vulnerable_device(seed=seed))
    board.device.set_temperature(85.0)
    board.host.set_ecc_enabled(False)
    return EngineSession(board=board).board if fastpath else board


def mini_campaign(board: BenderBoard):
    """A miniature Fig. 3 slice: fill, hammer, read, per victim/pattern.

    Deliberately covers every fast-path machinery layer: each test is
    one program whose neighbourhood fill and warm-up iterations, then
    trailing iteration and read-back, replay as memoized device
    streams around the bulk split, pattern fills store the shared
    lowered payloads, and flipped victims exercise the shared-row
    copy-on-write.
    """
    hammer = DoubleSidedHammer(board.host, board.device.mapper)
    flips = []
    for row in VICTIMS:
        for pattern in PATTERNS:
            outcome = hammer.run(DramAddress(0, 0, 0, row), pattern,
                                 HAMMERS)
            flips.append(outcome.flips)
    return flips


class TestInterpreterEquivalence:
    def test_campaign_state_identical(self):
        fast_board = make_station(fastpath=True)
        slow_board = make_station(fastpath=False)
        fast_metrics = MetricsRegistry()
        slow_metrics = MetricsRegistry()
        with use_metrics(fast_metrics):
            fast_flips = mini_campaign(fast_board)
        with use_metrics(slow_metrics):
            slow_flips = mini_campaign(slow_board)

        assert fast_flips == slow_flips
        assert any(count > 0 for count in fast_flips)
        assert fast_board.device.now == slow_board.device.now
        assert (fast_board.device.command_counts ==
                slow_board.device.command_counts)

        fast_counters = fast_metrics.snapshot()["counters"]
        slow_counters = slow_metrics.snapshot()["counters"]
        assert fast_counters["engine.fastpath.hits"] > 0
        assert fast_counters.get("engine.fastpath.fallbacks", 0) == 0
        assert "engine.fastpath.hits" not in slow_counters
        # The fast path reports each application as one program run.
        assert (fast_counters["bender.programs"] ==
                slow_counters["bender.programs"])

    def test_row_contents_identical_after_campaign(self):
        fast_board = make_station(fastpath=True)
        slow_board = make_station(fastpath=False)
        mini_campaign(fast_board)
        mini_campaign(slow_board)
        for row in VICTIMS:
            address = DramAddress(0, 0, 0, row)
            np.testing.assert_array_equal(
                fast_board.host.read_row(address),
                slow_board.host.read_row(address))

    def test_lowered_payloads_stay_read_only_and_pristine(self):
        """Rows written by the fast path adopt the lowered payload
        arrays, so flips sensed into those rows must not reach them."""
        board = make_station(fastpath=True)
        assert any(count > 0 for count in mini_campaign(board))
        lowered = board.host.interpreter.payload_cache
        assert lowered
        for data, (bits, parity) in lowered.items():
            assert not bits.flags.writeable
            assert not parity.flags.writeable
            fresh = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
            np.testing.assert_array_equal(bits, fresh)
            np.testing.assert_array_equal(parity, encode_words(fresh))


class TestDispatchTriage:
    def _summarizable(self, board) -> Program:
        builder = ProgramBuilder()
        with builder.loop(500):
            builder.act(0, 0, 0, 30)
            builder.pre(0, 0, 0)
        return builder.build()

    def _unsummarizable(self, board) -> Program:
        # A single-column write: data effects the analysis cannot prove.
        builder = ProgramBuilder()
        builder.act(0, 0, 0, 30)
        builder.wr(0, 0, 0, 0,
                   b"\x00" * board.device.geometry.column_bytes)
        builder.pre(0, 0, 0)
        return builder.build()

    def test_unsummarizable_falls_back_and_counts(self):
        board = make_station(fastpath=True)
        backend = board.host.engine_backend
        assert isinstance(backend, FastPathBackend)
        handle = backend.compile(self._unsummarizable(board))
        assert handle.summary is None
        assert handle.unsummarizable is not None
        registry = MetricsRegistry()
        with use_metrics(registry):
            backend.execute(handle, (30,))
        counters = registry.snapshot()["counters"]
        assert counters["engine.fastpath.fallbacks"] == 1
        assert counters.get("engine.fastpath.hits", 0) == 0

    def test_transport_bypasses_fast_path(self):
        # Fault injection must see every program: with a transport
        # installed the fast path steps aside, interpreted execution
        # remains the observed behaviour.
        board = make_station(fastpath=True)
        backend = board.host.engine_backend
        board.host.set_transport(PcieTransport(board.device))
        handle = backend.compile(self._summarizable(board))
        assert handle.summary is not None
        registry = MetricsRegistry()
        with use_metrics(registry):
            backend.execute(handle, (30,))
        counters = registry.snapshot()["counters"]
        assert counters["engine.fastpath.bypasses"] == 1
        assert counters.get("engine.fastpath.hits", 0) == 0

    def test_hits_counted_on_summarized_execution(self):
        board = make_station(fastpath=True)
        backend = board.host.engine_backend
        handle = backend.compile(self._summarizable(board))
        registry = MetricsRegistry()
        with use_metrics(registry):
            backend.execute(handle, (30,))
            backend.execute(handle, (50,))
        counters = registry.snapshot()["counters"]
        assert counters["engine.fastpath.hits"] == 2

    def test_backend_over_a_dropped_host_raises(self):
        # The backend holds its host weakly: a host built inline and
        # dropped surfaces as a descriptive error on first use.
        board = make_station(fastpath=False)
        cache = ProgramCache(FastPathBackend(HostInterface(board.device)))
        with pytest.raises(EngineError, match="HostInterface is gone"):
            cache.execute(("dropped",), (30,),
                          lambda: self._summarizable(board))

    def test_dropped_station_is_freed_without_the_cycle_collector(self):
        # Host and backend form no reference cycle, so a station is
        # reclaimed as soon as its last reference goes.
        board = make_station(fastpath=True)
        self._summarizable(board)
        board.host.program_cache.execute(
            ("freed",), (30,), lambda: self._summarizable(board))
        device = weakref.ref(board.device)
        gc.disable()
        try:
            del board
            assert device() is None
        finally:
            gc.enable()


class TestEnvironmentGating:
    def test_default_is_fastpath(self):
        session = EngineSession(
            board=BenderBoard(make_vulnerable_device(seed=5)))
        host = session.board.host
        assert isinstance(host.engine_backend, FastPathBackend)
        assert isinstance(host.program_cache, ProgramCache)

    def test_fastpath_env_off_installs_no_engine(self, monkeypatch):
        # The oracle: no backend, no program cache — every program is
        # built, verified and interpreted per call.
        monkeypatch.setenv(FASTPATH_VAR, "0")
        board = BenderBoard(make_vulnerable_device(seed=5))
        host = EngineSession(board=board).board.host
        assert host.engine_backend is None
        assert host.program_cache is None
        registry = MetricsRegistry()
        with use_metrics(registry):
            hammer = DoubleSidedHammer(host, board.device.mapper)
            outcome = hammer.run(DramAddress(0, 0, 0, 20), ROWSTRIPE0,
                                 1000)
        assert outcome.hammer_count == 1000
        counters = registry.snapshot()["counters"]
        assert counters["bender.programs"] > 0
        assert all(not name.startswith("engine.") for name in counters)


class TestScheduleMemo:
    """The device memoizes schedules by row-free stream shape."""

    @staticmethod
    def memo_entries(rows_per_region: int) -> int:
        """Schedules memoized by one device over the hbm2 reference-style
        BER sweep of one channel."""
        board = make_paper_setup(seed=2023)
        config = SweepConfig(channels=(0,), rows_per_region=rows_per_region,
                             include_hcfirst=False, faults=FaultSpec())
        SpatialSweep(board, config).run()
        return len(board.device._schedules)

    def test_memo_does_not_grow_with_rows(self):
        # Four times the rows, the same stream shapes.
        entries = self.memo_entries(2)
        assert entries > 0
        assert self.memo_entries(8) == entries
