"""Declared checks: one verifier pass per shape, and it still bites.

Drivers declare what their program must satisfy (a
:class:`~repro.verify.VerifyContext` built only when the program is)
and the station verifies it once: at cache insert on the production
path, per call on the oracle.  These tests pin three things:

* a program that breaks its declared checks never runs, on either path;
* the effect summary a handle carries is the one the engine's default
  context gives, for every shipped driver shape, although the report
  behind it was made under the driver's declared context;
* the drivers whose checks moved out of per-driver closures (RowPress,
  cross-channel) give the oracle's outcome and device state.
"""

import pytest

from repro.attacks.trrespass import TrrBypassAttack
from repro.bender.board import BenderBoard
from repro.core.ber import BerExperiment
from repro.core.cross_channel import CrossChannelExperiment
from repro.core.hammer import DoubleSidedHammer, build_hammer_program, \
    hammer_checks
from repro.core.patterns import ROWSTRIPE0
from repro.core.rowpress import RowPressExperiment
from repro.dram.address import DramAddress
from repro.dram.device import Device
from repro.dram.geometry import Geometry
from repro.engine.session import EngineSession
from repro.envutil import FASTPATH_VAR
from repro.errors import VerificationError
from repro.verify import HAMMER_COUNT_MISMATCH, VerifyContext, \
    summarize_program
from tests.conftest import make_vulnerable_device, vulnerable_profile
from tests.engine.test_bursts import REFRESH_ON, bypass_board
from tests.property.test_interpreter_equivalence import assert_same_state


@pytest.fixture(autouse=True)
def production_path(monkeypatch):
    """Sessions install the production path even under the oracle job."""
    monkeypatch.delenv(FASTPATH_VAR, raising=False)


def vulnerable_board() -> BenderBoard:
    board = BenderBoard(make_vulnerable_device(seed=5))
    board.device.set_temperature(85.0)
    board.host.set_ecc_enabled(False)
    return board


def coupled_board() -> BenderBoard:
    """Channel 0's stack neighbour is channel 2, and hammering there
    leaks into it (the detector's coupling, tests/core)."""
    geometry = Geometry(channels=4, pseudo_channels=1, banks=2, rows=256,
                        columns=4, column_bytes=8)
    device = Device(geometry=geometry,
                    profile=vulnerable_profile(cross_channel_coupling=0.2),
                    seed=8)
    device.set_temperature(85.0)
    board = BenderBoard(device)
    board.host.set_ecc_enabled(False)
    return board


class NoReadback:
    """The empty readback stream: only device state is compared."""

    duration_cycles = 0
    row_reads = ()


class TestDeclaredChecksBite:
    @pytest.mark.parametrize("fastpath", ["1", "0"])
    def test_wrong_hammer_count_never_runs(self, monkeypatch, fastpath):
        monkeypatch.setenv(FASTPATH_VAR, fastpath)
        host = EngineSession(board=vulnerable_board()).board.host
        assert (host.program_cache is None) == (fastpath == "0")
        victim = DramAddress(0, 0, 0, 20)
        aggressors = [19, 21]
        start = host.device.now
        with pytest.raises(VerificationError) as excinfo:
            host.cached_run(
                ("hammer", 0, 0, 0, 2, 100), tuple(aggressors),
                lambda: build_hammer_program(victim, aggressors, 100),
                lambda: hammer_checks(host, victim, aggressors, 99))
        kinds = {diagnostic.kind for diagnostic in excinfo.value.diagnostics}
        assert kinds == {HAMMER_COUNT_MISMATCH}
        # Labelled from the key and rows, since no closure names it.
        assert "('hammer', 0, 0, 0, 2, 100)" in str(excinfo.value)
        assert "(19, 21)" in str(excinfo.value)
        # Rejected before the first command: the clock never moved.
        assert host.device.now == start
        if host.program_cache is not None:
            assert len(host.program_cache) == 0


    @pytest.mark.parametrize("fastpath", ["1", "0"])
    def test_wrong_hammer_count_never_runs_count_bound(self, monkeypatch,
                                                       fastpath):
        """With the count a binding, a declaration that does not match
        the built program is still refused before the first command,
        at the first compile and at a widening to a larger count."""
        monkeypatch.setenv(FASTPATH_VAR, fastpath)
        host = EngineSession(board=vulnerable_board()).board.host
        victim = DramAddress(0, 0, 0, 20)
        aggressors = [19, 21]

        def run(built, declared):
            host.cached_run(
                ("hammer", 0, 0, 0, 2), tuple(aggressors),
                lambda: build_hammer_program(victim, aggressors, built),
                lambda: hammer_checks(host, victim, aggressors, declared),
                built)

        for built in (100, 200):
            start = host.device.now
            with pytest.raises(VerificationError) as excinfo:
                run(built, built - 1)
            kinds = {diagnostic.kind
                     for diagnostic in excinfo.value.diagnostics}
            assert kinds == {HAMMER_COUNT_MISMATCH}
            assert host.device.now == start
            run(built, built)
        run(150, 150)


def captured_compiles(host):
    """Wrap the station backend's ``compile``; returns the list of
    (key label or None, handle) it fills."""
    backend = host.engine_backend
    compile_ = backend.compile
    handles = []

    def capture(program, checks=None, what="program", count=None):
        handle = compile_(program, checks, what, count)
        handles.append((what if checks is not None else None, handle))
        return handle

    backend.compile = capture
    return handles


def hammer(board):
    DoubleSidedHammer(board.host, board.device.mapper).run(
        DramAddress(0, 0, 0, 20), ROWSTRIPE0, 3_000)


def ber_refresh(board):
    BerExperiment(board.host, board.device.mapper, REFRESH_ON).run_row(
        DramAddress(0, 0, 0, 100), ROWSTRIPE0)


def rowpress(board):
    RowPressExperiment(board.host, board.device.mapper).run_point(
        DramAddress(0, 0, 0, 20), 2_000, 500)


def cross_channel(board):
    CrossChannelExperiment(board.host, board.device.mapper).run(
        DramAddress(0, 0, 0, 100), activations=5_000)


def trr_bypass(use_decoy):
    def drive(board):
        TrrBypassAttack(board.host, board.device.mapper,
                        decoy_distance=64).run(
            DramAddress(0, 0, 0, 100), hammer_count=20_000,
            use_decoy=use_decoy)
    return drive


#: (driver, station, the checked shapes' cache key names).  Every
#: neighbourhood test is one hammer probe (``core/hammer.py``).
SHAPES = {
    "hammer": (hammer, vulnerable_board, ["hammer"]),
    "ber_refresh": (ber_refresh, bypass_board, ["hammer"]),
    "rowpress-wait": (rowpress, vulnerable_board, ["hammer"]),
    "cross-channel": (cross_channel, coupled_board,
                      ["cross_channel", "cross_channel"]),
    "trr-bypass": (trr_bypass(False), bypass_board, ["hammer"]),
    "trr-bypass-decoy": (trr_bypass(True), bypass_board, ["hammer"]),
}


class TestSummariesUnchanged:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_summary_equals_default_context_summary(self, shape):
        drive, build, checked = SHAPES[shape]
        board = EngineSession(board=build()).board
        handles = captured_compiles(board.host)
        drive(board)
        labels = [label for label, _ in handles if label is not None]
        assert [label.split("'")[1] for label in labels] == checked
        default = VerifyContext.for_host(board.host,
                                         allow_retention_decay=True)
        for _, handle in handles:
            outcome = handle.summary or handle.unsummarizable
            assert outcome == summarize_program(handle.template, default)
        if shape == "cross-channel":
            # The stressed and idle arms: a hammer op and a throttled wait.
            paced = {handle.summary.pacing for label, handle in handles
                     if label is not None}
            assert paced == {"jedec", "throttled"}
        if shape == "rowpress-wait":
            (pressed,) = [handle for label, handle in handles
                          if label is not None]
            assert pressed.summary.pacing == "throttled"


class TestMovedChecksMatchOracle:
    """Production and oracle agree on the drivers whose checks moved."""

    @staticmethod
    def run_both(build, drive):
        production = EngineSession(board=build()).board
        oracle = build()
        assert production.host.program_cache is not None
        assert oracle.host.program_cache is None
        fast = drive(production)
        slow = drive(oracle)
        assert fast == slow
        assert_same_state(NoReadback(), production.device, NoReadback(),
                          oracle.device, exact_accumulators=True)
        return fast

    def test_rowpress_run_point(self):
        def drive(board):
            experiment = RowPressExperiment(board.host, board.device.mapper)
            victim = DramAddress(0, 0, 0, 20)
            return [experiment.run_point(victim, 20_000, extra)
                    for extra in (0, 2_000)]

        baseline, pressed = self.run_both(vulnerable_board, drive)
        assert pressed.flips > baseline.flips

    def test_cross_channel_run(self):
        def drive(board):
            return CrossChannelExperiment(
                board.host, board.device.mapper).run(
                DramAddress(0, 0, 0, 100), activations=400_000)

        outcome = self.run_both(coupled_board, drive)
        assert outcome.interference_detected
