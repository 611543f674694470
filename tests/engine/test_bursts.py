"""REF-bounded bursts in closed form: exact, and stepped only at events.

The production path applies a burst op's steady bursts in closed-form
windows and steps only the bursts that hold an event (a TRR fire, a
REF range holding a live row) plus the warm-up that measures the
steady burst.  Once a fire has been stepped, the fires that follow
join the closed form too, as whole fire cycles, while the TRR sampler
vouches for their picks and their victim restores stay below the flip
guards.  These tests run the shipped refresh-on drivers — a
paper-count BER record (ablation A2) on the paper setup of every
device family, and the TRRespass bypass with and without decoys — on
the production station and on the oracle (no engine services, every
program interpreted).  The results and the full device state must be
identical, every oracle fire must be either stepped or applied in a
fire cycle, and the REFs the production path steps must be bounded by
the events the oracle counts.  Everything asserted is a count, never
a time.
"""

import pytest

from repro.attacks.trrespass import TrrBypassAttack
from repro.bender.board import BenderBoard, BoardSpec, make_paper_setup
from repro.bender.host import HostInterface
from repro.bender.program import Program, ProgramBuilder
from repro.core.ber import BerExperiment
from repro.core.experiment import ExperimentConfig, InterferenceControls
from repro.core.patterns import ROWSTRIPE0
from repro.dram.address import DramAddress
from repro.dram.device import Device
from repro.dram.geometry import Geometry
from repro.dram.trr import CounterSampler, TrrConfig
from repro.engine.backend import FastPathBackend
from repro.engine.cache import ProgramCache, canonicalize
from repro.engine.session import EngineSession
from repro.envutil import FASTPATH_VAR
from repro.obs import MetricsRegistry, use_metrics
from tests.conftest import SMALL_GEOMETRY, vulnerable_profile
from tests.property.test_interpreter_equivalence import (
    MAPPER,
    RUNS,
    assert_same_state,
    double_sided,
    make_device,
    run_interpreted,
)

REFRESH_ON = ExperimentConfig(controls=InterferenceControls(
    issue_periodic_refresh=True, time_budget_s=1.0))
#: The stepped causes that are a fire: the plain event, and a fire
#: whose cycle was refused because the sampler's picks show no short
#: period or a victim restore is not provably below the flip guards.
FIRE_CAUSES = {"trr-fire", "fire-picks", "fire-guard"}
#: The burst ops' stepped causes the shipped drivers may meet.
EVENT_CAUSES = {"warmup", "refresh-hit"} | FIRE_CAUSES


@pytest.fixture(autouse=True)
def production_path(monkeypatch):
    """Sessions install the production path even under the oracle job."""
    monkeypatch.delenv(FASTPATH_VAR, raising=False)


def stations(build):
    """(production, oracle) stations over two identical fresh boards."""
    return EngineSession(board=build()).board, build()


def count_refs(device):
    """Wrap ``device.refresh`` to count REFs, and among them the ones
    that fire TRR and the ones whose range holds a live row; and count
    the bulk-applied hammer loops."""
    counts = {"refs": 0, "fires": 0, "hits": 0, "loops": 0}
    refresh = device.refresh
    bulk_activations = device.bulk_activations

    def counted_loop(*args):
        counts["loops"] += 1
        return bulk_activations(*args)

    def counted(channel, pseudo_channel):
        state = device.channel(channel).pseudo_channels[pseudo_channel]
        start = state.refresh_pointer
        end = min(start + state.rows_per_ref, device.geometry.rows)
        live = set()
        for bank in device.channel(channel).touched_banks(pseudo_channel):
            live |= bank.live_rows()
        counts["refs"] += 1
        counts["fires"] += state.trr.refs_until_fire() == 1
        counts["hits"] += any(start <= row < end for row in live)
        return refresh(channel, pseudo_channel)

    device.refresh = counted
    device.bulk_activations = counted_loop
    return counts


def run_both(build, drive):
    """Drive both stations, each under a registry of its own;
    (outcome, oracle REF counts, production REF counts, production
    burst counters).  The outcomes, the full device states and the TRR
    preventive-refresh totals must be identical."""
    production, oracle = stations(build)
    production_refs = count_refs(production.device)
    oracle_refs = count_refs(oracle.device)
    registries = MetricsRegistry(), MetricsRegistry()
    with use_metrics(registries[0]):
        fast = drive(production)
    with use_metrics(registries[1]):
        slow = drive(oracle)
    assert fast == slow
    assert_same_state(_Result(), production.device, _Result(),
                      oracle.device, exact_accumulators=True)
    counters, oracle_counters = (registry.snapshot()["counters"]
                                 for registry in registries)
    assert counters.get("trr.preventive_refreshes") == \
        oracle_counters.get("trr.preventive_refreshes")
    bursts = {name.rsplit(".", 1)[-1]: value
              for name, value in counters.items()
              if name.startswith("engine.fastpath.bursts.stepped.")}
    for name in ("collapsed", "cycle_fires"):
        bursts[name] = counters.get(f"engine.fastpath.bursts.{name}", 0)
    return fast, oracle_refs, production_refs, bursts


class _Result:
    """The empty readback stream: only device state is compared."""

    duration_cycles = 0
    row_reads = ()


def assert_stepped_at_events(oracle_refs, production_refs, bursts):
    assert set(bursts) - {"collapsed", "cycle_fires"} <= EVENT_CAUSES
    # Every fire the oracle makes is accounted for exactly once: either
    # stepped as an event (the plain one or a refused cycle's) or
    # applied in a fire cycle.  No fire hides in a stepped warm-up.
    fire_events = sum(bursts.get(cause, 0) for cause in FIRE_CAUSES)
    assert production_refs["fires"] == fire_events
    assert fire_events + bursts["cycle_fires"] == oracle_refs["fires"]
    # One warm-up for the one burst op: it steps at most two bursts
    # before the first closed-form window (one measured, one retry
    # when the first held an event).
    assert bursts.get("warmup", 0) == 1
    events = oracle_refs["fires"] + oracle_refs["hits"]
    assert production_refs["refs"] <= events + 2
    assert fire_events + bursts.get("refresh-hit", 0) <= events


def ber_record(victim):
    """A paper-count refresh-on BER record of ``victim`` (ablation A2)."""
    def drive(board):
        return BerExperiment(board.host, board.device.mapper,
                             REFRESH_ON).run_row(victim, ROWSTRIPE0)
    return drive


class TestRefreshOnBer:
    def test_paper_count_record_matches_oracle(self):
        _, oracle_refs, production_refs, bursts = run_both(
            lambda: BoardSpec(seed=2023).build(),
            ber_record(DramAddress(0, 0, 0, 4000)))
        assert REFRESH_ON.ber_hammer_count == 256 * 1024
        assert oracle_refs["fires"] > 400
        assert_stepped_at_events(oracle_refs, production_refs, bursts)
        # The saving shows: on the paper's 16K-row bank the pointer
        # meets the victim's neighbourhood once, and the last-ACT
        # sampler picks the same aggressor at every fire, so after the
        # first stepped fire the fires run in closed-form cycles.
        assert production_refs["refs"] * 15 <= oracle_refs["refs"]
        assert production_refs["fires"] * 100 <= oracle_refs["fires"]
        # Each event steps its REF alone (the REF closes the body): the
        # only hammer loops run are the two warm-up bursts' and the
        # program's trailing partial burst.
        assert oracle_refs["loops"] > 7000
        assert production_refs["loops"] <= 3

    @pytest.mark.parametrize("profile", ["ddr4", "ddr5"])
    def test_other_samplers_match_oracle(self, profile):
        """The counter sampler (ddr4, a fire every 9 REFs) alternates
        its picks between the two aggressors, so its cycles span two
        fires; the probabilistic one (ddr5, every 4 REFs) picks by
        hash, so its cycles last while the picks repeat."""
        _, oracle_refs, production_refs, bursts = run_both(
            lambda: make_paper_setup(seed=2023, device_profile=profile,
                                     settle_thermals=False),
            ber_record(DramAddress(0, 0, 0, 4000)))
        assert oracle_refs["fires"] >= 50
        assert_stepped_at_events(oracle_refs, production_refs, bursts)
        assert bursts["cycle_fires"] >= 50


def bypass_board() -> BenderBoard:
    # The thresholds of tests/attacks/test_trrespass.py: the miniature
    # bank's refresh pointer sweeps it 64x as often as the paper's.
    profile = vulnerable_profile(threshold_floor=4_000.0, weak_median=3.0e4)
    device = Device(geometry=SMALL_GEOMETRY, profile=profile, seed=8)
    device.set_temperature(85.0)
    board = BenderBoard(device)
    board.host.set_ecc_enabled(False)
    return board


class TestTrrBypass:
    @pytest.mark.parametrize("use_decoy", [False, True])
    def test_attack_matches_oracle(self, use_decoy):
        victim = DramAddress(0, 0, 0, 100)

        def drive(board):
            attack = TrrBypassAttack(board.host, board.device.mapper,
                                     decoy_distance=64)
            return attack.run(victim, hammer_count=120_000,
                              use_decoy=use_decoy)

        outcome, oracle_refs, production_refs, bursts = run_both(
            bypass_board, drive)
        # The decoy round crosses the flip guard between events; the
        # naive one loses to TRR.
        assert (outcome.flips > 0) == use_decoy
        assert_stepped_at_events(oracle_refs, production_refs, bursts)
        if use_decoy:
            # The sampler holds the decoy at every fire, whose victims
            # are far from the dosed one: the fires run in cycles.
            assert bursts["cycle_fires"] > 0
        else:
            # Every fire restores the victim the hammers dose past half
            # the flip guard within a cycle: each cycle is refused, and
            # the fire stepped under that cause.
            assert bursts["cycle_fires"] == 0
            assert bursts["fire-guard"] > 0


def coupled_board() -> BenderBoard:
    """A station whose hammering leaks into the vertically adjacent
    channel: channel 0's stack neighbour is channel 2."""
    geometry = Geometry(channels=4, pseudo_channels=1, banks=2, rows=256,
                        columns=4, column_bytes=8, channels_per_die=2)
    device = Device(geometry=geometry,
                    profile=vulnerable_profile(cross_channel_coupling=0.1),
                    seed=8)
    device.set_temperature(85.0)
    board = BenderBoard(device)
    board.host.set_ecc_enabled(False)
    return board


class TestCrossChannelCoupling:
    def test_refresh_on_record_matches_oracle(self):
        victim = DramAddress(0, 0, 0, 100)

        def drive(board):
            record = BerExperiment(board.host, board.device.mapper,
                                   REFRESH_ON).run_row(victim, ROWSTRIPE0)
            leaked = board.device.bank(2, 0, 0).disturbance
            return record, sum(leaked.get_direct(row)
                               for row in leaked.rows())

        (_, leaked), _, _, bursts = run_both(coupled_board, drive)
        # Never vacuous: the neighbour channel's ledger holds the leak,
        # and most of it arrived in closed-form windows.
        assert leaked > 0
        assert bursts["collapsed"] > 0


def burst_counters(device, program):
    """Run ``program`` twice on the production path, as the oracle
    helpers do; (last result, burst counters)."""
    host = HostInterface(device)
    cache = ProgramCache(FastPathBackend(host))
    registry = MetricsRegistry()
    with use_metrics(registry):
        for _ in range(RUNS):
            result = cache.execute(("bursts",), canonicalize(program)[1],
                                   lambda: program)
    counters = registry.snapshot()["counters"]
    assert counters["engine.fastpath.hits"] == RUNS
    return result, {name[len("engine.fastpath.bursts."):]: value
                    for name, value in counters.items()
                    if name.startswith("engine.fastpath.bursts.")}


def read_bursts(bursts: int) -> Program:
    """REF-bounded bursts that also read their victim back."""
    aggressors = [MAPPER.physical_to_logical(row) for row in (30, 32)]
    victim = MAPPER.physical_to_logical(31)
    builder = ProgramBuilder()
    for row in (*aggressors, victim):
        builder.act(0, 0, 0, row)
        builder.wr_row(0, 0, 0, b"\x55" * SMALL_GEOMETRY.row_bytes)
        builder.pre(0, 0, 0)
    with builder.loop(bursts):
        with builder.loop(40):
            for row in aggressors:
                builder.act(0, 0, 0, row)
                builder.pre(0, 0, 0)
        builder.act(0, 0, 0, victim)
        builder.rd_row(0, 0, 0)
        builder.pre(0, 0, 0)
        builder.ref(0, 0)
    return builder.build()


class TestStepCauses:
    """Bursts the closed form does not cover step singly, by cause."""

    def test_irregular_body_steps_every_burst(self):
        program = read_bursts(30)
        production = make_device("hbm2", 1)
        result, counters = burst_counters(production, program)
        oracle = make_device("hbm2", 1)
        assert_same_state(result, production, run_interpreted(oracle, program),
                          oracle, exact_accumulators=True)
        # One count per execution of the burst op.
        assert counters == {"stepped.irregular-body": RUNS}

    def test_unperiodic_picks_step_every_fire(self):
        """Five aggressors with equal counts take turns at the top of a
        counter table that holds them all: a fire's pick comes back
        every five fires, a longer period than the sampler looks for,
        so every cycle is refused and each fire is stepped."""
        aggressors = [MAPPER.physical_to_logical(row)
                      for row in (20, 22, 24, 26, 28)]
        builder = ProgramBuilder()
        for row in range(18, 31):
            builder.act(0, 0, 0, MAPPER.physical_to_logical(row))
            builder.wr_row(0, 0, 0, b"\x55" * SMALL_GEOMETRY.row_bytes)
            builder.pre(0, 0, 0)
        with builder.loop(9 * 60):
            with builder.loop(20):
                for row in aggressors:
                    builder.act(0, 0, 0, row)
                    builder.pre(0, 0, 0)
            builder.ref(0, 0)
        program = builder.build()
        trr = TrrConfig(refresh_period=9, sampler="counter", table_size=8)
        assert trr.table_size > len(aggressors) > \
            CounterSampler.MAX_FIRE_PERIOD
        production, oracle = (
            Device(geometry=SMALL_GEOMETRY, profile=vulnerable_profile(),
                   trr_config=trr, seed=1) for _ in range(2))
        result, counters = burst_counters(production, program)
        assert_same_state(result, production,
                          run_interpreted(oracle, program), oracle,
                          exact_accumulators=True)
        assert counters["stepped.fire-picks"] >= 50
        assert "cycle_fires" not in counters

    def test_documented_trr_steps_every_burst(self):
        program = double_sided("burst", 60, 48, [0x55])
        devices = []
        for _ in range(2):
            device = make_device("hbm2", 1)
            registers = device.mode_registers(0)
            registers.set_documented_trr_mode(True)
            registers.set_documented_trr_target(
                bank=0, row=MAPPER.physical_to_logical(30))
            devices.append(device)
        result, counters = burst_counters(devices[0], program)
        assert_same_state(result, devices[0],
                          run_interpreted(devices[1], program), devices[1],
                          exact_accumulators=True)
        assert counters == {"stepped.documented-trr": RUNS}
