"""Differential oracle: production path == interpreter == unrolled loops.

Generated verifier-clean programs run three ways on identical fresh
devices, each program twice in a row on its device:

* **unrolled** — every ``Loop`` expanded, interpreted one command at a
  time (the oracle no loop policy can hide behind);
* **interpreted** — the interpreter with its bulk loop policy;
* **production** — the engine's program cache and analytic fast-path
  backend, the path every campaign takes.

The shape space is the many-sided, REF-interleaved hammering of
*Uncovering In-DRAM RowHammer Protection Mechanisms*: 1–4-sided hammer
bodies with RowPress WAITs, row fills and reads, REF counts,
REF-interleaved bursts (TRRespass decoy rounds among them) and idle,
iteration counts on both sides of the bulk threshold, burst counts up
to the dynamic-length bound, on every device family's timing and TRR
sampler.  Long REF-bounded bursts are what the production path applies
in closed-form windows between events (TRR fires, REFs whose range
holds a live row), so the pinned examples walk the refresh pointer
across filled rows and through several TRR fires.  The device memoizes
schedules by row-free stream shape, so other pinned examples run one
shape under two row bindings on one device.

After the second run a test-side digest of the full device state is
compared: clock and command counts, timing-checker bank and
pseudo-channel state, per bank stored bits and parity, last-restore
stamps, open row, RowPress factors and disturbance accumulators, per
pseudo channel the refresh sequencing, TRR REF counter and sampler
fields.  Production must equal interpreted exactly, and unrolled
exactly except the disturbance accumulators: bulk application adds
``iterations x dose`` once where the unrolled loop adds ``dose`` per
iteration, so those agree to a relative 1e-9 rather than to the last
ulp.
"""

import math

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.bender.host import HostInterface
from repro.bender.interpreter import BULK_LOOP_THRESHOLD, Interpreter
from repro.bender.program import Program, ProgramBuilder
from repro.dram.address import RowAddressMapper
from repro.dram.device import Device
from repro.dram.profiles import get_profile
from repro.engine.backend import FastPathBackend
from repro.engine.cache import ProgramCache, canonicalize
from repro.obs import MetricsRegistry, use_metrics

from tests.conftest import SMALL_GEOMETRY, unrolled, vulnerable_profile

PROFILES = ("hbm2", "ddr4", "ddr5")
#: Banks a program may touch: two banks of one pseudo channel (they
#: share tFAW/tRRD) and one bank on the other channel.
BANKS = ((0, 0, 0), (0, 0, 1), (1, 0, 0))
ROW_BYTES = SMALL_GEOMETRY.row_bytes
#: Every device here shares the geometry's default row swizzle.
MAPPER = RowAddressMapper(SMALL_GEOMETRY)
#: Bound on the unrolled program's length, to keep the oracle fast.
MAX_DYNAMIC = 40_000
#: The decoy row of TRRespass-shaped bursts: far outside every
#: aggressor's blast radius (aggressors sit at physical rows 20–60).
DECOY_ROW = MAPPER.physical_to_logical(200)
#: Decoy activations per TRRespass-shaped burst.
DECOY_ACTS = 2
#: Element kinds that hammer a body.
HAMMERING = ("hammer", "burst", "lead-ref-burst", "flat-burst",
             "decoy-burst")


def make_device(profile_name: str, seed: int,
                calibration=None) -> Device:
    """The small test geometry with a family's timing and TRR policy
    (and ``calibration``, by default the vulnerable profile)."""
    profile = get_profile(profile_name)
    device = Device(geometry=SMALL_GEOMETRY, timing=profile.timing,
                    profile=calibration or vulnerable_profile(),
                    trr_config=profile.trr, seed=seed,
                    profile_name=profile_name)
    device.set_ecc_enabled(False)
    return device


# -- program generation --------------------------------------------------
iteration_counts = st.one_of(
    st.integers(1, BULK_LOOP_THRESHOLD - 1),
    st.integers(BULK_LOOP_THRESHOLD, 64),
    st.sampled_from([BULK_LOOP_THRESHOLD, 500, 3000, 9000]))
waits = st.one_of(st.just(0), st.integers(1, 13), st.sampled_from([60, 400]))


@st.composite
def hammer_bodies(draw):
    """1–4 aggressor (bank, logical row, RowPress wait) steps and a tail
    wait; aggressors sit at nearby *physical* rows, so they share
    victims."""
    sides = draw(st.integers(1, 4))
    bank = draw(st.sampled_from(BANKS))
    rows = [MAPPER.physical_to_logical(row) for row in
            draw(st.lists(st.integers(20, 60), min_size=sides,
                          max_size=sides, unique=True))]
    # Mostly one bank; sometimes a step on another bank's row.
    steps = tuple((draw(st.sampled_from((bank, bank) + BANKS)), row,
                   draw(waits)) for row in rows)
    return steps, draw(waits)


def emit_body(builder, body) -> None:
    steps, tail_wait = body
    for (channel, pc, bank), row, wait in steps:
        builder.act(channel, pc, bank, row)
        if wait:
            builder.wait(wait)
        builder.pre(channel, pc, bank)
    if tail_wait:
        builder.wait(tail_wait)


@st.composite
def elements(draw):
    kind = draw(st.sampled_from(
        ("hammer", "hammer", "hammer", "burst", "lead-ref-burst",
         "flat-burst", "decoy-burst", "refs", "idle", "read")))
    if kind in HAMMERING:
        body = draw(hammer_bodies())
        iterations = draw(iteration_counts)
        # As many bursts as the dynamic-length bound allows, so the
        # refresh pointer can reach the aggressors' rows.
        most = MAX_DYNAMIC // dynamic_length((kind, body, iterations, 1))
        element = (kind, body, iterations,
                   draw(st.integers(1, max(1, most))))
        return element + (DECOY_ROW,) if kind == "decoy-burst" else element
    if kind == "refs":
        return (kind, draw(st.sampled_from(BANKS[::2])),
                draw(st.integers(1, 20)))
    if kind == "idle":
        return (kind, draw(st.integers(1, 5000)))
    return (kind, draw(st.sampled_from(BANKS)), draw(st.integers(16, 64)))


def dynamic_length(element) -> int:
    kind = element[0]
    if kind == "hammer":
        return element[2] * (3 * len(element[1][0]) + 1)
    if kind in ("burst", "lead-ref-burst", "flat-burst", "decoy-burst"):
        inner = element[2] if kind != "flat-burst" else 1
        decoys = 3 * DECOY_ACTS if kind == "decoy-burst" else 0
        return element[3] * (inner * (3 * len(element[1][0]) + 1) + 1
                             + decoys)
    if kind == "refs":
        return element[2]
    return 3


def build_program(fill_rows, fill_bytes, program_elements) -> Program:
    builder = ProgramBuilder()
    for (channel, pc, bank), row in fill_rows:
        builder.act(channel, pc, bank, row)
        builder.wr_row(channel, pc, bank,
                       bytes([fill_bytes[row % len(fill_bytes)]]) * ROW_BYTES)
        builder.pre(channel, pc, bank)
    for element in program_elements:
        kind = element[0]
        if kind == "hammer":
            _, body, iterations, _ = element
            with builder.loop(iterations):
                emit_body(builder, body)
        elif kind == "burst":
            # REF-bounded hammer bursts: LOOP m { LOOP n { body }; REF }.
            _, body, iterations, bursts = element
            channel, pc, _ = body[0][0][0]
            with builder.loop(bursts):
                with builder.loop(iterations):
                    emit_body(builder, body)
                builder.ref(channel, pc)
        elif kind == "lead-ref-burst":
            # The REF opens each burst: an event's whole burst steps.
            _, body, iterations, bursts = element
            channel, pc, _ = body[0][0][0]
            with builder.loop(bursts):
                builder.ref(channel, pc)
                with builder.loop(iterations):
                    emit_body(builder, body)
        elif kind == "decoy-burst":
            # A TRRespass round: aggressor loop, decoy loop, REF.
            _, body, iterations, bursts, decoy = element
            channel, pc, bank = body[0][0][0]
            with builder.loop(bursts):
                with builder.loop(iterations):
                    emit_body(builder, body)
                with builder.loop(DECOY_ACTS):
                    builder.act(channel, pc, bank, decoy)
                    builder.pre(channel, pc, bank)
                builder.ref(channel, pc)
        elif kind == "flat-burst":
            # A REF inside the hammer loop body itself.
            _, body, _, bursts = element
            channel, pc, _ = body[0][0][0]
            with builder.loop(bursts):
                emit_body(builder, body)
                builder.ref(channel, pc)
        elif kind == "refs":
            _, (channel, pc, _), count = element
            if count > 1:
                with builder.loop(count):
                    builder.ref(channel, pc)
            else:
                builder.ref(channel, pc)
        elif kind == "idle":
            builder.wait(element[1])
        else:
            _, (channel, pc, bank), row = element
            builder.act(channel, pc, bank, row)
            builder.rd_row(channel, pc, bank)
            builder.pre(channel, pc, bank)
    for (channel, pc, bank), row in fill_rows:
        builder.act(channel, pc, bank, row)
        builder.rd_row(channel, pc, bank)
        builder.pre(channel, pc, bank)
    return builder.build()


@st.composite
def programs(draw):
    program_elements = draw(st.lists(elements(), min_size=1, max_size=5))
    budget = sum(dynamic_length(element) for element in program_elements)
    while budget > MAX_DYNAMIC:
        budget -= dynamic_length(program_elements.pop())
    # Fill the blast radius of every aggressor so flips have charged
    # cells to act on.
    fill_rows = sorted({
        (bank, MAPPER.physical_to_logical(
            MAPPER.logical_to_physical(row) + offset))
        for element in program_elements
        if element[0] in HAMMERING
        for bank, row, _ in element[1][0]
        for offset in range(-2, 3)})
    fill_bytes = draw(st.lists(st.sampled_from([0x00, 0xFF, 0x55, 0x0F]),
                               min_size=1, max_size=3))
    return build_program(fill_rows, fill_bytes, program_elements)


# -- the three executions --------------------------------------------------
#: Each execution runs the program this many times on one device, so
#: the second run starts from the state the first left behind and the
#: device's memoized schedules (batched row writes, hammer iterations)
#: are exercised across programs, not only within one.  A tuple of
#: programs runs in turn, this many times over.
RUNS = 2


def in_turn(program):
    """The programs one execution runs in turn, in order."""
    return program if isinstance(program, tuple) else (program,)


def run_unrolled(device, program):
    oracles = [unrolled(one) for one in in_turn(program)]
    return [Interpreter(device).run(oracle)
            for _ in range(RUNS) for oracle in oracles][-1]


def run_interpreted(device, program):
    return [Interpreter(device).run(one)
            for _ in range(RUNS) for one in in_turn(program)][-1]


def run_production(device, program):
    programs = in_turn(program)
    host = HostInterface(device)
    cache = ProgramCache(FastPathBackend(host))
    registry = MetricsRegistry()
    with use_metrics(registry):
        results = [cache.execute(("oracle", index), canonicalize(one)[1],
                                 lambda one=one: one)
                   for _ in range(RUNS)
                   for index, one in enumerate(programs)]
    counters = registry.snapshot()["counters"]
    # Never vacuous: every run is summarized and applied, and every run
    # after the first reuses the cached shape.
    runs = RUNS * len(programs)
    assert counters.get("engine.fastpath.hits") == runs, counters
    assert counters.get("engine.cache.hits") == runs - len(programs), \
        counters
    return results[-1]


# -- the state digest --------------------------------------------------------
def canonical(value):
    """Comparable, address-free view of one state field."""
    if isinstance(value, dict):
        return tuple((key, canonical(item)) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(canonical(item) for item in value)
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (int, float)):
        return value
    raise TypeError(f"no canonical form for {type(value).__name__}")


def device_digest(device):
    """(exact fields, disturbance accumulators) of the whole device."""
    exact = {"now": device.now,
             "command_counts": tuple(sorted(device.command_counts.items()))}
    # Timing horizons as the scheduler sees them, relative to the clock
    # and clamped at zero (as TimingChecker.replay_signature does): a
    # horizon already in the past constrains nothing, and bulk loops
    # shift stale horizons of their pseudo channel along with the live
    # ones.
    checker = device._timing_checker
    now = device.now
    window = checker.constraints.four_act_window

    def ahead(cycle):
        return max(cycle - now, 0)

    exact["timing.banks"] = tuple(sorted(
        (key, (ahead(state.next_act), ahead(state.next_pre),
               ahead(state.next_rdwr), state.act_cycle, state.is_open))
        for key, state in checker._banks.items()))
    exact["timing.pcs"] = tuple(sorted(
        (pc, (ahead(checker._pc_next_act.get(pc, 0)),
              ahead(checker._pc_next_any.get(pc, 0)),
              tuple(ahead(stamp + window) for stamp in
                    checker._pc_act_history.get(pc, ()))))
        for pc in {key[:2] for key in checker._banks}
        | checker._pc_next_act.keys() | checker._pc_next_any.keys()))
    accumulators = {}
    geometry = device.geometry
    for channel in range(geometry.channels):
        for pc in range(geometry.pseudo_channels):
            state = device.channel(channel).pseudo_channels[pc]
            prefix = f"pc{channel}.{pc}"
            exact[f"{prefix}.refresh"] = (state.refresh_pointer,
                                          state.ref_count)
            exact[f"{prefix}.trr.ref_counter"] = state.trr.ref_counter
            exact[f"{prefix}.trr.sampler"] = (
                type(state.trr.sampler).__name__,
                canonical(vars(state.trr.sampler)))
            for bank_index in range(geometry.banks):
                bank = device.bank(channel, pc, bank_index)
                prefix = f"bank{channel}.{pc}.{bank_index}"
                exact[f"{prefix}.bits"] = canonical(
                    dict(sorted(bank._bits.items())))
                exact[f"{prefix}.parity"] = canonical(
                    dict(sorted(bank._parity.items())))
                exact[f"{prefix}.last_restore"] = canonical(
                    bank._last_restore)
                exact[f"{prefix}.open_row"] = (bank._open_physical,
                                               bank._open_since)
                exact[f"{prefix}.open_factor"] = canonical(
                    dict(sorted(bank._last_open_factor.items())))
                accumulators[prefix] = {
                    row: tuple(entry) for row, entry in
                    bank.disturbance._counts.items()}
    return exact, accumulators


def assert_same_state(result, device, reference_result, reference_device,
                      exact_accumulators):
    assert result.duration_cycles == reference_result.duration_cycles
    assert len(result.row_reads) == len(reference_result.row_reads)
    for bits, reference_bits in zip(result.row_reads,
                                    reference_result.row_reads):
        assert np.array_equal(bits, reference_bits)
    exact, accumulators = device_digest(device)
    reference_exact, reference_accumulators = device_digest(reference_device)
    assert exact.keys() == reference_exact.keys()
    for name in exact:
        assert exact[name] == reference_exact[name], name
    for name, rows in accumulators.items():
        reference_rows = reference_accumulators[name]
        assert rows.keys() == reference_rows.keys(), name
        for row, values in rows.items():
            expected = reference_rows[row]
            if exact_accumulators:
                assert values == expected, (name, row)
            else:
                assert all(math.isclose(value, other, rel_tol=1e-9)
                           for value, other in zip(values, expected)), \
                    (name, row, values, expected)


def double_sided(element_kind, iterations, bursts, fill_bytes,
                 decoy=DECOY_ROW, victim=31) -> Program:
    """Physical rows ``victim`` ± 1 hammered, their blast radius filled
    with ``fill_bytes`` (``decoy``: the decoy row of a
    ``decoy-burst``).  Every victim gives the same program shape."""
    aggressors = [MAPPER.physical_to_logical(row)
                  for row in (victim - 1, victim + 1)]
    body = ((((0, 0, 0), aggressors[0], 0), ((0, 0, 0), aggressors[1], 5)),
            0)
    fills = tuple(((0, 0, 0), MAPPER.physical_to_logical(row))
                  for row in range(victim - 3, victim + 4))
    element = (element_kind, body, iterations, bursts)
    if element_kind == "decoy-burst":
        element += (decoy,)
    return build_program(fills, fill_bytes, [element])


def filled(victim, fill_bytes) -> Program:
    """Only the fill and readback of :func:`double_sided`'s rows."""
    fills = tuple(((0, 0, 0), MAPPER.physical_to_logical(row))
                  for row in range(victim - 3, victim + 4))
    return build_program(fills, fill_bytes, [])


#: 20 REF-bounded bursts: every family's TRR fires (periods 17, 9, 4).
TRR_FIRING = double_sided("burst", 100, 20, [0x55])
#: Enough hammers to flip cells of victim 31 on seed 1.
FLIPPING = double_sided("hammer", 40_000, 0, [0xFF, 0x00])
#: 48 REF-bounded bursts: the refresh pointer (one row per REF from
#: row 0) crosses the filled rows 28–34 and every family's TRR fires
#: at least twice, so closed-form windows end at both kinds of event.
REF_CROSSING = double_sided("burst", 60, 48, [0x55, 0xFF])
#: The same walk with each burst's REF ahead of its hammers.
LEAD_REF_CROSSING = double_sided("lead-ref-burst", 60, 48, [0x55, 0xFF])
#: The same walk with a REF inside the hammer loop body itself.
FLAT_CROSSING = double_sided("flat-burst", 1, 48, [0x0F])
#: TRRespass rounds (aggressor loop, decoy loop, REF) across the filled
#: rows; the sampler holds the decoy at every fire.
DECOY_CROSSING = double_sided("decoy-burst", 60, 48, [0x55, 0xFF])
#: Long decoy rounds: victim 31's dose crosses the flip guard between
#: the REFs that refresh it, so cells flip when the pointer comes round.
DECOY_FLIPPING = double_sided("decoy-burst", 200, 150, [0xFF, 0x00])
#: Rounds whose "decoy" is victim 31 itself: each burst re-activates a
#: row its hammers dosed past half the flip guard, so no window is
#: provably inert and every burst is stepped.
GUARDED = double_sided("decoy-burst", 1500, 8, [0xFF, 0x00],
                       decoy=MAPPER.physical_to_logical(31))
#: One hammer shape under two row bindings: around victim 31, then
#: around victim 47, whose aggressors straddle the subarray boundary at
#: physical row 48 (so their blast radii differ).  Below the bulk
#: threshold every iteration is a hammer-step schedule, replayed with
#: the second binding's rows.
REBOUND = (double_sided("hammer", 7, 0, [0xFF, 0x00]),
           double_sided("hammer", 7, 0, [0xFF, 0x00], victim=47))
#: One write batch (bank, length) replayed with other rows and payloads.
REWRITTEN = (filled(31, [0x55, 0xFF]), filled(100, [0x0F]))
#: A refresh-on probe: the fill, REF-bounded bursts whose hammer loop
#: is below the bulk threshold, the read-back.
SHORT_BURSTS = double_sided("burst", 5, 48, [0x55, 0xFF])


def split_by_ref(victim=31) -> Program:
    """Two top-level hammer loops of victim ``victim``'s aggressors,
    with row writes (the victim rewritten another payload), a row read
    and a REF between them: a count-free program of several streams."""
    bank = (0, 0, 0)
    aggressors = [MAPPER.physical_to_logical(row)
                  for row in (victim - 1, victim + 1)]
    rows = [MAPPER.physical_to_logical(row)
            for row in range(victim - 3, victim + 4)]
    builder = ProgramBuilder()

    def write(row, fill):
        builder.act(*bank, row)
        builder.wr_row(*bank, bytes([fill]) * ROW_BYTES)
        builder.pre(*bank)

    def hammer(iterations):
        with builder.loop(iterations):
            for row in aggressors:
                builder.act(*bank, row)
                builder.pre(*bank)

    for row in rows:
        write(row, 0xFF)
    hammer(500)
    write(rows[3], 0x00)
    builder.act(*bank, rows[2])
    builder.rd_row(*bank)
    builder.pre(*bank)
    builder.ref(0, 0)
    hammer(3000)
    for row in rows:
        builder.act(*bank, row)
        builder.rd_row(*bank)
        builder.pre(*bank)
    return builder.build()


#: Two loops split at a REF, one row written two payloads.
SPLIT_BY_REF = split_by_ref()


@given(program=programs(), profile=st.sampled_from(PROFILES),
       seed=st.integers(0, 5))
@example(program=TRR_FIRING, profile="hbm2", seed=1)
@example(program=TRR_FIRING, profile="ddr4", seed=1)
@example(program=TRR_FIRING, profile="ddr5", seed=1)
@example(program=FLIPPING, profile="hbm2", seed=1)
@example(program=REF_CROSSING, profile="hbm2", seed=1)
@example(program=REF_CROSSING, profile="ddr4", seed=1)
@example(program=REF_CROSSING, profile="ddr5", seed=1)
@example(program=LEAD_REF_CROSSING, profile="hbm2", seed=2)
@example(program=LEAD_REF_CROSSING, profile="ddr5", seed=2)
@example(program=FLAT_CROSSING, profile="ddr4", seed=2)
@example(program=DECOY_CROSSING, profile="hbm2", seed=3)
@example(program=DECOY_CROSSING, profile="ddr5", seed=3)
@example(program=DECOY_FLIPPING, profile="hbm2", seed=1)
@example(program=GUARDED, profile="ddr4", seed=1)
@example(program=REBOUND, profile="hbm2", seed=1)
@example(program=REBOUND, profile="ddr5", seed=2)
@example(program=REWRITTEN, profile="hbm2", seed=1)
@example(program=SHORT_BURSTS, profile="hbm2", seed=1)
@example(program=SHORT_BURSTS, profile="ddr5", seed=2)
@example(program=SPLIT_BY_REF, profile="hbm2", seed=1)
@example(program=SPLIT_BY_REF, profile="ddr4", seed=3)
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_fast_path_equals_unrolled_execution(program, profile, seed):
    runs = {}
    for name, run in (("unrolled", run_unrolled),
                      ("interpreted", run_interpreted),
                      ("production", run_production)):
        device = make_device(profile, seed)
        runs[name] = (run(device, program), device)

    assert_same_state(*runs["production"], *runs["interpreted"],
                      exact_accumulators=True)
    # The unrolled oracle has no loops left to time.
    assert runs["production"][0].loop_cycles == \
        runs["interpreted"][0].loop_cycles
    assert_same_state(*runs["production"], *runs["unrolled"],
                      exact_accumulators=False)
