"""Count bindings: a hammer shape verified at N runs any n <= N exactly.

The program cache lifts a hammer loop's iteration count out of the
shape (:mod:`repro.engine.cache`): one handle, compiled and verified at
the largest count it has been bound to, serves every smaller count.
For a double-sided hammer shape compiled at the paper's 256K cap and
counts on both sides of the bulk-loop threshold, of the verifier's
full-unroll limit, and generated ones, each binding must be the program
built at that count:

* the handle's one effect op with the bound count is the effect
  summary of the program built at ``n``;
* the program built at ``n`` verifies clean under the checks its
  driver declares at ``n`` (the monotonicity argument, checked);
* executing the handle at the cap and then at ``n`` — on the analytic
  fast path and on the interpreted bypass a traced station takes —
  leaves the device state the interpreter leaves running the programs
  built at those counts, with exact disturbance accumulators.
"""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bender.host import HostInterface
from repro.bender.interpreter import BULK_LOOP_THRESHOLD, Interpreter
from repro.bender.program import ProgramBuilder
from repro.core.hammer import build_hammer_program, hammer_checks
from repro.dram.address import DramAddress
from repro.engine.backend import FastPathBackend
from repro.engine.cache import ProgramCache, canonicalize
from repro.errors import EngineError
from repro.obs import MetricsRegistry, use_metrics
from repro.verify import VerifyContext, summarize_program, verify_program
from repro.verify.effects import HammerOp, loop_op_positions
from repro.verify.program import FULL_UNROLL_LIMIT
from tests.property.test_interpreter_equivalence import (
    MAPPER,
    PROFILES,
    ROW_BYTES,
    assert_same_state,
    make_device,
)

#: The count the shape is compiled at: the paper's HC_first cap.
CAP = 256 * 1024
#: A double-sided loop body is four commands (ACT/PRE per aggressor).
UNROLLED_ITERATIONS = FULL_UNROLL_LIMIT // 4
PINNED = (1, 2, 3, BULK_LOOP_THRESHOLD - 1, BULK_LOOP_THRESHOLD,
          BULK_LOOP_THRESHOLD + 1, UNROLLED_ITERATIONS - 1,
          UNROLLED_ITERATIONS, UNROLLED_ITERATIONS + 1, FULL_UNROLL_LIMIT,
          CAP - 1, CAP)
VICTIM = DramAddress(0, 0, 0, MAPPER.physical_to_logical(31))
AGGRESSORS = [MAPPER.physical_to_logical(30),
              MAPPER.physical_to_logical(32)]


def program_at(count):
    return build_hammer_program(VICTIM, AGGRESSORS, count)


def station(profile, trace=False) -> HostInterface:
    """A fresh device whose victim neighbourhood holds charged rows."""
    device = make_device(profile, seed=1)
    host = HostInterface(device, interpreter=Interpreter(device,
                                                         trace=trace))
    for offset in range(-3, 4):
        row = MAPPER.physical_to_logical(31 + offset)
        host.write_row(VICTIM.with_row(row),
                       bytes([0xFF if offset % 2 else 0x00]) * ROW_BYTES)
    return host


def compiled_at_cap(host):
    backend = FastPathBackend(host)
    handle = backend.compile(
        program_at(CAP), hammer_checks(host, VICTIM, AGGRESSORS, CAP),
        count=CAP)
    return backend, handle


def test_pinned_counts_straddle_both_loop_boundaries():
    assert {n < BULK_LOOP_THRESHOLD for n in PINNED} == {True, False}
    assert {4 * n <= FULL_UNROLL_LIMIT for n in PINNED} == {True, False}
    assert max(PINNED) == CAP


def pinned(test):
    """Hypothesis examples: every pinned count, profiles in turn."""
    for index, count in enumerate(PINNED):
        test = example(count=count,
                       profile=PROFILES[index % len(PROFILES)])(test)
    return test


@given(count=st.integers(1, CAP), profile=st.sampled_from(PROFILES))
@pinned
@settings(max_examples=12, deadline=None, derandomize=True)
def test_binding_equals_the_program_built_at_the_count(count, profile):
    host = station(profile)
    backend, handle = compiled_at_cap(host)
    built = program_at(count)
    assert handle.count == CAP

    # The bound op is the effect summary of the program built at n.
    template, rows, _ = canonicalize(built, count)
    default = VerifyContext.for_host(host, allow_retention_decay=True)
    (op,) = handle.summary.ops
    assert isinstance(op, HammerOp)
    assert (replace(op, iterations=count),) == \
        summarize_program(template, default).ops

    # Its declared checks hold at n, and the shape is the same one.
    checks = hammer_checks(host, VICTIM, AGGRESSORS, count)
    assert verify_program(built, checks).violations == []
    assert backend.compile(built, checks, count=count).digest == \
        handle.digest

    # Fast path and traced bypass, run at the cap and then at n on one
    # station, leave the oracle's device state.
    oracle = station(profile)
    oracle.run(program_at(CAP))
    expected = oracle.run(built)
    for trace in (False, True):
        production = station(profile, trace=trace)
        backend, handle = compiled_at_cap(production)
        registry = MetricsRegistry()
        with use_metrics(registry):
            backend.execute(handle, rows, CAP)
            result = backend.execute(handle, rows, count)
        route = "bypasses" if trace else "hits"
        assert registry.snapshot()["counters"][
            f"engine.fastpath.{route}"] == 2
        assert_same_state(result, production.device, expected,
                          oracle.device, exact_accumulators=True)


def test_larger_count_widens_once_and_is_counted():
    host = station("hbm2")
    cache = ProgramCache(FastPathBackend(host))
    compiles = []

    def run(count):
        def build():
            compiles.append(count)
            return program_at(count)

        cache.execute(("hammer", 0, 0, 0, 2), tuple(AGGRESSORS), build,
                      lambda: hammer_checks(host, VICTIM, AGGRESSORS,
                                            count), count)

    registry = MetricsRegistry()
    with use_metrics(registry):
        for count in (512, 3, 512, 4096, 513, 4096, 1):
            run(count)
    counters = registry.snapshot()["counters"]
    assert compiles == [512, 4096]
    assert counters["engine.cache.misses"] == 2
    assert counters["engine.cache.widened"] == 1
    assert counters["engine.cache.hits"] == 5
    assert (cache.misses, len(cache)) == (2, 1)


def test_count_binding_needs_one_hammer_loop_of_that_count():
    host = station("hbm2")
    backend = FastPathBackend(host)
    with pytest.raises(EngineError, match="does not match"):
        backend.compile(program_at(100), count=99)
    with pytest.raises(EngineError, match="one LOOP"):
        backend.compile(program_at(0), count=1)
    handle = backend.compile(program_at(100), count=100)
    with pytest.raises(EngineError, match="outside"):
        backend.execute(handle, tuple(AGGRESSORS), 101)
    with pytest.raises(EngineError, match="outside"):
        backend.execute(handle, tuple(AGGRESSORS), 0)


# -- prefix, loop, suffix ---------------------------------------------------
#: The count a generated probe shape is compiled at: large enough for
#: the bulk loop and the verifier's steady-state extrapolation, small
#: enough that a WAIT-paced body stays inside tREFW.
PROBE_CAP = 4096
PROBE_PINNED = (1, 2, BULK_LOOP_THRESHOLD - 1, BULK_LOOP_THRESHOLD,
                BULK_LOOP_THRESHOLD + 1, UNROLLED_ITERATIONS - 1,
                UNROLLED_ITERATIONS, UNROLLED_ITERATIONS + 1, PROBE_CAP)
BANK = (0, 0, 0)
#: Rows of the generated shapes: physical 26..36, around VICTIM.
NEAR_ROWS = [MAPPER.physical_to_logical(row) for row in range(26, 37)]


def emit(builder, element) -> None:
    kind = element[0]
    if kind == "write":
        builder.act(*BANK, element[1])
        builder.wr_row(*BANK, bytes([element[2]]) * ROW_BYTES)
        builder.pre(*BANK)
    elif kind == "read":
        builder.act(*BANK, element[1])
        builder.rd_row(*BANK)
        builder.pre(*BANK)
    elif kind == "act-pre":
        builder.act(*BANK, element[1])
        builder.pre(*BANK)
    elif kind == "wait":
        builder.wait(element[1])
    else:
        builder.ref(*BANK[:2])


def probe_at(shape, count):
    """``shape``'s program at ``count`` (no loop at 0)."""
    prefix, aggressors, body_wait, suffix = shape
    builder = ProgramBuilder()
    for element in prefix:
        emit(builder, element)
    if count:
        with builder.loop(count):
            for row in aggressors:
                builder.act(*BANK, row)
                if body_wait:
                    builder.wait(body_wait)
                builder.pre(*BANK)
    for element in suffix:
        emit(builder, element)
    return builder.build()


def probe_checks(host, shape, count):
    """Each aggressor declared at ``count`` plus its ACTs outside the
    loop, as :func:`~repro.core.hammer.hammer_checks` declares."""
    prefix, aggressors, _, suffix = shape
    outside = [element[1] for element in prefix + suffix
               if element[0] in ("write", "read", "act-pre")]
    return VerifyContext.for_host(host, expected_hammers={
        BANK + (row,): count + outside.count(row) for row in aggressors})


GROUPS = st.one_of(
    st.tuples(st.just("write"), st.sampled_from(NEAR_ROWS),
              st.sampled_from([0x00, 0xFF, 0x55])),
    st.tuples(st.sampled_from(["read", "act-pre"]),
              st.sampled_from(NEAR_ROWS)),
    st.tuples(st.just("wait"), st.integers(1, 400)))


@st.composite
def probe_shapes(draw):
    """A prefix and a suffix (writes, reads, bare ACT/PRE, WAITs) around
    a loop over one or two aggressors; a row written twice is written
    its first payload again, as a count binding requires."""
    aggressors = tuple(draw(st.lists(st.sampled_from(NEAR_ROWS),
                                     min_size=1, max_size=2, unique=True)))
    prefix = draw(st.lists(GROUPS, max_size=6))
    suffix = draw(st.lists(GROUPS, max_size=4))
    payloads = {}
    prefix, suffix = (
        tuple(("write", element[1],
               payloads.setdefault(element[1], element[2]))
              if element[0] == "write" else element
              for element in segment)
        for segment in (prefix, suffix))
    return prefix, aggressors, draw(st.sampled_from([0, 0, 7])), suffix


def probe_station(profile, trace=False) -> HostInterface:
    device = make_device(profile, seed=2)
    return HostInterface(device, interpreter=Interpreter(device,
                                                         trace=trace))


#: A whole hammer test: the neighbourhood written, the victim read back.
FILL_HAMMER_READ = (
    tuple(("write", row, 0xFF if index % 2 else 0x00)
          for index, row in enumerate(NEAR_ROWS[2:9])),
    (AGGRESSORS[0], AGGRESSORS[1]), 0, (("read", VICTIM.row),))
#: A bare ACT/PRE ahead of the loop: the loop's op is not the
#: summary's first hammer op.
ACT_LED = ((("act-pre", AGGRESSORS[1]), ("write", VICTIM.row, 0x55)),
           (AGGRESSORS[0],), 7, (("wait", 40), ("read", VICTIM.row)))


def probe_pinned(test):
    for index, count in enumerate(PROBE_PINNED):
        shape = (FILL_HAMMER_READ, ACT_LED)[index % 2]
        test = example(shape=shape, count=count,
                       profile=PROFILES[index % len(PROFILES)])(test)
    return test


@given(shape=probe_shapes(), count=st.integers(1, PROBE_CAP),
       profile=st.sampled_from(PROFILES))
@probe_pinned
@settings(max_examples=20, deadline=None, derandomize=True)
def test_prefix_loop_suffix_binding_equals_the_program_built_at_n(
        shape, count, profile):
    host = probe_station(profile)
    backend = FastPathBackend(host)
    handle = backend.compile(probe_at(shape, PROBE_CAP),
                             probe_checks(host, shape, PROBE_CAP),
                             count=PROBE_CAP)
    built = probe_at(shape, count)

    # The verdicts at n are the handle's: clean under the checks the
    # driver declares at n, and the same shape.
    checks = probe_checks(host, shape, count)
    assert verify_program(built, checks).violations == []
    assert backend.compile(built, checks, count=count).digest == \
        handle.digest

    # The bound summary is the summary of the program built at n.
    template, rows, _ = canonicalize(built, count)
    default = VerifyContext.for_host(host, allow_retention_decay=True)
    (loop_op,) = loop_op_positions(handle.template.instructions)
    ops = list(handle.summary.ops)
    ops[loop_op] = replace(ops[loop_op], iterations=count)
    assert tuple(ops) == summarize_program(template, default).ops

    # Fast path and traced bypass, at the cap and then at n on one
    # station, leave the oracle's device state, reads and loop cycles.
    oracle = probe_station(profile)
    oracle.run(probe_at(shape, PROBE_CAP))
    expected = oracle.run(built)
    for trace in (False, True):
        production = probe_station(profile, trace=trace)
        backend = FastPathBackend(production)
        handle = backend.compile(probe_at(shape, PROBE_CAP),
                                 count=PROBE_CAP)
        backend.execute(handle, rows, PROBE_CAP)
        result = backend.execute(handle, rows, count)
        assert result.loop_cycles == expected.loop_cycles > 0
        assert_same_state(result, production.device, expected,
                          oracle.device, exact_accumulators=True)


def test_prefix_activations_do_not_stand_in_for_the_loop():
    """A prefix that activates an aggressor N + 1 times around a loop
    that never does passes the verifier's total count at N, but the
    count would not carry to any n < N: the count binding refuses it."""
    host = probe_station("hbm2")
    lone, other = AGGRESSORS
    cap = 16

    def program(count):
        builder = ProgramBuilder()
        for _ in range(cap + 1):
            builder.act(*BANK, lone)
            builder.pre(*BANK)
        builder.act(*BANK, other)
        builder.wr_row(*BANK, bytes(ROW_BYTES))
        builder.pre(*BANK)
        with builder.loop(count):
            builder.act(*BANK, other)
            builder.pre(*BANK)
        return builder.build()

    def checks(count):
        return VerifyContext.for_host(host, expected_hammers={
            BANK + (lone,): count + 1, BANK + (other,): count + 1})

    assert verify_program(program(cap), checks(cap)).violations == []
    assert verify_program(program(cap - 1), checks(cap - 1)).violations
    with pytest.raises(EngineError, match="once per iteration|exactly one"):
        FastPathBackend(host).compile(program(cap), checks(cap), count=cap)


def test_count_binding_refuses_refs_two_payloads_and_strict_suffixes():
    host = probe_station("hbm2")
    backend = FastPathBackend(host)
    prefix, aggressors, _, suffix = FILL_HAMMER_READ
    rewritten = ("write",) + prefix[0][1:2] + (0x55,)
    for shape in ((prefix + (("ref",),), aggressors, 0, suffix),
                  (prefix, aggressors, 0, suffix + (("ref",),)),
                  (prefix + (rewritten,), aggressors, 0, suffix),
                  (prefix, aggressors, 0, suffix + (rewritten,))):
        program = probe_at(shape, 64)
        assert verify_program(program, probe_checks(host, shape, 64)
                              ).violations == []
        with pytest.raises(EngineError, match="without REF"):
            backend.compile(program, count=64)
    strict = replace(probe_checks(host, FILL_HAMMER_READ, 64),
                     assume_scheduler=False)
    with pytest.raises(EngineError, match="scheduling policy"):
        backend.compile(probe_at(FILL_HAMMER_READ, 64), strict, count=64)
