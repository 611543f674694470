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
from repro.core.hammer import build_hammer_program, hammer_checks
from repro.dram.address import DramAddress
from repro.engine.backend import FastPathBackend
from repro.engine.cache import ProgramCache, canonicalize
from repro.errors import EngineError
from repro.obs import MetricsRegistry, use_metrics
from repro.verify import VerifyContext, summarize_program, verify_program
from repro.verify.effects import HammerOp
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
