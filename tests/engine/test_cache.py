"""Unit tests for the engine's program canonicalization and cache."""

import pytest

from repro.bender import isa
from repro.bender.program import ProgramBuilder
from repro.core.hammer import build_hammer_program, hammer_checks
from repro.dram.address import DramAddress
from repro.engine import (
    FastPathBackend,
    ProgramCache,
    canonicalize,
    shape_digest,
    substitute,
)
from repro.errors import EngineError
from repro.obs import MetricsRegistry, use_metrics
from repro.verify import program as verifier


def hammer_program(rows, count=4):
    victim = DramAddress(channel=0, pseudo_channel=0, bank=1,
                        row=rows[0])
    return build_hammer_program(victim, list(rows), count)


def act_rows(program):
    """Every ACT row operand of a program, in emission order."""
    rows = []

    def walk(instructions):
        for instruction in instructions:
            if isinstance(instruction, isa.Loop):
                walk(instruction.body)
            elif isinstance(instruction, isa.Act):
                rows.append(instruction.row)

    walk(program.instructions)
    return rows


class TestCanonicalize:
    def test_rows_become_first_occurrence_ordinals(self):
        program = hammer_program((40, 42))
        template, binding, slot_banks = canonicalize(program)
        assert binding == (40, 42)
        assert slot_banks == ((0, 0, 1), (0, 0, 1))
        assert act_rows(template) == [0, 1]

    def test_repeated_row_shares_one_slot(self):
        builder = ProgramBuilder()
        for row in (7, 9, 7):
            builder.act(0, 0, 0, row)
            builder.pre(0, 0, 0)
        template, binding, slot_banks = canonicalize(builder.build())
        assert binding == (7, 9)
        assert act_rows(template) == [0, 1, 0]

    def test_same_row_in_different_banks_gets_distinct_slots(self):
        builder = ProgramBuilder()
        builder.act(0, 0, 0, 5)
        builder.pre(0, 0, 0)
        builder.act(0, 0, 1, 5)
        builder.pre(0, 0, 1)
        template, binding, slot_banks = canonicalize(builder.build())
        assert binding == (5, 5)
        assert slot_banks == ((0, 0, 0), (0, 0, 1))

    def test_non_act_instructions_pass_through(self):
        program = hammer_program((40, 42))
        template, _, _ = canonicalize(program)

        def strip(candidate):
            return [type(i).__name__ for i in candidate.instructions]

        assert strip(template) == strip(program)


class TestSubstitute:
    def test_roundtrip_reproduces_the_original(self):
        program = hammer_program((40, 42))
        template, binding, slot_banks = canonicalize(program)
        assert substitute(template, slot_banks, binding) == program

    def test_rebinding_equals_building_directly(self):
        template, _, slot_banks = canonicalize(hammer_program((40, 42)))
        assert substitute(template, slot_banks, (90, 92)) == \
            hammer_program((90, 92))

    def test_wrong_arity_rejected(self):
        template, _, slot_banks = canonicalize(hammer_program((40, 42)))
        with pytest.raises(EngineError, match="2 row slot"):
            substitute(template, slot_banks, (90,))

    def test_aliasing_binding_rejected(self):
        """Two slots of one bank onto the same row would silently merge
        activation counts past the insert-time verification."""
        template, _, slot_banks = canonicalize(hammer_program((40, 42)))
        with pytest.raises(EngineError, match="aliases"):
            substitute(template, slot_banks, (90, 90))

    def test_count_binding_sets_the_loop_count(self):
        template, _, slot_banks = canonicalize(
            hammer_program((40, 42), count=4), 4)
        assert substitute(template, slot_banks, (90, 92), 9) == \
            hammer_program((90, 92), count=9)
        assert substitute(template, slot_banks, (90, 92)) == \
            hammer_program((90, 92), count=4)
        with pytest.raises(EngineError, match="positive"):
            substitute(template, slot_banks, (90, 92), 0)

    def test_same_row_allowed_across_banks(self):
        builder = ProgramBuilder()
        builder.act(0, 0, 0, 5)
        builder.pre(0, 0, 0)
        builder.act(0, 0, 1, 9)
        builder.pre(0, 0, 1)
        template, _, slot_banks = canonicalize(builder.build())
        rebound = substitute(template, slot_banks, (3, 3))
        assert act_rows(rebound) == [3, 3]


class TestShapeDigest:
    def test_row_values_do_not_change_the_digest(self, small_host):
        timing = small_host.device.timing
        one, _, _ = canonicalize(hammer_program((40, 42)))
        other, _, _ = canonicalize(hammer_program((90, 92)))
        assert shape_digest(one, timing) == shape_digest(other, timing)

    def test_shape_parameters_change_the_digest(self, small_host):
        timing = small_host.device.timing
        one, _, _ = canonicalize(hammer_program((40, 42), count=4))
        other, _, _ = canonicalize(hammer_program((40, 42), count=5))
        assert shape_digest(one, timing) != shape_digest(other, timing)


    def test_count_slot_leaves_the_count_out(self, small_host):
        timing = small_host.device.timing

        def digest(count, counted):
            template, _, _ = canonicalize(
                hammer_program((40, 42), count=count),
                count if counted else None)
            return shape_digest(template, timing, counted=counted)

        assert digest(4, True) == digest(5, True)
        assert digest(4, True) != digest(4, False)


class TestProgramCache:
    def test_miss_then_hits_build_and_verify_once(self, small_host,
                                                  monkeypatch):
        """Declared checks cost one verifier pass per miss on the
        production path and none per hit; without a cache, one per
        call."""
        passes = []
        original = verifier.verify_program

        def counting(program, context=None):
            passes.append(context)
            return original(program, context)

        monkeypatch.setattr(verifier, "verify_program", counting)
        calls = {"build": 0, "checks": 0}

        def run(execute, rows):
            def build():
                calls["build"] += 1
                return hammer_program(rows)

            def checks():
                calls["checks"] += 1
                return hammer_checks(small_host,
                                     DramAddress(0, 0, 1, rows[0]), rows, 4)

            return execute(("hammer", 0, 0, 1, 4), rows, build, checks)

        cache = ProgramCache(FastPathBackend(small_host))
        run(cache.execute, (40, 42))
        assert len(passes) == 1
        assert passes[0].expected_hammers == {(0, 0, 1, 40): 4,
                                              (0, 0, 1, 42): 4}
        run(cache.execute, (90, 92))
        run(cache.execute, (110, 112))
        assert calls == {"build": 1, "checks": 1}
        assert len(passes) == 1
        assert (cache.misses, cache.hits) == (1, 2)
        assert cache.hit_rate == pytest.approx(2 / 3)
        assert len(cache) == 1

        assert small_host.program_cache is None
        for rows in ((40, 42), (90, 92), (110, 112)):
            run(small_host.cached_run, rows)
        assert calls == {"build": 4, "checks": 4}
        assert len(passes) == 4

    def test_counters_exported_through_metrics_registry(self, small_host):
        cache = ProgramCache(FastPathBackend(small_host))
        registry = MetricsRegistry()
        with use_metrics(registry):
            cache.execute(("hammer", 0, 0, 1, 4), (40, 42),
                          lambda: hammer_program((40, 42)))
            cache.execute(("hammer", 0, 0, 1, 4), (90, 92),
                          lambda: hammer_program((90, 92)))
        counters = registry.snapshot()["counters"]
        assert counters["engine.cache.misses"] == 1
        assert counters["engine.cache.hits"] == 1

    def test_binding_mismatch_is_an_engine_error(self, small_host):
        cache = ProgramCache(FastPathBackend(small_host))
        with pytest.raises(EngineError, match="declared row binding"):
            cache.execute(("hammer", 0, 0, 1, 4), (40,),
                          lambda: hammer_program((40, 42)))

    def test_distinct_keys_same_shape_share_one_entry(self, small_host):
        """Content addressing: the digest dedupes across caller keys."""
        cache = ProgramCache(FastPathBackend(small_host))
        cache.execute(("site_a", 4), (40, 42),
                      lambda: hammer_program((40, 42)))
        cache.execute(("site_b", 4), (90, 92),
                      lambda: hammer_program((90, 92)))
        assert cache.misses == 2
        assert len(cache) == 1  # one compiled entry behind both keys

    def test_max_entries_bounds_the_key_store(self, small_host):
        """Past the bound the least recently used key is evicted; a
        digest's entry stays while any resident key maps to it."""
        cache = ProgramCache(FastPathBackend(small_host), max_entries=2)

        def run(key, count):
            cache.execute((key,), (40, 42),
                          lambda: hammer_program((40, 42), count=count))

        run("a", 4)
        run("b", 5)
        run("a", 4)  # a is now the most recently used
        run("c", 6)  # evicts b
        assert (cache.misses, cache.hits) == (3, 1)
        run("a", 4)
        assert (cache.misses, cache.hits) == (3, 2)
        run("b", 5)  # b was evicted: it compiles again, evicting c
        assert (cache.misses, cache.hits) == (4, 2)
        run("c", 6)
        assert (cache.misses, cache.hits) == (5, 2)
        assert len(cache) == 2

        shared = ProgramCache(FastPathBackend(small_host), max_entries=1)
        shared.execute(("site_a",), (40, 42),
                       lambda: hammer_program((40, 42)))
        shared.execute(("site_b",), (90, 92),
                       lambda: hammer_program((90, 92)))
        assert len(shared) == 1  # site_b still maps to the digest
        shared.execute(("other",), (40, 42),
                       lambda: hammer_program((40, 42), count=5))
        assert len(shared) == 1
        with pytest.raises(EngineError, match="at least 1"):
            ProgramCache(FastPathBackend(small_host), max_entries=0)

    def test_cached_execution_matches_direct_run(self, vulnerable_board):
        """A cache hit's readback is byte-identical to host.run of the
        directly built program on an identical station."""
        from tests.conftest import make_vulnerable_device
        from repro.bender.board import BenderBoard

        host = vulnerable_board.host
        cache = ProgramCache(FastPathBackend(host))
        reference_board = BenderBoard(make_vulnerable_device(seed=5))
        reference_board.device.set_temperature(85.0)
        reference_board.host.set_ecc_enabled(False)
        reference = reference_board.host

        for rows in ((40, 42), (90, 92)):
            fill = bytes([0x55]) * host.device.geometry.row_bytes
            for row in rows + (rows[0] + 1,):
                address = DramAddress(0, 0, 1, row)
                host.write_row(address, fill)
                reference.write_row(address, fill)
            cached = cache.execute(
                ("hammer", 0, 0, 1, 50_000), rows,
                lambda: hammer_program(rows, count=50_000))
            direct = reference.run(hammer_program(rows, count=50_000))
            assert cached.duration_cycles == direct.duration_cycles
            victim = DramAddress(0, 0, 1, rows[0] + 1)
            assert host.read_row(victim).tobytes() == \
                reference.read_row(victim).tobytes()
        assert cache.hits == 1
