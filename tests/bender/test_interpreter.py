"""Tests for repro.bender.interpreter — including bulk/unrolled equivalence."""

import numpy as np
import pytest

from repro.bender.interpreter import BULK_LOOP_THRESHOLD, Interpreter
from repro.bender.program import ProgramBuilder
from repro.errors import ProgramError
from repro.obs import MetricsRegistry, use_metrics

from tests.conftest import make_vulnerable_device, unrolled


def fill(device, byte):
    return bytes([byte]) * device.geometry.row_bytes


def write_row(builder, device, row, byte):
    builder.act(0, 0, 0, row)
    builder.wr_row(0, 0, 0, fill(device, byte))
    builder.pre(0, 0, 0)


class TestBasicExecution:
    def test_reads_are_collected_in_order(self):
        device = make_vulnerable_device(seed=1)
        device.set_ecc_enabled(False)
        builder = ProgramBuilder()
        builder.act(0, 0, 0, 10)
        builder.wr(0, 0, 0, 0, b"\x11" * device.geometry.column_bytes)
        builder.wr(0, 0, 0, 1, b"\x22" * device.geometry.column_bytes)
        builder.rd(0, 0, 0, 0)
        builder.rd(0, 0, 0, 1)
        builder.rd_row(0, 0, 0)
        builder.pre(0, 0, 0)
        result = Interpreter(device).run(builder.build())
        assert result.column_reads[0] == b"\x11" * device.geometry.column_bytes
        assert result.column_reads[1] == b"\x22" * device.geometry.column_bytes
        assert len(result.row_reads) == 1

    def test_duration_accounts_cycles(self):
        device = make_vulnerable_device(seed=1)
        builder = ProgramBuilder()
        builder.wait(500)
        result = Interpreter(device).run(builder.build())
        assert result.duration_cycles >= 500

    def test_unknown_instruction_raises(self):
        device = make_vulnerable_device(seed=1)
        interpreter = Interpreter(device)
        with pytest.raises(ProgramError):
            interpreter._run_one("BOGUS", None)


class TestLoopExecution:
    def test_small_loops_run_slow_path(self):
        device = make_vulnerable_device(seed=1)
        builder = ProgramBuilder()
        with builder.loop(3):
            builder.act(0, 0, 0, 10)
            builder.pre(0, 0, 0)
        Interpreter(device).run(builder.build())
        assert device.command_counts["ACT"] == 3

    @pytest.mark.parametrize("count, route", [
        (BULK_LOOP_THRESHOLD - 1, "slow"), (BULK_LOOP_THRESHOLD, "fast")])
    def test_bulk_threshold(self, count, route):
        device = make_vulnerable_device(seed=1)
        builder = ProgramBuilder()
        with builder.loop(count):
            builder.act(0, 0, 0, 10)
            builder.pre(0, 0, 0)
        registry = MetricsRegistry()
        with use_metrics(registry):
            Interpreter(device).run(builder.build())
        assert registry.snapshot()["counters"] == {
            "bender.programs": 1,
            f"bender.loop_iterations.{route}": count}
        assert device.command_counts["ACT"] == count

    def test_loop_with_reads_uses_slow_path(self):
        device = make_vulnerable_device(seed=1)
        device.set_ecc_enabled(False)
        builder = ProgramBuilder()
        builder.act(0, 0, 0, 10)
        with builder.loop(20):
            builder.rd(0, 0, 0, 0)
        builder.pre(0, 0, 0)
        result = Interpreter(device).run(builder.build())
        assert len(result.column_reads) == 20

    def test_zero_iteration_loop(self):
        device = make_vulnerable_device(seed=1)
        builder = ProgramBuilder()
        with builder.loop(0):
            builder.act(0, 0, 0, 10)
        Interpreter(device).run(builder.build())
        assert device.command_counts.get("ACT", 0) == 0


class TestFastSlowEquivalence:
    """Bulk-applied loops against the unrolled oracle."""

    def run_hammer(self, unroll, iterations=600, seed=2):
        device = make_vulnerable_device(seed=seed)
        device.set_ecc_enabled(False)
        victim_logical = device.mapper.physical_to_logical(20)
        aggressors = [device.mapper.physical_to_logical(row)
                      for row in (19, 21)]
        builder = ProgramBuilder()
        write_row(builder, device, victim_logical, 0x00)
        for row in aggressors:
            write_row(builder, device, row, 0xFF)
        with builder.loop(iterations):
            for row in aggressors:
                builder.act(0, 0, 0, row)
                builder.pre(0, 0, 0)
        builder.act(0, 0, 0, victim_logical)
        builder.rd_row(0, 0, 0)
        builder.pre(0, 0, 0)
        program = builder.build()
        result = Interpreter(device).run(
            unrolled(program) if unroll else program)
        return result, device

    def test_identical_readback(self):
        fast_result, __ = self.run_hammer(unroll=False)
        slow_result, __ = self.run_hammer(unroll=True)
        assert np.array_equal(fast_result.row_reads[0],
                              slow_result.row_reads[0])

    def test_identical_duration(self):
        """The bulk path must account the same number of cycles the
        unrolled loop would take."""
        fast_result, __ = self.run_hammer(unroll=False)
        slow_result, __ = self.run_hammer(unroll=True)
        assert fast_result.duration_cycles == slow_result.duration_cycles

    def test_identical_command_counts(self):
        __, fast_device = self.run_hammer(unroll=False)
        __, slow_device = self.run_hammer(unroll=True)
        assert fast_device.command_counts == slow_device.command_counts

    def test_flips_occur_at_scale(self):
        """Sanity: the equivalence test exercises real flips."""
        result, device = self.run_hammer(unroll=False,
                                         iterations=60_000)
        assert result.row_reads[0].sum() > 0

    def test_wait_only_loop_is_fast_eligible(self):
        device = make_vulnerable_device(seed=1)
        builder = ProgramBuilder()
        with builder.loop(1_000_000):
            builder.wait(10)
        Interpreter(device).run(builder.build())
        assert device.now >= 10_000_000
