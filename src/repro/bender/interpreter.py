"""Test-program interpreter with a vectorised hammering fast path.

The interpreter executes a :class:`~repro.bender.program.Program` against
a :class:`~repro.dram.device.Device`, scheduling every command at its
earliest timing-legal cycle (the device enforces constraints) and
collecting read data.

**Bulk loops.**  RowHammer programs spend nearly all their dynamic
instructions inside one loop: ``LOOP N { ACT a1; PRE; ACT a2; PRE }`` with
N in the hundreds of thousands.  :func:`run_loop` is the one loop policy
for loops whose body contains only ACT/PRE/PREA/WAIT: it executes the
first two iterations one by one (the second runs at the pipeline's
steady-state rate), measures the steady-state iteration period, applies
``N - 3`` iterations in one call to
:meth:`~repro.dram.device.Device.bulk_activations` — whose semantics are
defined to match the unrolled loop — and runs the last iteration one by
one.  The engine's analytic fast path applies its hammer ops through the
same function, and its fused hammer tests through the function's warm-up
and trailing hooks.  Tests obtain the unrolled oracle by expanding every
``Loop`` of a program (see ``tests/bender/test_interpreter.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.bender import isa
from repro.bender.program import Program
from repro.dram.device import Device
from repro.dram.ecc import encode_words
from repro.errors import ProgramError
from repro.obs import get_metrics


#: Iteration count from which :func:`run_loop` bulk-applies a loop: the
#: split needs two warm-up iterations and a trailing one, and shorter
#: loops are cheaper to just iterate.
BULK_LOOP_THRESHOLD = 8


def run_loop(device: Device, iterations: int,
             run_iterations: Callable[[int], None],
             body_acts: Iterable[Tuple[int, int, int, int]],
             on_bulk: Optional[Callable[[int, int], None]] = None,
             run_warmups: Optional[Callable[[], int]] = None,
             run_trailing: Optional[Callable[[], None]] = None) -> bool:
    """Run ``iterations`` of an ACT/PRE/PREA/WAIT loop body; True if bulk.

    Below :data:`BULK_LOOP_THRESHOLD` every iteration runs through
    ``run_iterations(iterations)``.  Otherwise two warm-up iterations
    run (the first may pay cold timing such as a pending tRP; the second
    runs at steady state) and measure the steady-state period,
    ``iterations - 3`` are applied by
    :meth:`~repro.dram.device.Device.bulk_activations`, and one trailing
    iteration runs so the bank timing state (e.g. the trailing tRC
    window) is exactly what the unrolled loop leaves.

    ``run_iterations(n)`` runs ``n`` iterations one by one.  By default
    the warm-up and trailing iterations run through it too;
    ``run_warmups()`` instead runs the two warm-ups and returns the
    clock at the second one's start, and ``run_trailing()`` runs the
    trailing iteration — so a caller can fold work before and after
    the loop into them.  ``body_acts`` lists the body's ACT targets as
    (channel, pseudo channel, bank, logical row) and is consumed only
    when the loop is bulk-applied; ``on_bulk(remaining, period)`` is
    called just before.
    """
    if iterations < BULK_LOOP_THRESHOLD:
        run_iterations(iterations)
        return False
    if run_warmups is None:
        run_iterations(1)
        before_second = device.now
        run_iterations(1)
    else:
        before_second = run_warmups()
    period = device.now - before_second
    remaining = iterations - 3
    if on_bulk is not None:
        on_bulk(remaining, period)
    device.bulk_activations(body_acts, remaining, remaining * period)
    if run_trailing is None:
        run_iterations(1)
    else:
        run_trailing()
    return True


@dataclass
class ExecutionResult:
    """Everything a test program sends back to the host.

    Attributes:
        column_reads: data of each RD, in program order.
        row_reads: unpacked bit arrays of each RDROW, in program order.
        start_cycle / end_cycle: device clock at program entry and exit.
        loop_cycles: device cycles spent inside the program's top-level
            loops — the hammer section of a program that writes a
            neighbourhood, hammers it and reads it back.
        trace: per-instruction log lines when tracing is enabled
            (bulk-applied loop iterations appear as one summary line).
    """

    column_reads: List[bytes] = field(default_factory=list)
    row_reads: List[np.ndarray] = field(default_factory=list)
    start_cycle: int = 0
    end_cycle: int = 0
    loop_cycles: int = 0
    trace: List[str] = field(default_factory=list)

    @property
    def duration_cycles(self) -> int:
        return self.end_cycle - self.start_cycle


class Interpreter:
    """Executes test programs on a device."""

    def __init__(self, device: Device, trace: bool = False) -> None:
        """
        Args:
            device: target device model.
            trace: record one log line per executed instruction into
                ``ExecutionResult.trace`` (bulk-applied iterations are
                summarized).  For debugging.
        """
        self._device = device
        self._trace = trace
        #: Row-payload lowering cache: WRROW payload bytes -> their
        #: (unpacked bits, ECC parity), both pure functions of the
        #: payload, so repeated data fills skip the unpack and encode.
        self.payload_cache: Dict[bytes, Tuple[np.ndarray, np.ndarray]] = {}

    @property
    def trace_enabled(self) -> bool:
        return self._trace

    def lower_payload(self, data: bytes) -> Tuple[np.ndarray, np.ndarray]:
        """The memoized (bits, parity) lowering of one WRROW payload.

        Both arrays are read-only: rows written analytically adopt
        them as shared storage (:meth:`~repro.dram.bank.Bank.
        store_full_row`), so a write that skipped the bank's
        copy-on-write would raise rather than change other rows.
        """
        lowered = self.payload_cache.get(data)
        if lowered is None:
            bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
            parity = encode_words(bits)
            bits.setflags(write=False)
            parity.setflags(write=False)
            lowered = self.payload_cache[data] = (bits, parity)
        return lowered

    def run(self, program: Program) -> ExecutionResult:
        """Execute ``program``; returns the readback stream."""
        get_metrics().counter("bender.programs").inc()
        device = self._device
        result = ExecutionResult(start_cycle=device.now)
        self._run_sequence(program.instructions, result, timed=True)
        result.end_cycle = device.now
        return result

    # ------------------------------------------------------------------
    def _run_sequence(self, instructions, result: ExecutionResult,
                      timed: bool = False) -> None:
        """Run ``instructions``; ``timed`` adds each loop's cycles to
        ``result.loop_cycles`` (a program's top-level loops)."""
        for instruction in instructions:
            if isinstance(instruction, isa.Loop):
                entry = self._device.now
                self._run_loop(instruction, result)
                if timed:
                    result.loop_cycles += self._device.now - entry
            else:
                self._run_one(instruction, result)

    def _run_one(self, instruction, result: ExecutionResult) -> None:
        device = self._device
        if self._trace:
            result.trace.append(
                f"{device.now:>12} {isa.mnemonic(instruction)} "
                f"{self._operands(instruction)}")
        if isinstance(instruction, isa.Act):
            device.activate(instruction.channel, instruction.pseudo_channel,
                            instruction.bank, instruction.row)
        elif isinstance(instruction, isa.Pre):
            device.precharge(instruction.channel, instruction.pseudo_channel,
                             instruction.bank)
        elif isinstance(instruction, isa.PreA):
            device.precharge_all(instruction.channel,
                                 instruction.pseudo_channel)
        elif isinstance(instruction, isa.Rd):
            result.column_reads.append(
                device.read(instruction.channel, instruction.pseudo_channel,
                            instruction.bank, instruction.column))
        elif isinstance(instruction, isa.Wr):
            device.write(instruction.channel, instruction.pseudo_channel,
                         instruction.bank, instruction.column,
                         instruction.data)
        elif isinstance(instruction, isa.RdRow):
            result.row_reads.append(
                device.read_open_row(instruction.channel,
                                     instruction.pseudo_channel,
                                     instruction.bank))
        elif isinstance(instruction, isa.WrRow):
            bits, parity = self.lower_payload(instruction.data)
            device.write_open_row(instruction.channel,
                                  instruction.pseudo_channel,
                                  instruction.bank, bits, parity=parity)
        elif isinstance(instruction, isa.Ref):
            device.refresh(instruction.channel, instruction.pseudo_channel)
        elif isinstance(instruction, isa.Wait):
            device.wait(instruction.cycles)
        else:
            raise ProgramError(f"unknown instruction: {instruction!r}")

    # ------------------------------------------------------------------
    def _run_loop(self, loop: isa.Loop, result: ExecutionResult) -> None:
        def run_iterations(count: int) -> None:
            for _ in range(count):
                self._run_sequence(loop.body, result)

        if not all(isinstance(instruction, isa.FAST_LOOP_TYPES)
                   for instruction in loop.body):
            get_metrics().counter("bender.loop_iterations.slow").inc(
                loop.count)
            run_iterations(loop.count)
            return

        on_bulk = None
        if self._trace:
            def on_bulk(remaining: int, period: int) -> None:
                result.trace.append(
                    f"{self._device.now:>12} LOOP x{remaining} (bulk, "
                    f"{len(loop.body)} instrs/iter, {period} cycles/iter)")

        body_acts = ((instruction.channel, instruction.pseudo_channel,
                      instruction.bank, instruction.row)
                     for instruction in loop.body
                     if isinstance(instruction, isa.Act))
        bulk = run_loop(self._device, loop.count, run_iterations, body_acts,
                        on_bulk)
        get_metrics().counter(
            "bender.loop_iterations.fast" if bulk
            else "bender.loop_iterations.slow").inc(loop.count)

    @staticmethod
    def _operands(instruction) -> str:
        if isinstance(instruction, isa.Act):
            return (f"ch{instruction.channel} pc{instruction.pseudo_channel} "
                    f"ba{instruction.bank} row{instruction.row}")
        if isinstance(instruction, (isa.Pre, isa.RdRow)):
            return (f"ch{instruction.channel} pc{instruction.pseudo_channel} "
                    f"ba{instruction.bank}")
        if isinstance(instruction, (isa.Rd, isa.Wr)):
            return (f"ch{instruction.channel} pc{instruction.pseudo_channel} "
                    f"ba{instruction.bank} col{instruction.column}")
        if isinstance(instruction, isa.WrRow):
            return (f"ch{instruction.channel} pc{instruction.pseudo_channel} "
                    f"ba{instruction.bank} ({len(instruction.data)} bytes)")
        if isinstance(instruction, (isa.Ref, isa.PreA)):
            return f"ch{instruction.channel} pc{instruction.pseudo_channel}"
        if isinstance(instruction, isa.Wait):
            return f"{instruction.cycles} cycles"
        return ""
