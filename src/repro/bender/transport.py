"""Host-to-board transport: the PCIe link of the testing setup.

The paper's host machine uploads test programs to the FPGA and streams
read data back over PCIe (Fig. 2, item 5).  :class:`PcieTransport`
models that hop: programs are serialized to the assembly wire format,
"sent" across a bandwidth-limited link, deserialized board-side, and
executed; readback data pays the return trip.  The link accounts
transfer *host time*, which is separate from (and overlaps with) DRAM
time — exactly why the real infrastructure batches row reads.

The transport is optional — `HostInterface` drives the interpreter
directly by default — but running through it buys two things:

* the assembler becomes load-bearing (every program round-trips through
  its text format, so the wire encoding is exercised by any test that
  uses the transport), and
* campaigns can report how much host-side I/O a methodology costs, a
  real bottleneck when characterizing thousands of rows.

Resilience: real links flake.  :class:`ResilientTransport` wraps any
transport with bounded retries under exponential backoff (with
deterministic jitter, so a retried campaign is reproducible), and
verifies every readback against the board-side digest — a corrupted or
truncated readback is re-requested from the board's buffer *without
re-executing the program* (re-execution would re-hammer the rows and
corrupt the measurement).  Fault injection for all of this lives in
:mod:`repro.faults.inject`.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.bender.assembler import assemble, disassemble
from repro.bender.interpreter import ExecutionResult, Interpreter
from repro.bender.program import Program
from repro.dram.device import Device
from repro.errors import AssemblyError, ConfigurationError, TransportFault
from repro.obs import get_metrics
from repro.rng import uniform_hash01

__all__ = [
    "LinkStatistics",
    "PcieTransport",
    "ResilientTransport",
    "execution_digest",
]


def execution_digest(result: ExecutionResult) -> str:
    """Stable digest of a result's readback payload.

    The board computes this before the return trip and the host after
    it, so a downlink corruption (or truncation) is detectable without
    shipping the data twice — the CRC handshake of real DMA engines.
    """
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(len(result.column_reads).to_bytes(4, "little"))
    for data in result.column_reads:
        hasher.update(len(data).to_bytes(4, "little"))
        hasher.update(bytes(data))
    hasher.update(len(result.row_reads).to_bytes(4, "little"))
    for bits in result.row_reads:
        hasher.update(int(bits.size).to_bytes(4, "little"))
        hasher.update(bits.tobytes())
    return hasher.hexdigest()


@dataclass
class LinkStatistics:
    """Byte and time accounting for one PCIe link."""

    programs_sent: int = 0
    bytes_up: int = 0
    bytes_down: int = 0
    transfer_time_s: float = 0.0
    #: Readback re-requests served from the board-side buffer.
    rerequests: int = 0

    def merge_transfer(self, up: int, down: int,
                       bandwidth_bytes_per_s: float) -> None:
        self.programs_sent += 1
        self.bytes_up += up
        self.bytes_down += down
        self.transfer_time_s += (up + down) / bandwidth_bytes_per_s

    def merge_rerequest(self, down: int,
                        bandwidth_bytes_per_s: float) -> None:
        self.rerequests += 1
        self.bytes_down += down
        self.transfer_time_s += down / bandwidth_bytes_per_s


class PcieTransport:
    """Executes programs through a serialized, bandwidth-limited hop."""

    #: Per-transfer protocol overhead (descriptors, doorbells), bytes.
    TRANSFER_OVERHEAD_BYTES = 128

    def __init__(self, device: Device,
                 bandwidth_bytes_per_s: float = 3.0e9,
                 interpreter: Optional[Interpreter] = None) -> None:
        """
        Args:
            device: the board-side device model.
            bandwidth_bytes_per_s: usable link bandwidth (default ~PCIe
                gen3 x4 after protocol overhead).
            interpreter: board-side executor (default: a fresh one).
        """
        if bandwidth_bytes_per_s <= 0:
            raise ConfigurationError("bandwidth must be positive")
        self._device = device
        self._bandwidth = bandwidth_bytes_per_s
        self._interpreter = interpreter or Interpreter(device)
        self.statistics = LinkStatistics()
        #: Physical transfers attempted (including failed and re-requested
        #: ones).  Fault plans key link faults on this, so a *retried*
        #: transfer is a fresh draw — exactly like a real wire, where a
        #: resend is a new shot at the same noisy channel.
        self._transfer_counter = 0
        #: Board-side readback buffer + digest of the last execution;
        #: lets a resilient caller re-request a mangled readback
        #: without re-running the program.
        self._buffered: Optional[ExecutionResult] = None
        self.last_digest: Optional[str] = None

    # ------------------------------------------------------------------
    # Stage hooks — overridden by the fault-injecting transport.
    # ------------------------------------------------------------------
    def _transmit(self, wire_text: str, transfer_index: int) -> str:
        """Uplink hop: returns the wire text as received board-side."""
        return wire_text

    def _deliver(self, result: ExecutionResult,
                 transfer_index: int) -> ExecutionResult:
        """Downlink hop: returns the readback as received host-side."""
        return result

    # ------------------------------------------------------------------
    def run(self, program: Program) -> ExecutionResult:
        """Serialize, ship, deserialize, execute, and bill the readback.

        Uplink integrity is checked *before* execution: wire text that
        no longer assembles raises a retryable
        :class:`~repro.errors.TransportFault` (nothing ran, so a resend
        is safe), while text that assembles to a *different* program is
        an assembler bug worth failing loudly on.  The executed result
        is buffered board-side with its digest so
        :meth:`rerequest_readback` can re-serve it.
        """
        transfer_index = self._transfer_counter
        self._transfer_counter += 1
        wire_text = disassemble(program)
        received_text = self._transmit(wire_text, transfer_index)
        try:
            board_side_program = assemble(received_text)
        except AssemblyError as error:
            raise TransportFault(
                f"upload corrupted in flight: {error}") from error
        if board_side_program != program:
            raise ConfigurationError(
                "wire format corrupted the program (assembler bug)")

        result = self._interpreter.run(board_side_program)
        self._buffered = result
        self.last_digest = execution_digest(result)
        delivered = self._deliver(result, transfer_index)

        up = len(wire_text.encode()) + self.TRANSFER_OVERHEAD_BYTES
        down = self._readback_bytes(delivered)
        self.statistics.merge_transfer(up, down, self._bandwidth)
        return delivered

    def rerequest_readback(self) -> ExecutionResult:
        """Re-serve the buffered readback of the last execution.

        Pays the downlink again (statistics) but does not touch the
        device — the recovery path for a corrupted or truncated
        readback, where re-running the program would re-hammer rows.
        """
        if self._buffered is None:
            raise TransportFault("no readback buffered to re-request")
        transfer_index = self._transfer_counter
        self._transfer_counter += 1
        delivered = self._deliver(self._buffered, transfer_index)
        self.statistics.merge_rerequest(self._readback_bytes(delivered),
                                        self._bandwidth)
        return delivered

    def _readback_bytes(self, result: ExecutionResult) -> int:
        down = sum(len(data) for data in result.column_reads)
        # Round up: a row whose bit count is not byte-aligned still
        # occupies whole bytes on the wire.
        down += sum((bits.size + 7) // 8 for bits in result.row_reads)
        return down + self.TRANSFER_OVERHEAD_BYTES


class ResilientTransport:
    """Retry/verify wrapper making any transport safe to campaign over.

    * **Uplink faults** (:class:`~repro.errors.TransportFault` from
      ``run``) are retried up to ``max_retries`` times under
      exponential backoff with deterministic jitter — nothing executed,
      so a resend cannot perturb the experiment.
    * **Downlink faults** are caught by comparing the delivered
      readback's digest against the transport's board-side digest; a
      mismatch triggers a readback re-request from the board buffer
      (never a re-execution).

    All events flow through :mod:`repro.obs`: ``transport.retries``,
    ``transport.backoff_s``, ``transport.rereads``,
    ``transport.faults``.
    """

    def __init__(self, transport: PcieTransport, *, max_retries: int = 4,
                 backoff_base_s: float = 0.001, seed: int = 0,
                 sleep: Optional[Callable[[float], None]] = None) -> None:
        """
        Args:
            transport: the wrapped link (typically a
                :class:`~repro.faults.inject.FaultyTransport`).
            max_retries: extra attempts per stage (send and readback
                verify each get their own budget).
            backoff_base_s: first-retry backoff; doubles per attempt.
            seed: keys the deterministic backoff jitter.
            sleep: override for :func:`time.sleep` (tests pass a spy).
        """
        if max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if backoff_base_s < 0:
            raise ConfigurationError("backoff_base_s must be >= 0")
        self._transport = transport
        self._max_retries = max_retries
        self._backoff_base_s = backoff_base_s
        self._seed = seed
        self._sleep = sleep or time.sleep
        self._operations = 0

    @property
    def statistics(self) -> LinkStatistics:
        return self._transport.statistics

    @property
    def transport(self) -> PcieTransport:
        """The wrapped transport (for statistics or buffer inspection)."""
        return self._transport

    # ------------------------------------------------------------------
    def run(self, program: Program) -> ExecutionResult:
        metrics = get_metrics()
        operation = self._operations
        self._operations += 1
        last_fault: Optional[TransportFault] = None
        for attempt in range(1 + self._max_retries):
            if attempt:
                metrics.counter("transport.retries").inc()
                self._backoff(operation, attempt)
            try:
                result = self._transport.run(program)
            except TransportFault as fault:
                metrics.counter("transport.faults").inc()
                last_fault = fault
                continue
            return self._verified(result, metrics)
        raise TransportFault(
            f"link failed after {1 + self._max_retries} attempts: "
            f"{last_fault}") from last_fault

    def _verified(self, result: ExecutionResult,
                  metrics) -> ExecutionResult:
        """Digest-check the readback; re-request from the buffer until
        it arrives clean or the retry budget is exhausted."""
        expected = self._transport.last_digest
        if expected is None:
            return result
        for attempt in range(1 + self._max_retries):
            if execution_digest(result) == expected:
                return result
            metrics.counter("transport.faults").inc()
            if attempt == self._max_retries:
                break
            metrics.counter("transport.rereads").inc()
            result = self._transport.rerequest_readback()
        raise TransportFault(
            f"readback failed digest verification after "
            f"{1 + self._max_retries} attempts")

    def _backoff(self, operation: int, attempt: int) -> None:
        if self._backoff_base_s <= 0:
            return
        jitter = uniform_hash01(self._seed,
                                ("transport.backoff", operation, attempt))
        delay = self._backoff_base_s * (2 ** (attempt - 1)) * (0.5 + jitter)
        get_metrics().histogram("transport.backoff_s").observe(delay)
        self._sleep(delay)
