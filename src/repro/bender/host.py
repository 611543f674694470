"""Host-side interface to the (simulated) DRAM Bender board.

The host machine in the paper's setup talks to the FPGA over PCIe: it
uploads test programs, streams back read data, and pokes mode registers.
:class:`HostInterface` is that API.  Characterization code in
:mod:`repro.core` is written exclusively against this interface — the same
separation the real infrastructure enforces — so swapping the simulated
device for real hardware would only replace this module's backend.

Programs reach the device one of two ways, with the same resulting
device state.  A station with engine services installed (see
:class:`repro.engine.session.EngineSession`) runs each program shape
through its program cache and analytic fast-path backend; a station
without them — a bare board, or a session under ``$REPRO_FASTPATH=0``
— is the oracle: it builds, verifies and interprets every program per
call.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.bender.interpreter import ExecutionResult, Interpreter
from repro.bender.program import Program, ProgramBuilder
from repro.dram.address import DramAddress
from repro.dram.device import Device
from repro.errors import ProgramError


class HostInterface:
    """Program upload, data readback, and device management."""

    def __init__(self, device: Device,
                 interpreter: Optional[Interpreter] = None,
                 transport=None) -> None:
        """
        Args:
            device: the board-side device model.
            interpreter: board-side executor (default: a fresh one).
            transport: optional :class:`repro.bender.transport.
                PcieTransport`; when given, every program round-trips
                through the serialized wire format and the link's
                statistics accumulate.
        """
        self.device = device
        self._interpreter = interpreter or Interpreter(device)
        self._transport = transport
        #: Engine services, installed by :class:`repro.engine.session.
        #: EngineSession` when it adopts the board: ``engine_backend``
        #: is the station's :class:`~repro.engine.backend.
        #: FastPathBackend`, ``program_cache`` the shape cache in front
        #: of it.  Both stay None on the oracle (a bare board, or a
        #: session under ``$REPRO_FASTPATH=0``), where every helper
        #: below builds, verifies and interprets its program per call.
        self.engine_backend = None
        self.program_cache = None

    @property
    def interpreter(self) -> Interpreter:
        """The board-side executor (the engine lowers payloads on it)."""
        return self._interpreter

    # ------------------------------------------------------------------
    # Program execution
    # ------------------------------------------------------------------
    def run(self, program: Program) -> ExecutionResult:
        """Execute a test program and return its readback stream."""
        if self._transport is not None:
            return self._transport.run(program)
        return self._interpreter.run(program)

    def set_transport(self, transport) -> None:
        """Route subsequent programs through ``transport`` (None = direct)."""
        self._transport = transport

    @property
    def transport(self):
        """The link programs round-trip through (None = direct)."""
        return self._transport

    def cached_run(self, key, rows, build, checks=None,
                   count=None) -> ExecutionResult:
        """Run the program ``build()`` would produce, through the shape
        cache when one is installed.

        ``key`` identifies the program *shape* (everything but the ACT
        row operands and the count); ``rows`` is the row binding, in
        first-ACT order.  ``count`` is the count binding of a program
        whose one hammer loop sits between a LOOP-free prefix and
        suffix — the loop's iteration count — so one shape serves every
        count (see :mod:`repro.engine.cache`).  ``checks``
        returns the :class:`~repro.verify.VerifyContext` the built
        program must pass before it runs (a violation raises
        :class:`~repro.errors.VerificationError`); like ``build``, it is
        called once per shape (and per widening to a larger count) with
        the cache, once per call without.
        """
        if self.program_cache is None:
            program = build()
            if checks is not None:
                # Imported lazily: repro.verify.program imports this
                # package.
                from repro.verify.program import assert_verified
                assert_verified(program, checks(),
                                what=f"program {key!r} on rows "
                                     f"{tuple(rows)}")
            return self.run(program)
        return self.program_cache.execute(key, rows, build, checks, count)

    # ------------------------------------------------------------------
    # Row-granularity convenience wrappers (each is a tiny test program)
    # ------------------------------------------------------------------
    def write_row(self, address: DramAddress, data: bytes) -> None:
        """ACT + WRROW + PRE."""
        address.validate(self.device.geometry)
        if len(data) != self.device.geometry.row_bytes:
            raise ProgramError(
                f"row data must be {self.device.geometry.row_bytes} bytes, "
                f"got {len(data)}")
        def build() -> Program:
            builder = ProgramBuilder()
            builder.act(address.channel, address.pseudo_channel,
                        address.bank, address.row)
            builder.wr_row(address.channel, address.pseudo_channel,
                           address.bank, data)
            builder.pre(address.channel, address.pseudo_channel, address.bank)
            return builder.build()

        self.cached_run(("write_row", address.channel, address.pseudo_channel,
                         address.bank, data), (address.row,), build)

    def write_rows(self, channel: int, pseudo_channel: int, bank: int,
                   items: Sequence[Tuple[int, bytes]]) -> None:
        """Fill several rows of one bank in a single test program.

        ``items`` is a sequence of (logical row, row payload) pairs;
        the program is the same ACT + WRROW + PRE triad per row that
        :meth:`write_row` issues, in order, so the command stream is
        identical to one ``write_row`` call per item — but the shape
        caches once and executes as one program (and the engine's
        analytic fast path can batch the whole run).  Rows must be
        distinct; duplicate rows fall back to per-row ``write_row``
        calls (the shape cache requires distinct rows per bank).
        """
        geometry = self.device.geometry
        row_list = tuple(row for row, _ in items)
        if len(set(row_list)) != len(row_list):
            for row, data in items:
                self.write_row(DramAddress(channel, pseudo_channel,
                                           bank, row), data)
            return
        geometry.check_channel(channel)
        geometry.check_pseudo_channel(pseudo_channel)
        geometry.check_bank(bank)
        row_bytes = geometry.row_bytes
        payloads = []
        for row, data in items:
            geometry.check_row(row)
            if len(data) != row_bytes:
                raise ProgramError(
                    f"row data must be {row_bytes} bytes, "
                    f"got {len(data)}")
            payloads.append(data)

        def build() -> Program:
            builder = ProgramBuilder()
            for row, data in items:
                builder.act(channel, pseudo_channel, bank, row)
                builder.wr_row(channel, pseudo_channel, bank, data)
                builder.pre(channel, pseudo_channel, bank)
            return builder.build()

        self.cached_run(("write_rows", channel, pseudo_channel, bank,
                         tuple(payloads)), row_list, build)

    def read_row(self, address: DramAddress) -> np.ndarray:
        """ACT + RDROW + PRE; returns the row as an unpacked bit array."""
        address.validate(self.device.geometry)

        def build() -> Program:
            builder = ProgramBuilder()
            builder.act(address.channel, address.pseudo_channel,
                        address.bank, address.row)
            builder.rd_row(address.channel, address.pseudo_channel,
                           address.bank)
            builder.pre(address.channel, address.pseudo_channel, address.bank)
            return builder.build()

        result = self.cached_run(
            ("read_row", address.channel, address.pseudo_channel,
             address.bank), (address.row,), build)
        return result.row_reads[0]

    def activate_precharge(self, address: DramAddress,
                           count: int = 1) -> None:
        """``count`` ACT/PRE cycles on one row (e.g. a manual refresh)."""
        address.validate(self.device.geometry)

        def build() -> Program:
            builder = ProgramBuilder()
            if count > 1:
                with builder.loop(count):
                    builder.act(address.channel, address.pseudo_channel,
                                address.bank, address.row)
                    builder.pre(address.channel, address.pseudo_channel,
                                address.bank)
            else:
                builder.act(address.channel, address.pseudo_channel,
                            address.bank, address.row)
                builder.pre(address.channel, address.pseudo_channel,
                            address.bank)
            return builder.build()

        self.cached_run(("act_pre", address.channel, address.pseudo_channel,
                         address.bank, count), (address.row,), build)

    def refresh(self, channel: int, pseudo_channel: int,
                count: int = 1) -> None:
        """Issue ``count`` periodic REF commands."""
        def build() -> Program:
            builder = ProgramBuilder()
            if count > 1:
                with builder.loop(count):
                    builder.ref(channel, pseudo_channel)
            else:
                builder.ref(channel, pseudo_channel)
            return builder.build()

        self.cached_run(("refresh", channel, pseudo_channel, count), (),
                        build)

    def wait_seconds(self, seconds: float) -> None:
        """Idle the command bus for a wall-clock duration."""
        def build() -> Program:
            builder = ProgramBuilder()
            builder.wait_time(seconds, self.device.timing.frequency_hz)
            return builder.build()

        self.cached_run(("wait", seconds), (), build)

    # ------------------------------------------------------------------
    # Device management
    # ------------------------------------------------------------------
    def set_ecc_enabled(self, enabled: bool) -> None:
        """Mode-register write toggling on-die ECC on every channel."""
        self.device.set_ecc_enabled(enabled)
