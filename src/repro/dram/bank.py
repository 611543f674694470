"""Bank state machine: row buffer, stored data, and flip materialization.

The bank is where the physics happens.  Data is stored per physical row as
an unpacked bit array; accumulated disturbance and charge age determine
bitflips, which *materialize* whenever a row's charge is sensed — on its
own activation, on a periodic refresh, or on a hidden TRR victim refresh.
Sensing writes the (possibly flipped) values back fully charged, exactly
like a real DRAM sense amplifier: once a flip is sensed it is locked into
the stored data, and the disturbance/retention clocks restart.

A row that has never been written holds no charge (all cells read as
their discharged value), so it can neither gain RowHammer nor retention
flips — which keeps untouched rows free.

Every row materializes through one path, however it was written: only
the cells within a restore's reach are compared, and the aggressor-data
coupling and the intra-row penalty are computed at those cells alone.
A full-row store adopts the lowered payload arrays themselves, shared
read-only between rows, and a row copies them before its first change.

Besides the per-command methods, a bank applies whole recorded streams
and bulk-applied loops in one loop over their events (:meth:`Bank.
replay`), and a stream whose restores are provably quiet as its closed
form's bank side (:meth:`Bank.install_stream`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.dram.calibration import CalibrationProfile
from repro.dram.cellmodel import (
    ECC_PARITY_BITS,
    ECC_WORD_BITS,
    GroundTruthProvider,
)
from repro.dram.disturb import DisturbanceTracker
from repro.dram.ecc import decode_words, encode_words
from repro.dram.geometry import Geometry
from repro.dram.subarrays import SubarrayLayout
from repro.dram.timing import TimingParameters
from repro.errors import CommandError

BankKey = Tuple[int, int, int]


class DeviceEnvironment:
    """Mutable ambient state shared by every bank of a device: the
    temperature and wordline voltage that scale every cell's flip
    threshold and retention time."""

    def __init__(self, temperature_c: float,
                 wordline_voltage_v: float = 2.5) -> None:
        self.temperature_c = temperature_c
        self.wordline_voltage_v = wordline_voltage_v


class Bank:
    """One DRAM bank of the simulated HBM2 stack."""

    def __init__(self, key: BankKey, geometry: Geometry,
                 profile: CalibrationProfile, layout: SubarrayLayout,
                 truth: GroundTruthProvider, timing: TimingParameters,
                 environment: DeviceEnvironment) -> None:
        self._key = key
        self._geometry = geometry
        self._profile = profile
        self._layout = layout
        self._truth = truth
        self._timing = timing
        self._environment = environment

        rows = geometry.rows
        self._bits: Dict[int, np.ndarray] = {}
        self._parity: Dict[int, np.ndarray] = {}
        self._last_restore = np.zeros(rows, dtype=np.int64)
        self.disturbance = DisturbanceTracker(rows, layout, profile)
        self._open_physical: Optional[int] = None
        self._open_since: int = 0
        #: Most recent RowPress amplification per physical row; the
        #: bulk-loop fast path replays these for skipped iterations.
        self._last_open_factor: Dict[int, float] = {}
        #: Rows whose bits/parity arrays are adopted lowered payloads
        #: (:meth:`store_full_row`), shared read-only; every mutation
        #: path must call :meth:`_own_row` first (copy-on-write).
        self._shared_rows: set = set()

        # Cheap guards that skip materialization when no flip is possible.
        # The smallest threshold any cell of this bank can have is bounded
        # below by the floor times the most favourable scales; stay well
        # under it to be safe against hash-tail scale draws.
        channel = key[0]
        orientation_min = min(profile.true_scale_for(channel),
                              profile.anti_scale_for(channel))
        self._disturb_guard = (profile.threshold_floor *
                               profile.channel_scale(channel) *
                               orientation_min * 0.25)
        #: The intra-row penalty factor by count of differing bitline
        #: neighbours (:meth:`_horizontal_penalty`).
        self._penalties = 1.0 + profile.intra_row_penalty * (
            np.arange(3) / 2.0)
        # Retention guard: ~5.5 sigma below the median covers the weakest
        # plausible cell at the reference temperature.
        self._retention_guard_s = (profile.retention_median_s *
                                   float(np.exp(-5.5 * profile.retention_sigma)))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def key(self) -> BankKey:
        return self._key

    @property
    def is_open(self) -> bool:
        return self._open_physical is not None

    # ------------------------------------------------------------------
    # Command-level operations (physical row addressing; the device maps
    # logical addresses before calling in)
    # ------------------------------------------------------------------
    def activate(self, physical_row: int, cycle: int) -> None:
        """ACT: sense ``physical_row`` (materializing its flips) and
        restore its charge.  The neighbour disturbance is accounted at
        the closing PRE, because its magnitude depends on how long the
        row stays open (the RowPress effect, Luo+ ISCA'23)."""
        if self._open_physical is not None:
            raise CommandError(
                f"bank {self._key}: ACT while row "
                f"{self._open_physical} is open")
        self._geometry.check_row(physical_row)
        self.restore_row(physical_row, cycle)
        self._open_physical = physical_row
        self._open_since = cycle

    def precharge(self, cycle: int) -> Optional[Tuple[int, float]]:
        """PRE: close the open row, disturbing its in-subarray
        neighbours by the open-time-amplified activation dose.

        Returns (physical row, dose factor) of the closed activation so
        the device can route any cross-channel leakage — None when no
        row was open.
        """
        if self._open_physical is None:
            return None
        physical_row = self._open_physical
        open_cycles = max(0, int(cycle) - self._open_since)
        factor = self._profile.rowpress_amplification(
            open_cycles, self._timing.ras_cycles)
        self._last_open_factor[physical_row] = factor
        self.disturbance.record_activation(physical_row, factor)
        self._open_physical = None
        return physical_row, factor

    def last_open_factor(self, physical_row: int) -> float:
        """Most recent RowPress amplification observed for a row."""
        return self._last_open_factor.get(physical_row, 1.0)

    def read_column(self, column: int, cycle: int,
                    ecc_enabled: bool) -> bytes:
        """RD: return one column (column_bytes) of the open row."""
        if self._open_physical is None:
            raise CommandError(f"bank {self._key}: RD with no open row")
        self._geometry.check_column(column)
        bits = self._row_bits(self._open_physical)
        bit_start = column * self._geometry.column_bytes * 8
        bit_end = bit_start + self._geometry.column_bytes * 8
        data_bits = bits[bit_start:bit_end]
        if ecc_enabled:
            data_bits = self._ecc_corrected_slice(
                self._open_physical, bit_start, bit_end)
        return np.packbits(data_bits).tobytes()

    def write_column(self, column: int, data: bytes, cycle: int) -> None:
        """WR: store one column (column_bytes) into the open row."""
        if self._open_physical is None:
            raise CommandError(f"bank {self._key}: WR with no open row")
        self._geometry.check_column(column)
        if len(data) != self._geometry.column_bytes:
            raise CommandError(
                f"WR data must be {self._geometry.column_bytes} bytes, "
                f"got {len(data)}")
        self._own_row(self._open_physical)
        bits = self._row_bits(self._open_physical)
        bit_start = column * self._geometry.column_bytes * 8
        bit_end = bit_start + self._geometry.column_bytes * 8
        bits[bit_start:bit_end] = np.unpackbits(
            np.frombuffer(data, dtype=np.uint8))
        self._update_parity(self._open_physical, bit_start, bit_end)

    def read_open_row_bits(self, cycle: int, ecc_enabled: bool) -> np.ndarray:
        """Whole-row read (infrastructure batching of 32 column reads)."""
        if self._open_physical is None:
            raise CommandError(f"bank {self._key}: row read with no open row")
        bits = self._row_bits(self._open_physical)
        if ecc_enabled:
            parity = self._parity[self._open_physical]
            corrected, _, _ = decode_words(bits, parity)
            return corrected
        return bits.copy()

    def write_open_row_bits(self, bits: np.ndarray, cycle: int,
                            parity: Optional[np.ndarray] = None) -> None:
        """Whole-row write (infrastructure batching of 32 column writes).

        ``parity`` must be ``encode_words(bits & 1)`` when given; the
        payload-lowering cache passes it so the encode is paid once per
        distinct payload rather than once per row write.
        """
        if self._open_physical is None:
            raise CommandError(f"bank {self._key}: row write with no open row")
        if bits.shape != (self._geometry.row_bits,):
            raise CommandError(
                f"row write needs {self._geometry.row_bits} bits, "
                f"got shape {bits.shape}")
        self._own_row(self._open_physical)
        stored = self._row_bits(self._open_physical)
        stored[:] = bits & 1
        if parity is None:
            self._parity[self._open_physical] = encode_words(stored)
        else:
            self._parity[self._open_physical] = parity.copy()

    def store_full_row(self, physical_row: int, bits: np.ndarray,
                       parity: np.ndarray, cycle: int) -> None:
        """Analytic ACT + full-row WRROW: overwrite a closed row's data.

        State-identical to ``activate()`` followed by
        ``write_open_row_bits()`` for a *full-row* overwrite, skipping
        the sense step: opening the row would only materialize pending
        flips into data (and parity) that this write replaces wholesale,
        and sample power-up values for never-written rows that are
        likewise replaced.  The restore bookkeeping an ACT performs —
        retention clock and accumulated-disturbance reset — is applied
        directly, and so is the ACT's open-time stamp.  The caller owns
        timing, TRR observation, and the close-of-row accounting
        (:meth:`note_closed_activation`).

        ``bits`` (0/1 values) and ``parity`` (``encode_words(bits)``)
        are a lowered payload (:meth:`~repro.bender.interpreter.
        Interpreter.lower_payload`): the row adopts the arrays
        themselves as shared read-only storage, content-identical to a
        copy, and every mutation path runs :meth:`_own_row`
        (copy-on-write) first.
        """
        if self._open_physical is not None:
            raise CommandError(
                f"bank {self._key}: analytic row store while row "
                f"{self._open_physical} is open")
        self._geometry.check_row(physical_row)
        if bits.shape != (self._geometry.row_bits,):
            raise CommandError(
                f"row store needs {self._geometry.row_bits} bits, "
                f"got shape {bits.shape}")
        self._bits[physical_row] = bits
        self._parity[physical_row] = parity
        self._shared_rows.add(physical_row)
        self._last_restore[physical_row] = cycle
        self._open_since = cycle
        self.disturbance.reset(physical_row)

    def note_closed_activation(self, physical_row: int,
                               factor: float) -> None:
        """The close-of-row accounting of :meth:`precharge`, for an
        analytically applied activation whose open-time amplification
        ``factor`` the caller computed from its own cycle stamps."""
        self._last_open_factor[physical_row] = factor
        self.disturbance.record_activation(physical_row, factor)

    def replay(self, events: Iterable[tuple], rows: Sequence[int],
               entry: int = 0, payloads: Sequence[tuple] = (),
               ecc_enabled: bool = False) -> List[np.ndarray]:
        """Apply a stream of this bank's row events; returns the bits of
        its row reads, in order.  The one bank kernel of memoized
        stream replays and bulk-applied loops.

        ``events`` are ``(kind, key, slot, value)`` as a
        :class:`~repro.dram.device.Schedule` holds them: ``rows[slot]``
        is the event's physical row, a timed value (``act``, ``wr``,
        ``rd``, ``sense``, ``restore``) is a cycle offset from
        ``entry``.  Per kind:

        * ``act`` — :meth:`activate`; ``sense`` — its restore alone,
          the row left closed (a bulk loop's opening restores);
        * ``wr`` — :meth:`store_full_row` of ``payloads[slot]``;
        * ``rd`` — :meth:`read_open_row_bits`;
        * ``pre`` — :meth:`precharge` at the recorded RowPress factor
          ``value``;
        * ``bulk`` — ``value`` is (dose, the loop's rows on this bank):
          the loop's adds from the row (:meth:`~repro.dram.disturb.
          DisturbanceTracker.bulk_contributions`);
        * ``restore`` — :meth:`mark_restored`.

        The ledger adds run inline on the tracker's dicts, in event
        order, with :meth:`~repro.dram.disturb.DisturbanceTracker.
        record_activation`'s float operations.  A restore runs
        :meth:`_materialize` only when the row holds data and its dose
        or age trips a flip guard; otherwise materializing would return
        at the same guards, so the two are the same.  Cross-channel
        leaks are the caller's.

        The per-command checks are the caller's, made once per
        binding: the rows come from the address mapper, which checks
        each; the stream's open/close pattern is its recording's, which
        passed the open-row checks from the same entry state (a closed
        bank); a write's payload shape is checked here.
        """
        tracker = self.disturbance
        counts = tracker._counts
        blast = tracker._blast
        bits = self._bits
        last_restore = self._last_restore
        factors = self._last_open_factor
        shape = (self._geometry.row_bits,)
        frequency = self._timing.frequency_hz
        disturb_guard = self._disturb_guard
        retention_guard = (self._retention_guard_s *
                           self._profile.retention_temperature_scale(
                               self._environment.temperature_c))
        opened = self._open_physical
        since = None
        reads: List[np.ndarray] = []
        for kind, _, slot, value in events:
            if kind == "pre" or kind == "bulk":
                if kind == "pre":
                    row, dose, activated = opened, value, ()
                    factors[row] = value
                    opened = None
                else:
                    row = rows[slot]
                    dose, activated = value
                triples = blast.get(row)
                if triples is None:
                    triples = tracker._blast_triples(row)
                for victim, side, weight in triples:
                    if victim in activated:
                        continue
                    accumulator = counts.get(victim)
                    if accumulator is None:
                        accumulator = counts[victim] = [0.0, 0.0, 0.0]
                    accumulator[side] += weight * dose
            elif kind == "rd":
                stored = self._row_bits(opened)
                reads.append(decode_words(stored, self._parity[opened])[0]
                             if ecc_enabled else stored.copy())
            else:
                row = rows[slot]
                cycle = entry + value
                if kind == "wr":
                    data, parity = payloads[slot]
                    if data.shape != shape:
                        raise CommandError(
                            f"row store needs {shape[0]} bits, got shape "
                            f"{data.shape}")
                    bits[row] = data
                    self._parity[row] = parity
                    self._shared_rows.add(row)
                elif kind != "restore" and row in bits:
                    accumulator = counts.get(row)
                    if accumulator is not None and (
                            accumulator[0] + accumulator[1]
                            + accumulator[2] > disturb_guard) or (
                            cycle - int(last_restore[row])) / frequency \
                            >= retention_guard:
                        self._materialize(row, cycle)
                last_restore[row] = cycle
                counts.pop(row, None)
                if kind == "act" or kind == "wr":
                    opened, since = row, cycle
        self._open_physical = opened
        if since is not None:
            self._open_since = since
        return reads

    def install_stream(self, stores: Sequence[Tuple[int, int]],
                       payloads: Sequence[tuple], rows: np.ndarray,
                       cycles: np.ndarray, factors: Dict[int, float],
                       opened: Optional[int], since: Optional[int]) -> None:
        """The bank side of a stream applied in closed form
        (:class:`~repro.dram.device.QuietStream`): what :meth:`replay`
        leaves when no restore materializes anything.

        Each ``(row, slot)`` of ``stores`` adopts ``payloads[slot]``,
        each of ``rows`` is stamped restored at its entry of
        ``cycles``, ``factors`` are the closed rows' last RowPress
        factors, ``opened`` the row open at the end and ``since`` the
        latest ACT's cycle (None: the stream issued none).
        """
        shape = (self._geometry.row_bits,)
        for row, slot in stores:
            data, parity = payloads[slot]
            if data.shape != shape:
                raise CommandError(
                    f"row store needs {shape[0]} bits, got shape "
                    f"{data.shape}")
            self._bits[row] = data
            self._parity[row] = parity
            self._shared_rows.add(row)
        self._last_restore[rows] = cycles
        self._last_open_factor.update(factors)
        self._open_physical = opened
        if since is not None:
            self._open_since = since

    # ------------------------------------------------------------------
    # Charge restoration (shared by ACT, periodic refresh, TRR refresh)
    # ------------------------------------------------------------------
    def restore_row(self, physical_row: int, cycle: int) -> None:
        """Sense + rewrite one row: materialize flips, reset its clocks."""
        self._materialize(physical_row, cycle)
        self._last_restore[physical_row] = cycle
        self.disturbance.reset(physical_row)

    def mark_restored(self, physical_row: int, cycle: int) -> None:
        """Reset a row's disturbance/retention clocks without sensing.

        Used by the bulk-loop fast path for rows that were just
        materialized and are then activated every iteration: their state
        at loop exit is "freshly restored at the final activation".
        """
        self._last_restore[physical_row] = cycle
        self.disturbance.reset(physical_row)

    def refresh_rows(self, start: int, end: int, cycle: int) -> None:
        """Periodic refresh of physical rows [start, end)."""
        for physical_row in range(start, min(end, self._geometry.rows)):
            if physical_row in self._bits:
                self._materialize(physical_row, cycle)
        self._last_restore[start:end] = cycle
        self.disturbance.reset_range(start, end)

    def refresh_runs(self, segments: Sequence[Tuple[int, int, int]],
                     cycles: np.ndarray, rows_per_ref: int) -> None:
        """A run of periodic refreshes whose ranges hold no live row.

        ``segments`` are the run's wrap segments as
        :meth:`~repro.dram.channel.PseudoChannelState.advance_refresh`
        returns them, ``cycles`` each REF's cycle.  Each REF restamps
        its range's retention clock; one slice assignment per segment
        does it, and a later segment overwrites an earlier one, as the
        later REF would.  With no stored data and no ledger entry in
        any range (the caller proves that via :meth:`live_rows`),
        :meth:`refresh_rows` would materialize and reset nothing, so
        the stamps are the whole effect.
        """
        for first, start, end in segments:
            count = -(-(end - start) // rows_per_ref)
            self._last_restore[start:end] = np.repeat(
                cycles[first:first + count], rows_per_ref)[:end - start]

    def live_rows(self) -> Iterable[int]:
        """Rows a refresh would act on: stored data or a ledger entry."""
        return self._bits.keys() | self.disturbance.rows()

    def quiet_restore_of(self, physical_row: int, dose: float,
                         until: int) -> bool:
        """Whether restoring ``physical_row`` at any cycle up to
        ``until``, holding its ledger entry plus at most ``dose`` more,
        provably materializes nothing (see :meth:`quiet_restore`).  A
        row without stored data never does."""
        if physical_row not in self._bits:
            return True
        return self.quiet_restore(
            self.disturbance.get_total(physical_row) + dose,
            until - int(self._last_restore[physical_row]))

    def quiet_restore(self, dose: float, cycles: int) -> bool:
        """Whether restoring a row that holds at most ``dose`` of
        disturbance, ``cycles`` after its last restore, provably
        materializes nothing: both stay below this bank's flip guards
        (the dose by a factor of two, which absorbs any reordering of
        the float sum it bounds)."""
        hammer, retention = self._restore_may_flip(
            2.0 * dose, self._timing.seconds(cycles))
        return not (hammer or retention)

    def _restore_may_flip(self, dose: float,
                          elapsed_s: float) -> Tuple[bool, bool]:
        """The flip guards of a restore: whether a row holding ``dose``
        of disturbance, ``elapsed_s`` after its last restore, may flip
        by (hammer, retention).  Below both guards no cell can flip, so
        :meth:`_materialize` skips the row."""
        retention_scale = self._profile.retention_temperature_scale(
            self._environment.temperature_c)
        return (dose > self._disturb_guard,
                elapsed_s >= self._retention_guard_s * retention_scale)

    def note_open_since(self, cycle: int) -> None:
        """Stamp the cycle of the bank's latest ACT (closed-form bursts,
        which end with every row closed again)."""
        self._open_since = cycle

    def release_all_rows(self) -> None:
        """Drop stored data for every row of this bank.

        A memory-management hook for long sweeps over thousands of rows:
        semantically the rows return to the never-written (fully
        discharged) state, so this must only be called between tests —
        after a victim's readback, before the next test region.
        """
        self._bits.clear()
        self._parity.clear()
        self._shared_rows.clear()
        self.disturbance.reset_range(0, self._geometry.rows)

    def trr_refresh(self, physical_row: int, cycle: int) -> None:
        """Hidden TRR victim refresh of one row (no-op outside the bank)."""
        if not 0 <= physical_row < self._geometry.rows:
            return
        self.restore_row(physical_row, cycle)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _own_row(self, physical_row: int) -> None:
        """Copy-on-write: give a row private bits/parity arrays when its
        storage is an adopted (shared, read-only) lowered payload."""
        if physical_row in self._shared_rows:
            self._bits[physical_row] = self._bits[physical_row].copy()
            self._parity[physical_row] = self._parity[physical_row].copy()
            self._shared_rows.discard(physical_row)

    def _row_bits(self, physical_row: int) -> np.ndarray:
        bits = self._bits.get(physical_row)
        if bits is None:
            # First touch: the row powers up fully discharged (data and
            # parity cells alike; the parity cells therefore do not form
            # valid codewords until the row is written — as on silicon).
            cells = self._truth.powerup_cells(*self._key, physical_row)
            data_bits = self._geometry.row_bits
            bits = cells[:data_bits].copy()
            self._bits[physical_row] = bits
            self._parity[physical_row] = cells[data_bits:].copy()
        return bits

    def _update_parity(self, physical_row: int, bit_start: int,
                       bit_end: int) -> None:
        bits = self._bits[physical_row]
        parity = self._parity[physical_row]
        word_start = bit_start // ECC_WORD_BITS
        word_end = (bit_end + ECC_WORD_BITS - 1) // ECC_WORD_BITS
        fresh = encode_words(
            bits[word_start * ECC_WORD_BITS:word_end * ECC_WORD_BITS])
        parity[word_start * ECC_PARITY_BITS:word_end * ECC_PARITY_BITS] = fresh

    def _ecc_corrected_slice(self, physical_row: int, bit_start: int,
                             bit_end: int) -> np.ndarray:
        bits = self._bits[physical_row]
        parity = self._parity[physical_row]
        word_start = bit_start // ECC_WORD_BITS
        word_end = (bit_end + ECC_WORD_BITS - 1) // ECC_WORD_BITS
        corrected, _, _ = decode_words(
            bits[word_start * ECC_WORD_BITS:word_end * ECC_WORD_BITS],
            parity[word_start * ECC_PARITY_BITS:word_end * ECC_PARITY_BITS])
        offset = bit_start - word_start * ECC_WORD_BITS
        return corrected[offset:offset + (bit_end - bit_start)]

    def _neighbor_bits(self, physical_row: int,
                       direction: int) -> Optional[np.ndarray]:
        """Stored bits of the in-subarray neighbour, or None if absent.

        Absent means: outside the bank, across a subarray boundary, or
        never written (a discharged row exerts the weak same-charge
        coupling on charged victims; we return its power-up values).
        """
        neighbor = physical_row + direction
        if not 0 <= neighbor < self._geometry.rows:
            return None
        if not self._layout.same_subarray(physical_row, neighbor):
            return None
        bits = self._bits.get(neighbor)
        if bits is not None:
            return bits
        cells = self._truth.powerup_cells(*self._key, neighbor)
        return cells[:self._geometry.row_bits]

    def _materialize(self, physical_row: int, cycle: int) -> None:
        """Apply pending RowHammer and retention flips to stored data.

        Only cells whose base threshold (retention time) is within the
        restore's reach can flip (see :mod:`repro.dram.cellmodel`), so
        the row's sorted prefixes are sliced at the reaches and only
        those cells are compared, with the dense arithmetic's dtypes
        and operation order, so their outcomes are bit-identical."""
        stored = self._bits.get(physical_row)
        if stored is None:
            return  # Never written: fully discharged, nothing can flip.

        profile = self._profile
        environment = self._environment
        below, above = self.disturbance.get_sides(physical_row)
        direct = self.disturbance.get_direct(physical_row)
        elapsed_s = self._timing.seconds(
            int(cycle - self._last_restore[physical_row]))
        hammer_possible, retention_possible = self._restore_may_flip(
            below + above + direct, elapsed_s)
        if not retention_possible and not hammer_possible:
            return

        reach = retention_reach = 0.0
        if hammer_possible:
            temp_scale = profile.temperature_threshold_scale(
                environment.temperature_c)
            voltage_scale = profile.voltage_threshold_scale(
                environment.wordline_voltage_v)
            reach = 2.0 * (below + above + direct) / (
                temp_scale * voltage_scale)
        if retention_possible:
            retention_scale = profile.retention_temperature_scale(
                environment.temperature_c)
            retention_reach = 2.0 * elapsed_s / retention_scale
        truth = self._truth.row(*self._key, physical_row, reach,
                                retention_reach)
        # Of the cells within reach, only a shorter prefix can flip: a
        # cell's effective disturbance is at most the row's dose (every
        # coupling is at most 1) and its threshold at least its key
        # times the scales (the penalty is at least 1), and a retention
        # flip needs its key times the scale within the elapsed time.
        # The margin absorbs the rounding of both bounds.
        hammer = truth.hammer.upto(reach * _PREFIX_MARGIN)
        retention = truth.retention.upto(retention_reach * _PREFIX_MARGIN)
        if not hammer and not retention:
            return

        data_bits = self._geometry.row_bits
        parity = self._parity[physical_row]
        flipped = []
        if hammer:
            index = truth.hammer.cells[:hammer].astype(np.intp)
            sliced = _Slice.of(index, data_bits)
            cells = sliced.gather(stored, parity)
            vulnerable = cells == truth.hammer.charged[:hammer]
            effective = self._effective_disturbance(
                physical_row, cells, sliced, below, above)
            if direct > 0.0:
                # Cross-channel leakage couples through the stack, not
                # through in-die wordline fields: no neighbour-data
                # weighting applies.
                effective = effective + direct
            thresholds = (truth.hammer.keys[:hammer] *
                          self._horizontal_penalty(stored, parity, sliced,
                                                   cells) *
                          temp_scale * voltage_scale)
            flipped.append(index[vulnerable & (effective >= thresholds)])
        if retention:
            index = truth.retention.cells[:retention].astype(np.intp)
            vulnerable = _Slice.of(index, data_bits).gather(
                stored, parity) == truth.retention.charged[:retention]
            flipped.append(index[vulnerable & (
                elapsed_s >= truth.retention.keys[:retention] *
                retention_scale)])

        flips = np.concatenate(flipped)
        if flips.size:
            self._own_row(physical_row)
            # A cell both mechanisms flip is listed twice, and is
            # assigned its flipped value twice: it flips once.
            for cells, at in ((self._bits[physical_row],
                               flips[flips < data_bits]),
                              (self._parity[physical_row],
                               flips[flips >= data_bits] - data_bits)):
                cells[at] = cells[at] ^ 1

    def _effective_disturbance(self, physical_row: int, cells: np.ndarray,
                               sliced: "_Slice", below: float,
                               above: float) -> np.ndarray:
        """Disturbance at the ``sliced`` cells (holding ``cells``),
        weighted by aggressor-data coupling: each neighbour's cells are
        gathered at the slice alone.  Per cell, each side adds its
        amount times its coupling (1 or the same-bit coupling) to 0.0,
        in side order."""
        effective = None
        same = self._profile.same_bit_coupling
        for amount, direction in ((below, -1), (above, +1)):
            if amount <= 0.0:
                continue
            neighbor = self._neighbor_bits(physical_row, direction)
            if neighbor is None:
                continue
            neighbor_cells = sliced.gather(
                neighbor, self._neighbor_parity(physical_row, direction))
            side = np.where(neighbor_cells != cells, amount,
                            amount * same)
            effective = side if effective is None else effective + side
        if effective is None:
            return np.zeros(cells.shape[0], dtype=np.float64)
        return effective

    def _neighbor_parity(self, physical_row: int,
                         direction: int) -> np.ndarray:
        neighbor = physical_row + direction
        parity = self._parity.get(neighbor)
        if parity is not None:
            return parity
        cells = self._truth.powerup_cells(*self._key, max(
            0, min(neighbor, self._geometry.rows - 1)))
        return cells[self._geometry.row_bits:]

    def _horizontal_penalty(self, bits: np.ndarray, parity: np.ndarray,
                            sliced: "_Slice", cells: np.ndarray
                            ) -> np.ndarray:
        """1 + penalty * (fraction of differing horizontal neighbours),
        at the ``sliced`` cells (holding ``cells``) of the row stored as
        ``bits`` and ``parity``.

        Cells whose left/right bitline neighbours store the opposite value
        are slightly harder to flip (checkered patterns pay this relative
        to rowstripe patterns).  Data and parity cells are separate
        bitline runs, and a cell at either end of its run has one
        neighbour: :meth:`_Slice.gather` clips the missing one onto the
        cell itself, which never differs from it.  The count of
        differing neighbours is 0, 1 or 2, so each value is one of the
        three the whole-row formula computes, read from
        :attr:`_penalties`.
        """
        left = sliced.gather(bits, parity, -1) != cells
        right = sliced.gather(bits, parity, 1) != cells
        return self._penalties.take(left.view(np.uint8)
                                    + right.view(np.uint8))


#: The comparison prefix of a reach (:meth:`Bank._materialize`): the
#: reach is twice the bound, which the margin widens by far more than
#: the rounding of either side.
_PREFIX_MARGIN = 0.5 * (1.0 + 1e-9)


class _Slice(NamedTuple):
    """Cells of a row by index, the data cells first and the parity
    cells after them, gathered from a row's data and parity arrays
    without joining them."""

    index: np.ndarray
    #: Which of the cells are parity cells, and their parity indices.
    at_parity: np.ndarray
    parity_index: np.ndarray

    @classmethod
    def of(cls, index: np.ndarray, data_bits: int) -> "_Slice":
        at_parity = index >= data_bits
        return cls(index, at_parity, index[at_parity] - data_bits)

    def gather(self, bits: np.ndarray, parity: np.ndarray,
               offset: int = 0) -> np.ndarray:
        """The slice's cells, or the cells ``offset`` along each one's
        bitline run, of the row stored as ``bits`` and ``parity``: each
        index is clipped into the array it reads, so one past either
        end of a run reads the run's end cell."""
        index, parity_index = self.index, self.parity_index
        if offset:
            index, parity_index = index + offset, parity_index + offset
        cells = bits.take(index, mode="clip")
        cells[self.at_parity] = parity.take(parity_index, mode="clip")
        return cells
