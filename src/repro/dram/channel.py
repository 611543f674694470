"""Per-channel device state: mode registers, TRR engines, refresh pointers.

A channel is an independent DRAM interface with its own mode registers;
its pseudo channels (HBM2) or sub-channels (DDR5) share I/O but have
independent bank state, refresh sequencing, and (in our model)
independent hidden TRR engines.  Banks are created lazily — a full HBM2
stack has 256 banks but a typical experiment touches a handful.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.dram.bank import Bank, BankKey, DeviceEnvironment
from repro.dram.calibration import CalibrationProfile
from repro.dram.cellmodel import GroundTruthProvider
from repro.dram.geometry import Geometry
from repro.dram.modereg import ModeRegisters
from repro.dram.subarrays import SubarrayLayout
from repro.dram.timing import TimingParameters
from repro.dram.trr import TrrConfig, TrrEngine


class PseudoChannelState:
    """Refresh sequencing and TRR engine of one pseudo channel."""

    def __init__(self, geometry: Geometry, timing: TimingParameters,
                 trr_config: TrrConfig, seed: int = 0) -> None:
        self.trr = TrrEngine(trr_config, seed=seed)
        refs_per_window = max(1, round(timing.t_refw / timing.t_refi))
        self.rows_per_ref = -(-geometry.rows // refs_per_window)  # ceil div
        self.refresh_pointer = 0
        self.ref_count = 0

    def next_refresh_range(self, rows: int) -> Tuple[int, int]:
        """Physical row range the next REF refreshes (wraps around)."""
        start = self.refresh_pointer
        end = min(start + self.rows_per_ref, rows)
        self.refresh_pointer = end % rows
        self.ref_count += 1
        return start, end

    def refs_until_refresh_of(self, physical_rows, rows: int,
                              pointer: Optional[int] = None
                              ) -> Optional[int]:
        """How many REFs from ``pointer`` (default: the current one) the
        first whose range holds any of ``physical_rows`` is (1 = the
        next REF); None for no rows.

        Pure pointer arithmetic: from the pointer the ranges tile
        ``[pointer, rows)`` in steps of ``rows_per_ref`` (the last one
        cut at the bank's end), then wrap to row 0 and tile again.
        """
        if pointer is None:
            pointer = self.refresh_pointer
        step = self.rows_per_ref
        to_wrap = -(-(rows - pointer) // step)
        first = None
        for row in physical_rows:
            if row >= pointer:
                refs = (row - pointer) // step + 1
            else:
                refs = to_wrap + row // step + 1
            if first is None or refs < first:
                first = refs
        return first

    def advance_refresh(self, refs: int, rows: int
                        ) -> List[Tuple[int, int, int]]:
        """Sequence ``refs`` REFs, as :meth:`next_refresh_range` would
        one at a time, in pointer arithmetic.

        Returns the rows they refresh per wrap segment, in order, as
        (index of the segment's first REF, start row, end row): the
        segment's ``i``-th REF refreshes ``[start + i * rows_per_ref,
        start + (i + 1) * rows_per_ref)`` cut at ``end``.  A segment
        ends where the pointer wraps to row 0 or the REFs run out.
        """
        step = self.rows_per_ref
        pointer = self.refresh_pointer
        segments: List[Tuple[int, int, int]] = []
        done = 0
        while done < refs:
            count = min(-(-(rows - pointer) // step), refs - done)
            end = min(pointer + count * step, rows)
            segments.append((done, pointer, end))
            done += count
            pointer = end % rows
        self.refresh_pointer = pointer
        self.ref_count += refs
        return segments


class Channel:
    """One channel: mode registers plus per-pseudo-channel state."""

    def __init__(self, index: int, geometry: Geometry,
                 profile: CalibrationProfile, layout: SubarrayLayout,
                 truth: GroundTruthProvider, timing: TimingParameters,
                 environment: DeviceEnvironment,
                 trr_config: TrrConfig, seed: int = 0) -> None:
        self.index = index
        self.mode_registers = ModeRegisters()
        self._geometry = geometry
        self._profile = profile
        self._layout = layout
        self._truth = truth
        self._timing = timing
        self._environment = environment
        self._banks: Dict[BankKey, Bank] = {}
        self.pseudo_channels = [
            PseudoChannelState(geometry, timing, trr_config, seed=seed)
            for _ in range(geometry.pseudo_channels)
        ]

    def bank(self, pseudo_channel: int, bank: int) -> Bank:
        """The Bank object, created on first touch."""
        self._geometry.check_pseudo_channel(pseudo_channel)
        self._geometry.check_bank(bank)
        key: BankKey = (self.index, pseudo_channel, bank)
        existing = self._banks.get(key)
        if existing is not None:
            return existing
        created = Bank(key, self._geometry, self._profile, self._layout,
                       self._truth, self._timing, self._environment)
        self._banks[key] = created
        return created

    def existing_bank(self, pseudo_channel: int, bank: int) -> Optional[Bank]:
        """The Bank object if it has been touched, else None."""
        return self._banks.get((self.index, pseudo_channel, bank))

    def touched_banks(self, pseudo_channel: int):
        """Iterate over the pseudo channel's already-created banks."""
        for key, bank in self._banks.items():
            if key[1] == pseudo_channel:
                yield bank

    def banks(self) -> List[Bank]:
        """Every already-created bank of the channel."""
        return list(self._banks.values())
