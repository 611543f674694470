"""DRAM addresses and logical-to-physical row address mapping.

DRAM vendors remap the row addresses the memory controller uses (logical
addresses) onto in-silicon wordline positions (physical addresses), e.g.
to simplify routing or implement post-manufacturing repair.  RowHammer
adjacency is *physical*, so the paper reverse-engineers the mapping before
hammering (§3.1, following Orosa et al. MICRO'21).

The device model implements a configurable mapper so the reverse-
engineering methodology in :mod:`repro.core.mapping_re` has something real
to discover.  The default scheme XOR-swizzles a low address bit with a
higher one — a simplified version of mappings observed on real DDR4
devices — and is an involution (applying it twice is the identity), which
is also true of real vendor mappings built from bit permutations and XORs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.dram.geometry import Geometry
from repro.errors import ConfigurationError


@dataclass(frozen=True, order=True)
class DramAddress:
    """A fully-qualified DRAM row (and optionally column) address.

    Rows here are *logical* (memory-controller-visible) unless a function
    explicitly says otherwise.
    """

    channel: int
    pseudo_channel: int
    bank: int
    row: int
    column: int = 0

    def with_row(self, row: int) -> "DramAddress":
        """Same bank coordinates, different row."""
        return DramAddress(self.channel, self.pseudo_channel, self.bank,
                           row, self.column)

    def with_column(self, column: int) -> "DramAddress":
        """Same row coordinates, different column."""
        return DramAddress(self.channel, self.pseudo_channel, self.bank,
                           self.row, column)

    def bank_key(self) -> Tuple[int, int, int]:
        """Hashable identity of the containing bank."""
        return (self.channel, self.pseudo_channel, self.bank)

    def validate(self, geometry: Geometry) -> None:
        """Raise :class:`~repro.errors.AddressError` if out of range."""
        geometry.check_channel(self.channel)
        geometry.check_pseudo_channel(self.pseudo_channel)
        geometry.check_bank(self.bank)
        geometry.check_row(self.row)
        geometry.check_column(self.column)

    def __str__(self) -> str:
        return (f"ch{self.channel}.pc{self.pseudo_channel}."
                f"ba{self.bank}.row{self.row}")


class RowAddressMapper:
    """Logical <-> physical row address translation.

    The mapping operates within one bank (all banks share the scheme, as
    on real devices).  The default scheme swaps two address-bit groups
    when a control bit is set::

        physical = logical XOR (swizzle_mask if logical & control_bit else 0)

    With ``control_bit = 0b1000`` and ``swizzle_mask = 0b0110`` this
    scrambles rows within every 16-row block while preserving block
    order, mimicking the locally-scrambled/globally-linear structure that
    reverse-engineering studies report.

    The identity mapping (``swizzle_mask = 0``) is available for tests.
    """

    def __init__(self, geometry: Geometry, *, control_bit: int = 0x8,
                 swizzle_mask: int = 0x6) -> None:
        if control_bit < 0 or swizzle_mask < 0:
            raise ConfigurationError("control_bit/swizzle_mask must be >= 0")
        if control_bit and control_bit & (control_bit - 1):
            raise ConfigurationError(
                f"control_bit must be a single bit, got {control_bit:#x}")
        if swizzle_mask & control_bit:
            raise ConfigurationError(
                "swizzle_mask must not overlap control_bit, got "
                f"mask={swizzle_mask:#x} control={control_bit:#x}")
        if control_bit >= geometry.rows or swizzle_mask >= geometry.rows:
            raise ConfigurationError(
                "control_bit/swizzle_mask outside row address width")
        self._geometry = geometry
        self._control_bit = control_bit
        self._swizzle_mask = swizzle_mask

    @classmethod
    def identity(cls, geometry: Geometry) -> "RowAddressMapper":
        """A mapper where logical == physical (for tests and baselines)."""
        return cls(geometry, control_bit=0, swizzle_mask=0)

    def logical_to_physical(self, row: int) -> int:
        """Translate a controller-visible row number to a wordline index."""
        self._geometry.check_row(row)
        if self._control_bit and (row & self._control_bit):
            return row ^ self._swizzle_mask
        return row

    def physical_to_logical(self, row: int) -> int:
        """Translate a wordline index back to a controller-visible row.

        The default scheme is an involution, so this mirrors
        :meth:`logical_to_physical`; kept separate for clarity and for
        subclasses with non-involutive schemes.
        """
        return self.logical_to_physical(row)

    def physical_neighbors(self, row: int, distance: int = 1) -> Sequence[int]:
        """Logical rows physically adjacent to logical ``row``.

        Returns the logical addresses whose wordlines sit ``distance``
        wordlines above/below ``row``'s wordline, clipped at bank edges.
        This is what a double-sided hammer needs: the *logical* rows to
        activate so that the *physical* neighbours of the victim toggle.
        """
        if distance < 1:
            raise ConfigurationError(f"distance must be >= 1, got {distance}")
        physical = self.logical_to_physical(row)
        neighbors = []
        for candidate in (physical - distance, physical + distance):
            if 0 <= candidate < self._geometry.rows:
                neighbors.append(self.physical_to_logical(candidate))
        return neighbors
