"""Data patterns used in the RowHammer tests (Table 1 of the paper).

A :class:`DataPattern` assigns one byte value to each role in the
hammered neighbourhood:

=================  ==========  ==========  ==========  ==========
Row addresses      Rowstripe0  Rowstripe1  Checkered0  Checkered1
=================  ==========  ==========  ==========  ==========
Victim (V)         0x00        0xFF        0x55        0xAA
Aggressors (V±1)   0xFF        0x00        0xAA        0x55
V ± [2:8]          0x00        0xFF        0x55        0xAA
=================  ==========  ==========  ==========  ==========

Rowstripe patterns store the complement of the victim in the aggressors
and the victim value everywhere else; checkered patterns additionally
alternate bits *within* each row.  The paper shows that no single pattern
minimizes HC_first or maximizes BER for every row — hence the per-row
worst-case data pattern (WCDP) machinery in :mod:`repro.core.wcdp`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DataPattern:
    """Byte values for victim, aggressor, and surrounding rows.

    Attributes:
        name: pattern identifier used in datasets and figures.
        victim_byte: value filling the victim row V.
        aggressor_byte: value filling the aggressor rows V±1.
        surround_byte: value filling rows V±[2:8].
    """

    name: str
    victim_byte: int
    aggressor_byte: int
    surround_byte: int

    def __post_init__(self) -> None:
        for field_name in ("victim_byte", "aggressor_byte", "surround_byte"):
            value = getattr(self, field_name)
            if not 0 <= value <= 0xFF:
                raise ConfigurationError(
                    f"{field_name} must be a byte, got {value:#x}")

    def byte_for_offset(self, physical_offset: int) -> int:
        """Fill byte for the row at ``physical_offset`` from the victim."""
        distance = abs(physical_offset)
        if distance == 0:
            return self.victim_byte
        if distance == 1:
            return self.aggressor_byte
        return self.surround_byte

    def victim_row(self, row_bytes: int) -> bytes:
        return bytes([self.victim_byte]) * row_bytes

    def aggressor_row(self, row_bytes: int) -> bytes:
        return bytes([self.aggressor_byte]) * row_bytes

    def surround_row(self, row_bytes: int) -> bytes:
        return bytes([self.surround_byte]) * row_bytes


ROWSTRIPE0 = DataPattern("Rowstripe0", victim_byte=0x00,
                         aggressor_byte=0xFF, surround_byte=0x00)
ROWSTRIPE1 = DataPattern("Rowstripe1", victim_byte=0xFF,
                         aggressor_byte=0x00, surround_byte=0xFF)
CHECKERED0 = DataPattern("Checkered0", victim_byte=0x55,
                         aggressor_byte=0xAA, surround_byte=0x55)
CHECKERED1 = DataPattern("Checkered1", victim_byte=0xAA,
                         aggressor_byte=0x55, surround_byte=0xAA)

#: The four patterns of Table 1, in the paper's column order.
STANDARD_PATTERNS: Tuple[DataPattern, ...] = (
    ROWSTRIPE0, ROWSTRIPE1, CHECKERED0, CHECKERED1)

# ----------------------------------------------------------------------
# Extended pattern set (§6 future work 2.3: "a richer set of data
# patterns used in initializing victim and aggressor rows").
# ----------------------------------------------------------------------

#: Solid patterns: aggressors store the same value as the victim.  The
#: canonical control group — aggressor-to-victim coupling needs opposing
#: charge, so solid patterns should induce almost no flips.
SOLID0 = DataPattern("Solid0", victim_byte=0x00,
                     aggressor_byte=0x00, surround_byte=0x00)
SOLID1 = DataPattern("Solid1", victim_byte=0xFF,
                     aggressor_byte=0xFF, surround_byte=0xFF)

#: Colstripe patterns: vertical stripes (alternating bits within every
#: row, aggressors matching the victim).  Vertical neighbours agree, so
#: coupling is weak; the victim's own alternating bits add the intra-row
#: penalty.  Expected to sit near the solid patterns.
COLSTRIPE0 = DataPattern("Colstripe0", victim_byte=0x55,
                         aggressor_byte=0x55, surround_byte=0x55)
COLSTRIPE1 = DataPattern("Colstripe1", victim_byte=0xAA,
                         aggressor_byte=0xAA, surround_byte=0xAA)

#: The extended sweep: Table 1 plus the control groups.
EXTENDED_PATTERNS: Tuple[DataPattern, ...] = STANDARD_PATTERNS + (
    SOLID0, SOLID1, COLSTRIPE0, COLSTRIPE1)

#: Name used in datasets/figures for the per-row worst-case data pattern.
WCDP_NAME = "WCDP"

_BY_NAME: Dict[str, DataPattern] = {
    pattern.name: pattern for pattern in EXTENDED_PATTERNS}


def pattern_by_name(name: str) -> DataPattern:
    """Look up a pattern (Table 1 or extended) by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown data pattern {name!r}; known: "
            f"{sorted(_BY_NAME)}") from None
