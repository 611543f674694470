"""DRAM command vocabulary.

These are the commands a DRAM Bender test program can issue to the device,
mirroring the subset of the HBM2 command set the paper's experiments use:
ACT, PRE (and PREA), RD, WR, and REF.  Commands are plain frozen
dataclasses so programs are cheap to construct, hash, and compare in
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class Activate:
    """Open ``row`` in a bank, copying it into the row buffer.

    This is the command RowHammer abuses: every ACT/PRE cycle on an
    aggressor row disturbs the wordline's physical neighbours.
    """

    channel: int
    pseudo_channel: int
    bank: int
    row: int


@dataclass(frozen=True)
class Precharge:
    """Close the open row in one bank."""

    channel: int
    pseudo_channel: int
    bank: int


@dataclass(frozen=True)
class PrechargeAll:
    """Close the open row in every bank of a pseudo channel."""

    channel: int
    pseudo_channel: int


@dataclass(frozen=True)
class Read:
    """Read one column (32 bytes) from the open row of a bank."""

    channel: int
    pseudo_channel: int
    bank: int
    column: int


@dataclass(frozen=True)
class Write:
    """Write one column (32 bytes) to the open row of a bank.

    ``data`` must be exactly ``column_bytes`` long.
    """

    channel: int
    pseudo_channel: int
    bank: int
    column: int
    data: bytes


@dataclass(frozen=True)
class Refresh:
    """Periodic refresh command for a pseudo channel.

    Each REF refreshes the next group of rows in every bank (all-bank
    refresh) and — crucially for §5 — gives any in-DRAM TRR engine an
    opportunity to sneak in victim-row refreshes.
    """

    channel: int
    pseudo_channel: int


Command = Union[Activate, Precharge, PrechargeAll, Read, Write, Refresh]
