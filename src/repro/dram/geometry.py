"""Device geometry, for any supported DRAM family.

The defaults describe the paper's chip (§3): a 4 GiB HBM2 stack,
8 channels, 2 pseudo channels per channel, 16 banks per pseudo channel,
16,384 rows per bank, 32 columns per row.  One column therefore holds
32 bytes and a row holds 1 KiB (8,192 bits), which is the granularity
the BER metric is computed over.

Other device families reuse the same vocabulary
(:mod:`repro.dram.profiles`): a DDR4/DDR5 module has no pseudo
channels (``pseudo_channels=1``) or models its two sub-channels as
pseudo channels, and "channel" means a controller channel rather than
a stack channel — the dimensions are what the memory controller sees
either way.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AddressError, ConfigurationError


@dataclass(frozen=True)
class Geometry:
    """Dimensions of one DRAM device as seen by the memory controller.

    Attributes:
        channels: independent channels on the device.
        pseudo_channels: pseudo channels (HBM2) or sub-channels (DDR5)
            per channel; 1 for families without the concept.
        banks: banks per pseudo channel.
        rows: rows per bank.
        columns: columns per row.
        column_bytes: bytes transferred per column access.
        channels_per_die: channels co-located on one DRAM die.
            The paper observes HBM2 channels cluster in groups of two by
            RowHammer vulnerability and hypothesizes one die per group;
            planar families use 1.
    """

    channels: int = 8
    pseudo_channels: int = 2
    banks: int = 16
    rows: int = 16384
    columns: int = 32
    column_bytes: int = 32
    channels_per_die: int = 2

    def __post_init__(self) -> None:
        for name in ("channels", "pseudo_channels", "banks", "rows",
                     "columns", "column_bytes", "channels_per_die"):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ConfigurationError(
                    f"geometry field {name!r} must be a positive int, got {value!r}")
        if self.channels % self.channels_per_die != 0:
            raise ConfigurationError(
                f"channels ({self.channels}) must be divisible by "
                f"channels_per_die ({self.channels_per_die})")

    # ------------------------------------------------------------------
    # Derived sizes
    # ------------------------------------------------------------------
    @property
    def row_bytes(self) -> int:
        """Bytes in one DRAM row (the BER denominator is 8x this)."""
        return self.columns * self.column_bytes

    @property
    def row_bits(self) -> int:
        """Bits in one DRAM row."""
        return self.row_bytes * 8

    @property
    def bank_bytes(self) -> int:
        """Bytes in one bank."""
        return self.rows * self.row_bytes

    @property
    def stack_bytes(self) -> int:
        """Total stack capacity in bytes."""
        return self.channels * self.pseudo_channels * self.banks * self.bank_bytes

    @property
    def dies(self) -> int:
        """Number of stacked DRAM dies."""
        return self.channels // self.channels_per_die

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def check_channel(self, channel: int) -> None:
        if not 0 <= channel < self.channels:
            raise AddressError(
                f"channel {channel} out of range [0, {self.channels})")

    def check_pseudo_channel(self, pseudo_channel: int) -> None:
        if not 0 <= pseudo_channel < self.pseudo_channels:
            raise AddressError(
                f"pseudo channel {pseudo_channel} out of range "
                f"[0, {self.pseudo_channels})")

    def check_bank(self, bank: int) -> None:
        if not 0 <= bank < self.banks:
            raise AddressError(f"bank {bank} out of range [0, {self.banks})")

    def check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise AddressError(f"row {row} out of range [0, {self.rows})")

    def check_column(self, column: int) -> None:
        if not 0 <= column < self.columns:
            raise AddressError(
                f"column {column} out of range [0, {self.columns})")
