"""Calibrated variation profile — the simulated chip's hidden ground truth.

A :class:`CalibrationProfile` bundles every physical-variation parameter
of a simulated device.  The default profile is calibrated so that the
*measured* results of the paper's methodology (run blindly through the
command interface) reproduce the paper's observations O1–O11 (see
DESIGN.md §1): channel-to-channel BER ratios, die-pair grouping,
pattern-dependent HC_first, subarray-position BER shape, the weak last
subarray, small bank-level spread, and a retention-time distribution that
supports the U-TRR side channel.

Threshold model (evaluated in :mod:`repro.dram.cellmodel`).  Cells come
in two populations:

* a **weak** population (RowHammer-susceptible cells; a few percent of
  all cells, with a per-channel density), with lognormal thresholds
  around ``weak_median``;
* a **strong** population (the bulk) whose thresholds sit orders of
  magnitude higher and never flip within the paper's 256K-hammer budget.

::

    T_cell = orientation_scale * (floor * S + S * median_pop * LogN(sigma_pop))
    S      = channel_scale * bank_scale * subarray_position * row_scale

where ``T_cell`` is in *disturbance units*: one unit is one activation of
a distance-1 physical neighbour.  A double-sided hammer (one ACT per
aggressor) contributes 2 units to the victim, so ``HC_first`` in hammers
is roughly ``T_row_min / 2``.

The two-population structure is what lets the model reproduce the
paper's seemingly inconsistent channel ratios: BER scales linearly with
weak-cell *density* (2.03x between channels 7 and 0), while HC_first —
the minimum over a row's weak cells — moves only logarithmically with
density (~20% between the same channels).  A single scale factor cannot
produce both.

Nothing outside :mod:`repro.dram` may read these parameters; the
characterization pipeline must (re)discover their consequences.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, replace
from typing import Tuple

from repro.errors import CalibrationError


@dataclass(frozen=True)
class CalibrationProfile:
    """Ground-truth variation parameters for one simulated device.

    The defaults describe the paper's HBM2 stack (8 channels in die
    pairs); other device families supply their own per-channel tuples
    (see :func:`ddr4_calibration` / :func:`ddr5_calibration`).
    Attributes are grouped by the observation they encode; tuning
    guidance lives in ``tools/calibrate.py``.
    """

    # -- per-cell RowHammer threshold distribution ----------------------
    #: Median threshold of the weak (RowHammer-susceptible) population.
    weak_median: float = 8.4e5
    #: Lognormal sigma of weak-cell thresholds.
    weak_sigma: float = 0.85
    #: Median threshold of the strong population (far beyond any
    #: achievable disturbance within the refresh-safe window).
    strong_median: float = 5.0e7
    #: Lognormal sigma of strong-cell thresholds.
    strong_sigma: float = 0.6
    #: Additive threshold floor (disturbance units) — real chips show a
    #: hard minimum HC_first; the paper's global minimum is 14,531 hammers.
    threshold_floor: float = 28_000.0

    # -- channel / die variation (O2, O3, O6) ---------------------------
    #: Weak-cell density per channel.  BER scales linearly with this, so
    #: the 2.03x channel-7-to-channel-0 BER ratio lives here; channels
    #: sharing a die get near-identical densities (groups of two).
    weak_fraction: Tuple[float, ...] = (
        0.0545, 0.0560,  # die 0
        0.0630, 0.0645,  # die 1
        0.0705, 0.0725,  # die 2
        0.1070, 0.1110,  # die 3 (channels 6, 7: highest BER)
    )
    #: Mild multiplicative threshold scale per channel (die-paired); adds
    #: the second-order HC_first spread on top of the density effect.
    channel_scales: Tuple[float, ...] = (
        1.00, 0.995,   # die 0
        0.980, 0.975,  # die 1
        0.955, 0.950,  # die 2
        0.920, 0.910,  # die 3
    )

    # -- orientation (true-/anti-cell) effects (O4, O7) ------------------
    #: Fraction of true cells (logical 1 = charged) per die.
    true_cell_fraction: Tuple[float, ...] = (0.50, 0.55, 0.47, 0.52)
    #: Threshold scale applied to true cells, per die.
    true_cell_scale: Tuple[float, ...] = (1.22, 0.90, 1.05, 0.94)
    #: Threshold scale applied to anti cells, per die.
    anti_cell_scale: Tuple[float, ...] = (0.89, 1.14, 0.96, 1.06)

    # -- data-pattern coupling (O4) --------------------------------------
    #: Effectiveness of disturbance arriving from an aggressor cell whose
    #: stored bit *equals* the victim bit (differing bits count fully).
    same_bit_coupling: float = 0.03
    #: Extra threshold fraction when the victim row's own horizontal
    #: neighbour bits differ (checkered patterns pay this; rowstripe not).
    intra_row_penalty: float = 0.22

    # -- spatial structure within a bank (O8, O9) ------------------------
    #: Vulnerability droop towards subarray edges: the position factor is
    #: 1 / (1 - droop * (2p - 1)^2) for position fraction p.
    subarray_edge_droop: float = 0.42
    #: Threshold multiplier for every row of the bank's last subarray.
    last_subarray_scale: float = 2.9

    # -- fine-grained variation (O10) -------------------------------------
    #: Lognormal sigma of the per-bank threshold scale (kept well below the
    #: channel spread so bank variation is channel-dominated, Fig. 6).
    bank_sigma: float = 0.025
    #: Lognormal sigma of the per-row threshold scale.
    row_sigma: float = 0.20

    # -- disturbance mechanics -------------------------------------------
    #: Disturbance delivered to a distance-1 neighbour per aggressor ACT.
    blast_weight_1: float = 1.0
    #: Disturbance delivered to a distance-2 neighbour per aggressor ACT.
    blast_weight_2: float = 0.04
    #: Hypothesised cross-channel (inter-die) coupling: the fraction of
    #: an activation's disturbance that leaks to the same row of the
    #: vertically adjacent channels through the stack.  The paper lists
    #: investigating this as future work 3; no published evidence of
    #: cross-channel RowHammer exists, so the default chip has none —
    #: the experiment in :mod:`repro.core.cross_channel` exists to
    #: *detect* it, and a nonzero-coupling profile to validate the
    #: detector.
    cross_channel_coupling: float = 0.0
    #: RowPress (Luo+ ISCA'23, the paper's §6 future work): keeping an
    #: aggressor row open beyond tRAS amplifies its per-activation
    #: disturbance by 1 + coeff * log2(t_open / tRAS).  At tAggON ~7.8 us
    #: (~236 x tRAS) this yields ~17x, matching RowPress's reported
    #: order-of-magnitude HC_first reduction.
    rowpress_coeff: float = 2.0

    # -- retention (U-TRR side channel, §5) --------------------------------
    #: Median per-cell retention time at 85 degC, in seconds.
    retention_median_s: float = 30.0
    #: Lognormal sigma of per-cell retention times.
    retention_sigma: float = 1.3
    #: Retention times double for every this many degC of cooling.
    retention_temp_double_c: float = 10.0

    # -- temperature sensitivity of RowHammer ------------------------------
    #: Fractional threshold change per degC away from the 85 degC reference
    #: (negative: hotter chips flip slightly earlier).
    threshold_temp_coeff: float = -0.005
    #: Reference temperature for all scales above, degC.
    reference_temperature_c: float = 85.0

    # -- wordline-voltage sensitivity (§6 future work 2.4) ------------------
    #: Nominal wordline (VPP) voltage, volts.
    nominal_wordline_voltage_v: float = 2.5
    #: Minimum voltage at which row accesses still work reliably; below
    #: this the device refuses to operate (reduced-voltage studies hit
    #: access failures there).
    min_wordline_voltage_v: float = 2.0
    #: Threshold gain per fractional volt of underscaling: reducing the
    #: wordline voltage weakens aggressor-to-victim coupling, so cells
    #: survive more activations (Yaglikci+ DSN'22 observe substantially
    #: fewer RowHammer bitflips at reduced wordline voltage).
    voltage_threshold_coeff: float = 3.0

    def __post_init__(self) -> None:
        if self.weak_median <= 0 or self.strong_median <= 0:
            raise CalibrationError("population medians must be positive")
        if self.weak_median >= self.strong_median:
            raise CalibrationError(
                "weak_median must be below strong_median")
        if self.weak_sigma <= 0 or self.strong_sigma <= 0:
            raise CalibrationError("population sigmas must be positive")
        if self.threshold_floor < 0:
            raise CalibrationError("threshold_floor must be non-negative")
        if any(scale <= 0 for scale in self.channel_scales):
            raise CalibrationError("channel_scales must be positive")
        if len(self.weak_fraction) != len(self.channel_scales):
            raise CalibrationError(
                "weak_fraction needs one entry per channel")
        if not all(0.0 <= fraction <= 1.0 for fraction in self.weak_fraction):
            raise CalibrationError("weak_fraction entries must be in [0, 1]")
        for name in ("true_cell_fraction", "true_cell_scale", "anti_cell_scale"):
            values = getattr(self, name)
            if len(values) != len(self.channel_scales) // 2 and len(values) != len(self.channel_scales):
                # One entry per die (channels come in die pairs) or per channel.
                raise CalibrationError(
                    f"{name} must have one entry per die or per channel")
        if not all(0.0 <= fraction <= 1.0 for fraction in self.true_cell_fraction):
            raise CalibrationError("true_cell_fraction entries must be in [0, 1]")
        if not 0.0 <= self.subarray_edge_droop < 1.0:
            raise CalibrationError("subarray_edge_droop must be in [0, 1)")
        if not 0.0 <= self.same_bit_coupling <= 1.0:
            raise CalibrationError(
                "same_bit_coupling must be in [0, 1] (an equal-bit aggressor "
                "cannot disturb more than a differing-bit one)")
        if self.intra_row_penalty < 0:
            raise CalibrationError("intra_row_penalty must be non-negative")
        if self.last_subarray_scale < 1.0:
            raise CalibrationError("last_subarray_scale must be >= 1")
        if self.blast_weight_1 <= 0 or self.blast_weight_2 < 0:
            raise CalibrationError("blast weights must be positive / non-negative")
        if self.blast_weight_2 > self.blast_weight_1:
            raise CalibrationError(
                "distance-2 disturbance cannot exceed distance-1 disturbance")
        if self.rowpress_coeff < 0:
            raise CalibrationError("rowpress_coeff must be non-negative")
        if not 0.0 <= self.cross_channel_coupling < 1.0:
            raise CalibrationError(
                "cross_channel_coupling must be in [0, 1) (leakage cannot "
                "exceed the in-die dose)")
        if not 0 < self.min_wordline_voltage_v <= \
                self.nominal_wordline_voltage_v:
            raise CalibrationError(
                "need 0 < min_wordline_voltage_v <= nominal voltage")
        if self.voltage_threshold_coeff < 0:
            raise CalibrationError(
                "voltage_threshold_coeff must be non-negative")
        if self.retention_median_s <= 0 or self.retention_sigma <= 0:
            raise CalibrationError("retention distribution must be positive")
        if self.retention_temp_double_c <= 0:
            raise CalibrationError("retention_temp_double_c must be positive")

    # ------------------------------------------------------------------
    def channel_scale(self, channel: int) -> float:
        if not 0 <= channel < len(self.channel_scales):
            raise CalibrationError(
                f"no channel scale for channel {channel}")
        return self.channel_scales[channel]

    def weak_fraction_for(self, channel: int) -> float:
        if not 0 <= channel < len(self.weak_fraction):
            raise CalibrationError(
                f"no weak-cell fraction for channel {channel}")
        return self.weak_fraction[channel]

    def _die_entry(self, values: Tuple[float, ...], channel: int,
                   channels_per_die: int = 2) -> float:
        if len(values) == len(self.channel_scales):
            return values[channel]
        return values[channel // channels_per_die]

    def true_fraction_for(self, channel: int) -> float:
        return self._die_entry(self.true_cell_fraction, channel)

    def true_scale_for(self, channel: int) -> float:
        return self._die_entry(self.true_cell_scale, channel)

    def anti_scale_for(self, channel: int) -> float:
        return self._die_entry(self.anti_cell_scale, channel)

    def subarray_position_scale(self, position_fraction: float) -> float:
        """Threshold multiplier for a row at ``position_fraction`` (0..1).

        Minimal (1.0, most vulnerable) mid-subarray, rising to
        1 / (1 - droop) at the edges — producing Fig. 5's periodic
        BER-across-rows shape.
        """
        centered = 2.0 * position_fraction - 1.0
        vulnerability = 1.0 - self.subarray_edge_droop * centered * centered
        return 1.0 / vulnerability

    def rowpress_amplification(self, open_cycles: int,
                               ras_cycles: int) -> float:
        """Per-activation disturbance multiplier for a row held open
        ``open_cycles`` (RowPress effect).

        1.0 for a minimum-latency ACT/PRE cycle (open <= tRAS); grows
        logarithmically with the open time beyond tRAS.
        """
        if open_cycles <= ras_cycles or self.rowpress_coeff == 0.0:
            return 1.0
        return 1.0 + self.rowpress_coeff * math.log2(
            open_cycles / ras_cycles)

    def temperature_threshold_scale(self, temperature_c: float) -> float:
        """Threshold multiplier at ``temperature_c`` (1.0 at the reference)."""
        delta = temperature_c - self.reference_temperature_c
        scale = 1.0 + self.threshold_temp_coeff * delta
        return max(scale, 0.05)

    def voltage_threshold_scale(self, wordline_voltage_v: float) -> float:
        """Threshold multiplier at ``wordline_voltage_v``.

        1.0 at the nominal voltage; grows as the wordline is underscaled
        (weaker aggressor coupling — fewer RowHammer bitflips).
        Operating below ``min_wordline_voltage_v`` is the caller's error.
        """
        if wordline_voltage_v < self.min_wordline_voltage_v:
            raise CalibrationError(
                f"wordline voltage {wordline_voltage_v} V below the "
                f"operational minimum {self.min_wordline_voltage_v} V")
        underscale = (self.nominal_wordline_voltage_v -
                      wordline_voltage_v) / self.nominal_wordline_voltage_v
        return 1.0 + self.voltage_threshold_coeff * max(0.0, underscale)

    def retention_temperature_scale(self, temperature_c: float) -> float:
        """Retention-time multiplier at ``temperature_c``."""
        delta = self.reference_temperature_c - temperature_c
        return 2.0 ** (delta / self.retention_temp_double_c)

    def with_overrides(self, **kwargs) -> "CalibrationProfile":
        """A copy of this profile with selected fields replaced."""
        return replace(self, **kwargs)


def default_profile() -> CalibrationProfile:
    """The profile calibrated against the paper's reported numbers."""
    return CalibrationProfile()


def ddr4_calibration() -> CalibrationProfile:
    """Plausible ground truth for a two-channel DDR4 module.

    Not fit to any single published module; the shape follows the
    *Revisiting RowHammer* population data — DDR4 HC_first medians are
    several times higher than this paper's HBM2 stack, with milder
    spatial variation (planar dies, one channel per die, so every
    per-channel tuple is full-length and die pairing plays no role).
    """
    return CalibrationProfile(
        weak_median=2.1e6,
        weak_sigma=0.75,
        threshold_floor=60_000.0,
        weak_fraction=(0.0310, 0.0355),
        channel_scales=(1.00, 0.97),
        true_cell_fraction=(0.51, 0.49),
        true_cell_scale=(1.12, 0.93),
        anti_cell_scale=(0.92, 1.08),
        subarray_edge_droop=0.30,
        last_subarray_scale=1.8,
        retention_median_s=64.0,
    )


def ddr5_calibration() -> CalibrationProfile:
    """Plausible ground truth for a two-channel DDR5 module.

    DDR5 nodes are denser and markedly more RowHammer-vulnerable than
    DDR4 (thresholds below the HBM2 stack's), with on-die ECC assumed
    *off* in this model — the paper's methodology reads raw cells.
    """
    return CalibrationProfile(
        weak_median=4.2e5,
        weak_sigma=0.90,
        threshold_floor=9_000.0,
        weak_fraction=(0.0880, 0.0935),
        channel_scales=(1.00, 0.94),
        true_cell_fraction=(0.53, 0.48),
        true_cell_scale=(1.18, 0.91),
        anti_cell_scale=(0.88, 1.10),
        subarray_edge_droop=0.38,
        last_subarray_scale=2.2,
        retention_median_s=18.0,
        retention_sigma=1.4,
    )
