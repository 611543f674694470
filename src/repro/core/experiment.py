"""Experiment configuration: interference controls and time budgets.

§3.1 of the paper identifies four interference sources that must be
disabled for a clean RowHammer characterization, and how each is handled:

1. **Periodic refresh** — no REF commands are issued during experiments.
2. **On-die RH defenses (TRR)** — disabling refresh starves them (they
   only act on REF), so no extra step is needed.
3. **Data-retention failures** — every experiment finishes within 27 ms,
   under the 32 ms window in which manufacturers guarantee no retention
   errors.
4. **On-die ECC** — disabled through the corresponding mode register bit.

:class:`InterferenceControls` captures those four switches;
:class:`ExperimentConfig` adds the common test parameters.
:func:`apply_controls` pushes the switches to a board, and
:func:`check_time_budget` enforces (3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.bender.board import BenderBoard
from repro.errors import ExperimentBudgetError, ExperimentError

#: Refresh window within which vendors guarantee no retention errors (s).
RETENTION_SAFE_WINDOW_S = 32e-3
#: The paper's experiment budget, safely below the window (s).
DEFAULT_TIME_BUDGET_S = 27e-3


@dataclass(frozen=True)
class InterferenceControls:
    """The four §3.1 switches.

    The defaults are the paper's characterization settings.  Flipping a
    switch back on is how the interference ablation (bench A2/A3) shows
    each control is load-bearing.
    """

    issue_periodic_refresh: bool = False
    ecc_enabled: bool = False
    #: Enforce the <27 ms budget on hammer-phase duration.
    enforce_time_budget: bool = True
    time_budget_s: float = DEFAULT_TIME_BUDGET_S

    def __post_init__(self) -> None:
        if self.time_budget_s <= 0:
            raise ExperimentError("time_budget_s must be positive")
        if (self.enforce_time_budget and not self.issue_periodic_refresh
                and self.time_budget_s > RETENTION_SAFE_WINDOW_S):
            raise ExperimentError(
                f"refresh-disabled experiments must fit the "
                f"{RETENTION_SAFE_WINDOW_S * 1e3:.0f} ms retention-safe "
                f"window; budget {self.time_budget_s * 1e3:.1f} ms exceeds it")


@dataclass(frozen=True)
class ExperimentConfig:
    """Common parameters of the paper's RowHammer tests (§3.1)."""

    #: Hammers (aggressor-pair activations) for BER experiments.
    ber_hammer_count: int = 256 * 1024
    #: Upper bound of the HC_first search.
    hcfirst_max_hammers: int = 256 * 1024
    #: Independent repetitions of each measurement.
    repetitions: int = 1
    #: Chip temperature during experiments (degC).
    temperature_c: float = 85.0
    #: Device-family profile name (:mod:`repro.dram.profiles`) the
    #: experiment is designed for.  ``None`` (the default) means
    #: family-agnostic: no consistency check against the station.  When
    #: set, drivers check it against the station's own profile so a
    #: DDR4-tuned sweep cannot silently run on an HBM2 board, and the
    #: campaign fingerprint incorporates it.
    profile: Optional[str] = None
    controls: InterferenceControls = field(default_factory=InterferenceControls)

    def __post_init__(self) -> None:
        if self.ber_hammer_count <= 0:
            raise ExperimentError("ber_hammer_count must be positive")
        if self.hcfirst_max_hammers <= 0:
            raise ExperimentError("hcfirst_max_hammers must be positive")
        if self.repetitions <= 0:
            raise ExperimentError("repetitions must be positive")


def apply_controls(board: BenderBoard, config: ExperimentConfig) -> None:
    """Push the experiment configuration to a testing station.

    Sets the chip temperature through the PID rig and writes the ECC mode
    register.  (Refresh is controlled by simply not issuing REF commands;
    the hidden TRR needs no handling because it only acts on REF.)
    """
    board.set_target_temperature(config.temperature_c)
    board.host.set_ecc_enabled(config.controls.ecc_enabled)


def check_time_budget(duration_s: float,
                      controls: InterferenceControls,
                      what: str = "experiment") -> None:
    """Raise if a refresh-disabled experiment ran long enough for
    retention failures to contaminate it (§3.1, control 3)."""
    if not controls.enforce_time_budget or controls.issue_periodic_refresh:
        return
    if duration_s > controls.time_budget_s:
        raise ExperimentBudgetError(
            f"{what} took {duration_s * 1e3:.2f} ms, exceeding the "
            f"{controls.time_budget_s * 1e3:.1f} ms budget that keeps "
            "retention failures out of refresh-disabled measurements")
