"""Bit Error Rate experiments.

A BER experiment (paper §3.1) hammers a victim row with 256K double-sided
hammers (512K activations) for each data pattern and reports the fraction
of the victim's cells that flipped.  With periodic refresh disabled the
hammer phase fits the 27 ms budget; the optional refresh-enabled mode
(ablation A2) interleaves REF commands at the nominal tREFI rate, which
lets the hidden TRR engine fire — demonstrating why the paper's
methodology must disable refresh.  Either way one measurement is one
hammer test program (:class:`~repro.core.hammer.HammerProbe`): fill the
neighbourhood, hammer, read the victim back.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.bender.host import HostInterface
from repro.core.experiment import ExperimentConfig, check_time_budget
from repro.core.hammer import DoubleSidedHammer, refresh_bursts
from repro.core.patterns import DataPattern, STANDARD_PATTERNS
from repro.core.results import BerRecord
from repro.dram.address import DramAddress, RowAddressMapper


class BerExperiment:
    """Runs BER measurements for victim rows."""

    def __init__(self, host: HostInterface, mapper: RowAddressMapper,
                 config: Optional[ExperimentConfig] = None) -> None:
        self._host = host
        self._config = config or ExperimentConfig()
        self._hammer = DoubleSidedHammer(host, mapper)

    @property
    def config(self) -> ExperimentConfig:
        return self._config

    def run_row(self, victim: DramAddress, pattern: DataPattern,
                region: str = "", repetition: int = 0) -> BerRecord:
        """One BER measurement of one victim row with one pattern."""
        config = self._config
        if config.controls.issue_periodic_refresh:
            # A memory controller that keeps refreshing during the
            # attack: hammers in bursts that fit one tREFI, each followed
            # by one REF — the hidden TRR engine's firing opportunities.
            bursts = refresh_bursts(self._host.device.timing, sides=2)
            outcome = self._hammer.bind(victim, pattern, bursts=bursts)(
                config.ber_hammer_count)
        else:
            outcome = self._hammer.run(victim, pattern,
                                       config.ber_hammer_count)
            check_time_budget(outcome.duration_s, config.controls,
                              what=f"BER hammering of {victim}")
        return BerRecord(
            channel=victim.channel, pseudo_channel=victim.pseudo_channel,
            bank=victim.bank, row=victim.row, region=region,
            pattern=pattern.name, repetition=repetition,
            hammer_count=config.ber_hammer_count, flips=outcome.report.flips,
            row_bits=self._host.device.geometry.row_bits,
            duration_s=outcome.duration_s)

    def run_patterns(self, victim: DramAddress,
                     patterns: Sequence[DataPattern] = STANDARD_PATTERNS,
                     region: str = "", repetition: int = 0
                     ) -> List[BerRecord]:
        """BER of one victim under each pattern (Table 1 column sweep)."""
        return [self.run_row(victim, pattern, region, repetition)
                for pattern in patterns]
