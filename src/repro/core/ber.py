"""Bit Error Rate experiments.

A BER experiment (paper §3.1) hammers a victim row with 256K double-sided
hammers (512K activations) for each data pattern and reports the fraction
of the victim's cells that flipped.  With periodic refresh disabled the
hammer phase fits the 27 ms budget; the optional refresh-enabled mode
(ablation A2) interleaves REF commands at the nominal tREFI rate, which
lets the hidden TRR engine fire — demonstrating why the paper's
methodology must disable refresh.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.bender.host import HostInterface
from repro.bender.program import ProgramBuilder
from repro.core.experiment import ExperimentConfig, check_time_budget
from repro.core.hammer import (
    DoubleSidedHammer,
    HammerOutcome,
    hammer_checks,
    prepare_neighborhood,
)
from repro.core.patterns import DataPattern, STANDARD_PATTERNS
from repro.core.results import BerRecord
from repro.core.rowdata import byte_fill_bits, flip_report
from repro.dram.address import DramAddress, RowAddressMapper
from repro.errors import ExperimentError


class BerExperiment:
    """Runs BER measurements for victim rows."""

    def __init__(self, host: HostInterface, mapper: RowAddressMapper,
                 config: Optional[ExperimentConfig] = None) -> None:
        self._host = host
        self._mapper = mapper
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
            outcome = self._run_with_refresh(victim, pattern)
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

    # ------------------------------------------------------------------
    def _run_with_refresh(self, victim: DramAddress, pattern: DataPattern):
        """Hammer with REFs interleaved at the nominal tREFI rate.

        Models a system whose memory controller keeps refreshing during
        the attack: hammers are issued in bursts that fit one tREFI, each
        followed by one REF — giving the hidden TRR engine its firing
        opportunities.
        """
        host = self._host
        config = self._config
        timing = host.device.timing
        prepare_neighborhood(host, self._mapper, victim, pattern)
        aggressors = self._hammer.aggressors_of(victim)
        if len(aggressors) < 2:
            raise ExperimentError(
                f"victim {victim} lacks two physical neighbours")

        hammer_cycles = len(aggressors) * timing.rc_cycles
        hammers_per_refi = max(1, (timing.refi_cycles - timing.rfc_cycles)
                               // hammer_cycles)
        full_bursts, remainder = divmod(config.ber_hammer_count,
                                        hammers_per_refi)

        def build():
            builder = ProgramBuilder()
            with builder.loop(full_bursts):
                with builder.loop(hammers_per_refi):
                    for row in aggressors:
                        builder.act(victim.channel, victim.pseudo_channel,
                                    victim.bank, row)
                        builder.pre(victim.channel, victim.pseudo_channel,
                                    victim.bank)
                builder.ref(victim.channel, victim.pseudo_channel)
            if remainder:
                with builder.loop(remainder):
                    for row in aggressors:
                        builder.act(victim.channel, victim.pseudo_channel,
                                    victim.bank, row)
                        builder.pre(victim.channel, victim.pseudo_channel,
                                    victim.bank)
            return builder.build()

        execution = host.cached_run(
            ("ber_refresh", victim.channel, victim.pseudo_channel,
             victim.bank, len(aggressors), full_bursts, hammers_per_refi,
             remainder),
            tuple(aggressors), build,
            lambda: hammer_checks(host, victim, aggressors,
                                  config.ber_hammer_count))
        duration_s = timing.seconds(execution.duration_cycles)

        read_bits = host.read_row(victim)
        expected = byte_fill_bits(pattern.victim_byte,
                                  host.device.geometry.row_bytes)
        report = flip_report(read_bits, expected)

        # Package into the same outcome shape the refresh-free path uses.
        return HammerOutcome(victim=victim, pattern=pattern,
                             hammer_count=config.ber_hammer_count,
                             report=report, duration_s=duration_s)
