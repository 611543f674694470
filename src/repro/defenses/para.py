"""PARA: Probabilistic Adjacent Row Activation (Kim+ ISCA'14).

PARA is the canonical low-cost RowHammer defense: on every activation,
the memory controller refreshes the activated row's physical neighbours
with a small probability ``p``.  An aggressor then cannot accumulate
``HC_first`` activations against a victim without the victim being
refreshed in between, except with probability that shrinks exponentially
in ``p * HC_first``.

The simulation is exact with respect to the defense's probabilistic
semantics: trigger positions are sampled per activation (Bernoulli(p)
over the attack's activation stream), hammering between triggers runs
through the normal bulk path, and each trigger issues real ACT/PRE pairs
to the neighbours — paying the same overhead a hardware PARA would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bender.host import HostInterface
from repro.core.hammer import (
    DoubleSidedHammer,
    build_hammer_program,
    hammer_checks,
    prepare_neighborhood,
)
from repro.core.patterns import DataPattern
from repro.core.rowdata import byte_fill_bits, count_flips
from repro.dram.address import DramAddress, RowAddressMapper
from repro.errors import ExperimentError


@dataclass(frozen=True)
class DefenseOutcome:
    """Result of one defended double-sided attack."""

    victim: DramAddress
    hammer_count: int
    probability: float
    flips: int
    #: Neighbour-refresh activations the defense issued (its overhead).
    refreshes_issued: int

    @property
    def prevented(self) -> bool:
        return self.flips == 0

    @property
    def overhead_fraction(self) -> float:
        """Defense activations per attack activation."""
        if self.hammer_count == 0:
            return 0.0
        return self.refreshes_issued / (2 * self.hammer_count)


class ParaDefense:
    """Uniform-probability PARA protecting a testing station."""

    def __init__(self, host: HostInterface, mapper: RowAddressMapper,
                 probability: float, seed: int = 0) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ExperimentError(
                f"probability must be in [0, 1], got {probability}")
        self._host = host
        self._mapper = mapper
        self._probability = probability
        self._rng = np.random.Generator(np.random.Philox(seed))

    @property
    def probability(self) -> float:
        return self._probability

    def probability_for(self, channel: int) -> float:
        """Uniform PARA ignores the channel (adaptive variants override)."""
        return self._probability

    def probability_for_victim(self, victim: DramAddress) -> float:
        """Refresh probability in effect while attacking ``victim``.

        Defaults to the channel-level policy; subarray-aware variants
        override this with row-resolved probabilities.
        """
        return self.probability_for(victim.channel)

    # ------------------------------------------------------------------
    def defend_attack(self, victim: DramAddress, pattern: DataPattern,
                      hammer_count: int) -> DefenseOutcome:
        """Run a double-sided attack on ``victim`` under this defense.

        Samples the defense's trigger positions over the attack's
        ``2 * hammer_count`` activations, hammers the gaps between
        triggers, and refreshes the triggering aggressor's neighbours at
        each trigger — semantically identical to checking a Bernoulli(p)
        coin on every activation.
        """
        host = self._host
        mapper = self._mapper
        hammer = DoubleSidedHammer(host, mapper)
        probability = self.probability_for_victim(victim)

        prepare_neighborhood(host, mapper, victim, pattern)
        aggressors = hammer.aggressors_of(victim)
        if len(aggressors) < 2:
            raise ExperimentError(
                f"victim {victim} lacks two physical neighbours")

        activations = 2 * hammer_count
        trigger_count = int(self._rng.binomial(activations, probability))
        triggers = np.sort(self._rng.choice(
            activations, size=trigger_count, replace=False))

        refreshes = 0
        cursor = 0
        for trigger in triggers:
            gap_hammers = (int(trigger) - cursor) // 2
            if gap_hammers > 0:
                self._run_hammers(victim, aggressors, gap_hammers)
            cursor = int(trigger)
            # The triggering activation is one of the two aggressors;
            # refresh that aggressor's physical neighbours (the victim is
            # always among them in a double-sided attack).
            aggressor_row = aggressors[cursor % len(aggressors)]
            for neighbor in mapper.physical_neighbors(aggressor_row):
                host.activate_precharge(victim.with_row(neighbor))
                refreshes += 1
        remaining = (activations - cursor) // 2
        if remaining > 0:
            self._run_hammers(victim, aggressors, remaining)

        read_bits = host.read_row(victim)
        expected = byte_fill_bits(pattern.victim_byte,
                                  host.device.geometry.row_bytes)
        return DefenseOutcome(victim=victim, hammer_count=hammer_count,
                              probability=probability,
                              flips=count_flips(read_bits, expected),
                              refreshes_issued=refreshes)

    def _run_hammers(self, victim: DramAddress, aggressors, count: int
                     ) -> None:
        """``count`` hammers between two triggers: one count-bound
        shape for every gap."""
        host = self._host
        host.cached_run(
            ("para_gap", victim.channel, victim.pseudo_channel, victim.bank),
            aggressors,
            lambda: build_hammer_program(victim, aggressors, count),
            lambda: hammer_checks(host, victim, aggressors, count),
            count)
