"""TRRespass-style bypass of the hidden TRR mechanism.

§5 shows the chip's undisclosed TRR refreshes a *sampled* aggressor's
victims every 17 REFs.  Samplers with few entries are a known weakness
(Frigo+ S&P'20, "TRRespass"): an attacker who controls which activation
the sampler sees last can feed it **decoys**, so the preventive refresh
lands on rows the attack does not target while the true victim keeps
accumulating disturbance.

:class:`TrrBypassAttack` demonstrates this against the simulated chip's
last-activation-wins sampler under *system-realistic* conditions —
periodic refresh running at the nominal tREFI rate:

* the **naive** attack hammers the victim's two neighbours in bursts
  between REFs; the sampler therefore always holds a true aggressor and
  TRR keeps rescuing the victim (zero flips);
* the **decoy** attack appends one activation of a far-away decoy row to
  each burst; the sampler holds the decoy at every REF, TRR refreshes
  the decoy's (irrelevant) neighbours, and the victim flips.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bender.host import HostInterface
from repro.core.hammer import DoubleSidedHammer, refresh_bursts
from repro.core.patterns import DataPattern, ROWSTRIPE0
from repro.dram.address import DramAddress, RowAddressMapper
from repro.errors import ExperimentError


@dataclass(frozen=True)
class BypassOutcome:
    """Result of one refresh-enabled attack run; ``duration_s`` is the
    attack's (the hammer section's), without the fill and read-back."""

    victim: DramAddress
    hammer_count: int
    used_decoy: bool
    flips: int
    refs_issued: int
    duration_s: float

    @property
    def bypassed_trr(self) -> bool:
        return self.used_decoy and self.flips > 0


class TrrBypassAttack:
    """Hammering under live refresh, with or without sampler decoys."""

    def __init__(self, host: HostInterface, mapper: RowAddressMapper,
                 pattern: DataPattern = ROWSTRIPE0,
                 decoy_distance: int = 512) -> None:
        """
        Args:
            decoy_distance: physical rows between the victim and the
                decoy aggressor (far enough that the decoy's neighbours
                are not the attack's victims).
        """
        if decoy_distance < 16:
            raise ExperimentError(
                "decoy must be well outside the victim's neighbourhood")
        self._host = host
        self._mapper = mapper
        self._hammer = DoubleSidedHammer(host, mapper)
        self._pattern = pattern
        self._decoy_distance = decoy_distance

    def run(self, victim: DramAddress, hammer_count: int,
            use_decoy: bool) -> BypassOutcome:
        """Attack one victim with periodic refresh interleaved.

        Hammers are issued in bursts sized to the nominal tREFI; each
        burst is followed (optionally) by one decoy activation, then one
        REF — the cadence a real memory controller enforces.  One test
        program fills the neighbourhood, attacks and reads the victim
        back; the outcome's duration is the attack's alone.
        """
        host = self._host
        mapper = self._mapper
        physical_victim = mapper.logical_to_physical(victim.row)
        decoy_physical = physical_victim + self._decoy_distance
        if decoy_physical >= host.device.geometry.rows:
            decoy_physical = physical_victim - self._decoy_distance
        # Both attacks leave room in each tREFI for the decoy's ACT/PRE.
        bursts = refresh_bursts(
            host.device.timing, sides=2, spare_acts=1,
            decoy_row=(mapper.physical_to_logical(decoy_physical)
                       if use_decoy else None))
        # The declared checks are deliberately NOT assume_trr_escaped:
        # the attack runs with TRR live and either loses to it (naive)
        # or decoys it.
        outcome = self._hammer.bind(victim, self._pattern,
                                    bursts=bursts)(hammer_count)
        return BypassOutcome(
            victim=victim, hammer_count=hammer_count, used_decoy=use_decoy,
            flips=outcome.flips,
            refs_issued=hammer_count // bursts.hammers,
            duration_s=outcome.duration_s)

    def compare(self, victim: DramAddress,
                hammer_count: int) -> dict:
        """Naive vs decoy attack on the same victim."""
        return {
            "naive": self.run(victim, hammer_count, use_decoy=False),
            "decoy": self.run(victim, hammer_count, use_decoy=True),
        }
