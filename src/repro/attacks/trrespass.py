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
from repro.bender.program import ProgramBuilder
from repro.core.hammer import prepare_neighborhood
from repro.core.patterns import DataPattern, ROWSTRIPE0
from repro.core.rowdata import byte_fill_bits, count_flips
from repro.dram.address import DramAddress, RowAddressMapper
from repro.errors import ExperimentError
from repro.verify.program import VerifyContext, assert_verified


@dataclass(frozen=True)
class BypassOutcome:
    """Result of one refresh-enabled attack run."""

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
                 decoy_distance: int = 512, verify: bool = True) -> None:
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
        self._pattern = pattern
        self._decoy_distance = decoy_distance
        self._verify = verify

    def run(self, victim: DramAddress, hammer_count: int,
            use_decoy: bool) -> BypassOutcome:
        """Attack one victim with periodic refresh interleaved.

        Hammers are issued in bursts sized to the nominal tREFI; each
        burst is followed (optionally) by one decoy activation, then one
        REF — the cadence a real memory controller enforces.
        """
        host = self._host
        device = host.device
        timing = device.timing
        mapper = self._mapper

        prepare_neighborhood(host, mapper, victim, self._pattern)
        aggressors = list(mapper.physical_neighbors(victim.row))
        if len(aggressors) < 2:
            raise ExperimentError(
                f"victim {victim} lacks two physical neighbours")
        physical_victim = mapper.logical_to_physical(victim.row)
        decoy_physical = physical_victim + self._decoy_distance
        if decoy_physical >= device.geometry.rows:
            decoy_physical = physical_victim - self._decoy_distance
        decoy_logical = mapper.physical_to_logical(decoy_physical)

        hammer_cycles = len(aggressors) * timing.rc_cycles
        hammers_per_burst = max(1, (timing.refi_cycles - timing.rfc_cycles -
                                    timing.rc_cycles) // hammer_cycles)
        bursts, remainder = divmod(hammer_count, hammers_per_burst)

        start_cycle = device.now

        def build():
            builder = ProgramBuilder()

            def emit_burst(count: int) -> None:
                with builder.loop(count):
                    for row in aggressors:
                        builder.act(victim.channel, victim.pseudo_channel,
                                    victim.bank, row)
                        builder.pre(victim.channel, victim.pseudo_channel,
                                    victim.bank)

            with builder.loop(bursts):
                emit_burst(hammers_per_burst)
                if use_decoy:
                    builder.act(victim.channel, victim.pseudo_channel,
                                victim.bank, decoy_logical)
                    builder.pre(victim.channel, victim.pseudo_channel,
                                victim.bank)
                builder.ref(victim.channel, victim.pseudo_channel)
            if remainder:
                emit_burst(remainder)
            return builder.build()

        verify = None
        if self._verify:
            expected = {(victim.channel, victim.pseudo_channel,
                         victim.bank, row): hammer_count
                        for row in aggressors}
            if use_decoy:
                expected[(victim.channel, victim.pseudo_channel,
                          victim.bank, decoy_logical)] = bursts

            def verify(program) -> None:
                # Deliberately NOT assume_trr_escaped: the attack runs
                # with TRR live and either loses to it (naive) or
                # decoys it.
                assert_verified(
                    program,
                    VerifyContext.for_host(host, expected_hammers=expected),
                    what=f"TRR bypass program for {victim}")
        rows = tuple(aggressors) + ((decoy_logical,) if use_decoy else ())
        host.cached_run(
            ("trr_bypass", victim.channel, victim.pseudo_channel,
             victim.bank, len(aggressors), bursts, hammers_per_burst,
             remainder, use_decoy),
            rows, build, verify=verify)

        read_bits = host.read_row(victim)
        expected = byte_fill_bits(self._pattern.victim_byte,
                                  device.geometry.row_bytes)
        return BypassOutcome(
            victim=victim, hammer_count=hammer_count, used_decoy=use_decoy,
            flips=count_flips(read_bits, expected),
            refs_issued=bursts,
            duration_s=timing.seconds(device.now - start_cycle))

    def compare(self, victim: DramAddress,
                hammer_count: int) -> dict:
        """Naive vs decoy attack on the same victim."""
        return {
            "naive": self.run(victim, hammer_count, use_decoy=False),
            "decoy": self.run(victim, hammer_count, use_decoy=True),
        }
