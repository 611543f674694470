"""RowPress sensitivity experiments (the paper's §6 future work).

The paper plans to study "the time an aggressor row remains active" and
the RowPress effect [Luo+ ISCA'23]: holding an aggressor row open beyond
the minimum tRAS amplifies the disturbance each activation inflicts, so
the hammer count to the first bitflip drops — by an order of magnitude
at aggressor-on times in the microseconds.

:class:`RowPressExperiment` sweeps the aggressor-on time: each test is
the double-sided hammer test (:meth:`~repro.core.hammer.
DoubleSidedHammer.bind`) whose loop body holds every aggressor open for
``t_aggon`` before precharging::

    LOOP N { ACT a1; WAIT t_aggon; PRE; ACT a2; WAIT t_aggon; PRE }

between the neighbourhood fill and the victim's read-back, and measures
flips or HC_first.  Because longer-open iterations are also slower,
results report both the hammer count and the *time* to first flip —
RowPress's headline is that the bits/second disturbance rate still
rises.

Note on retention: at microsecond aggressor-on times a fixed hammer
count can exceed the 27 ms retention-safe window (e.g. 40K hammers at
tAggON ~7 us take ~0.5 s).  Flip counts then include a small retention
component — the same contamination real RowPress experiments manage by
bounding tAggON or the hammer count; HC_first searches are unaffected
because their near-threshold probes are short.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.bender.host import HostInterface
from repro.core.hammer import DoubleSidedHammer
from repro.core.hcfirst import search_first_flip
from repro.core.patterns import DataPattern, ROWSTRIPE0
from repro.dram.address import DramAddress, RowAddressMapper


@dataclass(frozen=True)
class RowPressPoint:
    """One sweep point: behaviour at a given aggressor-on time."""

    aggressor_on_cycles: int
    hammer_count: int
    flips: int
    duration_s: float

    @property
    def flips_per_second(self) -> float:
        if self.duration_s == 0.0:
            return 0.0
        return self.flips / self.duration_s


class RowPressExperiment:
    """Sweeps aggressor-on time at a fixed hammer count."""

    def __init__(self, host: HostInterface, mapper: RowAddressMapper,
                 pattern: DataPattern = ROWSTRIPE0) -> None:
        self._host = host
        self._hammer = DoubleSidedHammer(host, mapper)
        self._pattern = pattern

    def bind(self, victim: DramAddress, extra_open_cycles: int
             ) -> Callable[[int], RowPressPoint]:
        """The victim's test at one aggressor-on time, bound once: a
        function of the hammer count, each call one program (fill,
        ``LOOP n { ACT, WAIT, PRE each aggressor }``, read back)."""
        # Long aggressor-on times deliberately run past tREFW (the module
        # docstring's retention note), so decay is allowed.
        test = self._hammer.bind(victim, self._pattern,
                                 open_cycles=extra_open_cycles,
                                 allow_retention_decay=True)
        aggressor_on_cycles = (self._host.device.timing.ras_cycles
                               + extra_open_cycles)

        def run(hammer_count: int) -> RowPressPoint:
            outcome = test(hammer_count)
            return RowPressPoint(aggressor_on_cycles=aggressor_on_cycles,
                                 hammer_count=hammer_count,
                                 flips=outcome.flips,
                                 duration_s=outcome.duration_s)

        return run

    def run_point(self, victim: DramAddress, hammer_count: int,
                  extra_open_cycles: int) -> RowPressPoint:
        """Hammer with a given extra open time; returns the flip count."""
        return self.bind(victim, extra_open_cycles)(hammer_count)

    def sweep(self, victim: DramAddress, hammer_count: int,
              extra_open_cycles: Sequence[int]) -> List[RowPressPoint]:
        """One point per aggressor-on time, same hammer count."""
        return [self.run_point(victim, hammer_count, extra)
                for extra in extra_open_cycles]

    def first_flip_hammers(self, victim: DramAddress,
                           extra_open_cycles: int,
                           max_hammers: int = 256 * 1024,
                           start: int = 512) -> Optional[int]:
        """HC_first under extended aggressor-on time (None if censored):
        :func:`~repro.core.hcfirst.search_first_flip` over the bound
        RowPress test."""
        test = self.bind(victim, extra_open_cycles)
        return search_first_flip(lambda count: test(count).flips,
                                 max_hammers, start).hc_first
