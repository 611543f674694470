"""HC_first search: the minimum hammer count causing the first bitflip.

``HC_first`` (paper §1/§3.1) is the minimum number of double-sided
hammers after which a victim row exhibits at least one bitflip.  Because
cell behaviour is reproducible — the same cell flips at the same
accumulated disturbance every time — flip count is monotone in hammer
count, and HC_first can be located exactly with an exponential ramp
followed by binary search.  Every probe is an independent, fully-prepared
hammering test (rewrite neighbourhood, hammer, read back), exactly what
the paper's infrastructure runs.

Searches are capped at 256K hammers (the paper's bound); rows with no
flip at the cap are reported as right-censored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.bender.host import HostInterface
from repro.core.experiment import ExperimentConfig, check_time_budget
from repro.core.hammer import DoubleSidedHammer
from repro.core.patterns import DataPattern, STANDARD_PATTERNS
from repro.core.results import HcFirstRecord
from repro.dram.address import DramAddress, RowAddressMapper
from repro.errors import ExperimentError


@dataclass(frozen=True)
class HcFirstOutcome:
    """Raw outcome of one HC_first search."""

    hc_first: Optional[int]
    probes: int
    flips_at_max: int
    max_hammers: int

    @property
    def censored(self) -> bool:
        return self.hc_first is None


class HcFirstSearch:
    """Exact HC_first via exponential ramp + binary search."""

    def __init__(self, host: HostInterface, mapper: RowAddressMapper,
                 config: Optional[ExperimentConfig] = None,
                 start_hammers: int = 2048) -> None:
        if start_hammers < 1:
            raise ExperimentError("start_hammers must be >= 1")
        self._host = host
        self._config = config or ExperimentConfig()
        self._hammer = DoubleSidedHammer(host, mapper)
        self._start = start_hammers

    def _probe(self, victim: DramAddress, pattern: DataPattern,
               hammers: int) -> int:
        """Run one fully-prepared hammering test; returns the flip count."""
        outcome = self._hammer.run(victim, pattern, hammers)
        check_time_budget(outcome.duration_s, self._config.controls,
                          what=f"HC_first probe of {victim}")
        return outcome.report.flips

    def search(self, victim: DramAddress,
               pattern: DataPattern) -> HcFirstOutcome:
        """Find the exact HC_first of one victim under one pattern."""
        maximum = self._config.hcfirst_max_hammers
        probes = 0

        flips_at_max = self._probe(victim, pattern, maximum)
        probes += 1
        if flips_at_max == 0:
            return HcFirstOutcome(hc_first=None, probes=probes,
                                  flips_at_max=0, max_hammers=maximum)

        # Exponential ramp: find the first power-of-two step that flips.
        low = 0  # highest hammer count observed flip-free
        high = maximum  # lowest hammer count observed flipping
        hammers = min(self._start, maximum)
        while hammers < maximum:
            flips = self._probe(victim, pattern, hammers)
            probes += 1
            if flips > 0:
                high = hammers
                break
            low = hammers
            hammers *= 2

        # Binary search in (low, high].
        while high - low > 1:
            middle = (low + high) // 2
            flips = self._probe(victim, pattern, middle)
            probes += 1
            if flips > 0:
                high = middle
            else:
                low = middle
        return HcFirstOutcome(hc_first=high, probes=probes,
                              flips_at_max=flips_at_max,
                              max_hammers=maximum)

    # ------------------------------------------------------------------
    def record(self, victim: DramAddress, pattern: DataPattern,
               region: str = "", repetition: int = 0) -> HcFirstRecord:
        """Search and package as a dataset record."""
        outcome = self.search(victim, pattern)
        return HcFirstRecord(
            channel=victim.channel, pseudo_channel=victim.pseudo_channel,
            bank=victim.bank, row=victim.row, region=region,
            pattern=pattern.name, repetition=repetition,
            hc_first=outcome.hc_first, max_hammers=outcome.max_hammers,
            probes=outcome.probes, flips_at_max=outcome.flips_at_max)

    def record_patterns(self, victim: DramAddress,
                        patterns: Sequence[DataPattern] = STANDARD_PATTERNS,
                        region: str = "", repetition: int = 0
                        ) -> List[HcFirstRecord]:
        """HC_first of one victim under each pattern."""
        return [self.record(victim, pattern, region, repetition)
                for pattern in patterns]
