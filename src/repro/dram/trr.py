"""The undisclosed in-DRAM Target Row Refresh (TRR) engine.

The paper's §5 discovers — via the U-TRR retention side channel — that the
tested HBM2 chip ships a proprietary TRR mechanism that refreshes a
sampled aggressor's victim rows **once every 17 periodic REF commands**,
resembling the mechanism U-TRR attributes to "Vendor C" DDR4 chips.

This module implements such an engine, generalized across the sampler
taxonomy *Uncovering In-DRAM RowHammer Protection Mechanisms* (U-TRR)
reports for real DDR4 vendors.  The engine is completely invisible at
the command interface: it observes ACT commands through a per-bank
sampler and, on every Nth REF of a pseudo channel, internally refreshes
the physical neighbours of each sampled row.  The characterization code
in :mod:`repro.core.utrr` must rediscover the mechanism through
read-back data alone.

Three sampler strategies are available via :attr:`TrrConfig.sampler`:

``last``
    The paper's chip (and U-TRR's "Vendor C"): a one-entry table per
    bank holding the **most recent** activated row.  A TRR event
    consumes the sample (the slot is cleared after the refresh).

``counter``
    A per-bank activation-count table of :attr:`TrrConfig.table_size`
    entries (U-TRR's "Vendor A" style).  Each ACT increments its row's
    counter, inserting with count 1 and evicting the minimum-count
    entry (ties: lowest row) when full.  A TRR event targets the
    maximum-count entry (ties: lowest row) and consumes it; the rest of
    the table survives across events.

``probabilistic``
    A one-entry slot per bank that each ACT captures with probability
    :attr:`TrrConfig.sample_probability` (U-TRR's "Vendor B" style).
    Sampling decisions come from a counter-indexed deterministic hash
    of (engine seed, bank, per-bank ACT ordinal) — not a sequential RNG
    stream — so the device's bulk-activation fast path can reproduce a
    run of millions of ACTs exactly by scanning backwards for the last
    winning ordinal.  A TRR event consumes the slot.

Every sampler also implements :meth:`TrrSampler.observe_run`, the bulk
form the device's analytic paths use: semantically identical to
observing each ACT of ``iterations`` repetitions of an event list, in
order, but computed without unrolling (the last-ACT sampler keeps only
final state, the counter sampler short-circuits on its per-bank steady
states — arithmetic count fill once membership stabilizes, early exit
on a churn fixed point — and the probabilistic sampler back-scans the
hash).

Every sampler also answers :meth:`TrrSampler.fire_cycle`, the fire-cycle
contract the closed form of REF-bounded bursts relies on: which
(bank, aggressor) pairs the next fires pick when every fire follows the
same run of ACTs.  The deterministic samplers find it by simulation up
to a short period (their state is all that decides a pick); the
probabilistic sampler reads each fire's pick off its hash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CommandError, ConfigurationError
from repro.obs import get_metrics

BankKey = Tuple[int, int, int]
#: One ACT as the sampler sees it: (bank key, physical row).
ActEvent = Tuple[BankKey, int]

#: Valid values of :attr:`TrrConfig.sampler`.
SAMPLER_KINDS = ("last", "counter", "probabilistic")


@dataclass(frozen=True)
class TrrConfig:
    """Configuration of the hidden TRR engine.

    Attributes:
        enabled: master switch (the paper's chip has it always on; tests
            and some ablations turn it off).
        refresh_period: a TRR victim refresh fires on every Nth REF
            command of a pseudo channel.  The paper measures N = 17.
        refresh_radius: physical distance around the sampled aggressor
            whose rows get refreshed.
        sampler: sampling strategy — ``last`` (paper default),
            ``counter``, or ``probabilistic`` (see module docstring).
        table_size: entries in the ``counter`` sampler's per-bank table.
        sample_probability: per-ACT capture probability of the
            ``probabilistic`` sampler.
    """

    enabled: bool = True
    refresh_period: int = 17
    refresh_radius: int = 1
    sampler: str = "last"
    table_size: int = 1
    sample_probability: float = 0.125

    def __post_init__(self) -> None:
        if self.refresh_period < 1:
            raise ConfigurationError("refresh_period must be >= 1")
        if self.refresh_radius < 1:
            raise ConfigurationError("refresh_radius must be >= 1")
        if self.sampler not in SAMPLER_KINDS:
            raise ConfigurationError(
                f"sampler must be one of {SAMPLER_KINDS}, "
                f"got {self.sampler!r}")
        if self.table_size < 1:
            raise ConfigurationError("table_size must be >= 1")
        if not 0.0 < self.sample_probability <= 1.0:
            raise ConfigurationError(
                "sample_probability must be in (0, 1]")


class TrrSampler:
    """Strategy interface: which aggressor each bank's sampler holds.

    Implementations must keep :meth:`observe_run` exactly equivalent to
    ``iterations`` in-order repetitions of :meth:`observe` over
    ``events`` — the device's bulk fast paths rely on it for
    byte-identical datasets against interpreted execution.
    """

    def observe(self, bank: BankKey, physical_row: int) -> None:
        raise NotImplementedError

    def observe_run(self, events: Sequence[ActEvent],
                    iterations: int) -> None:
        raise NotImplementedError

    def fire(self) -> List[Tuple[BankKey, int]]:
        """Consume and return the sampled (bank, aggressor) pairs."""
        raise NotImplementedError

    #: The longest period of fires :meth:`fire_cycle` looks for.
    MAX_FIRE_PERIOD = 4

    def fire_cycle(self, events: Sequence[ActEvent], iterations: int,
                   fires: int) -> Tuple[Tuple[Tuple[Tuple[BankKey, int],
                                                    ...], ...], int]:
        """The picks of the next ``fires`` fires when each follows
        ``iterations`` in-order repetitions of ``events`` (and nothing
        else reaches the sampler).

        Returns (one period of per-fire picks, how many of the fires
        they cover): fire ``j`` (from 1) picks ``picks[(j - 1) %
        len(picks)]`` for every ``j`` up to the count, and the sampler
        ends those fires, taken in whole periods, where
        :meth:`skip_fires` leaves it.  ``((), 0)`` when no period is
        found.  The sampler is left as it was.

        This form simulates: observe and fire until the state returns
        to the entry state, at most :attr:`MAX_FIRE_PERIOD` times.  A
        sampler is a pure function of its state and its input, so a
        return means the picks repeat with that period for ever.
        """
        entry = self._state()
        picks = []
        for _ in range(self.MAX_FIRE_PERIOD):
            self.observe_run(events, iterations)
            picks.append(tuple(self.fire()))
            if self._state() == entry:
                return tuple(picks), fires
        self._load(entry)
        return (), 0

    def skip_fires(self, events: Sequence[ActEvent], iterations: int,
                   fires: int) -> None:
        """Bulk form of ``fires`` repetitions of (``iterations`` x
        ``events`` observed, then :meth:`fire`), for fires that
        :meth:`fire_cycle` covered, in whole periods of its picks.

        A found period returns the state to where it started, so this
        form has nothing to do.
        """

    def _state(self) -> tuple:
        """The sampler's state, in order, for :meth:`fire_cycle`."""
        raise NotImplementedError

    def _load(self, state: tuple) -> None:
        """Install a state :meth:`_state` returned."""
        raise NotImplementedError


class LastActivationSampler(TrrSampler):
    """One slot per bank holding the most recent ACT (paper §5)."""

    def __init__(self) -> None:
        self._sampled: Dict[BankKey, int] = {}

    def observe(self, bank: BankKey, physical_row: int) -> None:
        self._sampled[bank] = physical_row

    def observe_run(self, events: Sequence[ActEvent],
                    iterations: int) -> None:
        if iterations <= 0:
            return
        # Only the final iteration's last ACT per bank survives.
        for bank, physical_row in events:
            self._sampled[bank] = physical_row

    def fire(self) -> List[Tuple[BankKey, int]]:
        picked = list(self._sampled.items())
        self._sampled.clear()
        return picked

    def _state(self) -> tuple:
        return tuple(self._sampled.items())

    def _load(self, state: tuple) -> None:
        self._sampled = dict(state)


class CounterSampler(TrrSampler):
    """Per-bank row -> activation-count tables (U-TRR "Vendor A")."""

    def __init__(self, table_size: int) -> None:
        self._table_size = table_size
        self._tables: Dict[BankKey, Dict[int, int]] = {}

    def observe(self, bank: BankKey, physical_row: int) -> None:
        table = self._tables.setdefault(bank, {})
        if physical_row in table:
            table[physical_row] += 1
            return
        if len(table) >= self._table_size:
            evicted = min(table, key=lambda row: (table[row], row))
            del table[evicted]
        table[physical_row] = 1

    def observe_run(self, events: Sequence[ActEvent],
                    iterations: int) -> None:
        if iterations <= 0:
            return
        # Banks are independent (separate tables, no cross-bank state),
        # so each bank's event subsequence is replayed on its own —
        # letting every bank reach its short-circuit regime separately.
        per_bank: Dict[BankKey, List[int]] = {}
        for bank, physical_row in events:
            per_bank.setdefault(bank, []).append(physical_row)
        for bank, rows in per_bank.items():
            self._run_bank(self._tables.setdefault(bank, {}), rows,
                           iterations)

    def _run_bank(self, table: Dict[int, int], rows: Sequence[int],
                  iterations: int) -> None:
        """Replay ``iterations`` repetitions of ``rows`` on one table.

        Simulated iteration by iteration until one of two steady states
        short-circuits the rest: *all resident* (no evictions — each
        further iteration adds each row's multiplicity, filled in
        arithmetically) or a *churn fixed point* (the iteration left
        the table exactly as it found it — typical when long-lived
        high-count entries squeeze the new rows into evicting each
        other — so every further iteration is a no-op).  Both regimes
        are reached within a few iterations for real programs, and the
        fallback is the exact per-ACT replay.
        """
        remaining = iterations
        while remaining > 0:
            before = dict(table)
            churned = False
            for physical_row in rows:
                if physical_row in table:
                    table[physical_row] += 1
                else:
                    churned = True
                    if len(table) >= self._table_size:
                        evicted = min(table,
                                      key=lambda row: (table[row], row))
                        del table[evicted]
                    table[physical_row] = 1
            remaining -= 1
            if not remaining:
                return
            if not churned:
                for physical_row in rows:
                    table[physical_row] += remaining
                return
            if table == before:
                # The sampler is a pure function of its table, so a
                # fixed point persists for every remaining iteration.
                return

    def fire(self) -> List[Tuple[BankKey, int]]:
        picked: List[Tuple[BankKey, int]] = []
        for bank, table in self._tables.items():
            if not table:
                continue
            top = max(table, key=lambda row: (table[row], -row))
            del table[top]
            picked.append((bank, top))
        return picked

    def _state(self) -> tuple:
        return tuple((bank, tuple(table.items()))
                     for bank, table in self._tables.items())

    def _load(self, state: tuple) -> None:
        self._tables = {bank: dict(table) for bank, table in state}


def _mix64(value: int) -> int:
    """splitmix64 finalizer: a well-distributed 64-bit hash."""
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


class ProbabilisticSampler(TrrSampler):
    """One slot per bank captured with probability p (U-TRR "Vendor B").

    Each bank's ACTs are numbered; ACT ordinal ``n`` captures the slot
    iff ``hash(seed, bank, n) < p * 2**64``.  Being counter-indexed
    (not a sequential RNG stream), a run of ``k`` ACTs is reproduced
    bulk by advancing the ordinal by ``k`` and scanning backwards for
    the last winning ordinal — expected ``1/p`` hash evaluations.
    """

    def __init__(self, probability: float, seed: int) -> None:
        self._threshold = int(probability * float(1 << 64))
        self._seed = seed & 0xFFFFFFFFFFFFFFFF
        self._sampled: Dict[BankKey, int] = {}
        self._ordinals: Dict[BankKey, int] = {}

    def _wins(self, bank: BankKey, ordinal: int) -> bool:
        word = _mix64(self._seed
                      ^ _mix64(bank[0] * 0x10001 + bank[1] * 0x101
                               + bank[2] + 1)
                      ^ _mix64(ordinal))
        return word < self._threshold

    def observe(self, bank: BankKey, physical_row: int) -> None:
        ordinal = self._ordinals.get(bank, 0) + 1
        self._ordinals[bank] = ordinal
        if self._wins(bank, ordinal):
            self._sampled[bank] = physical_row

    def observe_run(self, events: Sequence[ActEvent],
                    iterations: int) -> None:
        if iterations <= 0:
            return
        per_bank_rows: Dict[BankKey, List[int]] = {}
        for bank, physical_row in events:
            per_bank_rows.setdefault(bank, []).append(physical_row)
        for bank, rows in per_bank_rows.items():
            length = len(rows)
            total = length * iterations
            start = self._ordinals.get(bank, 0)
            self._ordinals[bank] = start + total
            for offset in range(total - 1, -1, -1):
                if self._wins(bank, start + offset + 1):
                    self._sampled[bank] = rows[offset % length]
                    break

    def fire(self) -> List[Tuple[BankKey, int]]:
        picked = list(self._sampled.items())
        self._sampled.clear()
        return picked

    def fire_cycle(self, events: Sequence[ActEvent], iterations: int,
                   fires: int) -> Tuple[Tuple[Tuple[Tuple[BankKey, int],
                                                    ...], ...], int]:
        """The ordinals only grow, so the state never repeats; instead
        each fire's pick is read off the hash, back-scanning its cycle's
        ordinals as :meth:`observe_run` does.  Covers the leading fires
        that pick what the first one picks (a period of one)."""
        per_bank: Dict[BankKey, List[int]] = {}
        for bank, physical_row in events:
            per_bank.setdefault(bank, []).append(physical_row)
        sampled = dict(self._sampled)
        first = None
        for fire in range(fires):
            for bank, rows in per_bank.items():
                length = len(rows)
                total = length * iterations
                start = self._ordinals.get(bank, 0) + fire * total
                for offset in range(total - 1, -1, -1):
                    if self._wins(bank, start + offset + 1):
                        sampled[bank] = rows[offset % length]
                        break
            picks = tuple(sampled.items())
            if first is None:
                first = picks
            elif picks != first:
                return (first,), fire
            sampled = {}
        return ((first,), fires) if fires else ((), 0)

    def skip_fires(self, events: Sequence[ActEvent], iterations: int,
                   fires: int) -> None:
        if fires <= 0:
            return
        for bank, _ in events:
            self._ordinals[bank] = (self._ordinals.get(bank, 0)
                                    + iterations * fires)
        self._sampled.clear()


def make_sampler(config: TrrConfig, seed: int = 0) -> TrrSampler:
    """Instantiate the sampler strategy ``config`` names."""
    if config.sampler == "last":
        return LastActivationSampler()
    if config.sampler == "counter":
        return CounterSampler(config.table_size)
    return ProbabilisticSampler(config.sample_probability, seed)


class TrrEngine:
    """Sampler + periodic victim refresh for one pseudo channel.

    The engine does not touch DRAM state itself; on a firing REF it
    reports which physical rows to internally refresh, and the device
    performs the refreshes (so all charge-restoration behaviour lives in
    one place, the bank).  ``seed`` feeds the probabilistic sampler's
    hash (ignored by the deterministic strategies), keyed per device so
    two specimens sample differently but one specimen reproducibly.
    """

    def __init__(self, config: TrrConfig, seed: int = 0) -> None:
        self._config = config
        self._ref_counter = 0
        self._sampler = make_sampler(config, seed)

    @property
    def config(self) -> TrrConfig:
        return self._config

    @property
    def sampler(self) -> TrrSampler:
        """The active sampler strategy (diagnostics / tests only)."""
        return self._sampler

    @property
    def ref_counter(self) -> int:
        """REF commands seen since the last firing (0 right after one:
        where fire cycles start)."""
        return self._ref_counter

    def observe_activation(self, bank: BankKey, physical_row: int) -> None:
        """Sampler input: an ACT was issued to ``physical_row``."""
        if not self._config.enabled:
            return
        self._sampler.observe(bank, physical_row)

    def observe_run(self, events: Sequence[ActEvent],
                    iterations: int) -> None:
        """Bulk sampler input: ``iterations`` repetitions of ``events``.

        Exactly equivalent to calling :meth:`observe_activation` for
        each event of each repetition, in order — the entry point for
        the device's analytic paths, which never unroll the loop.
        """
        if not self._config.enabled:
            return
        self._sampler.observe_run(events, iterations)

    def refs_until_fire(self) -> Optional[int]:
        """How many REFs from now the firing one is (1 = the next REF);
        None when the engine is disabled and never fires.

        Firing is keyed on the REF counter alone, never on sampler
        state, so the answer is the same for every sampler strategy.
        """
        if not self._config.enabled:
            return None
        return self._config.refresh_period - self._ref_counter

    def advance_refs(self, refs: int) -> None:
        """Count ``refs`` REFs that provably do not fire (fewer than
        :meth:`refs_until_fire`): bulk form of non-firing
        :meth:`on_refresh` calls, which touch only the counter."""
        if not self._config.enabled:
            return
        if self._ref_counter + refs >= self._config.refresh_period:
            raise CommandError(
                f"{refs} REFs would fire TRR (counter "
                f"{self._ref_counter} of {self._config.refresh_period})")
        self._ref_counter += refs

    def on_refresh(self) -> List[Tuple[BankKey, int]]:
        """Process one REF command.

        Returns the list of (bank, physical victim row) pairs the device
        must internally refresh now — empty except on every Nth call.
        """
        if not self._config.enabled:
            return []
        self._ref_counter += 1
        if self._ref_counter < self._config.refresh_period:
            return []
        self._ref_counter = 0
        victims = self._victims(self._sampler.fire())
        if victims:
            get_metrics().counter("trr.preventive_refreshes").inc(
                len(victims))
        return victims

    def _victims(self, picks: Sequence[Tuple[BankKey, int]]
                 ) -> List[Tuple[BankKey, int]]:
        """The (bank, physical victim row) pairs a fire of ``picks``
        refreshes, in order."""
        victims: List[Tuple[BankKey, int]] = []
        for bank, aggressor in picks:
            for distance in range(1, self._config.refresh_radius + 1):
                victims.append((bank, aggressor - distance))
                victims.append((bank, aggressor + distance))
        return victims

    def fire_cycle(self, events: Sequence[ActEvent], iterations: int,
                   fires: int) -> Tuple[Tuple[Tuple[Tuple[BankKey, int],
                                                    ...], ...], int]:
        """Fire cycles from here: when the REF counter is at zero (a
        fire just happened) and every next fire follows ``iterations``
        repetitions of ``events`` — the ACTs of ``refresh_period`` REF
        intervals — the victims of one period of fires, and how many of
        the next ``fires`` fires it covers (see
        :meth:`TrrSampler.fire_cycle`).  ``((), 0)`` mid-cycle, when
        disabled, or when the sampler finds no period."""
        if not self._config.enabled or self._ref_counter:
            return (), 0
        picks, covered = self._sampler.fire_cycle(events, iterations, fires)
        return tuple(tuple(self._victims(one)) for one in picks), covered

    def skip_fire_cycles(self, events: Sequence[ActEvent], iterations: int,
                         fires: int,
                         victims: Sequence[Sequence[Tuple[BankKey, int]]]
                         ) -> None:
        """Count ``fires`` fires that :meth:`fire_cycle` covered, a whole
        number of periods of ``victims``: the sampler moves as the
        stepped fires move it, the REF counter ends at zero where it
        started, and ``trr.preventive_refreshes`` grows by the same
        total."""
        self._sampler.skip_fires(events, iterations, fires)
        total = fires // len(victims) * sum(len(one) for one in victims)
        if total:
            get_metrics().counter("trr.preventive_refreshes").inc(total)
