"""Per-row, per-side disturbance accounting.

Every activation of a wordline disturbs the physically adjacent rows
*within the same subarray* (wordline coupling does not cross the
sense-amplifier stripes — which is precisely what the paper's subarray
reverse engineering exploits).  Disturbance accumulates per victim row
until the row's charge is restored — by its own activation, by a periodic
refresh, or by a TRR victim refresh — at which point the counter resets.

Disturbance is tracked separately for the two sides of each victim
(aggressors physically *below* vs *above*), because the data-pattern
coupling a cell experiences depends on the aggressor's stored bit on each
side: a victim cell is disturbed effectively only by aggressor cells whose
value differs from its own.  Double-sided hammering therefore delivers
both sides' disturbance; single-sided hammering only one — reproducing the
single-/double-sided asymmetry the paper's methodology relies on.

Distance-2 disturbance (a much weaker, non-adjacent coupling) is folded
into the same side bucket and evaluated against the distance-1
neighbour's data; at ``blast_weight_2`` ≈ 4% of the adjacent weight, the
approximation is far below measurement noise.

The ledger is a sparse dict of ``[below, above, direct]`` float triples,
keyed by physical row: experiments touch a tiny fraction of a bank's
rows, and a replayed stream touches a few dozen accumulators, one
scalar add per victim per activation, where plain Python floats beat
numpy indexing by an order of magnitude.  The adds run in two places:
:meth:`DisturbanceTracker.record_activation` for a stepped PRE, and
inlined in the bank's replay kernel (:meth:`~repro.dram.bank.Bank.
replay`), which reads the tracker's dicts directly.  Accumulation uses
IEEE-754 double adds in command order either way, so every path is
value-exact.  Per-bank arrays pay off only once a whole region's probes
are batched into one array operation.

A command sequence whose ledger ops are known in advance has one closed
form, :meth:`DisturbanceTracker.burst_plan`: the rows it resets end
with only the adds after their last reset, and every other accumulator
gets its addends in command order.  :meth:`DisturbanceTracker.
repeat_burst` applies it any number of times — REF-bounded bursts
between events, many times over, and a self-contained stream (a hammer
test's neighbourhood fill with its warm-up iterations), once.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.dram.calibration import CalibrationProfile
from repro.dram.subarrays import SubarrayLayout

#: Index of the bucket fed by aggressors at lower physical addresses.
SIDE_BELOW = 0
#: Index of the bucket fed by aggressors at higher physical addresses.
SIDE_ABOVE = 1
#: Index of the direct bucket: disturbance that couples into the cell
#: regardless of in-die neighbour data — used for hypothesised
#: cross-channel (inter-die) coupling, the paper's future work 3.
SIDE_DIRECT = 2


class BurstPlan(NamedTuple):
    """One burst's ops on one ledger, ready to repeat (see
    :meth:`DisturbanceTracker.burst_plan`)."""

    #: (row, entry the burst leaves or None) per row the burst resets.
    resets: Tuple[Tuple[int, Optional[Tuple[float, float, float]]], ...]
    #: Per reset row, the sum of the burst's addends to it: an upper
    #: bound on what the row holds when a steady burst re-senses it.
    doses: Tuple[float, ...]
    #: (row, side) of every accumulator the burst only adds to.
    targets: Tuple[Tuple[int, int], ...]
    #: Per target, the burst's addends in command order, padded with
    #: trailing zeros to one width (adding 0.0 to a non-negative double
    #: changes nothing).
    addends: np.ndarray


class DisturbanceTracker:
    """Accumulated neighbour-activation disturbance for one bank."""

    def __init__(self, rows: int, layout: SubarrayLayout,
                 profile: CalibrationProfile) -> None:
        self._layout = layout
        self._profile = profile
        self._rows = rows
        self._counts: Dict[int, List[float]] = {}
        # Per-aggressor (victim, side, weight) triples are a pure
        # function of the static geometry (weights + subarray layout),
        # so they are computed once per row and scaled per call.
        self._blast: Dict[int, Tuple[Tuple[int, int, float], ...]] = {}

    # ------------------------------------------------------------------
    def _blast_triples(self, physical_row: int
                       ) -> Tuple[Tuple[int, int, float], ...]:
        """Memoized single-activation (victim, side, weight) triples."""
        cached = self._blast.get(physical_row)
        if cached is not None:
            return cached
        profile = self._profile
        layout = self._layout
        rows = self._rows
        triples: List[Tuple[int, int, float]] = []
        for distance, weight in ((1, profile.blast_weight_1),
                                 (2, profile.blast_weight_2)):
            if weight <= 0.0:
                continue
            for victim, side in ((physical_row - distance, SIDE_ABOVE),
                                 (physical_row + distance, SIDE_BELOW)):
                if not 0 <= victim < rows:
                    continue
                if not layout.same_subarray(physical_row, victim):
                    continue
                triples.append((victim, side, weight))
        result = tuple(triples)
        self._blast[physical_row] = result
        return result

    def _entry(self, physical_row: int) -> List[float]:
        entry = self._counts.get(physical_row)
        if entry is None:
            entry = self._counts[physical_row] = [0.0, 0.0, 0.0]
        return entry

    def contributions(self, physical_row: int,
                      count: float = 1.0) -> List[Tuple[int, int, float]]:
        """(victim row, side, disturbance) triples for ``count`` ACTs.

        Distance-1 neighbours receive ``blast_weight_1`` per activation,
        distance-2 neighbours ``blast_weight_2``; rows across a subarray
        boundary (or outside the bank) receive nothing.
        """
        return [(victim, side, weight * count)
                for victim, side, weight in self._blast_triples(physical_row)]

    def bulk_contributions(self, physical_row: int, count: float,
                           activated) -> List[Tuple[int, int, float]]:
        """:meth:`contributions` minus the victims in ``activated``: the
        adds of a bulk-applied loop, whose body restores the rows it
        activates every iteration."""
        return [(victim, side, amount) for victim, side, amount
                in self.contributions(physical_row, count)
                if victim not in activated]

    def record_activation(self, physical_row: int, count: float = 1.0) -> None:
        """Disturb the neighbours of ``physical_row`` by ``count`` ACTs:
        add each of :meth:`contributions`, inlined for the hot path.

        Does *not* reset the aggressor's own counters — charge restoration
        is the bank's job (it must also reset the refresh timestamp).
        """
        counts = self._counts
        for victim, side, weight in self._blast_triples(physical_row):
            entry = counts.get(victim)
            if entry is None:
                entry = counts[victim] = [0.0, 0.0, 0.0]
            entry[side] += weight * count

    def add(self, physical_row: int, side: int, amount: float) -> None:
        """Directly add disturbance to one row side (bulk fast path)."""
        self._entry(physical_row)[side] += amount

    def get_sides(self, physical_row: int) -> Tuple[float, float]:
        """(from below, from above) accumulated disturbance of one row."""
        entry = self._counts.get(physical_row)
        if entry is None:
            return 0.0, 0.0
        return entry[SIDE_BELOW], entry[SIDE_ABOVE]

    def get_direct(self, physical_row: int) -> float:
        """Accumulated data-independent (inter-die) disturbance."""
        entry = self._counts.get(physical_row)
        return entry[SIDE_DIRECT] if entry is not None else 0.0

    def add_direct(self, physical_row: int, amount: float) -> None:
        """Add cross-channel disturbance to one row."""
        self.add(physical_row, SIDE_DIRECT, amount)

    def get_total(self, physical_row: int) -> float:
        """Total accumulated disturbance of one row (guard checks)."""
        entry = self._counts.get(physical_row)
        if entry is None:
            return 0.0
        return (entry[0] + entry[1]) + entry[2]

    def reset(self, physical_row: int) -> None:
        """Charge restored: the row's accumulated disturbance vanishes."""
        self._counts.pop(physical_row, None)

    def reset_range(self, start: int, end: int) -> None:
        """Reset a contiguous physical-row range (periodic refresh)."""
        stale = [row for row in self._counts if start <= row < end]
        for row in stale:
            del self._counts[row]

    def rows(self) -> Iterable[int]:
        """Rows holding a ledger entry."""
        return self._counts.keys()

    @staticmethod
    def burst_plan(ops: Sequence[Tuple[int, Optional[int], float]]
                   ) -> BurstPlan:
        """The closed form of one burst's ledger ops.

        ``ops`` are one tracker's ops of one burst, as ``(row, side,
        amount)`` in command order (side None: a reset), as the device
        derives them from the burst's schedule.
        A row the burst resets ends every repetition the same way: only
        the adds after its last reset survive, so the plan carries that
        tail applied to a fresh entry.  Every other row gets the burst's
        addends once per repetition, per side in command order.
        """
        per_row: Dict[int, List[Tuple[Optional[int], float]]] = {}
        for row, side, amount in ops:
            row_ops = per_row.get(row)
            if row_ops is None:
                per_row[row] = [(side, amount)]
            else:
                row_ops.append((side, amount))
        resets, doses, targets, addends = [], [], [], []
        for row, row_ops in per_row.items():
            last_reset = None
            for index, (side, _) in enumerate(row_ops):
                if side is None:
                    last_reset = index
            if last_reset is None:
                for side in (SIDE_BELOW, SIDE_ABOVE, SIDE_DIRECT):
                    amounts = [amount for op_side, amount in row_ops
                               if op_side == side]
                    if amounts:
                        targets.append((row, side))
                        addends.append(amounts)
                continue
            final = None
            for side, amount in row_ops[last_reset + 1:]:
                if final is None:
                    final = [0.0, 0.0, 0.0]
                final[side] += amount
            resets.append((row, None if final is None else tuple(final)))
            doses.append(sum([amount for side, amount in row_ops
                              if side is not None]))
        width = max((len(amounts) for amounts in addends), default=0)
        padded = np.zeros((len(addends), width))
        for index, amounts in enumerate(addends):
            padded[index, :len(amounts)] = amounts
        return BurstPlan(tuple(resets), tuple(doses), tuple(targets),
                         padded)

    #: Columns of one :meth:`repeat_burst` accumulate chunk: bounds its
    #: scratch array however many repetitions it applies.
    REPEAT_CHUNK = 4096

    def repeat_burst(self, plan: BurstPlan, times: int) -> None:
        """Apply ``times`` repetitions of a burst's :meth:`burst_plan`.

        Value-exact against the stepped bursts: a reset row is left
        with its tail entry, and every other accumulator gets the
        burst's addends ``times`` over, one IEEE-754 double add at a
        time in command order (``np.add.accumulate`` adds sequentially
        along its axis, exactly as the stepped ``+=`` chain does).  The
        chain runs in chunks of about :attr:`REPEAT_CHUNK` addends,
        each starting from the running totals the last one ended at;
        one repetition (a stream's closed form) is that ``+=`` chain
        itself, which for a handful of addends costs less than building
        the chain's array.
        """
        counts = self._counts
        for row, final in plan.resets:
            if final is None:
                counts.pop(row, None)
            else:
                counts[row] = list(final)
        if not plan.targets:
            return
        if times == 1:
            for (row, side), amounts in zip(plan.targets,
                                            plan.addends.tolist()):
                entry = self._entry(row)
                for amount in amounts:
                    entry[side] += amount
            return
        entries = [self._entry(row) for row, _ in plan.targets]
        width = plan.addends.shape[1]
        totals = np.array([entry[side] for entry, (_, side)
                           in zip(entries, plan.targets)])
        per_chunk = max(1, self.REPEAT_CHUNK // max(width, 1))
        while times > 0:
            repeats = min(times, per_chunk)
            chain = np.empty((len(entries), 1 + width * repeats))
            chain[:, 0] = totals
            chain[:, 1:] = np.tile(plan.addends, repeats)
            totals = np.add.accumulate(chain, axis=1)[:, -1]
            times -= repeats
        for entry, (_, side), total in zip(entries, plan.targets,
                                           totals.tolist()):
            entry[side] = total

    def total(self) -> float:
        """Sum of all accumulated disturbance (diagnostics)."""
        return float(sum(self.get_total(row)
                         for row in sorted(self._counts)))
