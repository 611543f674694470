"""Per-layer ledger: exclusive time and call counts at public entry points.

The traced repetition of each workload wraps a fixed list of the
program's public layer functions, from outside the program: each
attribute is replaced where its callers look it up (a class for
methods, the importing module for functions imported by name) and put
back afterwards.  A wrapper charges its call's duration, minus the
time spent in wrapped calls it made, to its own name — so the self
times of one arm partition the time spent inside wrapped calls, and
``wall - sum(self times)`` is what no entry point accounts for.

Only the process and thread that installed the wrappers are timed: pool
workers forked from the traced parent inherit the wrappers and run them
as plain pass-throughs.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Sequence, Tuple


@dataclass(frozen=True)
class EntryPoint:
    """One timed function: ``<layer>.<module>.<function>`` and where
    callers look it up (every ``(owner, attribute)`` pair is patched)."""

    name: str
    targets: Tuple[Tuple[object, str], ...]


def entry_points() -> List[EntryPoint]:
    """The 23 layer entry points the ledger times, grouped by layer."""
    from repro.bender.host import HostInterface
    from repro.bender.interpreter import Interpreter
    from repro.core import campaign, parallel, sweeps
    from repro.core.ber import BerExperiment
    from repro.core.fleet import FleetRunner
    from repro.core.hcfirst import HcFirstSearch
    from repro.dram.cellmodel import GroundTruthProvider
    from repro.dram.device import Device
    from repro.engine import backend
    from repro.engine.backend import FastPathBackend
    from repro.engine.cache import ProgramCache
    from repro.engine.pool import PoolBackend
    from repro.obs.events import EventBus
    from repro.verify import effects, program

    def point(name, *targets):
        return EntryPoint(name, tuple(targets))

    device_methods = ("activate", "precharge", "apply_hammer_steps",
                      "bulk_activations", "apply_row_writes", "refresh")
    return [
        point("dram.cellmodel.row", (GroundTruthProvider, "row")),
        *(point(f"dram.device.{method}", (Device, method))
          for method in device_methods),
        point("engine.backend.compile", (FastPathBackend, "compile")),
        point("engine.backend.execute", (FastPathBackend, "execute")),
        point("engine.cache.execute", (ProgramCache, "execute")),
        point("engine.pool.run", (PoolBackend, "run")),
        point("verify.program.verify_program",
              (program, "verify_program"), (effects, "verify_program")),
        point("verify.effects.summarize_program",
              (backend, "summarize_program")),
        point("bender.host.write_rows", (HostInterface, "write_rows")),
        point("bender.host.read_row", (HostInterface, "read_row")),
        point("bender.interpreter.run", (Interpreter, "run")),
        point("core.sweeps.run", (sweeps.SpatialSweep, "run")),
        point("core.ber.run_patterns", (BerExperiment, "run_patterns")),
        point("core.hcfirst.record_patterns",
              (HcFirstSearch, "record_patterns")),
        point("core.wcdp.append_wcdp_records",
              (sweeps, "append_wcdp_records"),
              (parallel, "append_wcdp_records")),
        point("core.fleet.run", (FleetRunner, "run")),
        point("durable.write_artifact", (campaign, "write_artifact")),
        point("obs.events.emit", (EventBus, "emit")),
    ]


class Ledger:
    """Self time and calls per entry-point name, for the current arm."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self._clock = clock
        self._pid = os.getpid()
        self._thread = threading.get_ident()
        #: Time wrapped callees spent, one accumulator per open call.
        self._children: List[float] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)

    def reset(self) -> None:
        """Start a new arm (the wrappers stay installed)."""
        self.self_s.clear()
        self.calls.clear()

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with its exclusive time charged to ``name``."""
        ledger = self

        @functools.wraps(function)
        def timed(*args, **kwargs):
            if (os.getpid() != ledger._pid
                    or threading.get_ident() != ledger._thread):
                return function(*args, **kwargs)
            clock = ledger._clock
            ledger._children.append(0.0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = ledger._children.pop()
                ledger.self_s[name] += elapsed - children
                ledger.calls[name] += 1
                if ledger._children:
                    ledger._children[-1] += elapsed

        return timed


@contextmanager
def installed(ledger: Ledger, points: Sequence[EntryPoint]
              ) -> Iterator[Ledger]:
    """Patch every target of ``points`` for the duration of the block.

    Each attribute must be defined on its owner itself (not inherited),
    so restoring it puts back exactly the object that was there.
    """
    saved = []
    try:
        for point in points:
            for owner, attribute in point.targets:
                original = vars(owner)[attribute]
                saved.append((owner, attribute, original))
                setattr(owner, attribute, ledger.wrap(point.name, original))
        yield ledger
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
