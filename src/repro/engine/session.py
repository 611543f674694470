"""The engine session: one configured testing station, set up once.

Before the engine existed, four call sites (``sweeps.py``,
``parallel.py``, ``campaign.py`` resume, ``cli.py``) each wired up the
same station plumbing — board construction from a
:class:`~repro.bender.board.BoardSpec`, the §3.1 interference
controls, thermal-guard arming from the fault plan, and (now) the
program cache.  :class:`EngineSession` is that logic in exactly one
place:

* :meth:`prepare` — the serial sweep's entry: applies the controls
  under the ``controls`` tracing span (unless the caller already did).
* :meth:`station` — the worker/CLI entry: builds the board lazily and
  applies the controls exactly once per session, with no extra span
  (re-settling the PID rig between shards could land on a fractionally
  different plant temperature and break bit-for-bit equality with the
  serial path).
* :meth:`thermal_guard` — arms the §3 thermal excursion guard *after*
  the controls settle the rig, so it captures the calibrated operating
  point to snap back to.

Activating a session installs the engine's execution services on the
board's host: the production path, a
:class:`~repro.engine.backend.FastPathBackend` behind a
:class:`~repro.engine.cache.ProgramCache`.  ``$REPRO_FASTPATH=0``
selects the oracle instead: the session installs nothing, so every
program is built, verified and interpreted per call, exactly as on a
bare :class:`~repro.bender.board.BenderBoard`.  Experiment drivers
reach either through ``host.cached_run`` and the host's row helpers;
none of them builds a board or an interpreter itself.
"""

from __future__ import annotations

from typing import Optional

from repro.bender.board import BenderBoard, BoardSpec
from repro.engine.backend import FastPathBackend
from repro.engine.cache import ProgramCache
from repro.envutil import fastpath_enabled
from repro.errors import EngineError
from repro.faults.plan import FaultPlan, FaultSpec, resolve_fault_spec
from repro.faults.thermal import ThermalGuard
from repro.obs import get_tracer


class EngineSession:
    """Owns one station's construction and execution services."""

    def __init__(self, *, spec: Optional[BoardSpec] = None,
                 board: Optional[BenderBoard] = None,
                 experiment=None,
                 profile: Optional[str] = None) -> None:
        """
        Args:
            spec: recipe to build the board from (lazily, on first use).
            board: an existing station to adopt instead.
            experiment: interference controls and test parameters.
            profile: device-family profile name to build the station
                with (:mod:`repro.dram.profiles`); applied onto
                ``spec`` (which must not already name a *different*
                family).  Ignored for adopted boards.
        """
        # Lazy import: core.sweeps imports this module, and the core
        # package __init__ eagerly imports sweeps — a module-level
        # import of core.experiment here would close that cycle.
        from repro.core.experiment import ExperimentConfig
        if spec is None and board is None:
            raise EngineError("EngineSession needs a BoardSpec or a board")
        if profile is not None and spec is not None:
            from dataclasses import replace
            if spec.device_profile is not None and \
                    spec.device_profile != profile:
                raise EngineError(
                    f"session profile {profile!r} conflicts with the "
                    f"spec's device profile {spec.device_profile!r}")
            spec = replace(spec, device_profile=profile)
        self._spec = spec
        self._board = board
        self.experiment = experiment or ExperimentConfig()
        self._fastpath = fastpath_enabled()
        self._controls_applied = False

    @property
    def board(self) -> BenderBoard:
        """The station (built from the spec on first access)."""
        if self._board is None:
            self._board = self._spec.build()
        board = self._board
        if self._fastpath and board.host.engine_backend is None:
            backend = FastPathBackend(board.host)
            board.host.engine_backend = backend
            board.host.program_cache = ProgramCache(backend)
        return board

    @property
    def host(self):
        return self.board.host

    # ------------------------------------------------------------------
    def prepare(self, apply_interference_controls: bool = True
                ) -> BenderBoard:
        """Serial-sweep setup: §3.1 controls under a tracing span."""
        from repro.core.experiment import apply_controls
        board = self.board
        if apply_interference_controls:
            with get_tracer().span("controls"):
                apply_controls(board, self.experiment)
            self._controls_applied = True
        return board

    def station(self) -> BenderBoard:
        """Worker/CLI setup: controls applied exactly once, no span."""
        from repro.core.experiment import apply_controls
        board = self.board
        if not self._controls_applied:
            apply_controls(board, self.experiment)
            self._controls_applied = True
        return board

    def release(self) -> None:
        """Drop the station so its simulator state can be reclaimed.

        Called when a worker's session LRU evicts this session: the
        board (cell ground truth, stored row data, program cache) is
        the bulk of a session's footprint, and a re-used session would
        rebuild it from the spec anyway.  Releasing a board-adopting
        session (no spec) is refused — it could never rebuild.
        """
        if self._spec is None:
            raise EngineError(
                "cannot release a session that adopted an existing "
                "board (no spec to rebuild from)")
        self._board = None
        self._controls_applied = False

    # ------------------------------------------------------------------
    def thermal_guard(self, faults: Optional[FaultSpec]
                      ) -> Optional[ThermalGuard]:
        """The thermal excursion guard for ``faults`` (None = consult
        ``$REPRO_FAULTS``); arm only after the controls have settled."""
        fault_spec = resolve_fault_spec(faults)
        if fault_spec is not None and fault_spec.has_thermal_faults:
            return ThermalGuard(self.board, FaultPlan(fault_spec))
        return None
