"""The execution engine: every entry point's single path to the device.

Four sub-layers, each in its own module:

* **Session** (:mod:`repro.engine.session`) — owns station setup:
  board construction from a :class:`~repro.bender.board.BoardSpec`,
  the §3.1 interference controls, thermal-guard arming from the fault
  plan, and installation of the backend + program cache on the host
  (nothing is installed under ``$REPRO_FASTPATH=0``: that station is
  the oracle, interpreting every program per call).
* **Planner** (:mod:`repro.engine.plan`) — turns a sweep grid into an
  ordered stream of :class:`~repro.engine.plan.WorkItem`\\ s; serial,
  ``--jobs N``, and ``--resume`` consume the *same* plan, so
  byte-identical output falls out by construction.
* **Backend** (:mod:`repro.engine.backend`,
  :mod:`repro.engine.pool`) — the ``compile(program, checks) -> handle`` /
  ``execute(handle, rows) -> readbacks`` protocol;
  :class:`~repro.engine.backend.FastPathBackend` is the one production
  backend (cached effect summaries applied directly to the cell model,
  with interpreted execution for unsummarizable shapes and transport
  or trace bypasses), :class:`~repro.engine.pool.PoolBackend` the
  subprocess fan-out.
* **ProgramCache** (:mod:`repro.engine.cache`) — content-addressed
  (blake2b over assembled template + timing table) store of
  built-and-verified programs with row-address and hammer-count
  patching, so assembly and verification are paid once per program
  *shape* rather than once per row or count.

:mod:`repro.engine.pool` is intentionally not imported here: it
depends on :mod:`repro.core.sweeps` (which itself imports this
package), and the parallel executor imports it directly.
"""

from repro.engine.backend import CompiledProgram, FastPathBackend
from repro.engine.cache import ProgramCache, canonicalize, shape_digest, substitute
from repro.engine.plan import ExecutionPlan, WorkItem, chunk_items
from repro.engine.session import EngineSession

__all__ = [
    "CompiledProgram",
    "EngineSession",
    "ExecutionPlan",
    "FastPathBackend",
    "ProgramCache",
    "WorkItem",
    "canonicalize",
    "chunk_items",
    "shape_digest",
    "substitute",
]
