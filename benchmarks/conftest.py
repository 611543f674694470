"""Shared benchmark fixtures.

Every benchmark regenerates one paper artifact (table/figure/claim) on
the simulated chip and prints it (run with ``-s`` to see the rendering);
machine-readable outputs land in ``benchmarks/results/``.

Sampling density mirrors the library defaults and scales through the
same environment variables the sweeps honour (``REPRO_ROWS_PER_REGION``,
``REPRO_HCFIRST_ROWS``, ``REPRO_REPETITIONS``); the paper's full density
is rows_per_region=3072, repetitions=5.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bender.board import BoardSpec, make_paper_setup
from repro.envutil import env_int

RESULTS_DIR = Path(__file__).parent / "results"

#: One chip specimen for the whole benchmark campaign (as in the paper).
CHIP_SEED = env_int("REPRO_CHIP_SEED", 2023)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def board():
    """The paper's testing station: calibrated chip at 85 degC."""
    return make_paper_setup(seed=CHIP_SEED)


@pytest.fixture(scope="session")
def board_spec() -> BoardSpec:
    """Picklable recipe for the same station, for parallel sweep workers
    (``REPRO_JOBS`` > 1 runs the sweep benchmarks across processes)."""
    return BoardSpec(seed=CHIP_SEED)


def emit(results_dir: Path, name: str, text: str) -> None:
    """Print a regenerated artifact and archive it."""
    print()
    print(f"=== {name} ===")
    print(text)
    (results_dir / f"{name}.txt").write_text(text + "\n")
