"""Shared fixtures.

Two device scales are used throughout the suite:

* ``small_*`` — a miniature geometry (2 channels, 256 rows, 32-byte rows)
  for unit tests: every mechanism is present, each test runs in
  milliseconds.
* ``paper_board`` — the full paper configuration (8 channels, 16K rows,
  1 KiB rows), session-scoped, for integration tests that check the
  reproduced observations.
"""

from __future__ import annotations

import pytest

from repro.bender import isa
from repro.bender.board import BenderBoard, make_paper_setup
from repro.bender.program import Program
from repro.dram.calibration import CalibrationProfile, default_profile
from repro.dram.device import Device
from repro.dram.geometry import Geometry


SMALL_GEOMETRY = Geometry(channels=2, pseudo_channels=1, banks=2,
                              rows=256, columns=4, column_bytes=8,
                              channels_per_die=2)


def make_small_profile(**overrides) -> CalibrationProfile:
    """The default profile, valid for the 2-channel small geometry.

    Profiles index per-channel tables by channel number, so the full
    8-entry tables work unchanged; only overrides are applied on top.
    """
    return default_profile().with_overrides(**overrides)


def vulnerable_profile(**overrides) -> CalibrationProfile:
    """A deliberately fragile profile for small-geometry hammer tests.

    Small rows (256 bits) hold few weak cells under the calibrated
    profile, making flips at the paper's hammer counts probabilistic.
    This profile raises the weak density and lowers thresholds so tests
    can rely on: no flips below ~5K hammers, reliable flips by ~64K.
    """
    base = default_profile().with_overrides(
        weak_fraction=(0.4,) * 8,
        weak_median=1.2e5,
        weak_sigma=0.5,
        threshold_floor=10_000.0,
    )
    return base.with_overrides(**overrides) if overrides else base


def row_is_written(bank, physical_row: int) -> bool:
    """Whether ``bank`` holds stored data for a physical row."""
    return physical_row in bank._bits


def make_small_device(seed: int = 0, **kwargs) -> Device:
    kwargs.setdefault("geometry", SMALL_GEOMETRY)
    kwargs.setdefault("profile", make_small_profile())
    return Device(seed=seed, **kwargs)


def make_vulnerable_device(seed: int = 0, **kwargs) -> Device:
    kwargs.setdefault("geometry", SMALL_GEOMETRY)
    kwargs.setdefault("profile", vulnerable_profile())
    return Device(seed=seed, **kwargs)


def unrolled(program: Program) -> Program:
    """``program`` with every ``Loop`` expanded in place.

    The unrolled oracle: the interpreter runs each iteration one
    command at a time, so no loop policy can hide a difference.
    """
    def expand(instructions):
        out = []
        for instruction in instructions:
            if isinstance(instruction, isa.Loop):
                out.extend(expand(instruction.body) * instruction.count)
            else:
                out.append(instruction)
        return out

    return Program(tuple(expand(program.instructions)))


@pytest.fixture
def vulnerable_device() -> Device:
    return make_vulnerable_device(seed=5)


@pytest.fixture
def vulnerable_board(vulnerable_device) -> BenderBoard:
    board = BenderBoard(vulnerable_device)
    vulnerable_device.set_temperature(85.0)
    board.host.set_ecc_enabled(False)
    return board


@pytest.fixture
def small_geometry() -> Geometry:
    return SMALL_GEOMETRY


@pytest.fixture
def small_device() -> Device:
    return make_small_device(seed=7)


@pytest.fixture
def small_board(small_device) -> BenderBoard:
    board = BenderBoard(small_device)
    small_device.set_temperature(85.0)
    return board


@pytest.fixture
def small_host(small_board):
    return small_board.host


@pytest.fixture(scope="session")
def paper_board() -> BenderBoard:
    """Full paper setup; shared across integration tests (same chip)."""
    return make_paper_setup(seed=11)
