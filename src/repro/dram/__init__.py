"""Behavioural model of a DRAM device.

This subpackage is the hardware substitute for the real chips the
methodology targets — by default the 4 GiB HBM2 stack the paper
characterizes, with DDR4/DDR5 families available through
:mod:`repro.dram.profiles`.  It exposes the same observation surface a
memory controller has — ACT/PRE/RD/WR/REF commands and mode registers —
while the hidden ground truth (per-cell RowHammer thresholds, cell
orientations, retention times, the proprietary TRR engine) lives behind
that interface.

Layering, bottom to top::

    geometry / address / commands / timing / modereg    (vocabulary)
    cellmodel / subarrays / calibration                 (ground truth)
    disturb / retention / ecc / trr                     (behaviour engines)
    bank -> channel -> device                           (state machines)
    profiles                                            (device families)

Naming note: the family-level bundle (geometry + timing + TRR policy +
calibration) is :class:`repro.dram.profiles.DeviceProfile`; the
calibration ground truth inside it is
:class:`~repro.dram.calibration.CalibrationProfile`.
"""

from repro.dram.address import DramAddress, RowAddressMapper
from repro.dram.calibration import CalibrationProfile, default_profile
from repro.dram.commands import (
    Activate,
    Command,
    Precharge,
    PrechargeAll,
    Read,
    Refresh,
    Write,
)
from repro.dram.device import Device
from repro.dram.geometry import Geometry
from repro.dram.modereg import ModeRegisters
from repro.dram.profiles import (get_profile, list_profiles,
                                 register_profile, resolve_profile)
from repro.dram.subarrays import SubarrayLayout
from repro.dram.timing import TimingParameters
from repro.dram.trr import TrrConfig

__all__ = [
    "Activate",
    "CalibrationProfile",
    "Command",
    "Device",
    "DramAddress",
    "Geometry",
    "ModeRegisters",
    "Precharge",
    "PrechargeAll",
    "Read",
    "Refresh",
    "RowAddressMapper",
    "SubarrayLayout",
    "TimingParameters",
    "TrrConfig",
    "Write",
    "default_profile",
    "get_profile",
    "list_profiles",
    "register_profile",
    "resolve_profile",
]
