"""Reproduction of "An Experimental Analysis of RowHammer in HBM2 DRAM
Chips" (Olgun et al., DSN 2023).

The paper characterizes the RowHammer vulnerability of a real HBM2 chip
on an FPGA testing platform.  Real HBM2 hardware being the one thing a
Python library cannot ship, this package substitutes a behavioural HBM2
device model (:mod:`repro.dram`) and a DRAM Bender infrastructure
simulator (:mod:`repro.bender`) underneath a faithful implementation of
the paper's methodology (:mod:`repro.core`) and analyses
(:mod:`repro.analysis`).  See DESIGN.md for the substitution argument
and the per-experiment index.

Quickstart::

    from repro import make_paper_setup, SpatialSweep, SweepConfig

    board = make_paper_setup(seed=0)        # the paper's testing station
    sweep = SpatialSweep(board, SweepConfig(rows_per_region=8))
    dataset = sweep.run()                   # BER + HC_first campaign
    print(dataset.ber(channel=7, pattern="WCDP")[0].ber)
"""

from repro.analysis import (
    fig3_ber_distributions,
    fig4_hcfirst_distributions,
    fig5_row_series,
    fig6_bank_scatter,
    headline_numbers,
)
from repro.bender import (
    BenderBoard,
    HostInterface,
    Interpreter,
    Program,
    ProgramBuilder,
    make_paper_setup,
)
from repro.core import (
    BerExperiment,
    BerRecord,
    CharacterizationDataset,
    DataPattern,
    DoubleSidedHammer,
    ExperimentConfig,
    HcFirstRecord,
    HcFirstSearch,
    InterferenceControls,
    STANDARD_PATTERNS,
    SingleSidedHammer,
    SpatialSweep,
    SweepConfig,
    UTrrExperiment,
    select_wcdp,
)
from repro.dram import (
    CalibrationProfile,
    Device,
    DramAddress,
    Geometry,
    RowAddressMapper,
    TimingParameters,
    TrrConfig,
    default_profile,
    get_profile,
    list_profiles,
)
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "BenderBoard",
    "BerExperiment",
    "BerRecord",
    "CalibrationProfile",
    "CharacterizationDataset",
    "DataPattern",
    "Device",
    "DoubleSidedHammer",
    "DramAddress",
    "ExperimentConfig",
    "Geometry",
    "HcFirstRecord",
    "HcFirstSearch",
    "HostInterface",
    "InterferenceControls",
    "Interpreter",
    "Program",
    "ProgramBuilder",
    "ReproError",
    "RowAddressMapper",
    "STANDARD_PATTERNS",
    "SingleSidedHammer",
    "SpatialSweep",
    "SweepConfig",
    "TimingParameters",
    "TrrConfig",
    "UTrrExperiment",
    "__version__",
    "default_profile",
    "fig3_ber_distributions",
    "fig4_hcfirst_distributions",
    "fig5_row_series",
    "fig6_bank_scatter",
    "get_profile",
    "headline_numbers",
    "list_profiles",
    "make_paper_setup",
    "select_wcdp",
]
