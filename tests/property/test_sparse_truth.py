"""Sparse ground truth flips exactly the cells dense ground truth flips.

:class:`~repro.dram.cellmodel.GroundTruthProvider` stores a row's
thresholds and retention times only up to a cutoff, and
:meth:`~repro.dram.bank.Bank._materialize` compares only the cells
within a restore's reach, widening the row when a reach passes its
cutoff.  The oracle here is the dense arithmetic: every cell of the row,
sampled with no cutoff, compared the way the bank compared them before
the store went sparse.  Generated restores straddle both cutoffs, over
the three device families, stored and column-written victims beside
stored and never-written neighbours, cross-channel dose, temperatures
down to the threshold-scale floor and under-volted wordlines; the
stored bits and parity must match the oracle's bit for bit.  The
intra-row penalty, which the bank computes only at the sliced cells,
must equal the whole-row formula at every cell.  A pinned
multi-million-hammer run must widen and still match.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bender.host import HostInterface
from repro.core.hammer import build_hammer_program, prepare_neighborhood
from repro.core.patterns import ROWSTRIPE0
from repro.dram.address import DramAddress, RowAddressMapper
from repro.dram.bank import Bank, DeviceEnvironment, _Slice
from repro.dram.cellmodel import (
    ECC_PARITY_BITS,
    ECC_WORD_BITS,
    GroundTruthProvider,
)
from repro.dram.device import Device
from repro.dram.disturb import SIDE_ABOVE, SIDE_BELOW
from repro.dram.ecc import encode_words
from repro.dram.profiles import get_profile
from repro.dram.subarrays import SubarrayLayout
from repro.obs import MetricsRegistry, use_metrics

from tests.conftest import SMALL_GEOMETRY
from tests.dram.dense_truth import dense_row

PROFILES = ("hbm2", "ddr4", "ddr5")
GEOMETRY = SMALL_GEOMETRY
LAYOUT = SubarrayLayout.paper_default(GEOMETRY.rows)
KEY = (1, 0, 1)
VICTIM = 40


# -- the dense oracle --------------------------------------------------------
def dense_horizontal_penalty(profile, cells, data_bits):
    penalty = profile.intra_row_penalty
    if penalty == 0.0:
        return np.ones(cells.shape[0], dtype=np.float64)
    diff_count = np.zeros(cells.shape[0], dtype=np.float64)
    data = cells[:data_bits]
    diff_count[1:data_bits] += data[1:] != data[:-1]
    diff_count[:data_bits - 1] += data[:-1] != data[1:]
    parity = cells[data_bits:]
    if parity.size > 1:
        diff_count[data_bits + 1:] += parity[1:] != parity[:-1]
        diff_count[data_bits:-1] += parity[:-1] != parity[1:]
    return 1.0 + penalty * (diff_count / 2.0)


def dense_materialize(bank, physical_row, cycle):
    """Every cell of the row compared, from a sample with no cutoff."""
    stored = bank._bits.get(physical_row)
    if stored is None:
        return
    profile = bank._profile
    environment = bank._environment
    below, above = bank.disturbance.get_sides(physical_row)
    direct = bank.disturbance.get_direct(physical_row)
    elapsed_s = bank._timing.seconds(
        int(cycle - bank._last_restore[physical_row]))
    hammer_possible, retention_possible = bank._restore_may_flip(
        below + above + direct, elapsed_s)
    if not retention_possible and not hammer_possible:
        return
    truth = dense_row(bank._truth, *bank._key, physical_row)
    data_bits = GEOMETRY.row_bits
    cells = np.concatenate([stored, bank._parity[physical_row]])
    vulnerable = cells == truth.true_cell.astype(np.uint8)
    flips = np.zeros(cells.shape[0], dtype=bool)
    if hammer_possible:
        effective = np.zeros(cells.shape[0], dtype=np.float64)
        for amount, direction in ((below, -1), (above, +1)):
            if amount <= 0.0:
                continue
            neighbor = bank._neighbor_bits(physical_row, direction)
            if neighbor is None:
                continue
            neighbor_cells = np.concatenate(
                [neighbor, bank._neighbor_parity(physical_row, direction)])
            effective += amount * np.where(neighbor_cells != cells, 1.0,
                                           profile.same_bit_coupling)
        if direct > 0.0:
            effective = effective + direct
        temp_scale = profile.temperature_threshold_scale(
            environment.temperature_c)
        voltage_scale = profile.voltage_threshold_scale(
            environment.wordline_voltage_v)
        thresholds = (truth.thresholds *
                      dense_horizontal_penalty(profile, cells, data_bits) *
                      temp_scale * voltage_scale)
        flips |= vulnerable & (effective >= thresholds)
    if retention_possible:
        retention_scale = profile.retention_temperature_scale(
            environment.temperature_c)
        flips |= vulnerable & (elapsed_s >= truth.retention_s *
                               retention_scale)
    if flips.any():
        bank._own_row(physical_row)
        cells[flips] ^= 1
        bank._bits[physical_row][:] = cells[:data_bits]
        bank._parity[physical_row][:] = cells[data_bits:]


# -- generated restores ------------------------------------------------------
def make_bank(profile_name, seed, temperature_c, voltage_v):
    profile = get_profile(profile_name)
    calibration = profile.calibration
    truth = GroundTruthProvider(GEOMETRY, calibration, LAYOUT, seed)
    environment = DeviceEnvironment(temperature_c, voltage_v)
    return Bank(KEY, GEOMETRY, calibration, LAYOUT, truth, profile.timing,
                environment)


def payload_bits(byte):
    return np.unpackbits(np.full(GEOMETRY.row_bytes, byte, dtype=np.uint8))


def write(bank, row, kind, byte):
    """Write ``row`` the way ``kind`` names: a full-row store of a
    lowered (read-only) payload, or one column over the power-up
    content."""
    if kind == "never":
        return
    if kind == "columns":
        bank.activate(row, 0)
        bank.write_column(1, bytes([byte]) * GEOMETRY.column_bytes, 1)
        bank.precharge(2)
        return
    bits = payload_bits(byte)
    parity = encode_words(bits)
    bits.setflags(write=False)
    parity.setflags(write=False)
    bank.store_full_row(row, bits, parity, 0)


restores = st.fixed_dictionaries({
    "profile": st.sampled_from(PROFILES),
    "seed": st.integers(0, 2**16),
    "victim": st.sampled_from(["stored", "columns"]),
    "below": st.sampled_from(["stored", "never"]),
    "above": st.sampled_from(["stored", "never"]),
    "bytes": st.tuples(*(st.integers(0, 255) for _ in range(3))),
    # The restore's reach, in multiples of the initial hammer cutoff,
    # split over the two sides and the cross-channel dose.
    "reach": st.one_of(st.floats(0.0, 3.0), st.sampled_from([0.99, 1.01])),
    "split": st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                       st.floats(0.0, 0.3)),
    "retention_reach": st.one_of(st.floats(0.0, 3.0),
                                 st.sampled_from([0.0, 0.99, 1.01])),
    "temperature_c": st.one_of(st.floats(20.0, 95.0),
                               st.sampled_from([275.0, 290.0])),
    "voltage_v": st.one_of(st.just(2.5), st.floats(2.0, 2.5)),
    # Whether an earlier restore already sampled the victim at its
    # initial cutoffs.
    "sampled": st.booleans(),
})


def prepared(case):
    bank = make_bank(case["profile"], case["seed"], case["temperature_c"],
                     case["voltage_v"])
    victim_byte, below_byte, above_byte = case["bytes"]
    write(bank, VICTIM - 1, case["below"], below_byte)
    write(bank, VICTIM + 1, case["above"], above_byte)
    write(bank, VICTIM, case["victim"], victim_byte)
    bank.disturbance.reset_range(0, GEOMETRY.rows)
    if case["sampled"]:
        bank._truth.row(*KEY, VICTIM)

    profile = bank._profile
    environment = bank._environment
    scales = (profile.temperature_threshold_scale(environment.temperature_c) *
              profile.voltage_threshold_scale(environment.wordline_voltage_v))
    # A reach of r cutoffs is a dose of r * cutoff * (t * v) / 2.
    dose = case["reach"] * bank._truth._cutoff * scales / 2.0
    below, above, direct = case["split"]
    total = below + above + direct or 1.0
    bank.disturbance.add(VICTIM, SIDE_BELOW, dose * below / total)
    bank.disturbance.add(VICTIM, SIDE_ABOVE, dose * above / total)
    if direct:
        bank.disturbance.add_direct(VICTIM, dose * direct / total)
    elapsed_s = (case["retention_reach"] * bank._truth._retention_cutoff *
                 profile.retention_temperature_scale(
                     environment.temperature_c) / 2.0)
    cycle = 10 + int(elapsed_s / bank._timing.seconds(1))
    bank._last_restore[VICTIM] = 10
    return bank, cycle


@settings(max_examples=150, deadline=None, derandomize=True)
@given(restores)
def test_sparse_restore_matches_the_dense_oracle(case):
    bank, cycle = prepared(case)
    oracle, same_cycle = prepared(case)
    assert cycle == same_cycle
    bank._materialize(VICTIM, cycle)
    dense_materialize(oracle, VICTIM, cycle)
    for row in (VICTIM - 1, VICTIM, VICTIM + 1):
        assert (row in bank._bits) == (row in oracle._bits)
        if row in bank._bits:
            assert np.array_equal(bank._bits[row], oracle._bits[row]), row
            assert np.array_equal(bank._parity[row], oracle._parity[row])


@pytest.mark.parametrize("penalty", [0.0, 0.22])
@pytest.mark.parametrize("profile_name", PROFILES)
def test_sliced_horizontal_penalty_equals_the_whole_row_formula(
        profile_name, penalty):
    """At every cell of a full-size row, the run ends included (the
    first and last data cell, the first and last parity cell), on
    random and on constant rows."""
    profile = get_profile(profile_name)
    geometry = profile.geometry
    calibration = profile.calibration.with_overrides(
        intra_row_penalty=penalty)
    layout = SubarrayLayout.paper_default(geometry.rows)
    bank = Bank(KEY, geometry, calibration, layout,
                GroundTruthProvider(geometry, calibration, layout, 0),
                profile.timing, DeviceEnvironment(85.0))
    data_bits = geometry.row_bits
    n = data_bits + data_bits // ECC_WORD_BITS * ECC_PARITY_BITS
    rng = np.random.default_rng(7)
    rows = [rng.integers(0, 2, n, dtype=np.uint8) for _ in range(4)]
    rows += [np.zeros(n, dtype=np.uint8), np.ones(n, dtype=np.uint8)]
    def sliced_penalty(cells, index):
        data, parity = cells[:data_bits], cells[data_bits:]
        sliced = _Slice.of(index, data_bits)
        return bank._horizontal_penalty(data, parity, sliced,
                                        sliced.gather(data, parity))

    index = np.arange(n)
    for cells in rows:
        sliced = sliced_penalty(cells, index)
        dense = dense_horizontal_penalty(calibration, cells, data_bits)
        assert sliced.dtype == dense.dtype
        assert np.array_equal(sliced, dense)
        ends = np.array([0, data_bits - 1, data_bits, n - 1])
        assert np.array_equal(sliced_penalty(cells, ends), dense[ends])


def test_generated_restores_flip_and_widen():
    """The generator reaches both sides of both cutoffs: some restores
    flip cells and some widen the row."""
    seen = {"flips": 0, "widened": 0}

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(restores)
    def run(case):
        bank, cycle = prepared(case)
        before = bank._bits[VICTIM].copy()
        registry = MetricsRegistry()
        with use_metrics(registry):
            bank._materialize(VICTIM, cycle)
        seen["widened"] += registry.snapshot()["counters"].get(
            "dram.truth.widened", 0)
        seen["flips"] += int(np.any(before != bank._bits[VICTIM]))

    run()
    assert seen["flips"] > 0 and seen["widened"] > 0


# -- a pinned run that must widen --------------------------------------------
MAPPER = RowAddressMapper(GEOMETRY)
HAMMERS = 3_000_000


def hammered_readback(dense):
    device = Device(geometry=GEOMETRY, seed=11)
    device.set_ecc_enabled(False)
    host = HostInterface(device)
    victim = DramAddress(0, 0, 0, MAPPER.physical_to_logical(VICTIM))
    aggressors = list(MAPPER.physical_neighbors(victim.row))
    with pytest.MonkeyPatch.context() as patch:
        if dense:
            patch.setattr(Bank, "_materialize", dense_materialize)
        prepare_neighborhood(host, MAPPER, victim, ROWSTRIPE0)
        host.run(build_hammer_program(victim, aggressors, HAMMERS))
        return host.read_row(victim)


def test_multi_million_hammer_run_widens_and_matches_the_oracle():
    """3M double-sided hammers on hbm2 put a reach of 7.1x the initial
    cutoff on the victim: it widens, and reads what dense truth reads.
    Run as one interpreted program (no shape cache, so no refresh
    verification): 180 ms without REF."""
    registry = MetricsRegistry()
    with use_metrics(registry):
        bits = hammered_readback(dense=False)
    assert registry.snapshot()["counters"]["dram.truth.widened"] >= 1
    expected = payload_bits(ROWSTRIPE0.victim_byte)
    assert np.any(bits != expected)
    assert np.array_equal(bits, hammered_readback(dense=True))
