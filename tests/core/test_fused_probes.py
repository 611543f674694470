"""Differential: fused hammer tests on production == on the oracle.

Every neighbourhood hammer test is one program — write the
neighbourhood, hammer, read back (:func:`repro.core.hammer.
build_probe_program`).  Production runs it through the program cache
(a count binding when its hammer section is one loop) and the analytic
fast path; the oracle is a station with no engine services, which
builds, verifies and interprets every program.

The first test runs the same sequence of double- and single-sided
tests on both, at bank edges (truncated neighbourhoods) and inside, at
count 0, below and above the bulk-loop threshold and the verifier's
unroll limit, and at counts that widen past the one each shape was
verified at, plus whole HC_first searches.  The second runs every other
driver built on the probe: refresh-on BER (REF-bounded bursts through
TRR fires), RowPress points and HC_first searches, naive and decoy
TRRespass, adjacency probes, and PARA, whose gap hammers are count-bound
programs of their own.  Each test's outcomes must match, and so must
the full device state at the end (the digest of
``tests/property/test_interpreter_equivalence.py``, disturbance
accumulators exact).  The second test also pins both digests to the
values the drivers gave when each of their tests ran as three programs
(write, hammer, read back), which a change made to both paths alike
cannot keep.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.attacks.trrespass import BypassOutcome, TrrBypassAttack
from repro.bender.host import HostInterface
from repro.core.ber import BerExperiment
from repro.core.experiment import ExperimentConfig, InterferenceControls
from repro.core.hammer import DoubleSidedHammer, SingleSidedHammer
from repro.core.hcfirst import HcFirstSearch
from repro.core.mapping_re import observe_adjacency
from repro.core.patterns import CHECKERED0, ROWSTRIPE0, ROWSTRIPE1
from repro.core.rowpress import RowPressExperiment
from repro.defenses.para import ParaDefense
from repro.dram.address import DramAddress
from repro.engine.backend import FastPathBackend
from repro.engine.cache import ProgramCache
from repro.obs import MetricsRegistry, use_metrics
from tests.conftest import SMALL_GEOMETRY, vulnerable_profile
from tests.property.test_interpreter_equivalence import (
    MAPPER,
    PROFILES,
    device_digest,
    make_device,
)

LAST = SMALL_GEOMETRY.rows - 1
#: Physical victim rows: both bank edges, with neighbourhoods cut to
#: 10 rows, and two inside.
DOUBLE_SIDED_VICTIMS = (1, 31, 130, LAST - 1)
#: Physical aggressor rows: both bank edges, with one victim each.
SINGLE_SIDED_AGGRESSORS = (0, 20, LAST)
#: Each row's counts in turn: the first compiles the shape, 1,200 and
#: 40,000 widen it, 0 is its own shape, the rest bind below.
COUNTS = (300, 0, 7, 1_200, 513, 8, 40_000, 9, 1, 2_000)
PATTERNS = (ROWSTRIPE0, ROWSTRIPE1, CHECKERED0)


def station(profile, production, calibration=None):
    host = HostInterface(make_device(profile, 3, calibration))
    if production:
        backend = FastPathBackend(host)
        host.engine_backend = backend
        host.program_cache = ProgramCache(backend)
    return host


def address(physical):
    return DramAddress(0, 0, 1, MAPPER.physical_to_logical(physical))


def campaign(host):
    """Every test's observable outcome, in order."""
    mapper = host.device.mapper
    double, single = (DoubleSidedHammer(host, mapper),
                      SingleSidedHammer(host, mapper))
    outcomes = []
    for index, physical in enumerate(DOUBLE_SIDED_VICTIMS):
        test = double.bind(address(physical),
                           PATTERNS[index % len(PATTERNS)])
        for count in COUNTS:
            outcome = test(count)
            outcomes.append((physical, count, outcome.duration_s,
                             report_view(outcome.report)))
    for index, physical in enumerate(SINGLE_SIDED_AGGRESSORS):
        for count in COUNTS[:4]:
            reports = single.run(address(physical),
                                 PATTERNS[index % len(PATTERNS)], count)
            outcomes.append((physical, count, {
                offset: report_view(report)
                for offset, report in sorted(reports.items())}))
    search = HcFirstSearch(host, mapper, ExperimentConfig(
        hcfirst_max_hammers=64 * 1024), start_hammers=512)
    for physical in (31, 130):
        outcomes.append(search.record(address(physical), ROWSTRIPE1))
    return outcomes


def assert_same_device(device, reference):
    exact, accumulators = device_digest(device)
    reference_exact, reference_accumulators = device_digest(reference)
    for name in reference_exact:
        assert exact[name] == reference_exact[name], name
    assert accumulators == reference_accumulators


def report_view(report):
    return (report.flips, report.row_bits, report.positions.tolist(),
            np.asarray(report.zero_to_one).tolist())


@pytest.mark.parametrize("profile", PROFILES)
def test_fused_probes_match_the_oracle(profile):
    oracle = station(profile, production=False)
    expected = campaign(oracle)

    production = station(profile, production=True)
    registry = MetricsRegistry()
    with use_metrics(registry):
        outcomes = campaign(production)
    counters = registry.snapshot()["counters"]

    assert outcomes == expected
    # Not vacuous: flips, truncated neighbourhoods and widenings all
    # happen, every program takes the fast path, and one victim's
    # probes share one shape per count class.
    assert any(outcome[-1][0] for outcome in expected[:40])
    assert counters["engine.cache.widened"] >= 2 * len(
        DOUBLE_SIDED_VICTIMS)
    assert counters["engine.fastpath.hits"] == \
        counters["bender.programs"]
    assert "engine.fastpath.fallbacks" not in counters
    assert_same_device(production.device, oracle.device)


# -- the other hammer drivers ---------------------------------------------
#: Refresh-on BER: REF-bounded bursts through several TRR fires.
REFRESH_ON = ExperimentConfig(
    ber_hammer_count=20_000,
    controls=InterferenceControls(issue_periodic_refresh=True,
                                  time_budget_s=1.0))
#: RowPress (hammer count, extra open cycles) points: count 0, a short
#: loop, one below the bulk threshold's split and counts that flip.
ROWPRESS_POINTS = ((0, 0), (0, 40), (5, 40), (300, 0), (300, 40),
                   (3_000, 40), (20_000, 0), (1_200, 400))
#: TRRespass hammer count: enough for the decoy attack to flip.
TRR_HAMMERS = 30_000
#: Thresholds low enough that victims flip between two refreshes of the
#: refresh pointer (every 256 REFs on the small geometry) and under
#: PARA, so the refresh-on tests show TRR winning and losing.
FRAGILE = vulnerable_profile(weak_median=1_500.0, threshold_floor=150.0)


def driver_campaign(host):
    """Every other hammer driver's observable outcome, in order: BER
    under live refresh, RowPress points and HC_first searches, naive
    and decoy TRRespass, adjacency probes and a PARA-defended attack."""
    mapper = host.device.mapper
    outcomes = []
    ber = BerExperiment(host, mapper, REFRESH_ON)
    for index, physical in enumerate(DOUBLE_SIDED_VICTIMS):
        outcomes.append(ber.run_row(address(physical),
                                    PATTERNS[index % len(PATTERNS)]))
    rowpress = RowPressExperiment(host, mapper)
    for physical in (1, 130):
        for count, extra in ROWPRESS_POINTS:
            outcomes.append(rowpress.run_point(address(physical), count,
                                               extra))
        for extra in (0, 400):
            outcomes.append(rowpress.first_flip_hammers(
                address(physical), extra, max_hammers=64 * 1024,
                start=512))
    attack = TrrBypassAttack(host, mapper, decoy_distance=100)
    for physical in (31, 130):
        for use_decoy in (False, True):
            outcomes.append(attack.run(address(physical), TRR_HAMMERS,
                                       use_decoy))
    for physical in (0, 20, LAST):
        outcomes.append(observe_adjacency(
            host, 0, 0, 1, MAPPER.physical_to_logical(physical),
            hammer_count=30_000))
    para = ParaDefense(host, mapper, probability=0.002, seed=5)
    outcomes.append(para.defend_attack(address(130), ROWSTRIPE1, 20_000))
    return outcomes


def parent_view(outcomes):
    """The outcomes as the three-program drivers produced them: all but
    TRRespass's duration, which since measures the hammer section alone
    (it used to include the victim's read-back)."""
    return [replace(outcome, duration_s=None)
            if isinstance(outcome, BypassOutcome) else outcome
            for outcome in outcomes]


def digest(value):
    return hashlib.blake2b(repr(value).encode(),
                           digest_size=16).hexdigest()


#: Per profile, the digest of :func:`parent_view` and of the device
#: state the campaign leaves, as the drivers gave them when each test
#: ran as three programs (write, hammer, read back).
THREE_PROGRAM_DIGESTS = {
    "hbm2": ("f0a274bcf4fa428667c6b970741fb786",
             "aa1bf872a6ddb2df253cab7e006c6052"),
    "ddr4": ("74abe29c607aa11b52fa811b3b5ca682",
             "75233df79f94ebffc2e3413a2386ecc7"),
    "ddr5": ("91c53a97f4b49140847428130a85314d",
             "44d257d6dfb05829183932ecf8fd85b9"),
}


@pytest.mark.parametrize("profile", PROFILES)
def test_fused_drivers_match_the_oracle(profile):
    oracle = station(profile, production=False, calibration=FRAGILE)
    expected = driver_campaign(oracle)

    production = station(profile, production=True, calibration=FRAGILE)
    registry = MetricsRegistry()
    with use_metrics(registry):
        outcomes = driver_campaign(production)
    counters = registry.snapshot()["counters"]

    assert outcomes == expected
    assert_same_device(production.device, oracle.device)
    # Every program ran through the shape cache and the fast path: no
    # driver hands a program to the interpreter directly.
    assert counters["engine.fastpath.hits"] == counters["bender.programs"]
    assert "engine.fastpath.fallbacks" not in counters
    assert (digest(parent_view(outcomes)),
            digest(device_digest(oracle.device))) == \
        THREE_PROGRAM_DIGESTS[profile]
