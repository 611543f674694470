"""Differential: fused hammer tests on production == on the oracle.

Every hammer test is one program — write the neighbourhood, hammer,
read back (:func:`repro.core.hammer.build_probe_program`).  Production
runs it through the program cache's count binding and the analytic
fast path's two streams around the bulk-applied loop; the oracle is a
station with no engine services, which builds, verifies and interprets
every program.  Both run the same sequence of double- and
single-sided tests, at bank edges (truncated neighbourhoods) and
inside, at count 0, below and above the bulk-loop threshold and the
verifier's unroll limit, and at counts that widen past the one each
shape was verified at, plus whole HC_first searches.  Each test's flip
reports and hammer duration must match, and so must the full device
state at the end (the digest of
``tests/property/test_interpreter_equivalence.py``, disturbance
accumulators exact).
"""

import numpy as np
import pytest

from repro.bender.host import HostInterface
from repro.core.experiment import ExperimentConfig
from repro.core.hammer import DoubleSidedHammer, SingleSidedHammer
from repro.core.hcfirst import HcFirstSearch
from repro.core.patterns import CHECKERED0, ROWSTRIPE0, ROWSTRIPE1
from repro.dram.address import DramAddress
from repro.engine.backend import FastPathBackend
from repro.engine.cache import ProgramCache
from repro.obs import MetricsRegistry, use_metrics
from tests.conftest import SMALL_GEOMETRY
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


def station(profile, production):
    device = make_device(profile, seed=3)
    host = HostInterface(device)
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
    exact, accumulators = device_digest(production.device)
    reference_exact, reference_accumulators = device_digest(oracle.device)
    for name in reference_exact:
        assert exact[name] == reference_exact[name], name
    assert accumulators == reference_accumulators
