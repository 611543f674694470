"""Campaigns under memo pressure: squeezed memos change nothing.

A small sweep with BER and HC_first runs twice on one station (the
cold and the warm arm) through a program cache bounded to one or two
keys, so nearly every call evicts, re-compiles or widens, and must give
the oracle's datasets (``REPRO_FASTPATH=0``: every program built,
verified and interpreted per call) and its full device state.  The
calibration is fragile enough that HC_first lands in the hundreds:
BER hammers 7 times, below the bulk-loop threshold, and each binary
search probes counts on both sides of the verifier's full-unroll limit
(512 iterations of a double-sided body), all through one probe shape
per bank and pattern (write the neighbourhood, hammer, read back) that
BER first compiles at 7.  The same campaign also runs with the device's
closed-form LRU (``repro.dram.device.QUIET_STREAMS``) squeezed to one
(shape, rows) entry, so each HC_first search's fills evict each other's
closed forms.
"""

import pytest

from repro.bender.board import BoardSpec
from repro.core.experiment import ExperimentConfig
from repro.core.patterns import ROWSTRIPE0, ROWSTRIPE1
from repro.core.sweeps import SpatialSweep, SweepConfig
from repro.dram import device as device_module
from repro.engine.backend import FastPathBackend
from repro.engine.cache import ProgramCache
from repro.envutil import FASTPATH_VAR
from repro.faults.plan import FaultSpec
from repro.obs import MetricsRegistry, use_metrics
from tests.conftest import SMALL_GEOMETRY, vulnerable_profile
from tests.property.test_interpreter_equivalence import device_digest

SPEC = BoardSpec(seed=5, temperature_c=85.0, settle_thermals=False,
                 geometry=SMALL_GEOMETRY,
                 profile=vulnerable_profile(weak_median=2e3,
                                            threshold_floor=100.0))
CONFIG = SweepConfig(
    channels=(0,), banks=(0,), region_size=64, rows_per_region=2,
    hcfirst_rows_per_region=1, patterns=(ROWSTRIPE0, ROWSTRIPE1),
    faults=FaultSpec(), release_rows_between_regions=False,
    experiment=ExperimentConfig(ber_hammer_count=7,
                                hcfirst_max_hammers=1024))


def campaign(monkeypatch, max_entries=None):
    """Both arms' fingerprints, the final device digest and the cache
    counters; ``max_entries`` None runs the oracle."""
    board = SPEC.build()
    if max_entries is None:
        monkeypatch.setenv(FASTPATH_VAR, "0")
    else:
        monkeypatch.delenv(FASTPATH_VAR, raising=False)
        backend = FastPathBackend(board.host)
        board.host.engine_backend = backend
        board.host.program_cache = ProgramCache(backend, max_entries)
    registry = MetricsRegistry()
    with use_metrics(registry):
        datasets = [SpatialSweep(board, CONFIG).run(
            apply_interference_controls=run == 0) for run in range(2)]
    hc_first = [record.hc_first for record in datasets[0].hcfirst_records]
    counters = registry.snapshot()["counters"]
    return ([dataset.fingerprint() for dataset in datasets],
            device_digest(board.device), hc_first, counters)


@pytest.fixture(scope="module")
def oracle():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return campaign(monkeypatch)


@pytest.mark.parametrize("max_entries", [1, 2, 3])
def test_squeezed_cache_matches_the_oracle(monkeypatch, oracle,
                                           max_entries):
    fingerprints, digest, hc_first, counters = campaign(monkeypatch,
                                                        max_entries)
    oracle_fingerprints, oracle_digest, oracle_hc_first, _ = oracle
    # Not vacuous: searches end below the unroll limit and above it...
    found = [count for count in oracle_hc_first if count is not None]
    assert min(found) < 512 < max(found)
    assert counters["engine.cache.hits"] > 0
    if max_entries == 1:
        # ...the two patterns' probe shapes evict each other at every
        # switch, so at least each search of both arms starts with a
        # compile, and no shape survives to widen...
        assert counters["engine.cache.misses"] >= 2 * len(hc_first)
        assert "engine.cache.widened" not in counters
    else:
        # ...or both stay, hits bind counts up to the verified one, and
        # a shape BER compiled at 7 widens.
        assert counters["engine.cache.widened"] > 0
    assert fingerprints == oracle_fingerprints
    assert hc_first == oracle_hc_first
    assert digest == oracle_digest


def test_squeezed_closed_forms_match_the_oracle(monkeypatch, oracle):
    monkeypatch.setattr(device_module, "QUIET_STREAMS", 1)
    applied = []
    quiet = device_module.QuietStream.quiet

    def counted(form, advance):
        applied.append(quiet(form, advance))
        return applied[-1]

    monkeypatch.setattr(device_module.QuietStream, "quiet", counted)
    fingerprints, digest, hc_first, _ = campaign(monkeypatch, max_entries=2)
    oracle_fingerprints, oracle_digest, oracle_hc_first, _ = oracle
    # Not vacuous: the fills ran in closed form.
    assert any(applied)
    assert fingerprints == oracle_fingerprints
    assert hc_first == oracle_hc_first
    assert digest == oracle_digest
