"""Density independence, by counting: more rows cost no more compiles.

A campaign's program shapes are fixed by its channels, banks, patterns
and neighbourhood truncations, not by how many rows it tests: the
hammer count of every HC_first probe is a count binding of one shape
(:mod:`repro.engine.cache`), and rows are row bindings.  So the cold
arm compiles the same number of shapes at any rows-per-region, and the
warm arm (the identical campaign again) compiles none and samples no
cell ground truth.
"""

import pytest

from repro.core.patterns import ROWSTRIPE0, ROWSTRIPE1
from repro.core.sweeps import SpatialSweep
from repro.dram.cellmodel import GroundTruthProvider
from repro.engine.backend import FastPathBackend
from repro.envutil import FASTPATH_VAR
from tests.engine.test_equivalence import small_config, small_spec


@pytest.fixture
def counted(monkeypatch):
    """Production path, with backend compiles and cell samples counted."""
    monkeypatch.delenv(FASTPATH_VAR, raising=False)
    counts = {"compiles": 0, "samples": 0}

    def counting(name, method):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(FastPathBackend, "compile",
                        counting("compiles", FastPathBackend.compile))
    monkeypatch.setattr(GroundTruthProvider, "_sample_row",
                        counting("samples", GroundTruthProvider._sample_row))
    return counts


def arms(counts, rows_per_region):
    """(cold, warm) counts of one HC_first campaign run twice on one
    station, as the benchmark suite's stations run it."""
    config = small_config(channels=(0,), banks=(0,),
                          rows_per_region=rows_per_region,
                          hcfirst_rows_per_region=rows_per_region,
                          include_ber=False,
                          patterns=(ROWSTRIPE0, ROWSTRIPE1))
    board = small_spec().build()
    observed = []
    for run in range(2):
        before = dict(counts)
        dataset = SpatialSweep(board, config).run(
            apply_interference_controls=run == 0)
        assert len(dataset.hcfirst_records) >= 3 * 2 * rows_per_region
        observed.append({name: counts[name] - before[name]
                         for name in counts})
    return observed


def test_compiles_do_not_grow_with_rows(counted):
    sparse_cold, sparse_warm = arms(counted, 1)
    dense_cold, dense_warm = arms(counted, 3)
    assert sparse_cold["compiles"] == dense_cold["compiles"]
    assert sparse_warm == dense_warm == {"compiles": 0, "samples": 0}
