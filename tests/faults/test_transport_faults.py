"""Tests for link fault injection + the resilient transport wrapper.

The schedules are deterministic, so instead of hard-coding magic seeds
each test *searches* for a seed whose plan exhibits the shape it needs
(e.g. "corrupt transfer 0, clean transfer 1") — robust to unrelated
changes in the hash stream and self-documenting about what matters.
"""

import numpy as np
import pytest

from repro.bender.host import HostInterface
from repro.bender.transport import PcieTransport, ResilientTransport
from repro.dram.address import DramAddress
from repro.errors import TransportFault
from repro.faults.inject import FaultyTransport, build_link
from repro.faults.plan import FaultPlan, FaultSpec
from tests.conftest import make_vulnerable_device


def _find_seed(predicate, limit=500):
    for seed in range(limit):
        if predicate(seed):
            return seed
    raise AssertionError("no seed under the limit exhibits the shape")


def _wired_host(spec, *, resilient=True, max_retries=4, sleep=None):
    device = make_vulnerable_device(seed=4)
    device.set_ecc_enabled(False)
    faulty = FaultyTransport(device, FaultPlan(spec))
    transport = faulty
    if resilient:
        transport = ResilientTransport(faulty, max_retries=max_retries,
                                       seed=spec.seed,
                                       sleep=sleep or (lambda delay: None))
    return HostInterface(device, transport=transport), faulty


def _direct_host():
    device = make_vulnerable_device(seed=4)
    device.set_ecc_enabled(False)
    return HostInterface(device)


ADDRESS = DramAddress(0, 0, 0, 12)


class TestFaultyTransport:
    def test_certain_corruption_detected_before_execution(self):
        host, faulty = _wired_host(FaultSpec(seed=0, link_corrupt=1.0),
                                   resilient=False)
        payload = b"\x00" * host.device.geometry.row_bytes
        with pytest.raises(TransportFault):
            host.write_row(ADDRESS, payload)
        # The corruption hit the uplink: nothing executed, nothing billed.
        assert faulty.injected["corrupt"] == 1
        assert faulty.statistics.programs_sent == 0

    def test_certain_drop_detected(self):
        host, faulty = _wired_host(FaultSpec(seed=0, link_drop=1.0),
                                   resilient=False)
        with pytest.raises(TransportFault):
            host.read_row(ADDRESS)
        assert faulty.injected["drop"] == 1

    def test_stall_and_duplicate_are_accounting_only(self):
        spec = FaultSpec(seed=0, link_stall=1.0, link_duplicate=1.0)
        host, faulty = _wired_host(spec, resilient=False)
        clean = _direct_host()
        payload = b"\x5a" * host.device.geometry.row_bytes
        host.write_row(ADDRESS, payload)
        clean.write_row(ADDRESS, payload)
        assert np.packbits(host.read_row(ADDRESS)).tobytes() == \
            np.packbits(clean.read_row(ADDRESS)).tobytes() == payload
        assert faulty.injected["stall"] == 2
        assert faulty.injected["duplicate"] == 2
        # Same data, extra billing: the duplicated payloads crossed the
        # wire twice and both transfers paid the injected stall.
        clean_device = make_vulnerable_device(seed=4)
        clean_device.set_ecc_enabled(False)
        clean_link = PcieTransport(clean_device)
        clean_host = HostInterface(clean_device, transport=clean_link)
        clean_host.write_row(ADDRESS, payload)
        clean_host.read_row(ADDRESS)
        assert faulty.statistics.bytes_up > clean_link.statistics.bytes_up
        assert faulty.statistics.transfer_time_s > \
            clean_link.statistics.transfer_time_s + 2 * spec.stall_s

    def test_injection_follows_the_plan_schedule(self):
        spec = FaultSpec(seed=13, link_stall=0.3)
        host, faulty = _wired_host(spec, resilient=False)
        transfers = 20
        for _ in range(transfers):
            host.read_row(ADDRESS)
        plan = FaultPlan(spec)
        expected = sum("stall" in plan.link_effects(index)
                       for index in range(transfers))
        assert faulty.injected["stall"] == expected > 0


class TestResilientRecovery:
    def test_corrupt_transfer_retried_and_redrawn(self):
        """A resend is a fresh draw: the fault keys on the physical
        transfer counter, so the retry of a corrupted upload can (and
        here, by seed selection, does) cross clean."""
        rate = 0.5

        def corrupt_then_clean(seed):
            plan = FaultPlan(FaultSpec(seed=seed, link_corrupt=rate))
            return (plan.link_fault(0) == "corrupt"
                    and plan.link_fault(1) is None)

        seed = _find_seed(corrupt_then_clean)
        host, faulty = _wired_host(FaultSpec(seed=seed, link_corrupt=rate))
        bits = host.read_row(ADDRESS)
        assert faulty.injected["corrupt"] == 1
        assert faulty.statistics.programs_sent == 1
        assert np.array_equal(bits, _direct_host().read_row(ADDRESS))

    def test_poisoned_readback_rerequested_not_rerun(self):
        rate = 0.5

        def poison_then_clean(seed):
            plan = FaultPlan(FaultSpec(seed=seed, link_poison=rate))
            return (plan.readback_poisoned(0)
                    and not plan.readback_poisoned(1))

        seed = _find_seed(poison_then_clean)
        host, faulty = _wired_host(FaultSpec(seed=seed, link_poison=rate))
        bits = host.read_row(ADDRESS)
        assert faulty.injected["poison"] == 1
        # Recovered from the board buffer: one execution, one re-request.
        assert faulty.statistics.programs_sent == 1
        assert faulty.statistics.rerequests == 1
        assert np.array_equal(bits, _direct_host().read_row(ADDRESS))

    def test_retries_exhausted_raises(self):
        host, __ = _wired_host(FaultSpec(seed=0, link_drop=1.0),
                               max_retries=2)
        with pytest.raises(TransportFault, match="after 3 attempts"):
            host.read_row(ADDRESS)

    def test_flaky_link_is_transparent_end_to_end(self):
        """Moderate fault rates on every category: the resilient wrapper
        must deliver data identical to a direct (fault-free) host."""
        spec = FaultSpec(seed=3, link_corrupt=0.1, link_drop=0.1,
                         link_duplicate=0.1, link_stall=0.1,
                         link_poison=0.1)
        host, faulty = _wired_host(spec, max_retries=8)
        direct = _direct_host()
        geometry = host.device.geometry
        addresses = [DramAddress(0, 0, 0, row) for row in range(8)]
        for index, address in enumerate(addresses):
            payload = bytes([index]) * geometry.row_bytes
            host.write_row(address, payload)
            direct.write_row(address, payload)
        for address in addresses:
            assert np.packbits(host.read_row(address)).tobytes() == \
                np.packbits(direct.read_row(address)).tobytes()
        assert sum(faulty.injected.values()) > 0, \
            "rates too low — nothing was injected, test is vacuous"


class TestBackoffDeterminism:
    @staticmethod
    def _delays(seed):
        device = make_vulnerable_device(seed=4)
        faulty = FaultyTransport(device,
                                 FaultPlan(FaultSpec(seed=seed,
                                                     link_drop=1.0)))
        delays = []
        resilient = ResilientTransport(faulty, max_retries=3, seed=seed,
                                       sleep=delays.append)
        host = HostInterface(device, transport=resilient)
        with pytest.raises(TransportFault):
            host.read_row(ADDRESS)
        return delays

    def test_backoff_is_seeded_and_reproducible(self):
        first, second = self._delays(7), self._delays(7)
        assert first == second
        assert len(first) == 3  # one backoff before each retry
        assert first != self._delays(8)
        # Exponential envelope with jitter in [0.5, 1.5) of the base.
        for attempt, delay in enumerate(first, start=1):
            base = 0.001 * 2 ** (attempt - 1)
            assert 0.5 * base <= delay < 1.5 * base


class TestBuildLink:
    def test_standard_wiring(self):
        device = make_vulnerable_device(seed=4)
        device.set_ecc_enabled(False)
        spec = FaultSpec(seed=6, link_corrupt=0.01)
        link = build_link(device, spec)
        assert isinstance(link, ResilientTransport)
        assert isinstance(link.transport, FaultyTransport)
        host = HostInterface(device, transport=link)
        assert np.array_equal(host.read_row(ADDRESS),
                              _direct_host().read_row(ADDRESS))
