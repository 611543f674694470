"""Tests for the device-family profile registry (repro.dram.profiles).

Covers the registry contract (lookup, duplicate protection, error
messages), the shipped ``hbm2``/``ddr4``/``ddr5`` bundles — in
particular that ``hbm2`` is *definitionally* the historical default
configuration, which is what makes the refactor byte-identity argument
hold — and the non-aliasing guarantees: two families sharing timing
parameters must still produce distinct program-cache digests and
distinct campaign/fleet fingerprints, so verified programs and
checkpoints never leak across families.
"""

import pytest

from repro.bender.board import BoardSpec, make_paper_setup
from repro.core.campaign import campaign_fingerprint, fleet_fingerprint
from repro.core.hammer import build_hammer_program
from repro.core.sweeps import SweepConfig
from repro.dram.address import DramAddress
from repro.dram.calibration import default_profile
from repro.dram.geometry import Geometry
from repro.dram.profiles import (
    DDR4,
    DDR5,
    HBM2,
    DeviceProfile,
    get_profile,
    list_profiles,
    register_profile,
    resolve_profile,
)
from repro.dram.timing import TimingParameters
from repro.dram.trr import TrrConfig
from repro.engine import FastPathBackend, canonicalize, shape_digest
from repro.errors import ConfigurationError


class TestRegistry:
    def test_shipped_families_listed_in_registration_order(self):
        assert list_profiles()[:3] == ("hbm2", "ddr4", "ddr5")

    def test_get_profile_returns_the_registered_object(self):
        assert get_profile("hbm2") is HBM2
        assert get_profile("ddr4") is DDR4
        assert get_profile("ddr5") is DDR5

    def test_unknown_name_lists_known_families(self):
        with pytest.raises(ConfigurationError, match="hbm2"):
            get_profile("lpddr5")

    def test_resolve_none_passes_through(self):
        assert resolve_profile(None) is None
        assert resolve_profile("ddr4") is DDR4

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_profile(DeviceProfile(name="hbm2", family="HBM2",
                                           description="impostor"))

    def test_replace_allows_reregistration(self):
        from repro.dram import profiles as registry
        name = "test-replace-dummy"
        try:
            register_profile(DeviceProfile(name=name, family="TEST",
                                           description="first"))
            replacement = DeviceProfile(name=name, family="TEST",
                                        description="second")
            register_profile(replacement, replace=True)
            assert get_profile(name).description == "second"
        finally:
            registry._REGISTRY.pop(name, None)

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            DeviceProfile(name="", family="TEST", description="x")

    def test_calibration_must_cover_geometry_channels(self):
        # default_profile() carries 8-channel tables; a 4-channel
        # geometry must not silently index out of them.
        with pytest.raises(ConfigurationError):
            DeviceProfile(name="bad", family="TEST", description="x",
                          geometry=Geometry(channels=4))


class TestShippedBundles:
    def test_hbm2_is_the_historical_default_configuration(self):
        """The byte-identity keystone: the hbm2 profile's bundle equals
        the constructor defaults every pre-profile board used."""
        assert HBM2.geometry == Geometry()
        assert HBM2.timing == TimingParameters()
        assert HBM2.trr == TrrConfig()
        assert HBM2.calibration == default_profile()
        assert HBM2.mapper_control_bit == 0x8
        assert HBM2.mapper_swizzle_mask == 0x6

    def test_families_use_distinct_trr_samplers(self):
        assert HBM2.trr.sampler == "last"
        assert DDR4.trr.sampler == "counter"
        assert DDR5.trr.sampler == "probabilistic"

    def test_families_have_distinct_geometries_and_timing(self):
        geometries = {HBM2.geometry, DDR4.geometry, DDR5.geometry}
        assert len(geometries) == 3
        frequencies = {profile.timing.frequency_hz
                       for profile in (HBM2, DDR4, DDR5)}
        assert len(frequencies) == 3

    def test_identity_differs_across_families(self):
        identities = {profile.identity()
                      for profile in (HBM2, DDR4, DDR5)}
        assert len(identities) == 3

    def test_identity_covers_trr_policy_not_just_name(self):
        # Two families sharing geometry and timing but differing in
        # TRR policy must have different identities (the identity feeds
        # program-cache digests and checkpoint fingerprints).
        base = DeviceProfile(name="fam-a", family="TEST", description="a")
        twin = DeviceProfile(name="fam-a", family="TEST", description="a",
                             trr=TrrConfig(sampler="counter", table_size=4))
        assert base.identity() != twin.identity()


class TestCacheDigestNonAliasing:
    def test_same_program_same_timing_different_family_digests_apart(self):
        """A verified-program verdict must not transfer across families.

        Both boards here share geometry and the timing table (only the
        TRR policy differs), so the program assembly and timing bytes
        are identical — the device identity component must split them.
        """
        plain = make_paper_setup(seed=0, settle_thermals=False)
        trr_variant = make_paper_setup(
            seed=0, settle_thermals=False,
            trr_config=TrrConfig(sampler="counter", table_size=4))
        victim = DramAddress(channel=0, pseudo_channel=0, bank=0, row=100)
        program = build_hammer_program(victim, [99, 101], 64)
        template, _, _ = canonicalize(program)

        digests = []
        for board in (plain, trr_variant):
            backend = FastPathBackend(board.host)
            digests.append(shape_digest(template, backend.timing,
                                        backend.device_identity()))
        assert digests[0] != digests[1]

    def test_digest_stable_for_identical_stations(self):
        board = make_paper_setup(seed=0, settle_thermals=False)
        rebuilt = make_paper_setup(seed=0, settle_thermals=False)
        victim = DramAddress(channel=0, pseudo_channel=0, bank=0, row=100)
        template, _, _ = canonicalize(
            build_hammer_program(victim, [99, 101], 64))
        first = FastPathBackend(board.host)
        second = FastPathBackend(rebuilt.host)
        assert (shape_digest(template, first.timing,
                             first.device_identity())
                == shape_digest(template, second.timing,
                                second.device_identity()))


class TestFingerprintNonAliasing:
    CONFIG = SweepConfig(channels=(0,), rows_per_region=2,
                         hcfirst_rows_per_region=1)

    def test_campaign_fingerprints_split_on_device_profile(self):
        fingerprints = {
            campaign_fingerprint(BoardSpec(seed=1, device_profile=name),
                                 self.CONFIG, shards_total=4)
            for name in (None, "hbm2", "ddr4", "ddr5")}
        assert len(fingerprints) == 4

    def test_campaign_fingerprint_uses_resolved_identity(self):
        """Checkpoints must not survive a profile *redefinition*.

        The fingerprint resolves the spec's profile name against the
        registry, so re-registering the same name with a different TRR
        policy (a new code version, say) changes the fingerprint and
        invalidates old checkpoints instead of resuming them wrongly.
        """
        from dataclasses import replace

        from repro.dram import profiles as registry

        name = "test-fingerprint-dummy"
        spec = BoardSpec(seed=1, device_profile=name)
        try:
            register_profile(DeviceProfile(name=name, family="TEST",
                                           description="v1"))
            before = campaign_fingerprint(spec, self.CONFIG, 4)
            register_profile(
                replace(get_profile(name),
                        trr=TrrConfig(sampler="probabilistic")),
                replace=True)
            after = campaign_fingerprint(spec, self.CONFIG, 4)
        finally:
            registry._REGISTRY.pop(name, None)
        assert before != after

    def test_fleet_fingerprints_split_on_population_profiles(self):
        spec = BoardSpec(seed=0)
        homogeneous = fleet_fingerprint(spec, self.CONFIG, devices=4,
                                        base_seed=0)
        rotated = fleet_fingerprint(spec, self.CONFIG, devices=4,
                                    base_seed=0,
                                    profiles=("hbm2", "ddr4"))
        reordered = fleet_fingerprint(spec, self.CONFIG, devices=4,
                                      base_seed=0,
                                      profiles=("ddr4", "hbm2"))
        assert len({homogeneous, rotated, reordered}) == 3
