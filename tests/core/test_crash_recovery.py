"""Crash-safety tests: kill -9 at every shard boundary, corrupt-archive
self-healing, and supervised degradation to serial execution.

These are the acceptance tests for the durability layer
(:mod:`repro.durable`): a campaign killed at *any* seeded point must
resume to a byte-identical dataset; a checksum-corrupted shard archive
must be quarantined and recomputed, never merged or crashed on; and a
crash-looping worker pool must trip its circuit breaker and finish the
campaign serially with identical output.

The fault-injection shard runners live at module level so the process
pool can pickle them by reference.  Crash runners gate on
``pool._WORKER_STATE`` (installed only by the pool initializer) so the
degraded-serial fallback — which runs the same runner inline in the
parent — succeeds where the workers died.
"""

import contextlib
import json
import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest

from repro import durable
from repro.bender.board import BoardSpec
from repro.core.experiment import ExperimentConfig
from repro.core.parallel import ParallelSweepRunner
from repro.core.patterns import ROWSTRIPE0
from repro.core.sweeps import SweepConfig
from repro.durable import KILL_VAR, read_artifact, write_artifact
from repro.engine import pool
from repro.errors import PoolDegradedError
from repro.faults.plan import FaultSpec
from repro.obs import MetricsRegistry, use_metrics
from tests.conftest import SMALL_GEOMETRY, vulnerable_profile
from tests.core.test_parallel import CAMPAIGNS

SHARDS = 6  # 2 channels x 1 bank x 3 regions in the lean topology


def small_spec() -> BoardSpec:
    return BoardSpec(seed=5, temperature_c=85.0, settle_thermals=False,
                     geometry=SMALL_GEOMETRY, profile=vulnerable_profile())


def lean_config(**overrides) -> SweepConfig:
    # Explicitly fault-free (FaultSpec() suppresses $REPRO_FAULTS), so
    # these tests stay deterministic under the CI chaos job too.
    defaults = dict(
        channels=(0, 1),
        banks=(0,),
        region_size=64,
        rows_per_region=2,
        hcfirst_rows_per_region=0,
        include_hcfirst=False,
        patterns=(ROWSTRIPE0,),
        faults=FaultSpec(),
        experiment=ExperimentConfig(ber_hammer_count=80_000,
                                    hcfirst_max_hammers=128 * 1024),
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


def _archive_bytes(dataset, path):
    dataset.to_json(path)
    return path.read_bytes()


def _campaign_child(campaign_dir: str, kill_after: int) -> None:
    """Forked campaign parent that dies at the kill point.

    The fork inherits pytest's durable write counters and (unread) kill
    env; reset so this process observes its own budget from zero.  A
    fresh process group lets the test reap this child's own pool
    workers, which outlive their SIGKILLed parent.
    """
    os.setpgrp()
    os.environ[KILL_VAR] = str(kill_after)
    durable.reset_io_state()
    ParallelSweepRunner(small_spec(), lean_config(jobs=2),
                        campaign_dir=Path(campaign_dir)).run()


def _await_death(child, timeout_s: float = 60.0):
    """Wait for the forked campaign child, then reap its whole group.

    ``Process.join`` would block for its full timeout here: the child's
    orphaned pool workers inherit its exit-sentinel pipe, so the
    sentinel never signals even though the child is long dead.  Polling
    ``exitcode`` (``waitpid(WNOHANG)``) sees the death immediately;
    killing the process group then cleans up the orphans.
    """
    deadline = time.monotonic() + timeout_s
    while child.exitcode is None and time.monotonic() < deadline:
        time.sleep(0.02)
    exitcode = child.exitcode
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(child.pid, signal.SIGKILL)
    return exitcode


def _crash_in_pool_workers(spec, shard):
    """Hard-kill every pool worker; succeed when run inline (degraded)."""
    if pool._WORKER_STATE:
        os._exit(13)
    return pool.run_shard(spec, shard)


@pytest.fixture(scope="module")
def baseline_bytes(tmp_path_factory):
    """The uninterrupted campaign's archive — the byte-identity oracle."""
    scratch = tmp_path_factory.mktemp("baseline")
    dataset = ParallelSweepRunner(small_spec(), lean_config(jobs=2)).run()
    return _archive_bytes(dataset, scratch / "baseline.json")


class TestKillNineAtEveryShardBoundary:
    @pytest.mark.parametrize("kill_after", range(1, SHARDS + 1))
    def test_resume_is_byte_identical(self, tmp_path, baseline_bytes,
                                      kill_after):
        campaign = tmp_path / "campaign"
        context = multiprocessing.get_context("fork")
        child = context.Process(target=_campaign_child,
                                args=(str(campaign), kill_after))
        child.start()
        exitcode = _await_death(child)
        assert exitcode == -9, \
            f"child survived its kill point (exit {exitcode})"

        # The kill fired right after the Nth shard-archive rename, so
        # exactly N complete archives exist and none is torn.
        archives = sorted(campaign.glob("shard_*.json"))
        assert len(archives) == kill_after

        metrics = MetricsRegistry()
        resumed = ParallelSweepRunner(small_spec(), lean_config(jobs=2),
                                      campaign_dir=campaign)
        with use_metrics(metrics):
            dataset = resumed.run()

        counters = metrics.snapshot()["counters"]
        assert counters["campaign.checkpoint_loads"] == kill_after
        assert counters.get("campaign.recovered_shards", 0) == 0
        assert resumed.coverage["complete"] is True
        assert _archive_bytes(dataset, tmp_path / "resumed.json") == \
            baseline_bytes


class TestCorruptArchiveSelfHealing:
    def _completed_campaign(self, tmp_path):
        campaign = tmp_path / "campaign"
        ParallelSweepRunner(small_spec(), lean_config(jobs=2),
                            campaign_dir=campaign).run()
        return campaign

    def _resume(self, campaign):
        metrics = MetricsRegistry()
        runner = ParallelSweepRunner(small_spec(), lean_config(jobs=2),
                                     campaign_dir=campaign)
        with use_metrics(metrics):
            dataset = runner.run()
        return dataset, metrics.snapshot()["counters"]

    def test_bitrotted_shard_quarantined_and_recomputed(
            self, tmp_path, baseline_bytes):
        campaign = self._completed_campaign(tmp_path)
        victim = campaign / "shard_00002.json"
        raw = bytearray(victim.read_bytes())
        raw[-20] ^= 0x10  # flip one payload bit: checksum now fails
        victim.write_bytes(bytes(raw))

        dataset, counters = self._resume(campaign)
        assert counters["campaign.recovered_shards"] == 1
        assert counters["campaign.checkpoint_loads"] == SHARDS - 1
        assert (campaign / "shard_00002.json.corrupt").exists()
        # The archive was recomputed in place, and verifies again.
        read_artifact(victim, kind="shard")
        assert _archive_bytes(dataset, tmp_path / "healed.json") == \
            baseline_bytes

    def test_truncated_shard_quarantined_and_recomputed(
            self, tmp_path, baseline_bytes):
        campaign = self._completed_campaign(tmp_path)
        victim = campaign / "shard_00004.json"
        victim.write_bytes(victim.read_bytes()[:64])  # torn mid-write

        dataset, counters = self._resume(campaign)
        assert counters["campaign.recovered_shards"] == 1
        assert (campaign / "shard_00004.json.corrupt").exists()
        assert _archive_bytes(dataset, tmp_path / "healed.json") == \
            baseline_bytes

    def test_foreign_shard_stamp_quarantined(self, tmp_path,
                                             baseline_bytes):
        """A checksum-valid archive stamped with another campaign's
        fingerprint is provenance poison, not a checkpoint."""
        campaign = self._completed_campaign(tmp_path)
        victim = campaign / "shard_00001.json"
        foreign = read_artifact(victim, kind="shard")
        write_artifact(victim, foreign.payload, kind="shard",
                       campaign="deadbeef" * 8)

        dataset, counters = self._resume(campaign)
        assert counters["campaign.recovered_shards"] == 1
        assert (campaign / "shard_00001.json.corrupt").exists()
        assert _archive_bytes(dataset, tmp_path / "healed.json") == \
            baseline_bytes

    def test_flipped_envelope_key_quarantined_not_loaded_empty(
            self, tmp_path, baseline_bytes):
        """A bit flip inside the envelope key leaves valid JSON with no
        envelope; it must not pass as a legacy archive without records."""
        campaign = self._completed_campaign(tmp_path)
        victim = campaign / "shard_00001.json"
        victim.write_text(victim.read_text().replace(
            durable.ENVELOPE_KEY, "__rePro_artifact__"))

        dataset, counters = self._resume(campaign)
        assert counters["campaign.recovered_shards"] == 1
        assert (campaign / "shard_00001.json.corrupt").exists()
        assert _archive_bytes(dataset, tmp_path / "healed.json") == \
            baseline_bytes

    def test_flipped_manifest_envelope_key_quarantined_and_rewritten(
            self, tmp_path, baseline_bytes):
        """One flipped bit in the manifest's envelope key leaves valid
        JSON without an envelope: corruption to quarantine, not a
        manifest of a different experiment to refuse."""
        campaign = self._completed_campaign(tmp_path)
        manifest = campaign / "campaign.json"
        flipped = durable.ENVELOPE_KEY.replace("fact", "facu")
        assert bin(int.from_bytes(flipped.encode(), "big")
                   ^ int.from_bytes(durable.ENVELOPE_KEY.encode(), "big")
                   ).count("1") == 1
        manifest.write_text(manifest.read_text().replace(
            durable.ENVELOPE_KEY, flipped))

        dataset, counters = self._resume(campaign)
        assert counters["campaign.recovered_manifests"] == 1
        assert counters["campaign.checkpoint_loads"] == SHARDS
        assert (campaign / "campaign.json.corrupt").exists()
        read_artifact(manifest, kind="campaign-manifest")
        assert _archive_bytes(dataset, tmp_path / "healed.json") == \
            baseline_bytes

    def test_corrupt_manifest_quarantined_and_rewritten(
            self, tmp_path, baseline_bytes):
        campaign = self._completed_campaign(tmp_path)
        manifest = campaign / "campaign.json"
        manifest.write_text('{"version": 2, "fingerp')  # torn mid-write

        dataset, counters = self._resume(campaign)
        assert counters["campaign.recovered_manifests"] == 1
        assert counters["campaign.checkpoint_loads"] == SHARDS
        assert (campaign / "campaign.json.corrupt").exists()
        # The rewritten manifest verifies and carries the fingerprint,
        # because the shard stamps alone re-established provenance.
        artifact = read_artifact(manifest, kind="campaign-manifest")
        assert artifact.payload["fingerprint"]
        assert _archive_bytes(dataset, tmp_path / "healed.json") == \
            baseline_bytes


class TestSupervisedDegradation:
    @CAMPAIGNS
    def test_crash_loop_degrades_to_serial_with_identical_output(
            self, kind):
        # Every pool worker dies by SIGKILL at item entry; the inline
        # finish is immune (process faults fire only in pool workers).
        faults = FaultSpec(seed=11, worker_sigkill=1.0)
        metrics = MetricsRegistry()
        runner = kind.runner(jobs=2, faults=faults, max_retries=2)
        with use_metrics(metrics):
            output = runner.run()

        assert runner.errors == ()
        assert kind.complete(runner, output)
        counters = metrics.snapshot()["counters"]
        assert counters["engine.pool.breaker_open"] >= 1
        assert counters["engine.pool.worker_crashes"] >= 1
        assert counters["sweep.degraded_serial"] >= 1
        clean = kind.runner(jobs=2, faults=FaultSpec()).run()
        assert kind.measured(output) == kind.measured(clean)

    def test_degrade_never_surfaces_the_breaker(self, tmp_path):
        runner = ParallelSweepRunner(small_spec(),
                                     lean_config(jobs=2), max_retries=2,
                                     shard_runner=_crash_in_pool_workers,
                                     degrade="never")
        with pytest.raises(PoolDegradedError) as excinfo:
            runner.run()
        assert excinfo.value.crashes >= 1

    def test_crash_budget_env_tightens_the_breaker(self, tmp_path,
                                                   monkeypatch,
                                                   baseline_bytes):
        monkeypatch.setenv(pool.CRASH_BUDGET_VAR, "1")
        runner = ParallelSweepRunner(small_spec(),
                                     lean_config(jobs=2), max_retries=2,
                                     shard_runner=_crash_in_pool_workers)
        dataset = runner.run()
        assert runner.errors == ()
        assert _archive_bytes(dataset, tmp_path / "degraded.json") == \
            baseline_bytes


class TestCheckpointSurvivesDiskPressure:
    def test_enospc_on_checkpoint_write_does_not_kill_the_campaign(
            self, tmp_path, baseline_bytes):
        """Injected ENOSPC on every shard-archive write: the campaign
        keeps its results in memory and still merges byte-identically;
        only the checkpoints are lost."""
        campaign = tmp_path / "campaign"
        faults = FaultSpec(seed=3, io_enospc=1.0)
        metrics = MetricsRegistry()
        runner = ParallelSweepRunner(small_spec(),
                                     lean_config(jobs=2, faults=faults),
                                     campaign_dir=campaign)
        with use_metrics(metrics):
            dataset = runner.run()

        counters = metrics.snapshot()["counters"]
        # One refusal for the manifest at prepare, one per shard write.
        assert counters["campaign.checkpoint_write_errors"] == SHARDS + 1
        assert counters.get("campaign.checkpoint_writes", 0) == 0
        assert not list(campaign.glob("shard_*.json"))
        assert _archive_bytes(dataset, tmp_path / "merged.json") == \
            baseline_bytes


class TestEnvelopeFormat:
    def test_shard_archive_carries_campaign_stamp(self, tmp_path):
        campaign = tmp_path / "campaign"
        ParallelSweepRunner(small_spec(), lean_config(jobs=1),
                            campaign_dir=campaign).run()
        artifact = read_artifact(campaign / "shard_00000.json",
                                 kind="shard")
        manifest = read_artifact(campaign / "campaign.json",
                                 kind="campaign-manifest")
        assert artifact.meta["campaign"] == \
            manifest.payload["fingerprint"]

    def test_legacy_plain_json_shard_quarantined(self, tmp_path,
                                                 baseline_bytes):
        """Archives without an envelope (bare dataset JSON) or without
        the campaign stamp carry no provenance: quarantined, then
        recomputed."""
        campaign = tmp_path / "campaign"
        ParallelSweepRunner(small_spec(), lean_config(jobs=1),
                            campaign_dir=campaign).run()
        plain = campaign / "shard_00003.json"
        artifact = read_artifact(plain, kind="shard")
        plain.write_text(json.dumps(artifact.payload, indent=1) + "\n")
        unstamped = campaign / "shard_00004.json"
        write_artifact(unstamped,
                       read_artifact(unstamped, kind="shard").payload,
                       kind="shard")

        metrics = MetricsRegistry()
        runner = ParallelSweepRunner(small_spec(), lean_config(jobs=1),
                                     campaign_dir=campaign)
        with use_metrics(metrics):
            dataset = runner.run()
        counters = metrics.snapshot()["counters"]
        assert counters["campaign.checkpoint_loads"] == SHARDS - 2
        assert counters["campaign.recovered_shards"] == 2
        assert (campaign / "shard_00003.json.corrupt").exists()
        assert (campaign / "shard_00004.json.corrupt").exists()
        assert _archive_bytes(dataset, tmp_path / "healed.json") == \
            baseline_bytes
