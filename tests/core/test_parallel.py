"""Tests for repro.core.parallel — sharding, determinism, fault tolerance.

The fault-injection shard runners live at module level so the process
pool can pickle them by reference.
"""

import json
import os
import uuid
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bender.board import BoardSpec
from repro.core import campaign, parallel
from repro.core.experiment import ExperimentConfig
from repro.core.fleet import FleetRunner
from repro.core.parallel import ParallelSweepRunner, ShardPlan, run_sweep
from repro.core.patterns import ROWSTRIPE0, ROWSTRIPE1
from repro.core.results import REGION_FIRST, REGION_MIDDLE, REGIONS
from repro.core.sweeps import SpatialSweep, SweepConfig
from repro.errors import CampaignStateError, ExperimentError
from repro.faults.plan import FaultSpec
from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer
from tests.conftest import SMALL_GEOMETRY, vulnerable_profile


def small_spec() -> BoardSpec:
    return BoardSpec(seed=5, temperature_c=85.0, settle_thermals=False,
                     geometry=SMALL_GEOMETRY, profile=vulnerable_profile())


def small_config(**overrides) -> SweepConfig:
    defaults = dict(
        channels=(0, 1),
        banks=(0, 1),
        region_size=64,
        rows_per_region=3,
        hcfirst_rows_per_region=1,
        patterns=(ROWSTRIPE0, ROWSTRIPE1),
        experiment=ExperimentConfig(ber_hammer_count=80_000,
                                    hcfirst_max_hammers=128 * 1024),
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


def lean_config(**overrides) -> SweepConfig:
    """Cheaper variant for the fault-tolerance tests."""
    defaults = dict(
        banks=(0,),
        rows_per_region=2,
        hcfirst_rows_per_region=0,
        include_hcfirst=False,
        patterns=(ROWSTRIPE0,),
    )
    defaults.update(overrides)
    return small_config(**defaults)


def _fail_middle_of_ch1(spec, shard):
    """Shard runner that raises inside the worker for one shard."""
    if shard.channel == 1 and shard.region == REGION_MIDDLE:
        raise RuntimeError("injected shard fault")
    return parallel.run_shard(spec, shard)


def _crash_middle_of_ch1(spec, shard):
    """Shard runner that hard-kills its worker (breaks the pool)."""
    if shard.channel == 1 and shard.region == REGION_MIDDLE:
        os._exit(13)
    return parallel.run_shard(spec, shard)


def _break_inside_run_shard(spec, shard):
    """Make one shard fail *inside* run_shard (not in the wrapper), so
    the failure carries the worker's wall time and metric snapshot."""
    if shard.channel == 1 and shard.region == REGION_MIDDLE:
        spec = replace(spec, wordline_voltage_v=-5.0)  # fails at build()
    return parallel.run_shard(spec, shard)


def _counting_run_shard(spec, shard):
    """Delegate to run_shard, recording every (shard, attempt) execution
    on disk so tests can prove checkpointed shards are not re-run."""
    flag_dir = Path(os.environ["REPRO_TEST_FLAG_DIR"])
    name = f"ran-{shard.index:05d}-{shard.attempt}-{uuid.uuid4().hex}"
    (flag_dir / name).write_text("")
    return parallel.run_shard(spec, shard)


def _transient_fail_ch1_middle(spec, shard):
    """Fail one shard on its first attempt only (file-flag sentinel, so
    the state survives the process boundary and the retry round)."""
    if shard.channel == 1 and shard.region == REGION_MIDDLE:
        flag = Path(os.environ["REPRO_TEST_FLAG_DIR"]) / "tripped"
        if not flag.exists():
            flag.write_text("tripped")
            raise RuntimeError("transient fault")
    return parallel.run_shard(spec, shard)


class TestShardPlan:
    def test_serial_nesting_order(self):
        config = small_config()
        plan = ShardPlan.from_config(config)
        assert len(plan) == 2 * 1 * 2 * 3
        expected = [(channel, 0, bank, region)
                    for channel in (0, 1)
                    for bank in (0, 1)
                    for region in REGIONS]
        observed = [(shard.channel, shard.pseudo_channel, shard.bank,
                     shard.region) for shard in plan]
        assert observed == expected
        assert [shard.index for shard in plan] == list(range(len(plan)))

    def test_shard_configs_are_narrowed(self):
        plan = ShardPlan.from_config(small_config(jobs=4))
        for shard in plan:
            assert shard.config.channels == (shard.channel,)
            assert shard.config.pseudo_channels == (shard.pseudo_channel,)
            assert shard.config.banks == (shard.bank,)
            assert shard.config.regions == (shard.region,)
            assert shard.config.append_wcdp is False
            assert shard.config.jobs == 1


class TestDeterminism:
    def test_parallel_dataset_is_byte_identical_to_serial(self, tmp_path):
        """The acceptance contract: jobs=4 == jobs=1, record for record."""
        spec = small_spec()
        config = small_config()

        serial = SpatialSweep(spec.build(), config).run()
        runner = ParallelSweepRunner(spec, replace(config, jobs=4))
        parallel_dataset = runner.run()

        assert runner.errors == ()
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        serial.to_json(serial_path)
        parallel_dataset.to_json(parallel_path)
        assert serial_path.read_bytes() == parallel_path.read_bytes()

    def test_progress_reports_every_shard(self):
        spec = small_spec()
        config = lean_config(jobs=2)
        messages = []
        ParallelSweepRunner(spec, config).run(progress=messages.append)
        assert len(messages) == len(ShardPlan.from_config(config))
        assert all("ok" in message for message in messages)


class TestFaultTolerance:
    def test_raising_shard_is_reported_not_fatal(self):
        spec = small_spec()
        config = lean_config(jobs=2)
        runner = ParallelSweepRunner(spec, config,
                                     shard_runner=_fail_middle_of_ch1)
        dataset = runner.run()

        assert len(runner.errors) == 1
        error = runner.errors[0]
        assert (error.channel, error.region) == (1, REGION_MIDDLE)
        assert error.error_type == "RuntimeError"
        assert "injected shard fault" in error.message
        assert error.attempts == 2  # initial try + one retry

        # The campaign completed: every other shard's records are there,
        # the failed shard's are absent, and the failure is archived in
        # the dataset itself.
        measured = {(record.channel, record.region)
                    for record in dataset.ber_records}
        assert (1, REGION_MIDDLE) not in measured
        expected = {(channel, region) for channel in (0, 1)
                    for region in REGIONS} - {(1, REGION_MIDDLE)}
        assert measured == expected
        assert dataset.metadata["shard_errors"] == [error.as_dict()]

    def test_crashed_worker_does_not_sink_other_shards(self):
        """A hard crash breaks the shared pool; the isolated retry round
        must still complete every innocent shard."""
        spec = small_spec()
        config = lean_config(jobs=2)
        runner = ParallelSweepRunner(spec, config,
                                     shard_runner=_crash_middle_of_ch1)
        dataset = runner.run()

        assert [
            (error.channel, error.region) for error in runner.errors
        ] == [(1, REGION_MIDDLE)]
        measured = {(record.channel, record.region)
                    for record in dataset.ber_records}
        expected = {(channel, region) for channel in (0, 1)
                    for region in REGIONS} - {(1, REGION_MIDDLE)}
        assert measured == expected


class TestRunSweepDispatch:
    def test_serial_uses_given_board(self):
        spec = small_spec()
        config = lean_config()
        board = spec.build()
        dataset = run_sweep(config, board=board)
        reference = SpatialSweep(spec.build(), config).run()
        assert dataset.ber_records == reference.ber_records

    def test_parallel_requires_spec(self):
        with pytest.raises(ExperimentError):
            run_sweep(lean_config(jobs=2))

    def test_serial_requires_board_or_spec(self):
        with pytest.raises(ExperimentError):
            run_sweep(lean_config())


def _measurement_spans(records):
    """The ordered (name, key attrs) sequence of the measurement spans —
    the part of a trace that must be identical serial vs parallel."""
    keys = ("channel", "pseudo_channel", "bank", "region", "row",
            "repetition")
    return [(record.name,
             tuple((key, record.attrs[key]) for key in keys
                   if key in record.attrs))
            for record in records
            if record.name in ("region", "cell", "ber", "hcfirst")]


class TestObservability:
    def test_merged_parallel_trace_matches_serial(self):
        """jobs=4 yields the same measurement spans, in plan order, as
        the serial sweep — one coherent trace, not four interleaved."""
        spec = small_spec()
        config = small_config()

        serial_tracer = Tracer()
        with use_tracer(serial_tracer):
            SpatialSweep(spec.build(), config).run()

        parallel_tracer = Tracer()
        with use_tracer(parallel_tracer):
            runner = ParallelSweepRunner(spec, replace(config, jobs=4))
            runner.run()
        assert runner.errors == ()

        assert (_measurement_spans(parallel_tracer.records)
                == _measurement_spans(serial_tracer.records))

        # Structure of the merged trace: one campaign root, one shard
        # span per plan entry, all parented to the campaign, in order.
        campaign = parallel_tracer.records[0]
        assert campaign.name == "campaign"
        shards = [record for record in parallel_tracer.records
                  if record.name == "shard"]
        plan = ShardPlan.from_config(config)
        assert [span.attrs["shard"] for span in shards] == \
            [shard.index for shard in plan]
        assert all(span.parent_id == campaign.span_id for span in shards)

    def test_parallel_metrics_match_serial_counts(self):
        spec = small_spec()
        config = lean_config()

        serial_metrics = MetricsRegistry()
        with use_metrics(serial_metrics):
            SpatialSweep(spec.build(), config).run()

        parallel_metrics = MetricsRegistry()
        with use_metrics(parallel_metrics):
            ParallelSweepRunner(spec, replace(config, jobs=2)).run()

        serial_counters = serial_metrics.snapshot()["counters"]
        merged_counters = parallel_metrics.snapshot()["counters"]
        for name in ("dram.commands.ACT", "hammer.pairs",
                     "bitflips.observed", "sweep.ber_records"):
            assert merged_counters[name] == serial_counters[name], name

    def test_telemetry_present_only_when_obs_active(self):
        spec = small_spec()
        # no WCDP: telemetry counts measured (shard) records only, so
        # the totals line up exactly with the dataset
        config = lean_config(jobs=2, append_wcdp=False)

        plain = ParallelSweepRunner(spec, config).run()
        assert "telemetry" not in plain.metadata

        with use_metrics(MetricsRegistry()):
            observed = ParallelSweepRunner(spec, config).run()
        telemetry = observed.metadata["telemetry"]
        assert telemetry["jobs"] == 2
        plan = ShardPlan.from_config(config)
        assert [row["shard"] for row in telemetry["shards"]] == \
            [shard.index for shard in plan]
        for row in telemetry["shards"]:
            assert row["wall_s"] > 0
            assert row["records"] > 0
            assert row["rows_per_s"] > 0
        assert telemetry["records"] == sum(plain.record_counts())

        # Telemetry is execution detail: it must never leak into the
        # measurement payload, which stays byte-comparable to serial.
        observed.metadata.pop("telemetry")
        assert observed.metadata == plain.metadata

    def test_archive_excludes_telemetry(self, tmp_path):
        spec = small_spec()
        config = lean_config(jobs=2, append_wcdp=False)

        plain = ParallelSweepRunner(spec, config).run()
        with use_metrics(MetricsRegistry()):
            observed = ParallelSweepRunner(spec, config).run()
        assert "telemetry" in observed.metadata

        plain.to_json(tmp_path / "plain.json")
        observed.to_json(tmp_path / "observed.json")
        assert (tmp_path / "plain.json").read_bytes() == \
            (tmp_path / "observed.json").read_bytes()

    def test_shard_error_carries_wall_time_and_metrics(self):
        spec = small_spec()
        config = lean_config(jobs=2)
        runner = ParallelSweepRunner(
            spec, config, shard_runner=_break_inside_run_shard)
        runner.run()

        assert len(runner.errors) == 1
        error = runner.errors[0]
        assert (error.channel, error.region) == (1, REGION_MIDDLE)
        assert error.error_type != "ShardRunError"  # unwrapped
        assert error.wall_s > 0
        assert set(error.metrics) == {"counters", "gauges", "histograms"}
        assert error.metrics["gauges"]["shard.wall_s"] == error.wall_s
        archived = runner.errors[0].as_dict()
        assert archived["wall_s"] == error.wall_s
        assert archived["metrics"] == error.metrics

    def test_retried_shard_not_double_counted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAG_DIR", str(tmp_path))
        spec = small_spec()
        config = lean_config(jobs=2)
        messages = []
        runner = ParallelSweepRunner(
            spec, config, shard_runner=_transient_fail_ch1_middle)
        dataset = runner.run(progress=messages.append)

        assert runner.errors == ()
        plan_size = len(ShardPlan.from_config(config))
        # One message per attempt: every shard once, the flaky one twice.
        assert len(messages) == plan_size + 1
        assert sum("FAILED" in message for message in messages) == 1
        assert sum(" ok" in message for message in messages) == plan_size
        # The final completion count is exact — no shard counted twice.
        assert f"[{plan_size}/{plan_size} shards" in messages[-1]
        measured = {(record.channel, record.region)
                    for record in dataset.ber_records}
        assert (1, REGION_MIDDLE) in measured

    def test_aggregator_is_idempotent_per_shard(self):
        shard = ShardPlan.from_config(lean_config()).shards[0]
        messages = []
        aggregator = campaign._ProgressAggregator(2, messages.append)
        assert aggregator.completed(shard, attempt=0) is True
        # e.g. a timed-out shard that still finished, then passed retry:
        assert aggregator.completed(shard, attempt=1) is False
        assert len(messages) == 2
        assert all("[1/2 shards" in message for message in messages)


def _archive_bytes(dataset, path):
    dataset.to_json(path)
    return path.read_bytes()


class SweepCampaign:
    """The lean sweep (6 shards) as one kind of campaign under test."""

    name = "sweep"
    items = 6
    #: The item ``FaultSpec(seed=8, shard_poison=0.15)`` poisons.
    poisoned = 3

    @staticmethod
    def runner(jobs=2, faults=None, max_retries=1, timeout_s=None,
               **options):
        config = lean_config(jobs=jobs, faults=faults,
                             shard_timeout_s=timeout_s)
        return ParallelSweepRunner(small_spec(), config,
                                   max_retries=max_retries, **options)

    @staticmethod
    def measured(dataset) -> bytes:
        """The archive bytes."""
        return json.dumps(dataset.to_payload(), indent=1).encode()

    @staticmethod
    def complete(runner, dataset) -> bool:
        return runner.coverage["complete"]


class FleetCampaign:
    """A 5-device fleet as the other kind of campaign under test."""

    name = "fleet"
    items = 5
    poisoned = 1

    @staticmethod
    def runner(jobs=2, faults=None, max_retries=1, timeout_s=None,
               **options):
        from tests.core.test_fleet import fleet_config, fleet_sweep
        config = fleet_config(jobs=jobs, max_retries=max_retries,
                              device_timeout_s=timeout_s,
                              sweep=fleet_sweep(faults=faults))
        return FleetRunner(config, **options)

    @staticmethod
    def measured(result) -> bytes:
        """Records, per-device summaries and population.  The archives'
        fleet fingerprint keys the fault plan, so it is left out."""
        return json.dumps([result.dataset.fingerprint(), result.devices,
                           result.population], indent=1).encode()

    @staticmethod
    def complete(runner, result) -> bool:
        return len(result.devices) == result.dataset.metadata[
            "fleet"]["devices"]


#: Both campaign kinds, for tests of the shared campaign lifecycle.
CAMPAIGNS = pytest.mark.parametrize(
    "kind", [SweepCampaign, FleetCampaign],
    ids=lambda kind: kind.name)


class TestInjectedFaultRecovery:
    """Campaigns under seeded fault plans.  The seeds were chosen (by
    searching the deterministic schedules) so that specific items of
    the lean sweep and the test fleet are injured on attempt 0 and draw
    clean on retry; the assertions pin the exact counts, so a schedule
    change surfaces as a loud failure rather than a silently weaker
    test."""

    @CAMPAIGNS
    def test_transient_shard_errors_recovered_with_full_coverage(
            self, kind):
        # An explicit empty spec suppresses any $REPRO_FAULTS plan, so
        # the baseline stays clean even under the CI chaos job.
        clean = kind.runner(faults=FaultSpec()).run()
        faults = FaultSpec(seed=24, shard_error=0.15)  # 2 items injured
        runner = kind.runner(faults=faults)
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            output = runner.run()

        assert runner.errors == ()
        assert kind.complete(runner, output)
        counters = metrics.snapshot()["counters"]
        assert counters["sweep.shard_retries"] == 2
        assert kind.measured(output) == kind.measured(clean)

    @CAMPAIGNS
    def test_item_timeout_enforced_at_one_job(self, kind):
        """A per-item timeout needs a worker to abandon, so even jobs=1
        runs on the pool when one is set: the hung item times out, is
        retried, and the output matches a clean run."""
        faults = FaultSpec(seed=534, shard_hang=0.15, hang_s=6.0)
        runner = kind.runner(jobs=1, faults=faults, timeout_s=2.0)
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            output = runner.run()

        assert runner.errors == ()
        counters = metrics.snapshot()["counters"]
        # The seed hangs only the last item, on attempt 0: with one
        # worker, an earlier hang would also time out the item queued
        # behind it.
        assert counters["sweep.shard_timeouts"] == 1
        assert counters["sweep.shard_retries"] == 1
        clean = kind.runner(jobs=1, faults=FaultSpec()).run()
        assert kind.measured(output) == kind.measured(clean)

    def test_hang_detected_by_dispatch_timeout_and_retried(self, tmp_path):
        from repro.obs import use_events
        from repro.obs.events import EventBus, read_events
        from repro.obs.progress import CampaignView

        spec = small_spec()
        faults = FaultSpec(seed=5, shard_hang=0.12, hang_s=6.0)  # 1 hangs
        config = lean_config(jobs=2, shard_timeout_s=2.0, faults=faults)
        runner = ParallelSweepRunner(spec, config)
        metrics = MetricsRegistry()
        bus = EventBus(tmp_path / "events.jsonl")
        with use_metrics(metrics), use_events(bus):
            dataset = runner.run()

        # The event log betrays the hung worker: its heartbeat named an
        # (item, attempt) that never completed — the completion came
        # from the retry attempt — so a post-mortem replay flags it
        # stale while every healthy worker shows clear.
        view = CampaignView().replay(read_events(bus.path))
        stale = view.stale_workers(now_s=view.last_t_s + 60.0,
                                   stale_after=30.0)
        assert len(stale) == 1
        assert view.retries == 1
        retried_item = stale[0]["item"]
        assert view.completed[retried_item] == 1  # succeeded on retry

        assert runner.errors == ()
        counters = metrics.snapshot()["counters"]
        # Exactly the hung shard timed out — healthy shards that merely
        # queued behind it must not be misread as hangs.
        assert counters["sweep.shard_timeouts"] == 1
        assert counters["sweep.shard_retries"] == 1
        # The hung worker could not be cancelled: it occupies its slot
        # past the deadline and must be counted (and its pool recycled).
        assert counters["sweep.shard_zombies"] == 1
        clean = ParallelSweepRunner(
            spec, lean_config(jobs=2, faults=FaultSpec())).run()
        assert _archive_bytes(dataset, tmp_path / "faulty.json") == \
            _archive_bytes(clean, tmp_path / "clean.json")

    @CAMPAIGNS
    def test_poisoned_readback_detected_and_retried(self, kind):
        faults = FaultSpec(seed=8, shard_poison=0.15)  # 1 item poisoned
        runner = kind.runner(faults=faults)
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            output = runner.run()

        assert runner.errors == ()
        counters = metrics.snapshot()["counters"]
        assert counters["sweep.shard_poisoned"] == 1
        assert counters["sweep.shard_retries"] == 1
        clean = kind.runner(faults=FaultSpec()).run()
        assert kind.measured(output) == kind.measured(clean)

    @CAMPAIGNS
    def test_exhausted_retries_quarantine_with_exact_coverage(
            self, kind, tmp_path):
        from repro.obs import use_events
        from repro.obs.events import EventBus, read_events

        faults = FaultSpec(seed=8, shard_poison=0.15)
        runner = kind.runner(faults=faults, max_retries=0)
        bus = EventBus(tmp_path / "events.jsonl")
        with use_events(bus):
            output = runner.run()

        assert len(runner.errors) == 1
        error = runner.errors[0]
        assert error.index == kind.poisoned
        assert error.error_type == "ShardFault"
        assert error.attempts == 1
        (quarantine,) = [event for event in read_events(bus.path)
                         if event.type == "quarantine"]
        assert quarantine.item == kind.poisoned
        assert quarantine.data["category"] == "poison"
        assert not kind.complete(runner, output)
        if kind is FleetCampaign:
            assert [summary["device"] for summary in output.devices] == \
                [0, 2, 3, 4]
            return

        assert (error.channel, error.region) == (1, REGION_FIRST)
        assert error.fault_category == "poison"
        archived = error.as_dict()
        assert archived["fault_category"] == "poison"
        assert archived["backoff_s"] == 0.0

        expected_coverage = {
            "shards": {"total": 6, "completed": 5, "quarantined": 1},
            "rows": {"attempted": 12, "completed": 10, "quarantined": 2},
            "complete": False,
        }
        assert runner.coverage == expected_coverage
        assert output.metadata["coverage"] == expected_coverage
        assert output.metadata["shard_errors"] == [archived]


class TestRetryBackoff:
    @staticmethod
    def _run_with_backoff(delays):
        runner = ParallelSweepRunner(
            small_spec(), lean_config(jobs=2),
            shard_runner=_fail_middle_of_ch1, max_retries=2,
            retry_backoff_s=0.01)
        runner._sleep = delays.append  # spy: no real sleeping in tests
        runner.run()
        return runner

    def test_backoff_metadata_is_exact_and_deterministic(self):
        first_delays, second_delays = [], []
        first = self._run_with_backoff(first_delays)
        second = self._run_with_backoff(second_delays)

        assert first_delays == second_delays
        assert len(first_delays) == 2  # one backoff before each retry
        for attempt, delay in enumerate(first_delays, start=1):
            base = 0.01 * 2 ** (attempt - 1)
            assert 0.5 * base <= delay < 1.5 * base

        assert len(first.errors) == len(second.errors) == 1
        error = first.errors[0]
        assert error.attempts == 3
        assert error.fault_category == "exception"
        assert error.backoff_s == round(sum(first_delays), 9)
        assert error.as_dict()["backoff_s"] == error.backoff_s


class TestCheckpointResume:
    def test_killed_campaign_resumes_byte_identical(self, tmp_path,
                                                    monkeypatch):
        flag_dir = tmp_path / "flags"
        flag_dir.mkdir()
        monkeypatch.setenv("REPRO_TEST_FLAG_DIR", str(flag_dir))
        spec = small_spec()
        # Explicitly fault-free: an env-injected transient fault would
        # add retry attempts and skew the exact execution counts below.
        config = lean_config(jobs=2, faults=FaultSpec())
        baseline = _archive_bytes(
            ParallelSweepRunner(spec, config).run(),
            tmp_path / "baseline.json")

        campaign = tmp_path / "campaign"
        ParallelSweepRunner(spec, config,
                            shard_runner=_counting_run_shard,
                            campaign_dir=campaign).run()
        assert len(list(flag_dir.iterdir())) == 6
        # Simulate a parent killed mid-run: half the checkpoints exist.
        for index in (1, 3, 5):
            (campaign / f"shard_{index:05d}.json").unlink()

        metrics = MetricsRegistry()
        messages = []
        resumed = ParallelSweepRunner(spec, config,
                                      shard_runner=_counting_run_shard,
                                      campaign_dir=campaign)
        with use_metrics(metrics):
            dataset = resumed.run(progress=messages.append)

        counters = metrics.snapshot()["counters"]
        assert counters["campaign.checkpoint_loads"] == 3
        assert counters["campaign.checkpoint_writes"] == 3
        assert messages[0].startswith("[resume] 3/6 shards loaded")
        # Only the lost shards re-ran; checkpointed ones were not.
        executions = {}
        for flag in flag_dir.iterdir():
            index = int(flag.name.split("-")[1])
            executions[index] = executions.get(index, 0) + 1
        assert executions == {0: 1, 1: 2, 2: 1, 3: 2, 4: 1, 5: 2}

        assert resumed.coverage["complete"] is True
        assert _archive_bytes(dataset,
                              tmp_path / "resumed.json") == baseline

    def test_resume_ignores_execution_only_config_changes(self, tmp_path):
        """jobs / obs / timeouts are normalized out of the campaign
        fingerprint: resuming at a different worker count is supported
        and still byte-identical."""
        spec = small_spec()
        campaign = tmp_path / "campaign"
        base = ParallelSweepRunner(spec, lean_config(jobs=2),
                                   campaign_dir=campaign).run()
        resumed = ParallelSweepRunner(
            spec, lean_config(jobs=1, shard_timeout_s=30.0),
            campaign_dir=campaign).run()
        assert _archive_bytes(resumed, tmp_path / "resumed.json") == \
            _archive_bytes(base, tmp_path / "base.json")

    def test_resume_against_different_experiment_refused(self, tmp_path):
        spec = small_spec()
        campaign = tmp_path / "campaign"
        # Fault-free: a corrupt manifest is rewritten, not refused.
        ParallelSweepRunner(spec, lean_config(jobs=2, faults=FaultSpec()),
                            campaign_dir=campaign).run()
        other = ParallelSweepRunner(
            spec, lean_config(jobs=2, rows_per_region=3, faults=FaultSpec()),
            campaign_dir=campaign)
        with pytest.raises(CampaignStateError):
            other.run()


class TestThermalGuardIntegration:
    def test_resettled_excursions_tagged_and_byte_identical(self, tmp_path):
        spec = small_spec()
        faults = FaultSpec(seed=1, thermal_drift=0.3)
        serial = SpatialSweep(spec.build(),
                              lean_config(faults=faults)).run()
        events = serial.metadata["thermal"]["excursions"]
        assert events
        assert all(event["action"] == "resettled" for event in events)
        # Re-settled measurements run inside the envelope: the measured
        # records match a fault-free campaign exactly.
        clean = SpatialSweep(spec.build(),
                             lean_config(faults=FaultSpec())).run()
        assert serial.ber_records == clean.ber_records

        runner = ParallelSweepRunner(
            spec, lean_config(jobs=2, faults=faults))
        merged = runner.run()
        assert _archive_bytes(merged, tmp_path / "parallel.json") == \
            _archive_bytes(serial, tmp_path / "serial.json")

    def test_flag_policy_tags_suspect_measurements(self):
        spec = small_spec()
        faults = FaultSpec(seed=1, thermal_drift=0.3,
                           thermal_policy="flag")
        dataset = SpatialSweep(spec.build(),
                               lean_config(faults=faults)).run()
        block = dataset.metadata["thermal"]
        assert block["policy"] == "flag"
        assert block["excursions"]
        assert all(event["action"] == "flagged"
                   for event in block["excursions"])
