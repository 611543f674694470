#!/usr/bin/env python3
"""Crash-loop drill: kill a live campaign at every shard boundary and
prove resume is byte-identical.

The CI crash-recovery job's second stage (after tier-1 under chaos
faults).  Every drill runs for both campaign kinds: a sharded sweep and
a fleet population.  For each seeded kill point the harness re-invokes
itself as a child campaign process with ``$REPRO_KILL_AFTER_WRITES=N``
— the durable store then SIGKILLs the child right after its N-th
shard-archive rename — and asserts:

* the child actually died by SIGKILL (a survivor means the kill hook
  regressed);
* exactly N complete shard archives exist, none torn;
* ``--resume`` completes the campaign and the final output is
  **byte-identical** to an uninterrupted run's (the dataset archive;
  for a fleet also its ``FleetResult.to_json`` summary);
* resume loaded exactly N checkpoints and recomputed the rest.

A final quarantine drill per kind flips one bit in a finished
campaign's shard archive and asserts the corrupt file is quarantined to
``*.corrupt`` and transparently recomputed — again byte-identically.

Usage::

    PYTHONPATH=src python tools/crashloop.py [--keep DIR]

Exit codes: 0 every drill passed, 1 any failed (one line per drill on
stdout either way).
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bender.board import BoardSpec  # noqa: E402
from repro.core.experiment import ExperimentConfig  # noqa: E402
from repro.core.fleet import FleetConfig, FleetRunner  # noqa: E402
from repro.core.parallel import ParallelSweepRunner  # noqa: E402
from repro.core.patterns import ROWSTRIPE0  # noqa: E402
from repro.core.results import (  # noqa: E402
    REGION_FIRST,
    CharacterizationDataset,
)
from repro.core.sweeps import SweepConfig  # noqa: E402
from repro.dram.calibration import default_profile  # noqa: E402
from repro.dram.geometry import Geometry  # noqa: E402
from repro.durable import KILL_VAR, read_artifact  # noqa: E402
from repro.faults.plan import FaultSpec  # noqa: E402
from repro.obs import MetricsRegistry, use_metrics  # noqa: E402

#: Work items per drill campaign: the sweep's 2 channels x 1 bank x 3
#: regions, and the fleet's devices.
SHARDS = 6
KINDS = ("sweep", "fleet")


def drill_spec() -> BoardSpec:
    """The test suite's small vulnerable station (see tests/conftest.py):
    a 2-channel geometry with a fragile profile so the drill campaigns
    measure real flips in well under a second per shard."""
    geometry = Geometry(channels=2, pseudo_channels=1, banks=2,
                            rows=256, columns=4, column_bytes=8,
                            channels_per_die=2)
    profile = default_profile().with_overrides(
        weak_fraction=(0.4,) * 8,
        weak_median=1.2e5,
        weak_sigma=0.5,
        threshold_floor=10_000.0,
    )
    return BoardSpec(seed=5, temperature_c=85.0, settle_thermals=False,
                     geometry=geometry, profile=profile)


def drill_config(**overrides) -> SweepConfig:
    defaults = dict(
        channels=(0, 1),
        banks=(0,),
        region_size=64,
        rows_per_region=2,
        hcfirst_rows_per_region=0,
        include_hcfirst=False,
        patterns=(ROWSTRIPE0,),
        faults=FaultSpec(),  # immune to the CI job's $REPRO_FAULTS
        experiment=ExperimentConfig(ber_hammer_count=80_000,
                                    hcfirst_max_hammers=128 * 1024),
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


def campaign(kind: str, campaign_dir=None):
    """The drill campaign of ``kind`` at jobs=2."""
    if kind == "sweep":
        return ParallelSweepRunner(drill_spec(), drill_config(jobs=2),
                                   campaign_dir=campaign_dir)
    fleet = FleetConfig(devices=SHARDS, base_seed=5, jobs=2,
                        spec=drill_spec(),
                        sweep=drill_config(channels=(0,),
                                           regions=(REGION_FIRST,),
                                           append_wcdp=False))
    return FleetRunner(fleet, campaign_dir=campaign_dir)


def output_bytes(output, path: Path) -> bytes:
    """The dataset archive, plus the summary for a fleet result."""
    if isinstance(output, CharacterizationDataset):
        output.to_json(path)
        return path.read_bytes()
    output.dataset.to_json(path)
    summary = path.with_suffix(".result.json")
    output.to_json(summary)
    return path.read_bytes() + summary.read_bytes()


def run_child(kind: str, campaign_dir: Path, kill_after: int) -> int:
    """One doomed campaign in a subprocess; returns its exit code.

    The child gets its own session (= process group) so the pool
    workers that outlive their SIGKILLed parent can be reaped — they
    would otherwise leak and hold inherited pipes open.  Output goes to
    /dev/null for the same reason: a captured pipe would never see EOF.
    """
    env = dict(os.environ)
    env[KILL_VAR] = str(kill_after)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--child", kind,
         str(campaign_dir)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        code = child.wait(timeout=120)
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    return code


def resume(kind: str, campaign_dir: Path):
    metrics = MetricsRegistry()
    with use_metrics(metrics):
        output = campaign(kind, campaign_dir).run()
    return output, metrics.snapshot()["counters"]


def kill_drills(kind: str, baseline: bytes, scratch: Path) -> int:
    failures = 0
    for kill_after in range(1, SHARDS + 1):
        campaign_dir = scratch / f"{kind}-kill-{kill_after}"
        code = run_child(kind, campaign_dir, kill_after)
        problems = []
        if code != -signal.SIGKILL:
            problems.append(f"child exited {code}, expected SIGKILL")
        archives = sorted(campaign_dir.glob("shard_*.json"))
        if len(archives) != kill_after:
            problems.append(f"{len(archives)} archives on disk, "
                            f"expected {kill_after}")
        for archive in archives:
            try:
                read_artifact(archive, kind="shard")
            except Exception as error:  # torn archive = atomicity broken
                problems.append(f"{archive.name} failed verification: "
                                f"{error}")
        if not problems:
            output, counters = resume(kind, campaign_dir)
            if counters.get("campaign.checkpoint_loads") != kill_after:
                problems.append(
                    f"resume loaded "
                    f"{counters.get('campaign.checkpoint_loads', 0)} "
                    f"checkpoints, expected {kill_after}")
            healed = output_bytes(output, campaign_dir / "final.json")
            if healed != baseline:
                problems.append("resumed output differs from baseline")
        verdict = "ok" if not problems else "FAIL: " + "; ".join(problems)
        print(f"{kind}: kill after {kill_after}/{SHARDS} shard writes ... "
              f"{verdict}")
        failures += bool(problems)
    return failures


def quarantine_drill(kind: str, baseline: bytes, scratch: Path) -> int:
    campaign_dir = scratch / f"{kind}-quarantine"
    campaign(kind, campaign_dir).run()
    victim = campaign_dir / "shard_00003.json"
    raw = bytearray(victim.read_bytes())
    raw[-16] ^= 0x04
    victim.write_bytes(bytes(raw))

    output, counters = resume(kind, campaign_dir)
    problems = []
    if counters.get("campaign.recovered_shards") != 1:
        problems.append(f"recovered_shards="
                        f"{counters.get('campaign.recovered_shards', 0)}, "
                        f"expected 1")
    if not (campaign_dir / "shard_00003.json.corrupt").exists():
        problems.append("no *.corrupt quarantine file")
    if output_bytes(output, campaign_dir / "final.json") != baseline:
        problems.append("healed output differs from baseline")
    verdict = "ok" if not problems else "FAIL: " + "; ".join(problems)
    print(f"{kind}: bit-flipped archive quarantined and recomputed ... "
          f"{verdict}")
    return bool(problems)


def child_main(kind: str, campaign_dir: str) -> int:
    """The doomed campaign: runs until the durable store kills it."""
    campaign(kind, Path(campaign_dir)).run()
    return 0  # only reached if the kill hook failed to fire


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Kill a live sweep and fleet at every shard boundary "
                    "and assert resume is byte-identical.")
    parser.add_argument("--child", nargs=2, metavar=("KIND", "CAMPAIGN_DIR"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--keep", metavar="DIR", type=Path,
                        help="run drills under DIR and keep the state "
                             "(default: a temp dir, removed on success)")
    args = parser.parse_args(argv)
    if args.child:
        return child_main(*args.child)

    scratch = args.keep or Path(tempfile.mkdtemp(prefix="crashloop-"))
    scratch.mkdir(parents=True, exist_ok=True)
    failures = 0
    for kind in KINDS:
        baseline = output_bytes(campaign(kind).run(),
                                scratch / f"{kind}-baseline.json")
        failures += kill_drills(kind, baseline, scratch)
        failures += quarantine_drill(kind, baseline, scratch)

    if failures:
        print(f"{failures} drill(s) failed; campaign state kept in "
              f"{scratch}")
        return 1
    print(f"all {len(KINDS) * (SHARDS + 1)} crash drills passed")
    if args.keep is None:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
