"""Mutation checks: deliberately broken code that named tests must catch.

Each row of :data:`MUTANTS` names a file, the exact text to replace in
it, the replacement, and the test node ids that must fail once the
replacement is made.  For every mutant the tool copies ``src/``,
``tests/`` and ``pyproject.toml`` to a temporary directory, applies the
replacement there (the checkout is never touched), and runs the named
tests with ``-x``.  It exits 1 when a mutant survives (its tests pass),
when a mutant's text no longer occurs exactly once in its file — a
refactor must re-express its mutants — or when its tests cannot be
collected, or when the named tests fail on the unmutated copy (run
first, as the baseline).  A new differential or property test adds the
mutant it exists to catch.

    PYTHONPATH=src python tools/mutants.py [--list]

Plain Python: no mutation-testing package.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
#: What a mutant's copy holds, relative to the repository root.
COPIED = ("src", "tests", "pyproject.toml")
#: pytest exits 1 when a collected test failed: the mutant is killed.
#: Anything else but 0 (collection or usage errors) is a broken row.
KILLED = 1
#: Seconds one mutant's tests may run (the slowest row takes ~15 s).
TIMEOUT_S = 240


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: Tuple[str, ...]
    #: The behaviour the tests pin, in one line.
    claim: str


COUNT_BINDING = "tests/property/test_count_binding.py"
FUSED = "tests/core/test_fused_probes.py"
EQUIVALENCE = "tests/property/test_interpreter_equivalence.py"
STREAMS = ("tests/property/test_stream_replay.py::"
           "test_replays_match_the_stepped_recording")

MUTANTS: Tuple[Mutant, ...] = (
    Mutant(
        name="count-blind-stream",
        path="src/repro/engine/backend.py",
        old="                    segment.iterations if count is None "
            "else count,",
        new="                    segment.iterations,",
        tests=(f"{COUNT_BINDING}::"
               "test_prefix_loop_suffix_binding_equals_the_program_built_at_n",),
        claim="a count-bound probe runs the bound count, not the count "
              "its shape was verified at"),
    Mutant(
        name="instantiation-key-without-count",
        path="src/repro/engine/backend.py",
        old="        key = (handle.digest, binding, count)",
        new="        key = (handle.digest, binding)",
        tests=(f"{COUNT_BINDING}::"
               "test_binding_equals_the_program_built_at_the_count",),
        claim="the interpreted bypass instantiates each count of a "
              "shape, not the first one it saw"),
    Mutant(
        name="count-bound-to-first-hammer-op",
        path="src/repro/engine/backend.py",
        old=" " * 33 + "loops[0] if count is not None else None)",
        new=" " * 33 + "next(index for index, op in enumerate(outcome.ops)\n"
            + " " * 38 + "if isinstance(op, HammerOp))\n"
            + " " * 33 + "if count is not None else None)",
        tests=(f"{COUNT_BINDING}::"
               "test_prefix_loop_suffix_binding_equals_the_program_built_at_n",),
        claim="the count binds the loop's op, not a bare ACT/PRE group "
              "of the prefix"),
    Mutant(
        name="loop-cycles-over-whole-program",
        path="src/repro/engine/backend.py",
        old="        result.loop_cycles = self._apply_segments("
            "handle.segments, rows,\n"
            + " " * 50 + "count, device, result)\n",
        new="        self._apply_segments(handle.segments, rows, count, "
            "device, result)\n"
            "        result.loop_cycles = device.now - "
            "result.start_cycle\n",
        tests=(FUSED,),
        claim="a hammer test's duration is its loop's cycles, as the "
              "interpreter times them, not the whole program's"),
    Mutant(
        name="suffix-from-pre-loop-timing",
        path="src/repro/engine/backend.py",
        old="            return clocks.pop()  # the second iteration's start\n"
            "\n"
            "        def run_trailing() -> None:\n"
            "            replay((key, \"tail\"), stream.tail)\n",
        new="            period = device.now - clocks.pop()\n"
            "            replay((key, \"tail\"), stream.tail)\n"
            "            return device.now - period\n"
            "\n"
            "        def run_trailing() -> None:\n"
            "            pass\n",
        tests=(FUSED,),
        claim="the trailing iteration and the read-back run after the "
              "bulk-applied iterations, from the loop's exit state"),
    Mutant(
        name="ref-ahead-of-the-stream-before-it",
        path="src/repro/engine/backend.py",
        old="            close()\n"
            "            segments.append(Refresh(op, index in loops))\n",
        new="            segments.append(Refresh(op, index in loops))\n",
        tests=(f"{EQUIVALENCE}::test_fast_path_equals_unrolled_execution",),
        claim="a REF is applied after the straight-line ops and loops "
              "before it, not ahead of the stream they make"),
    Mutant(
        name="decoy-after-the-ref",
        path="src/repro/core/hammer.py",
        old="            if bursts.decoy_row is not None:\n"
            "                builder.act(channel, pseudo_channel, bank, "
            "bursts.decoy_row)\n"
            "                builder.pre(channel, pseudo_channel, bank)\n"
            "            builder.ref(channel, pseudo_channel)\n",
        new="            builder.ref(channel, pseudo_channel)\n"
            "            if bursts.decoy_row is not None:\n"
            "                builder.act(channel, pseudo_channel, bank, "
            "bursts.decoy_row)\n"
            "                builder.pre(channel, pseudo_channel, bank)\n",
        tests=(f"{FUSED}::test_fused_drivers_match_the_oracle",),
        claim="a refresh-bounded burst activates its decoy before the "
              "REF, so the TRR sampler holds the decoy when it fires"),
    Mutant(
        name="rowpress-without-wait",
        path="src/repro/core/hammer.py",
        old="                    if open_cycles:\n"
            "                        builder.wait(open_cycles)\n",
        new="",
        tests=(f"{FUSED}::test_fused_drivers_match_the_oracle",),
        claim="a RowPress test holds each aggressor open for its extra "
              "cycles"),
    Mutant(
        name="parity-run-joins-data-run",
        path="src/repro/dram/bank.py",
        old="        cells = bits.take(index, mode=\"clip\")\n",
        new="        cells = np.concatenate([bits, parity]).take(index, "
            "mode=\"clip\")\n",
        tests=("tests/property/test_sparse_truth.py::"
               "test_sliced_horizontal_penalty_equals_the_whole_row_formula",),
        claim="the intra-row penalty splits the data and parity bitline "
              "runs"),
    Mutant(
        name="closed-form-keeps-adds-before-a-write",
        path="src/repro/dram/disturb.py",
        old="            for side, amount in row_ops[last_reset + 1:]:\n",
        new="            for side, amount in [op for op in row_ops\n"
            "                                 if op[0] is not None]:\n",
        tests=(STREAMS,),
        claim="a row a stream writes keeps only the adds made after its "
              "last write"),
    Mutant(
        name="closed-form-guard-not-rechecked",
        path="src/repro/dram/device.py",
        old="            if form.quiet(schedule.advance):\n",
        new="            if True:\n",
        tests=(STREAMS,),
        claim="a kept closed form applies only while its restores stay "
              "below the flip guards at the current temperature"),
    Mutant(
        name="closed-form-key-without-rows",
        path="src/repro/dram/device.py",
        old="        memo_key = (shape, tuple(rows))\n",
        new="        memo_key = shape\n",
        tests=(STREAMS,),
        claim="a closed form is kept per row binding, not per stream "
              "shape"),
    Mutant(
        name="replay-hides-writes-from-trr",
        path="src/repro/dram/device.py",
        old="                                      if kind in _OPENS], entry)\n",
        new="                                      if kind == \"act\"], entry)\n",
        tests=(STREAMS,),
        claim="a replayed stream's row writes are ACTs the TRR sampler "
              "observes"),
)


def check(mutant: Mutant) -> Tuple[bool, str]:
    """Apply ``mutant`` to a fresh copy and run its tests; (killed,
    detail).  A mutant whose ``old`` is empty runs the tests unmutated
    and counts as killed when they pass (the baseline)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        copy = Path(scratch)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name,
                                ignore=shutil.ignore_patterns(
                                    "__pycache__", "*.egg-info"))
            else:
                shutil.copy2(source, copy / name)
        if mutant.old:
            target = copy / mutant.path
            text = target.read_text()
            found = text.count(mutant.old)
            if found != 1:
                return False, (f"stale: its text occurs {found} time(s) "
                               f"in {mutant.path}")
            target.write_text(text.replace(mutant.old, mutant.new))
        env = {name: value for name, value in os.environ.items()
               if not name.startswith("REPRO_")}
        env["PYTHONPATH"] = str(copy / "src")
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        try:
            completed = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q",
                 "-p", "no:cacheprovider", *mutant.tests],
                cwd=copy, env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False, f"its tests ran past {TIMEOUT_S} s"
    if not mutant.old:
        return (completed.returncode == 0,
                "unmutated tests pass" if completed.returncode == 0
                else f"unmutated tests fail (pytest exited "
                     f"{completed.returncode})")
    if completed.returncode == 0:
        return False, "survived: every named test passed"
    if completed.returncode != KILLED:
        tail = (completed.stdout + completed.stderr).strip().splitlines()
        return False, (f"pytest exited {completed.returncode}: "
                       + (tail[-1] if tail else "no output"))
    return True, "killed"


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--list", action="store_true",
                        help="print the table and exit")
    args = parser.parse_args(list(argv))
    if args.list:
        for mutant in MUTANTS:
            print(f"{mutant.name}: {mutant.path} — {mutant.claim}")
            for test in mutant.tests:
                print(f"    {test}")
        return 0
    # First the named tests on the unmutated code: a kill only means
    # something if they pass without the mutant.
    baseline = Mutant(name="baseline", path="", old="", new="",
                      tests=tuple(dict.fromkeys(
                          test for mutant in MUTANTS
                          for test in mutant.tests)),
                      claim="the named tests pass unmutated")
    failures = 0
    start = time.perf_counter()
    for mutant in (baseline, *MUTANTS):
        began = time.perf_counter()
        killed, detail = check(mutant)
        failures += not killed
        print(f"{'ok' if killed else 'FAIL'} {mutant.name}: {detail} "
              f"({time.perf_counter() - began:.1f} s)", flush=True)
    print(f"{len(MUTANTS) + 1 - failures}/{len(MUTANTS) + 1} checks "
          f"passed (the baseline and {len(MUTANTS)} mutant(s)) in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
