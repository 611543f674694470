"""Run one suite workload in a fresh interpreter (the benchmark command).

    python3 benchmarks/suite/run.py --workload NAME [--seed N]
        [--seconds S] [--trace 0|1] [--record FILE]

Measures the code of the checkout this file sits in: it refuses to run
(exit 2, no result) when that checkout has no ``src/repro``, or when a
``REPRO_*`` variable is set — those switch the fast path, the program
cache, fault injection and worker counts, so they would change the
measured program.  See ``benchmarks/suite/harness.py`` for the rest.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main() -> int:
    source = ROOT / "src" / "repro" / "__init__.py"
    if not source.is_file():
        print(f"error: no repro sources at {source.parent}", file=sys.stderr)
        return 2
    variables = sorted(name for name in os.environ
                       if name.startswith("REPRO_"))
    if variables:
        print(f"error: {', '.join(variables)} set; unset it to benchmark "
              f"the default program", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    import repro
    if Path(repro.__file__).resolve() != source.resolve():
        print(f"error: imported repro from {repro.__file__}, not {source}",
              file=sys.stderr)
        return 2
    from benchmarks.suite.harness import main as run
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
