"""Run one SecurityKG benchmark workload.

    python3 perfbench/run.py --workload bulk_ingest --seed 1 --seconds 30 --trace 0

Prints the workload's end-to-end metrics by name (unit, sample count),
or with ``--trace 1`` its per-layer table and tracing overhead, then
as the last line one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Results and spans are written under
``.perfbench/results/``.  Exits 1 when an answer was wrong, 2 when the
program is missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no SecurityKG sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.report import main as report_main

    return report_main(argv)


if __name__ == "__main__":
    sys.exit(main())
