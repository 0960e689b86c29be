"""Command line, result files and the printed report."""

from __future__ import annotations

import argparse
import json
import sys

from perfbench import analyst, bulk, catalogue, live
from perfbench.harness import WORK, Run

RUNNERS = {
    "bulk_ingest": bulk.run,
    "analyst_session": analyst.run,
    "live_ingest": live.run,
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def execute(args: argparse.Namespace) -> tuple[Run, dict]:
    """Run the workload; returns the run and the result document."""
    bench = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    minimum = catalogue.MINIMUM[args.workload]
    if bench.trace:
        minimum = max(minimum, 2)  # at least one plain and one traced round
    try:
        recorder = RUNNERS[args.workload](bench, minimum)
    finally:
        bench.cleanup()
    result = {
        "workload": bench.workload,
        "seed": bench.seed,
        "seconds": bench.seconds,
        "trace": int(bench.trace),
        "host": bench.facts,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "problems": bench.problems,
    }
    if bench.trace:
        json_rows, table = catalogue.per_layer(bench, recorder)
        result["per_layer"] = [
            {"name": m.name, "value": v, "unit": m.unit, "base": b}
            for m, v, b in json_rows
        ]
        result["layer_table"] = [
            {"name": n, "value": v, "unit": u, "base": b} for n, v, u, b in table
        ]
        spans = WORK / "results" / f"spans-{bench.workload}-seed{bench.seed}.jsonl"
        recorder.write_jsonl(spans)
        result["spans"] = str(spans.relative_to(WORK.parent))
        result["metrics"] = {m.name: {"value": v, "unit": m.unit} for m, v, _ in json_rows}
    else:
        result["named"] = [
            {"name": n, "value": v, "unit": u, "samples": k}
            for n, v, u, k in catalogue.named(bench)
        ]
        rows = catalogue.end_to_end(bench)
        result["end_to_end"] = [
            {"name": m.name, "value": v, "unit": m.unit, "samples": k}
            for m, v, k in rows
        ]
        result["metrics"] = {m.name: {"value": v, "unit": m.unit} for m, v, _ in rows}
    return bench, result


def render(result: dict) -> list[str]:
    lines = [
        f"perfbench {result['workload']} seed={result['seed']} "
        f"seconds={result['seconds']:g} trace={result['trace']}",
        "host: " + ", ".join(f"{k}={v}" for k, v in result["host"].items()),
    ]
    if result["trace"]:
        lines.append("per-layer table (traced rounds):")
        for row in result["layer_table"]:
            lines.append(
                f"  {row['name']:<38} {row['value']:>14.4f} {row['unit']:<16} {row['base']}"
            )
        lines.append("per-layer metrics (JSON):")
        for row in result["per_layer"]:
            lines.append(
                f"  {row['name']:<38} {row['value']:>14.4f} {row['unit']:<16} {row['base']}"
            )
        lines.append(f"spans: {result['spans']}")
    else:
        lines.append("end-to-end metrics:")
        for row in result["named"]:
            lines.append(
                f"  {row['name']:<24} {row['value']:>14.4f} {row['unit']:<10} n={row['samples']}"
            )
        lines.append("benchmark roles (JSON):")
        for row in result["end_to_end"]:
            lines.append(
                f"  {row['name']:<24} {row['value']:>14.4f} {row['unit']:<10} n={row['samples']}"
            )
    lines.append(
        f"operations: {result['attempted']} attempted, {result['failed']} failed"
    )
    for problem in result["problems"]:
        lines.append(f"  FAILED: {problem}")
    return lines


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    bench, result = execute(args)
    out = WORK / "results" / f"{bench.workload}-seed{bench.seed}-trace{int(bench.trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    for line in render(result):
        print(line)
    correct = bench.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": result["metrics"],
            }
        )
    )
    sys.stdout.flush()
    return 0 if correct else 1
