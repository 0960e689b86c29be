"""Every metric the benchmark reports, and how each is computed.

Two levels:

* :data:`END_TO_END` and :data:`PER_LAYER` are the metrics of the
  final JSON line (``--trace 0`` and ``--trace 1``).  Every workload
  reports every one of them, so each is defined by its *role*, filled
  by each workload as :data:`ROLES` says; ``BENCHMARK.json`` declares
  exactly these names and units.
* :data:`NAMED` lists, per workload, the end-to-end metrics under their
  user-facing names (``ingest_reports_per_s``, ``cypher_ms_p90``,
  ``feed_ms_p50`` ...), printed with unit and sample count above the
  JSON line and saved with the run's results.  The per-layer table of a
  traced run is built in :mod:`perfbench.layers`.
"""

from __future__ import annotations

from dataclasses import dataclass

from perfbench import layers, stats
from perfbench.harness import Run, peak_rss_mb

WORKLOADS = ("bulk_ingest", "analyst_session", "live_ingest")

#: smallest unit of work per run: enough samples for every p90
MINIMUM = {"bulk_ingest": 1, "analyst_session": 100, "live_ingest": 100}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


#: bounds: about three times the largest run-to-run spread seen over
#: ten seeds on the noisy 2-vCPU reference host, capped at 0.25
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("throughput_per_s", "1/s", "higher", 0.25),
    Metric("latency_ms_p50", "ms", "lower", 0.2),
    Metric("latency_ms_p90", "ms", "lower", 0.25),
    Metric("disk_bytes_per_report", "B", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

#: role -> (bulk_ingest, analyst_session, live_ingest) sample series
ROLES = {
    "throughput_per_s": ("ingest_reports_per_s", "requests_per_s", "ingest_reports_per_s"),
    "latency_ms": ("lookup_ms", "session_ms", "freshness_ms"),
}

PER_LAYER = (
    (Metric("trace_overhead", "ratio", "lower"),)
    + tuple(Metric(f"{layer}.share", "share", "lower") for layer in layers.LAYERS)
    + tuple(
        Metric(f"pipeline.{stage}.busy_share", "share", "lower")
        for stage in ("check", "parse", "extract")
    )
    + (Metric("cypher.us_per_row", "us/row", "lower"),)
)

#: user-facing end-to-end metrics per workload: name -> unit
NAMED = {
    "bulk_ingest": {
        "setup_s": "s",
        "ingest_reports_per_s": "reports/s",
        "recover_s": "s",
        "lookup_ms_p50": "ms",
        "lookup_ms_p90": "ms",
        "disk_bytes_per_report": "B",
        "peak_rss_mb": "MB",
        "probe_us_p50": "us",
    },
    "analyst_session": {
        "setup_s": "s",
        "cypher_ms_p50": "ms",
        "cypher_ms_p90": "ms",
        "search_ms_p50": "ms",
        "search_ms_p90": "ms",
        "explore_ms_p50": "ms",
        "explore_ms_p90": "ms",
        "peak_rss_mb": "MB",
        "probe_us_p50": "us",
    },
    "live_ingest": {
        "setup_s": "s",
        "ingest_reports_per_s": "reports/s",
        "freshness_s_p50": "s",
        "freshness_s_p90": "s",
        "cypher_ms_p50": "ms",
        "cypher_ms_p90": "ms",
        "search_ms_p50": "ms",
        "search_ms_p90": "ms",
        "feed_ms_p50": "ms",
        "feed_ms_p90": "ms",
        "disk_bytes_per_report": "B",
        "peak_rss_mb": "MB",
        "probe_us_p50": "us",
    },
}


def _series(run: Run, name: str) -> list[float]:
    if name == "requests_per_s":
        # requests answered / seconds spent answering, over the run
        waits = [run.values(f"{kind}_ms") for kind in ("cypher", "search", "explore")]
        seconds = sum(sum(w) for w in waits) / 1e3
        return [sum(len(w) for w in waits) / seconds] if seconds else []
    if name == "freshness_ms":
        return [v * 1e3 for v in run.values("freshness_s")]
    if name == "ingest_reports_per_s" and run.workload == "live_ingest":
        # reports / cycle time over the whole run, one value
        seconds = sum(run.values("freshness_s"))
        return [sum(run.values("cycle_reports")) / seconds] if seconds else []
    return run.values(name)


def _stat(values: list[float], name: str) -> float:
    if name.endswith("_p90"):
        return stats.percentile(values, 0.9)
    return stats.median(values)


def named(run: Run) -> list[tuple[str, float, str, int]]:
    """``(name, value, unit, samples)`` of the workload's named metrics."""
    rows = []
    for name, unit in NAMED[run.workload].items():
        if name == "peak_rss_mb":
            rows.append((name, peak_rss_mb(), unit, 1))
            continue
        base = name.removesuffix("_p50").removesuffix("_p90")
        values = _series(run, base)
        rows.append((name, _stat(values, name), unit, len(values)))
    return rows


def end_to_end(run: Run) -> list[tuple[Metric, float, int]]:
    """``(metric, value, samples)`` for every :data:`END_TO_END` metric."""
    column = WORKLOADS.index(run.workload)
    rows = []
    for metric in END_TO_END:
        if metric.name == "peak_rss_mb":
            rows.append((metric, peak_rss_mb(), 1))
            continue
        base = metric.name.removesuffix("_p50").removesuffix("_p90")
        series = ROLES[base][column] if base in ROLES else base
        values = _series(run, series)
        rows.append((metric, _stat(values, metric.name), len(values)))
    return rows


def per_layer(run: Run, recorder) -> tuple[list[tuple[Metric, float, str]], list]:
    """The JSON per-layer metrics (with their bases) and the workload's
    full per-layer table ``(name, value, unit, base)``."""
    roots = {
        "bulk_ingest": ("ingest", "catchup", "reopen", "verify"),
        "analyst_session": ("session",),
        "live_ingest": ("cycle", "reads"),
    }[run.workload]
    seconds, traced_total = layers.layer_seconds(recorder, roots)
    # (step span, untraced series, traced series, untraced raw-seconds
    # series, seconds per unit); analyst sessions and live cycles are
    # probe-scaled, so the overhead compares scaled steps and the
    # accounting raw ones
    step, plain, traced, raw, scale = {
        "bulk_ingest": ("ingest", "cycle_s", "traced_cycle_s", "cycle_s", 1.0),
        "analyst_session": (
            "session", "session_ms", "traced_session_ms", "raw_session_ms", 1e-3
        ),
        "live_ingest": (
            "cycle", "freshness_s", "traced_cycle_s", "raw_freshness_s", 1.0
        ),
    }[run.workload]
    overhead = stats.median(run.values(traced)) / stats.median(run.values(plain))
    plain_s = stats.median(run.values(raw)) * scale
    step_s, inside_s, steps = layers.step_accounting(recorder, step)

    table = (
        layers.ingest_layers(recorder)
        + layers.recovery_layers(recorder)
        + layers.cypher_rows(recorder)
        + layers.search_rows(recorder)
        + layers.feed_layers(recorder)
    )
    table += _workload_rows(run)
    table += [
        (f"{step}.untraced_ms", plain_s * 1e3, "ms", f"median of {len(run.values(raw))} untraced {step} steps"),
        (f"{step}.traced_ms", step_s * 1e3, "ms", f"median of {steps} traced {step} spans"),
        (f"{step}.layers_ms", inside_s * 1e3, "ms", f"layer self time inside those spans (the rest is glue)"),
        (f"{step}.layers_over_untraced", inside_s / plain_s, "ratio", "layer self time / untraced step time"),
    ]
    by_name = {row[0]: row for row in table}
    share_base = f"of {traced_total:.3f} s traced in {', '.join(roots)} spans"
    json_rows = []
    for metric in PER_LAYER:
        layer = metric.name.removesuffix(".share")
        if metric.name == "trace_overhead":
            json_rows.append((metric, overhead, f"median traced {traced} / median plain {plain}"))
        elif layer in seconds:
            share = seconds[layer] / traced_total if traced_total else 0.0
            json_rows.append((metric, share, share_base))
        else:
            row = by_name.get(metric.name)
            json_rows.append((metric, row[1] if row else 0.0, row[3] if row else "layer idle"))
    return json_rows, table


def _workload_rows(run: Run) -> list[tuple[str, float, str, str]]:
    rows = []
    if run.workload == "analyst_session":
        for shape in ("point", "lookup", "join2", "agg", "scan"):
            values = run.values(f"cypher.{shape}_ms")
            rows.append((f"cypher.{shape}.ms_p50", stats.median(values), "ms", f"{len(values)} queries"))
        precision = run.values("search.precision_at_1")
        rows.append(("search.precision_at_1", precision[-1], "ratio", "relevant top hits / keyword queries with hits"))
        for route in ("search", "expand", "collapse", "back", "random"):
            values = run.values(f"explore.{route}_ms")
            rows.append((f"explore.{route}.ms_p50", stats.median(values), "ms", f"{len(values)} requests"))
        visible = run.values("explore.visible_nodes")
        rows.append(("explore.visible_nodes_mean", stats.mean(visible), "nodes", f"{len(visible)} views"))
    if run.workload == "live_ingest":
        skew = run.values("sharding.report_skew")
        duplicates = run.values("sharding.duplicate_entities")
        rows += [
            ("sharding.report_skew", stats.median(skew), "ratio", f"max / min reports per partition, median of {len(skew)} episodes"),
            ("sharding.duplicate_entities", stats.median(duplicates), "count", f"label+name on >1 partition, median of {len(duplicates)} episodes"),
        ]
    return rows
