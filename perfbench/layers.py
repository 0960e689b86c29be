"""Traced runs: spans around each layer's public entry points, and the
per-layer table computed from them.

Instrumentation is installed on one deployment object for one traced
round and removed afterwards, so untraced rounds run the program
exactly as shipped.  Span names map to layers through :data:`LAYER_OF`;
a layer's cost is the self time of its spans (duration minus nested
spans), and ``glue`` is the self time of the round's root spans --
program code between the wrapped calls (``run_once`` itself, for one).
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path

from repro.storage.engine import StorageEngine

from perfbench import stats
from perfbench.spans import Recorder, wrap

#: span name -> layer (module) it measures
LAYER_OF = {
    "crawl": "crawlers",
    "port": "porter",
    "check": "checker",
    "process": "pipeline",
    "store": "store",
    "checkpoint": "checkpoint",
    "recover": "recovery",
    "replay": "recovery",
    "fusion": "fusion",
    "cypher": "cypher",
    "search": "search",
    "feeds": "feeds",
    "explore": "ui",
    "api": "ui",
}

#: layers in pipeline order (the per-layer share metrics)
LAYERS = (
    "crawlers",
    "porter",
    "checker",
    "pipeline",
    "store",
    "checkpoint",
    "recovery",
    "fusion",
    "cypher",
    "search",
    "ui",
    "feeds",
    "glue",
)

def _journal_bytes(kg) -> int:
    engines = (
        [p.engine for p in kg.shards.partitions]
        if kg.shards is not None
        else [kg.engine]
    )
    total = 0
    for engine in engines:
        path = engine.journal_path
        if path is not None and Path(path).exists():
            total += Path(path).stat().st_size
    return total


def _snapshot_bytes(kg) -> int:
    roots = (
        [Path(p.engine.path) for p in kg.shards.partitions]
        if kg.shards is not None
        else [Path(kg.engine.path)]
    )
    return sum(
        path.stat().st_size for root in roots for path in root.glob("snapshot-*")
    )


class FsyncCounter:
    """Counts ``os.fsync`` calls inside :meth:`counting` (traced rounds
    only; untraced rounds call the real ``os.fsync`` directly)."""

    def __init__(self) -> None:
        self.calls = 0

    @contextlib.contextmanager
    def counting(self, active: bool = True):
        if not active:
            yield
            return
        original = os.fsync

        def fsync(fd):
            self.calls += 1
            return original(fd)

        os.fsync = fsync
        try:
            yield
        finally:
            os.fsync = original


@contextlib.contextmanager
def traced_replay(recorder: Recorder):
    """Record journal replay (``StorageEngine.replay_journal``) as a
    ``replay`` span while a traced deployment opens."""
    if not recorder.enabled:
        yield
        return
    original = StorageEngine.replay_journal

    def replay(engine, journal_path):
        with recorder.span("replay") as span:
            applied = original(engine, journal_path)
        span.attrs["records"] = applied
        return applied

    StorageEngine.replay_journal = replay
    try:
        yield
    finally:
        StorageEngine.replay_journal = original


def instrument(recorder: Recorder, kg, fsyncs: FsyncCounter | None = None):
    """Wrap every layer entry point of ``kg``; returns an undo callable
    (a no-op for the null recorder)."""
    if not recorder.enabled:
        return lambda: None
    undo = []

    def crawl_after(span, result, _state, _args):
        span.attrs.update(
            pages=result.pages_fetched,
            reports=result.article_count,
            errors=len(result.errors),
        )

    def port_after(span, result, _state, _args):
        span.attrs["reports"] = len(result)

    def check_after(span, result, _state, args):
        span.attrs.update(checked=len(args[0]), passed=len(result.passed))

    def process_after(span, result, _state, _args):
        records, pipeline = result
        span.attrs.update(
            records=len(records),
            errors=len(pipeline.errors),
            busy={s.name: s.busy_seconds for s in pipeline.stages},
            items={s.name: s.processed + s.filtered + s.errors for s in pipeline.stages},
        )

    def store_before(args, _kwargs):
        return _journal_bytes(kg), fsyncs.calls if fsyncs else 0

    def store_after(span, result, state, args):
        journal_before, fsync_before = state
        graph = result.get("graph")
        span.attrs.update(
            records=len(args[0]),
            journal_bytes=_journal_bytes(kg) - journal_before,
            fsyncs=(fsyncs.calls if fsyncs else 0) - fsync_before,
            entities_created=graph.entities_created if graph else 0,
            relations_created=graph.relations_created if graph else 0,
        )

    def checkpoint_after(span, _result, _state, _args):
        span.attrs["snapshot_bytes"] = _snapshot_bytes(kg)

    def fusion_after(span, result, _state, _args):
        span.attrs["groups_merged"] = result.groups_merged

    def cypher_after(span, result, _state, _args):
        span.attrs["rows"] = len(result)

    def search_after(span, result, _state, _args):
        span.attrs["hits"] = len(result)

    def feeds_after(span, result, cursor, _args):
        payload = result.payload or {}
        span.attrs.update(
            cursor=cursor is not None,
            mode=payload.get("mode", "none"),
            bytes=len(json.dumps(payload, separators=(",", ":"))),
        )

    undo.append(wrap(recorder, kg, "crawl", "crawl", after=crawl_after))
    undo.append(wrap(recorder, kg.porter, "port", "port", after=port_after))
    undo.append(wrap(recorder, kg.checker, "filter", "check", after=check_after))
    undo.append(wrap(recorder, kg, "process", "process", after=process_after))
    undo.append(
        wrap(recorder, kg, "store", "store", before=store_before, after=store_after)
    )
    undo.append(
        wrap(recorder, kg, "checkpoint", "checkpoint", after=checkpoint_after)
    )
    undo.append(wrap(recorder, kg, "run_fusion", "fusion", after=fusion_after))
    undo.append(wrap(recorder, kg, "cypher", "cypher", after=cypher_after))
    undo.append(
        wrap(recorder, kg, "keyword_search", "search", after=search_after)
    )
    undo.append(
        wrap(
            recorder,
            kg.feeds,
            "pull",
            "feeds",
            before=lambda _args, kwargs: kwargs.get("cursor"),
            after=feeds_after,
        )
    )

    def remove() -> None:
        for step in undo:
            step()

    return remove


# -- the per-layer table ----------------------------------------------------


def _root_of(recorder: Recorder) -> dict[int, object]:
    """Span id -> the root span it descends from."""
    by_id = {span.span_id: span for span in recorder.spans}
    roots = {}
    for span in recorder.spans:
        top = span
        while top.parent is not None:
            top = by_id[top.parent]
        roots[span.span_id] = top
    return roots


def layer_seconds(
    recorder: Recorder, roots: tuple[str, ...]
) -> tuple[dict[str, float], float]:
    """Self seconds per layer inside the traced root spans named
    ``roots``, and those roots' total duration."""
    self_times = recorder.self_times()
    root_of = _root_of(recorder)
    totals = {layer: 0.0 for layer in LAYERS}
    root_total = 0.0
    for span in recorder.spans:
        if root_of[span.span_id].name not in roots:
            continue
        base = span.name.split(".", 1)[0]
        if span.parent is None:
            root_total += span.duration
            totals["glue"] += self_times[span.span_id]
        elif base in LAYER_OF:
            totals[LAYER_OF[base]] += self_times[span.span_id]
    return totals, root_total


def step_accounting(recorder: Recorder, root: str) -> tuple[float, float, int]:
    """Median duration of the ``root`` spans and median time inside
    them that layer spans account for (self times, glue excluded), in
    seconds, with the number of such spans."""
    self_times = recorder.self_times()
    root_of = _root_of(recorder)
    inside: dict[int, float] = {}
    for span in recorder.spans:
        top = root_of[span.span_id]
        if top is not span and top.name == root:
            inside[top.span_id] = inside.get(top.span_id, 0.0) + self_times[span.span_id]
    steps = [span for span in recorder.spans if span.name == root and span.parent is None]
    return (
        stats.median([span.duration for span in steps]),
        stats.median([inside.get(span.span_id, 0.0) for span in steps]),
        len(steps),
    )


def _sum(spans, key: str) -> float:
    return float(sum(span.attrs.get(key, 0) for span in spans))


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def ingest_layers(recorder: Recorder) -> list[tuple[str, float, str, str]]:
    """crawl -> port -> check -> pipeline -> store -> checkpoint ->
    fusion rows: ``(metric, value, unit, base)``."""
    rows: list[tuple[str, float, str, str]] = []
    crawls = recorder.named("crawl")
    if not crawls:
        return rows
    pages = _sum(crawls, "pages")
    crawled = _sum(crawls, "reports")
    crawl_s = sum(s.duration for s in crawls)
    rows += [
        ("crawlers.us_per_page", _per(crawl_s * 1e6, pages), "us/page", f"{pages:.0f} pages"),
        ("crawlers.pages_per_report", _per(pages, crawled), "pages/report", f"{crawled:.0f} reports crawled"),
        ("crawlers.fetch_errors", _sum(crawls, "errors"), "count", "all traced crawls"),
    ]
    ports = recorder.named("port")
    ported = _sum(ports, "reports")
    checks = recorder.named("check")
    checked = _sum(checks, "checked")
    rows += [
        ("porter.us_per_report", _per(sum(s.duration for s in ports) * 1e6, ported), "us/report", f"{ported:.0f} reports ported"),
        ("checker.us_per_report", _per(sum(s.duration for s in checks) * 1e6, checked), "us/report", f"{checked:.0f} reports checked"),
        ("checker.pass_ratio", _per(_sum(checks, "passed"), checked), "ratio", f"passed / {checked:.0f} checked"),
    ]
    procs = recorder.named("process")
    records = _sum(procs, "records")
    rows.append(
        ("pipeline.us_per_report", _per(sum(s.duration for s in procs) * 1e6, records), "us/report", f"{records:.0f} reports out")
    )
    busy_total = sum(sum(s.attrs.get("busy", {}).values()) for s in procs)
    for stage in ("check", "parse", "extract"):
        busy = sum(s.attrs.get("busy", {}).get(stage, 0.0) for s in procs)
        items = sum(s.attrs.get("items", {}).get(stage, 0) for s in procs)
        rows += [
            (f"pipeline.{stage}.busy_us_per_report", _per(busy * 1e6, items), "us/report", f"{items} items into {stage}"),
            (f"pipeline.{stage}.busy_share", _per(busy, busy_total), "share", "of all stage busy time"),
        ]
    rows.append(("pipeline.errors", _sum(procs, "errors"), "count", "all traced pipelines"))
    stores = recorder.named("store")
    stored = _sum(stores, "records")
    base = f"{stored:.0f} reports stored"
    rows += [
        ("store.us_per_report", _per(sum(s.duration for s in stores) * 1e6, stored), "us/report", base),
        ("store.fsyncs_per_report", _per(_sum(stores, "fsyncs"), stored), "fsyncs/report", base),
        ("store.journal_bytes_per_report", _per(_sum(stores, "journal_bytes"), stored), "B/report", base),
        ("store.entities_created_per_report", _per(_sum(stores, "entities_created"), stored), "entities/report", base),
        ("store.relations_created_per_report", _per(_sum(stores, "relations_created"), stored), "relations/report", base),
    ]
    checkpoints = recorder.named("checkpoint")
    if checkpoints:
        rows += [
            ("checkpoint.ms", stats.median([s.duration * 1e3 for s in checkpoints]), "ms", f"median of {len(checkpoints)} checkpoints"),
            ("checkpoint.snapshot_bytes", stats.median([s.attrs["snapshot_bytes"] for s in checkpoints]), "B", f"median of {len(checkpoints)} checkpoints"),
        ]
    fusions = recorder.named("fusion")
    if fusions:
        rows += [
            ("fusion.ms", stats.median([s.duration * 1e3 for s in fusions]), "ms", f"median of {len(fusions)} fusions"),
            ("fusion.groups_merged", _sum(fusions, "groups_merged"), "count", f"over {len(fusions)} fusions"),
        ]
    return rows


def recovery_layers(recorder: Recorder) -> list[tuple[str, float, str, str]]:
    """Open / journal-replay rows from ``recover`` spans (attrs: nodes)
    with nested ``replay`` spans (attrs: records)."""
    recovers = recorder.named("recover")
    if not recovers:
        return []
    replays = recorder.named("replay")
    replay_s = sum(s.duration for s in replays)
    replayed = _sum(replays, "records")
    open_s = sum(s.duration for s in recovers) - replay_s
    nodes = _sum(recovers, "nodes")
    rows = [
        ("open.ms_per_1k_nodes", _per(open_s * 1e3, nodes / 1e3), "ms/1k_nodes", f"{len(recovers)} opens, {nodes:.0f} nodes"),
    ]
    if replayed:
        rows.append(
            ("recovery.us_per_journal_report", _per(replay_s * 1e6, replayed), "us/report", f"{replayed:.0f} journal records replayed")
        )
    return rows


def cypher_rows(recorder: Recorder) -> list[tuple[str, float, str, str]]:
    spans = recorder.named("cypher")
    if not spans:
        return []
    rows = _sum(spans, "rows")
    seconds = sum(s.duration for s in spans)
    return [
        ("cypher.rows_per_query", _per(rows, len(spans)), "rows/query", f"{len(spans)} queries"),
        ("cypher.us_per_row", _per(seconds * 1e6, rows), "us/row", f"{rows:.0f} rows"),
    ]


def search_rows(recorder: Recorder) -> list[tuple[str, float, str, str]]:
    spans = recorder.named("search")
    if not spans:
        return []
    return [
        ("search.hits_per_query", _per(_sum(spans, "hits"), len(spans)), "hits/query", f"{len(spans)} queries"),
    ]


def feed_layers(recorder: Recorder) -> list[tuple[str, float, str, str]]:
    spans = recorder.named("feeds")
    if not spans:
        return []
    deltas = [s for s in spans if s.attrs.get("cursor")]
    resyncs = [s for s in deltas if s.attrs.get("mode") == "full"]
    return [
        ("feeds.delta.ms_p50", stats.median([s.duration * 1e3 for s in deltas]) if deltas else 0.0, "ms", f"{len(deltas)} cursor pulls"),
        ("feeds.bytes_per_pull", _per(_sum(spans, "bytes"), len(spans)), "B/pull", f"{len(spans)} pulls"),
        ("feeds.full_resync_ratio", _per(len(resyncs), len(deltas)), "ratio", f"full bundles / {len(deltas)} cursor pulls"),
    ]
