"""``live_ingest``: small incremental cycles beside a read burst.

An N=2 sharded durable deployment with the paper's CRF recognizer
(trained in set-up on a small seeded budget) collects the pre-rendered
web a few articles at a time.  One episode is a fresh deployment
running :data:`CYCLES` closed-loop cycles; each cycle is
``run_once(max_articles=ARTICLES)`` -- plus ``run_fusion`` and
``checkpoint`` every :data:`CHECKPOINT_EVERY` cycles -- followed by a
read burst: ``POST /api/cypher``, ``SecurityKG.keyword_search`` and an
incremental ``GET /feeds/public`` carrying the previous cursor.
Episodes repeat until the run's seconds are spent, so every sample
comes from the same graph sizes whatever the speed of the program.

Checks: exactly-once (reports stored across cycles equal the distinct
ingested report ids) and feed composition (the composed cursor deltas
equal a fresh full pull).
"""

from __future__ import annotations

from repro.core.config import SystemConfig
from repro.core.system import SecurityKG
from repro.ui.server import ExplorerAPI

from perfbench import layers
from perfbench.analyst import SHAPES, Oracle
from perfbench.harness import (
    Run,
    build_web,
    dir_bytes,
    keep_going,
    now,
    probe,
    settle,
    system_config,
    timed_setup,
)
from perfbench.spans import NULL, Recorder

PARTITIONS = 2
CYCLES = 8
ARTICLES = 4
CHECKPOINT_EVERY = 3
SETUP_REPEATS = 3
#: CRF training budget (scenarios, iterations) -- small, seeded
CRF_SCENARIOS = 4
CRF_ITERATIONS = 15
FEED_TIER = "public"
#: Cypher shapes of the read burst, rotated per cycle (fixed text)
READ_SHAPES = ("scan", "join2", "agg")
THREATS = ("ransomware", "backdoor", "phishing", "stealer", "botnet", "loader")


def train_recognizer(seed: int, web):
    config = SystemConfig(
        seed=seed,
        recognizer="crf",
        crf_training_scenarios=CRF_SCENARIOS,
        crf_max_iterations=CRF_ITERATIONS,
    )
    return SecurityKG(config, web=web)._build_recognizer()


def compose(state: dict, payload: dict) -> dict:
    """Apply one feed response to a client-side object map."""
    if payload["mode"] == "full":
        return {o["id"]: o for o in payload["bundle"]["objects"]}
    state = dict(state)
    for object_id in payload["deleted"]:
        state.pop(object_id, None)
    for obj in payload["objects"]:
        state[obj["id"]] = obj
    return state


def run(bench: Run, minimum: int) -> Recorder | None:
    web = build_web(bench.seed)
    bench.host_facts(partitions=PARTITIONS)
    bench.facts["input"] = (
        f"{web.total_reports} articles on {len(web.sites)} sources; "
        f"{CYCLES} cycles x {ARTICLES} articles per episode, fusion + "
        f"checkpoint every {CHECKPOINT_EVERY} cycles; CRF trained on "
        f"{CRF_SCENARIOS} scenarios x {CRF_ITERATIONS} iterations"
    )

    def deploy(recognizer):
        config = system_config(
            bench.seed, bench.fresh_state(), PARTITIONS, recognizer="crf"
        )
        kg = SecurityKG(config, web=web, recognizer=recognizer)
        return ExplorerAPI(kg)

    def crf_deployment():
        return deploy(train_recognizer(bench.seed, web))

    api = timed_setup(
        bench, crf_deployment, SETUP_REPEATS, lambda api: api.system.close()
    )
    recognizer = api.system.extractor.recognizer

    recorder = Recorder() if bench.trace else None
    fsyncs = layers.FsyncCounter()
    started = now()
    cycles = 0
    episode = 0
    while keep_going(bench, started, cycles, minimum):
        if episode:
            api = deploy(recognizer)
        # traced runs alternate plain and traced episodes, so the
        # overhead is measured against untraced cycles at the same
        # graph sizes
        rec = recorder if bench.trace and episode % 2 == 1 else NULL
        settle()
        with fsyncs.counting(rec.enabled):
            cycles += _episode(bench, api, rec, fsyncs, episode)
        episode += 1
    bench.facts["episodes"] = episode
    bench.facts["cycles"] = cycles
    return recorder


def _episode(bench: Run, api: ExplorerAPI, rec, fsyncs, episode: int) -> int:
    kg = api.system
    state_dir = kg.config.storage_path
    cursor = None
    client: dict = {}
    stored = 0
    traced = rec.enabled
    for cycle in range(CYCLES):
        undo = layers.instrument(rec, kg, fsyncs)
        before = probe()
        with rec.span("cycle"):
            started = now()
            report = kg.run_once(max_articles=ARTICLES)
            if cycle % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1:
                kg.run_fusion()
                kg.checkpoint()
            raw = now() - started
        # a cycle spans a few host phases: scale by probes on both sides
        freshness = bench.scaled(raw, (before + probe()) / 2)
        bench.sample("traced_cycle_s" if traced else "freshness_s", freshness)
        if not traced:
            bench.sample("raw_freshness_s", raw)
        passed = report.reports_ported - report.reports_rejected
        bench.op(
            report.reports_stored == passed
            and report.reports_skipped == 0
            and not report.pipeline_errors,
            f"episode {episode} cycle {cycle}: stored {report.reports_stored} "
            f"of {passed} passed, skipped {report.reports_skipped}",
        )
        stored += report.reports_stored
        if not traced:
            bench.sample("cycle_reports", report.reports_stored)
        with rec.span("reads"):
            cursor, client = _reads(bench, api, rec, cycle, cursor, client)
        undo()

    ids = kg.shards.ingested_ids()
    bench.op(
        stored == len(ids) == kg.shards.ingested_count,
        f"episode {episode}: {stored} reports stored but {len(ids)} "
        "distinct ids ingested",
    )
    full = kg.feeds.pull(FEED_TIER).payload
    bench.op(
        client == compose({}, full),
        f"episode {episode}: composed feed deltas differ from a full pull",
    )
    bench.sample("disk_bytes_per_report", dir_bytes(state_dir) / stored)
    _sharding(bench, kg)
    kg.close()
    return CYCLES


def _sharding(bench: Run, kg) -> None:
    """Placement balance and cross-partition duplicate entities."""
    partitions = kg.shards.partitions
    reports = [p.engine.ingested_count for p in partitions]
    bench.sample("sharding.report_skew", max(reports) / max(1, min(reports)))
    homes: dict[tuple[str, str], set[int]] = {}
    for partition in partitions:
        for node in partition.graph.nodes():
            name = str(node.properties.get("name", "")).lower()
            homes.setdefault((node.label, name), set()).add(partition.index)
    bench.sample(
        "sharding.duplicate_entities",
        sum(1 for owners in homes.values() if len(owners) > 1),
    )


def _reads(bench: Run, api: ExplorerAPI, rec, cycle: int, cursor, client):
    """One read burst; returns the new feed cursor and client state."""
    shape = READ_SHAPES[cycle % len(READ_SHAPES)]
    probe_s = probe()
    with rec.span("api.cypher", request=rec.new_request()):
        started = now()
        status, payload, _ = api.handle_full(
            "POST", "/api/cypher", {"query": SHAPES[shape]}
        )
        elapsed = bench.scaled(now() - started, probe_s)
    bench.sample("cypher_ms", elapsed * 1e3)
    if bench.op(status == 200, f"cypher {shape}: status {status}"):
        bench.op(
            Oracle.observed(shape, payload["rows"])
            == Oracle(api.system.graph, shapes=(shape,)).expected(shape, None),
            f"cypher {shape}: wrong rows",
        )

    threat = THREATS[cycle % len(THREATS)]
    probe_s = probe()
    with rec.span("search.request", request=rec.new_request()):
        started = now()
        hits = api.system.keyword_search(threat, limit=5)
        elapsed = bench.scaled(now() - started, probe_s)
    bench.sample("search_ms", elapsed * 1e3)
    scores = [hit.score for hit in hits]
    bench.op(
        scores == sorted(scores, reverse=True)
        and all(api.system.shards.is_ingested(hit.doc_id) for hit in hits),
        f"keyword {threat!r}: hits unordered or not stored reports",
    )

    path = f"/feeds/{FEED_TIER}" + (f"?cursor={cursor}" if cursor else "")
    probe_s = probe()
    with rec.span("api.feeds", request=rec.new_request()):
        started = now()
        status, payload, headers = api.handle_full("GET", path)
        elapsed = bench.scaled(now() - started, probe_s)
    bench.sample("feed_ms", elapsed * 1e3)
    if bench.op(status == 200, f"feed pull: status {status}"):
        client = compose(client, payload)
        cursor = headers.get("X-Feed-Cursor")
    return cursor, client
