"""``bulk_ingest``: a cold durable N=1 deployment ingests the web.

One round: a fresh deployment ingests 400 of the web's 420 articles in
one ``run_once`` and checkpoints (the cold cycle); a second
``run_once`` picks up the remaining articles into the journal only; the
deployment is closed *without* a checkpoint and reopened from snapshot
+ journal until the first query answers (recovery).  A seeded sample
of the stored reports is looked up by id after the cold cycle, after
the second cycle and on the recovered store.  Rounds repeat until the
run's seconds are spent.
"""

from __future__ import annotations

import random

from repro.core.system import SecurityKG

from perfbench import layers
from perfbench.harness import (
    Run,
    build_web,
    dir_bytes,
    fingerprint,
    keep_going,
    now,
    probe,
    search_doc_count,
    settle,
    system_config,
    timed_setup,
)
from perfbench.spans import NULL, Recorder

#: articles the cold cycle collects; the second cycle takes the rest
COLD_ARTICLES = 400
#: stored reports looked up on the recovered store per round
LOOKUPS = 150
SETUP_REPEATS = 25


def lookup_query(report_id: str) -> str:
    return f'MATCH (r) WHERE r.report_id = "{report_id}" RETURN r.report_id'


def _stored_ok(bench: Run, report, what: str) -> bool:
    passed = report.reports_ported - report.reports_rejected
    return bench.op(
        report.reports_stored == passed
        and report.reports_skipped == 0
        and not report.pipeline_errors,
        f"{what}: stored {report.reports_stored} of {passed} passed, "
        f"skipped {report.reports_skipped}, "
        f"pipeline errors {len(report.pipeline_errors)}",
    )


def run(bench: Run, minimum: int) -> Recorder | None:
    web = build_web(bench.seed)
    bench.host_facts(partitions=1)
    bench.facts["input"] = (
        f"{web.total_reports} articles on {len(web.sites)} sources; "
        f"the cold cycle collects {COLD_ARTICLES}"
    )

    def empty_open():
        return SecurityKG(system_config(bench.seed, bench.fresh_state()), web=web)

    timed_setup(bench, empty_open, SETUP_REPEATS, SecurityKG.close).close()

    recorder = Recorder() if bench.trace else None
    fsyncs = layers.FsyncCounter()
    rng = random.Random(f"bulk-{bench.seed}")
    started = now()
    rounds = 0
    while keep_going(bench, started, rounds, minimum):
        # traced runs alternate plain and traced rounds, so the
        # overhead is measured against untraced rounds of the same run
        rec = recorder if bench.trace and rounds % 2 == 1 else NULL
        settle()
        with fsyncs.counting(rec.enabled):
            _round(bench, web, rec, fsyncs, rng)
        rounds += 1
    bench.facts["rounds"] = rounds
    return recorder


def _round(bench: Run, web, rec, fsyncs, rng: random.Random) -> None:
    state = bench.fresh_state()
    config = system_config(bench.seed, state)
    kg = SecurityKG(config, web=web)
    undo = layers.instrument(rec, kg, fsyncs)
    with rec.span("ingest"):
        started = now()
        cold = kg.run_once(max_articles=COLD_ARTICLES)
        kg.checkpoint()
        cycle_s = now() - started
    bench.sample("traced_cycle_s" if rec.enabled else "cycle_s", cycle_s)
    if _stored_ok(bench, cold, "cold cycle") and cold.reports_stored:
        bench.sample("ingest_reports_per_s", cold.reports_stored / cycle_s)
        bench.sample("disk_bytes_per_report", dir_bytes(state) / cold.reports_stored)
    # lookups run in three short batches spread over the round, so the
    # latency samples do not all fall into one burst of host contention
    _lookups(bench, rec, kg, rng)
    with rec.span("catchup"):
        second = kg.run_once()
    _stored_ok(bench, second, "journal-only cycle")
    _lookups(bench, rec, kg, rng)
    expected = (fingerprint(kg), search_doc_count(kg), kg.engine.ingested_ids())
    undo()
    kg.close()  # no checkpoint: the second cycle lives in the journal only

    with rec.span("reopen"), layers.traced_replay(rec):
        with rec.span("recover") as recover:
            started = now()
            kg = SecurityKG(config, web=web)
            first = kg.cypher(lookup_query(expected[2][0]))
            recover_s = now() - started
        recover.attrs["nodes"] = kg.graph.node_count
    bench.sample("recover_s", recover_s)
    bench.op(
        len(first) == 1
        and (fingerprint(kg), search_doc_count(kg), kg.engine.ingested_ids())
        == expected,
        "the journal reopen changed the graph, the search index or the "
        "ingest markers",
    )
    undo = layers.instrument(rec, kg, fsyncs)
    _lookups(bench, rec, kg, rng)
    undo()
    kg.close()
    bench.drop_state(state)


def _lookups(bench: Run, rec, kg, rng: random.Random) -> None:
    """Look a seeded sample of the stored reports up by id."""
    stored = kg.engine.ingested_ids()
    with rec.span("verify"):
        for report_id in rng.sample(stored, min(LOOKUPS // 3, len(stored))):
            probe_s = probe()
            started = now()
            try:
                rows = kg.cypher(lookup_query(report_id))
            except Exception as error:  # noqa: BLE001 - counted as failed
                bench.op(False, f"lookup {report_id}: {error!r}")
                continue
            elapsed = bench.scaled(now() - started, probe_s)
            if bench.op(
                [row["r.report_id"] for row in rows] == [report_id],
                f"lookup {report_id} returned {len(rows)} rows",
            ):
                bench.sample("lookup_ms", elapsed * 1e3)
