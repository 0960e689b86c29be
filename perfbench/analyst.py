"""``analyst_session``: one closed-loop analyst over a checkpointed graph.

Preparation (untimed, in a child process so its memory does not count
towards this process's peak RSS) ingests the whole web into a durable
N=1 deployment and checkpoints it.  Set-up reopens that state and
builds the ``ExplorerAPI``.  Then one analyst with no think time runs
sessions back to back; a session is a fixed script of requests whose
literals come from the seed:

* Cypher through ``POST /api/cypher`` in five shapes -- ``point`` and
  ``lookup`` vary their literal over every entity name (no two queries
  share work), ``join2``, ``agg`` and ``scan`` are fixed text (shared
  work a cache could reuse);
* ``SecurityKG.keyword_search`` on threat names;
* an explorer walk: ``/api/search`` -> ``/api/expand`` x2 ->
  ``/api/collapse`` -> ``/api/back``, then ``/api/random``.

Every Cypher answer is compared with a brute-force evaluation over
``kg.graph``; keyword precision@1 must reach the E10 bar of 0.9.
"""

from __future__ import annotations

import multiprocessing
import random
from collections import Counter

from repro.core.system import SecurityKG
from repro.ui.server import ExplorerAPI

from perfbench import layers
from perfbench.harness import (
    Run,
    build_web,
    dir_bytes,
    keep_going,
    now,
    probe,
    system_config,
    timed_setup,
)
from perfbench.spans import NULL, Recorder

SETUP_REPEATS = 3
PRECISION_BAR = 0.9
EXPAND_STEPS = 2
RANDOM_SIZE = 30

#: shape -> query template ({name} is the varying literal)
SHAPES = {
    "point": 'MATCH (n) WHERE n.name = "{name}" RETURN n',
    "lookup": 'MATCH (r)-[:MENTIONS]->(n) WHERE n.name = "{name}" RETURN r.report_id',
    "join2": "MATCH (m:Malware)-[:ATTRIBUTED_TO]->(a)-[:USES]->(t) RETURN m.name, t.name",
    "agg": (
        "MATCH (a:ThreatActor)-[:USES]->(t:Technique) "
        "RETURN a.name, count(t) AS c ORDER BY c DESC, a.name LIMIT 10"
    ),
    "scan": "MATCH (m:Malware) RETURN m.name",
}
#: the Cypher part of one session, in order
SESSION_CYPHER = ("point", "lookup", "join2", "point", "lookup", "agg", "scan")
KEYWORD_PER_SESSION = 5


class Oracle:
    """Brute-force answers over the graph, computed before timing."""

    def __init__(self, graph, shapes=("join2", "agg", "scan")):
        self.graph = graph
        self.by_name: dict[str, list[int]] = {}
        for node in graph.nodes():
            self.by_name.setdefault(str(node.properties.get("name", "")), []).append(
                node.node_id
            )
        self.fixed = {shape: getattr(self, f"_{shape}")() for shape in shapes}

    def _name(self, node_id: int):
        return self.graph.node(node_id).properties.get("name")

    def _label(self, node_id: int) -> str:
        return self.graph.node(node_id).label

    def _join2(self) -> Counter:
        return Counter(
            (self._name(m.src), self._name(u.dst))
            for m in self.graph.edges("ATTRIBUTED_TO")
            if self._label(m.src) == "Malware"
            for u in self.graph.out_edges(m.dst, "USES")
        )

    def _agg(self) -> list:
        counts: Counter = Counter(
            self._name(e.src)
            for e in self.graph.edges("USES")
            if self._label(e.src) == "ThreatActor"
            and self._label(e.dst) == "Technique"
        )
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))
        return ranked[:10]

    def _scan(self) -> Counter:
        return Counter(n.properties.get("name") for n in self.graph.nodes("Malware"))

    def expected(self, shape: str, name: str | None):
        if shape == "point":
            return sorted(self.by_name.get(name, []))
        if shape == "lookup":
            return Counter(
                self.graph.node(edge.src).properties.get("report_id")
                for node_id in self.by_name.get(name, [])
                for edge in self.graph.in_edges(node_id, "MENTIONS")
            )
        return self.fixed[shape]

    @staticmethod
    def observed(shape: str, rows: list[dict]):
        if shape == "point":
            return sorted(row["n"]["id"] for row in rows)
        if shape == "lookup":
            return Counter(row["r.report_id"] for row in rows)
        if shape == "join2":
            return Counter((row["m.name"], row["t.name"]) for row in rows)
        if shape == "agg":
            return [(row["a.name"], row["c"]) for row in rows]
        return Counter(row["m.name"] for row in rows)


def _safe(name: str) -> bool:
    return bool(name) and '"' not in name and "\\" not in name


def _prepare(seed: int, state, web) -> None:
    kg = SecurityKG(system_config(seed, state), web=web)
    report = kg.run_once()
    kg.checkpoint()
    kg.close()
    passed = report.reports_ported - report.reports_rejected
    if report.reports_stored != passed or report.pipeline_errors:
        raise SystemExit(3)


def prepare_state(bench: Run, web):
    """Ingest the whole web into a checkpointed state, in a child."""
    state = bench.fresh_state()
    child = multiprocessing.get_context("fork").Process(
        target=_prepare, args=(bench.seed, state, web), name="perfbench-prepare"
    )
    child.start()
    child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"state preparation failed (exit {child.exitcode})")
    return state


def run(bench: Run, minimum: int) -> Recorder | None:
    web = build_web(bench.seed)
    bench.host_facts(partitions=1)
    state = prepare_state(bench, web)
    config = system_config(bench.seed, state)
    recorder = Recorder() if bench.trace else None
    rec = recorder or NULL

    def snapshot_open():
        with rec.span("recover") as span:
            started = now()
            kg = SecurityKG(config, web=web)
            kg.cypher(SHAPES["scan"])  # the first query answers
            bench.sample("recover_s", now() - started)
            api = ExplorerAPI(kg)
        span.attrs["nodes"] = kg.graph.node_count
        return api

    with layers.traced_replay(rec):
        api = timed_setup(
            bench, snapshot_open, SETUP_REPEATS, lambda api: api.system.close()
        )
    kg = api.system
    stored = kg.engine.ingested_count
    bench.sample("disk_bytes_per_report", dir_bytes(state) / stored)
    bench.facts["input"] = (
        f"{stored} reports, {kg.graph.node_count} nodes, "
        f"{kg.graph.edge_count} edges"
    )

    oracle = Oracle(kg.graph)
    rng = random.Random(f"analyst-{bench.seed}")
    names = sorted(n for n in oracle.by_name if _safe(n))
    rng.shuffle(names)
    malware = sorted(
        {str(n.properties["name"]) for n in kg.graph.nodes("Malware")}
        - {n for n in oracle.by_name if not _safe(n)}
    )
    rng.shuffle(malware)
    literals = iter(names * 1000)
    threats = iter(malware * 10000)

    started = now()
    sessions = 0
    hits = relevant = 0
    while keep_going(bench, started, sessions, minimum):
        traced = bench.trace and sessions % 2 == 1
        srec = recorder if traced else NULL
        undo = layers.instrument(srec, kg)
        raw_before = bench.raw_seconds
        with srec.span("session"):
            waited, found, right = _session(
                bench, api, oracle, srec, literals, threats, sessions
            )
        undo()
        hits += found
        relevant += right
        bench.sample("traced_session_ms" if traced else "session_ms", waited * 1e3)
        if not traced:
            bench.sample("raw_session_ms", (bench.raw_seconds - raw_before) * 1e3)
        sessions += 1
    precision = relevant / hits if hits else 0.0
    bench.sample("search.precision_at_1", precision)
    bench.op(
        precision >= PRECISION_BAR,
        f"keyword precision@1 {precision:.3f} is below {PRECISION_BAR}",
    )
    bench.facts["sessions"] = sessions
    kg.close()
    return recorder


def _request(bench: Run, rec, api, kind: str, path: str, body: dict):
    """One ``POST`` through ``handle_full``; returns (seconds at the
    reference host speed, payload or None)."""
    probe_s = probe()
    with rec.span(kind, request=rec.new_request()):
        started = now()
        try:
            status, payload, _headers = api.handle_full("POST", path, body)
        except Exception as error:  # noqa: BLE001 - counted as failed
            payload, status = None, repr(error)
        elapsed = bench.scaled(now() - started, probe_s)
    if not bench.op(status == 200, f"{path} {body}: {status}"):
        return elapsed, None
    return elapsed, payload


def _session(bench, api, oracle, rec, literals, threats, index):
    """One scripted analyst session; returns (seconds waited, keyword
    queries with hits, relevant top hits)."""
    waited = 0.0
    for shape in SESSION_CYPHER:
        name = next(literals) if "{name}" in SHAPES[shape] else None
        query = SHAPES[shape].format(name=name)
        elapsed, payload = _request(
            bench, rec, api, "api.cypher", "/api/cypher", {"query": query}
        )
        waited += elapsed
        bench.sample(f"cypher.{shape}_ms", elapsed * 1e3)
        bench.sample("cypher_ms", elapsed * 1e3)
        if payload is not None:
            bench.op(
                oracle.observed(shape, payload["rows"]) == oracle.expected(shape, name),
                f"cypher {shape} {name!r}: wrong rows",
            )
    found = right = 0
    for _ in range(KEYWORD_PER_SESSION):
        threat = next(threats)
        probe_s = probe()
        with rec.span("search.request", request=rec.new_request()):
            started = now()
            try:
                result = api.system.keyword_search(threat, limit=5)
            except Exception as error:  # noqa: BLE001 - counted as failed
                result = None
                bench.op(False, f"keyword {threat!r}: {error!r}")
            elapsed = bench.scaled(now() - started, probe_s)
        waited += elapsed
        bench.sample("search_ms", elapsed * 1e3)
        if result is not None and bench.op(bool(result), f"keyword {threat!r}: no hits"):
            found += 1
            top = " ".join(result[0].fields.values()).lower()
            right += threat.lower() in top
    return waited + _explore(bench, api, oracle, rec, next(threats), index), found, right


def _explore(bench, api, oracle, rec, threat, index):
    """search -> expand x2 -> collapse -> back -> random."""
    waited = 0.0

    def step(route, body):
        nonlocal waited
        elapsed, payload = _request(
            bench, rec, api, f"explore.{route}", f"/api/{route}", body
        )
        waited += elapsed
        bench.sample(f"explore.{route}_ms", elapsed * 1e3)
        bench.sample("explore_ms", elapsed * 1e3)
        if payload is not None and "view" in payload:
            bench.sample("explore.visible_nodes", len(payload["view"]["nodes"]))
        return payload

    payload = step("search", {"query": threat})
    if payload is None:
        return waited
    focus = [
        n["id"]
        for n in payload["view"]["nodes"]
        if str(n["name"]).lower() == threat.lower()
    ]
    if not bench.op(bool(focus), f"explorer search {threat!r} shows no focus node"):
        return waited
    graph = oracle.graph
    first_spawn: list[int] = []
    target = focus[0]
    for hop in range(EXPAND_STEPS):
        payload = step("expand", {"id": target})
        if payload is None:
            return waited
        spawned = payload["spawned"]
        neighbours = {n.node_id for n in graph.neighbors(target)}
        bench.op(set(spawned) <= neighbours, f"expand {target} spawned non-neighbours")
        if hop == 0:
            first_spawn = spawned
        if spawned:
            target = spawned[0]
    payload = step("collapse", {"id": focus[0]})
    if payload is not None:
        bench.op(set(first_spawn) <= set(payload["hidden"]), f"collapse {focus[0]} kept its expansion")
    payload = step("back", {})
    if payload is not None:
        bench.op(payload["moved"] is True, "back did not move")
    payload = step("random", {"size": RANDOM_SIZE, "seed": index})
    if payload is not None:
        bench.op(
            0 < len(payload["view"]["nodes"]) <= RANDOM_SIZE,
            f"random view has {len(payload['view']['nodes'])} nodes",
        )
    return waited
