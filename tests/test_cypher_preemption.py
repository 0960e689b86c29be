"""Preemptable Cypher execution: planner, iterators, pagination, UI.

The core contract under test: a physical plan run slice-by-slice --
suspended at arbitrary safe points and resumed from its JSON-safe
continuation -- produces byte-identical rows to the same plan run in
one uninterrupted pull, which in turn matches the deliberately naive
nested-loop oracle in ``cypher_oracle`` (no anchoring, index use, join
reordering or filter pushdown), at one partition and at two.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cypher_oracle import naive_run
from repro.graphdb import CypherEngine, CypherRuntimeError, PropertyGraph
from repro.graphdb.cypher.iterators import ExecutionContext
from repro.graphdb.cypher.parser import parse
from repro.graphdb.cypher.planner import build_plan
from repro.sharding import ShardedCypherEngine


def build_graph(id_base: int = 0, malware: int = 18) -> PropertyGraph:
    graph = PropertyGraph(id_base=id_base)
    actors = []
    for i in range(4):
        actors.append(
            graph.create_node("ThreatActor", {"name": f"actor-{i}"})
        )
    techniques = []
    for i in range(6):
        techniques.append(
            graph.create_node("Technique", {"name": f"tech-{i}"})
        )
    for i in range(malware):
        node = graph.create_node(
            "Malware", {"name": f"mal-{i:02d}", "year": 2000 + (i % 7)}
        )
        graph.create_edge(
            node.node_id, "ATTRIBUTED_TO", actors[i % len(actors)].node_id
        )
        graph.create_edge(
            node.node_id, "USES", techniques[i % len(techniques)].node_id
        )
        if i % 3 == 0:
            graph.create_edge(
                node.node_id, "CONNECTS_TO", techniques[(i + 1) % 6].node_id
            )
    for actor, tech in zip(actors, techniques):
        graph.create_edge(actor.node_id, "USES", tech.node_id)
    return graph


@pytest.fixture(scope="module")
def graph():
    return build_graph()


@pytest.fixture(scope="module")
def engine(graph):
    return CypherEngine(graph)


@pytest.fixture(scope="module")
def partitions():
    """Two partitions with disjoint ids and different contents."""
    return [build_graph(), build_graph(id_base=1_000_000, malware=11)]


@pytest.fixture(params=[1, 2], ids=["N=1", "N=2"])
def deployment(request, engine, partitions):
    """The engine at one partition and at two."""
    if request.param == 1:
        return engine
    return ShardedCypherEngine([CypherEngine(g) for g in partitions])


# Query shapes covering every physical operator: scans (all/label/
# index), expansions (single and variable-length, both directions),
# filters, projection, aggregation, ORDER BY, DISTINCT, SKIP/LIMIT.
QUERIES = [
    "MATCH (n) RETURN n.name",
    "MATCH (m:Malware) RETURN m.name",
    'MATCH (m:Malware {name: "mal-07"}) RETURN m.year',
    "MATCH (m:Malware) WHERE m.year > 2003 RETURN m.name, m.year",
    "MATCH (m:Malware)-[:ATTRIBUTED_TO]->(a:ThreatActor) "
    "RETURN m.name, a.name",
    "MATCH (a:ThreatActor)<-[:ATTRIBUTED_TO]-(m:Malware) "
    'WHERE a.name = "actor-1" RETURN m.name',
    "MATCH (m:Malware)-[:ATTRIBUTED_TO]->(a)-[:USES]->(t:Technique) "
    "RETURN m.name, t.name",
    "MATCH (m:Malware)-[:CONNECTS_TO*1..2]->(x) RETURN m.name, x.name",
    "MATCH (a:ThreatActor) RETURN a.name, count(a) ORDER BY a.name",
    "MATCH (m:Malware)-[:ATTRIBUTED_TO]->(a) "
    "RETURN a.name, count(m), collect(m.name) ORDER BY a.name",
    "MATCH (m:Malware) RETURN avg(m.year), min(m.year), max(m.year), "
    "sum(m.year)",
    "MATCH (m:Malware) RETURN count(DISTINCT m.year)",
    "MATCH (m:Malware) RETURN DISTINCT m.year ORDER BY m.year",
    "MATCH (m:Malware) RETURN m.name ORDER BY m.year DESC, m.name "
    "SKIP 3 LIMIT 5",
    "MATCH (m:Malware), (a:ThreatActor) "
    "RETURN m.name, a.name ORDER BY m.name, a.name LIMIT 7",
]

# ORDER BY an aggregate that RETURN projects under an alias: the sort
# must use the projected value.  (query, alias, ascending)
ORDER_BY_AGGREGATE = [
    (
        "MATCH (m:Malware)-[:ATTRIBUTED_TO]->(a) "
        "RETURN a.name, count(m) AS c ORDER BY count(m), a.name",
        "c",
        True,
    ),
    (
        "MATCH (x)-[:USES]->(t:Technique) "
        "RETURN t.name, count(*) AS n ORDER BY count(*), t.name",
        "n",
        True,
    ),
    (
        "MATCH (m:Malware)-[:ATTRIBUTED_TO]->(a) "
        "RETURN a.name, max(m.year) AS latest "
        "ORDER BY max(m.year) DESC, a.name",
        "latest",
        False,
    ),
]

ORACLE_QUERIES = QUERIES + [query for query, _a, _asc in ORDER_BY_AGGREGATE]

# The scatter-gather sort sees projected rows only, so across
# partitions ORDER BY must name a returned value (m.year is not).
GATHER_CANNOT_ORDER = {
    "MATCH (m:Malware) RETURN m.name ORDER BY m.year DESC, m.name "
    "SKIP 3 LIMIT 5",
}


def values(rows):
    return [row.values for row in rows]


def fingerprint(rows, query):
    """Canonical result fingerprint for engine-vs-oracle parity.

    ``rows`` are ``alias -> value`` dicts.  With ORDER BY the row
    sequence is fully determined by the query, so the fingerprint is
    the exact list.  Without it Cypher leaves row order unspecified and
    the cost-based planner may legitimately enumerate a join in a
    different (but set-equal) order than the oracle's nested loops, so
    the fingerprint is order-insensitive.
    """
    printable = [repr(sorted(row.items())) for row in rows]
    if "ORDER BY" in query.upper():
        return printable
    return sorted(printable)


def run_sliced(engine, query, steps_per_slice, roundtrip=True):
    """Run preemptably, suspending every ``steps_per_slice`` ticks.

    Between slices the whole execution state is serialised to JSON and
    reloaded into a brand-new task, which is the strongest version of
    the resume contract (nothing survives in memory).
    """
    context = ExecutionContext(steps_per_slice=steps_per_slice)
    task = engine.task(query, context=context)
    rows = []
    continuation = None
    while True:
        if roundtrip and continuation is not None:
            task = engine.task(
                query, context=ExecutionContext(steps_per_slice=steps_per_slice)
            )
            task.load(json.loads(json.dumps(continuation)))
        rows.extend(task.step())
        continuation = task.save()
        if continuation is None:
            return rows


class TestSliceParity:
    @pytest.mark.parametrize("query", QUERIES)
    def test_single_step_slices_match_unsliced(self, engine, query):
        """Suspending at EVERY safe point changes nothing."""
        unsliced = engine.task(query).run_to_completion()
        sliced = run_sliced(engine, query, steps_per_slice=1)
        assert values(sliced) == values(unsliced)

    @pytest.mark.parametrize("query", ORACLE_QUERIES)
    def test_preemptable_matches_eager(self, graph, engine, query):
        """The operator tree agrees with the naive (eager, nested-loop)
        oracle, so join reordering, filter pushdown and index-scan
        choice are checked against code that shares none of them."""
        preemptable = engine.task(query).run_to_completion()
        assert fingerprint(values(preemptable), query) == fingerprint(
            naive_run([graph], query), query
        )

    @pytest.mark.parametrize("query", ORACLE_QUERIES)
    def test_sharded_matches_naive_oracle(self, partitions, query):
        engine = ShardedCypherEngine([CypherEngine(g) for g in partitions])
        if query in GATHER_CANNOT_ORDER:
            with pytest.raises(CypherRuntimeError, match="returned values"):
                engine.run(query)
            return
        assert fingerprint(values(engine.run(query)), query) == fingerprint(
            naive_run(partitions, query), query
        )

    @settings(max_examples=40, deadline=None)
    @given(
        query=st.sampled_from(QUERIES),
        steps=st.integers(min_value=1, max_value=23),
    )
    def test_any_slice_size_is_byte_identical(self, query, steps):
        # Fresh engine per example: hypothesis shrinks across examples
        # and module-scoped state must not leak between them.
        graph = build_graph()
        engine = CypherEngine(graph)
        unsliced = engine.task(query).run_to_completion()
        sliced = run_sliced(engine, query, steps_per_slice=steps)
        assert values(sliced) == values(unsliced)
        assert fingerprint(values(sliced), query) == fingerprint(
            naive_run([graph], query), query
        )

    def test_pagination_matches_eager_at_many_page_sizes(self, graph, engine):
        query = (
            "MATCH (m:Malware)-[:ATTRIBUTED_TO]->(a) "
            "RETURN m.name, a.name ORDER BY m.name"
        )
        expected = naive_run([graph], query)
        for page_size in (1, 2, 3, 7, 100):
            rows = []
            continuation = None
            while True:
                page = engine.run_paginated(
                    query, page_size, continuation=continuation
                )
                rows.extend(values(page.rows))
                continuation = page.continuation
                if continuation is None:
                    break
                # the wire format is JSON: round-trip every hop
                continuation = json.loads(json.dumps(continuation))
            assert rows == expected, f"page_size={page_size}"

    def test_continuation_is_json_safe(self, engine):
        task = engine.task(
            "MATCH (m:Malware)-[:USES]->(t) RETURN m.name, t.name",
            context=ExecutionContext(steps_per_slice=2),
        )
        task.step()
        continuation = task.save()
        assert continuation is not None
        json.dumps(continuation)  # must not raise

    def test_stale_plan_continuation_rejected(self, engine):
        task = engine.task(
            "MATCH (m:Malware) RETURN m.name",
            context=ExecutionContext(steps_per_slice=1),
        )
        task.step()
        continuation = task.save()
        other = engine.task("MATCH (a:ThreatActor) RETURN a.name")
        with pytest.raises(CypherRuntimeError, match="does not match"):
            other.load(continuation)


class TestOrderByAggregate:
    @pytest.mark.parametrize(
        "query,alias,ascending",
        ORDER_BY_AGGREGATE,
        ids=["count", "count(*)", "max"],
    )
    def test_sorts_on_the_projected_aggregate(
        self, deployment, query, alias, ascending
    ):
        column = [row[alias] for row in deployment.run(query)]
        assert column == sorted(column, reverse=not ascending)
        assert len(set(column)) > 1  # the ordering is not vacuous

    def test_numbers_sort_numerically(self):
        graph = PropertyGraph()
        for name, uses in (("small", 9), ("large", 12)):
            actor = graph.create_node("ThreatActor", {"name": name})
            for i in range(uses):
                tech = graph.create_node("Technique", {"name": f"{name}-{i}"})
                graph.create_edge(actor.node_id, "USES", tech.node_id)
        rows = CypherEngine(graph).run(
            "MATCH (a:ThreatActor)-[:USES]->(t) "
            "RETURN a.name, count(t) AS c ORDER BY c DESC"
        )
        assert values(rows) == [
            {"a.name": "large", "c": 12},
            {"a.name": "small", "c": 9},
        ]


class TestPlanner:
    def plan_lines(self, graph, query):
        plan = build_plan(parse(query), graph)
        return plan.explain_lines()

    def test_indexed_equality_uses_index_scan(self, graph):
        lines = self.plan_lines(
            graph, 'MATCH (m:Malware {name: "mal-03"}) RETURN m'
        )
        assert any("IndexScan" in line for line in lines)
        assert not any("LabelScan" in line for line in lines)

    def test_where_equality_on_indexed_property_uses_index(self, graph):
        lines = self.plan_lines(
            graph, 'MATCH (m:Malware) WHERE m.name = "mal-03" RETURN m'
        )
        assert any("IndexScan" in line for line in lines)

    def test_unindexed_property_falls_back_to_label_scan(self, graph):
        # ``year`` is not in INDEXED_PROPERTIES: no index to use.
        lines = self.plan_lines(
            graph, "MATCH (m:Malware {year: 2003}) RETURN m"
        )
        assert any("LabelScan" in line for line in lines)
        assert not any("IndexScan" in line for line in lines)

    def test_unlabelled_scan_is_all_nodes(self, graph):
        lines = self.plan_lines(graph, "MATCH (n) RETURN n.name")
        assert any("AllNodesScan" in line for line in lines)

    def test_cartesian_join_orders_smaller_side_first(self, graph):
        # 4 ThreatActor vs 18 Malware: the cheaper scan must run first
        # (deeper in the tree), so the expensive side is the outer loop
        # driven once per cheap row -- never the other way round.
        lines = self.plan_lines(
            graph, "MATCH (m:Malware), (a:ThreatActor) RETURN m.name, a.name"
        )
        actor_depth = next(
            line.index("LabelScan") for line in lines if "ThreatActor" in line
        )
        malware_depth = next(
            line.index("LabelScan") for line in lines if "Malware" in line
        )
        assert actor_depth > malware_depth

    def test_disconnected_paths_start_from_cheapest_anchor(self, graph):
        # The indexed single-row anchor is planned before the label scan
        # even though it is written second.
        lines = self.plan_lines(
            graph,
            'MATCH (m:Malware), (a:ThreatActor {name: "actor-2"}) '
            "RETURN m.name, a.name",
        )
        index_at = next(
            i for i, line in enumerate(lines) if "IndexScan" in line
        )
        label_at = next(
            i for i, line in enumerate(lines) if "LabelScan" in line
        )
        # explain is root-first: deeper (earlier-executed) = later line
        assert index_at > label_at

    def test_filter_pushed_below_expansion(self, graph):
        lines = self.plan_lines(
            graph,
            "MATCH (m:Malware)-[:ATTRIBUTED_TO]->(a) "
            "WHERE m.year > 2003 RETURN a.name",
        )
        filter_at = next(
            i for i, line in enumerate(lines) if "Filter" in line
        )
        expand_at = next(
            i for i, line in enumerate(lines) if "ExpandEdge" in line
        )
        # root-first listing: pushed-down filter prints after (below)
        # the expansion it feeds.
        assert filter_at > expand_at

    def test_signature_stable_and_structure_sensitive(self, graph):
        q1 = "MATCH (m:Malware) RETURN m.name"
        same = build_plan(parse(q1), graph).signature()
        again = build_plan(parse(q1), graph).signature()
        other = build_plan(
            parse("MATCH (a:ThreatActor) RETURN a.name"), graph
        ).signature()
        assert same == again
        assert same != other

    def test_explain_through_engine(self, engine):
        rows = engine.run("EXPLAIN MATCH (m:Malware) RETURN m.name")
        assert rows and all(set(r.values) == {"plan"} for r in rows)
        assert any("LabelScan" in r["plan"] for r in rows)

    def test_aggregate_in_nested_expression_rejected(self, engine):
        query = "MATCH (m:Malware) RETURN count(m) > 5 AS big"
        with pytest.raises(CypherRuntimeError, match="aggregate"):
            engine.task(query, strict=False)
        # and the same error through run()
        with pytest.raises(CypherRuntimeError, match="aggregate"):
            engine.run(query, strict=False)


class TestQuantumAndObs:
    def test_virtual_quantum_suspends_long_scan(self):
        from repro.obs import make_obs
        from repro.runtime.clock import VirtualClock

        clock = VirtualClock()
        obs = make_obs(clock)
        engine = CypherEngine(build_graph(), obs=obs)
        context = ExecutionContext(clock=clock, quantum=0.005, step_cost=0.001)
        task = engine.task("MATCH (n) RETURN n.name", context=context)
        rows = task.run_to_completion()
        assert values(rows) == values(engine.run("MATCH (n) RETURN n.name"))
        counters = obs.metrics.snapshot()["counters"]
        assert sum(counters["cypher.slices"].values()) > 1
        assert sum(counters["cypher.suspended"].values()) >= 1
        names = {span["name"] for span in obs.tracer.export()}
        assert "cypher.plan" in names
        assert "cypher.slice" in names
