"""Cypher query execution.

:class:`CypherEngine` parses, analyzes (in strict mode) and executes
queries.  CREATE mutates the graph directly; every MATCH query is
lowered by :mod:`repro.graphdb.cypher.planner` into a tree of
resumable operators (:mod:`repro.graphdb.cypher.iterators`) and run as
a :class:`QueryTask`.  A plain ``run()`` pulls the task to completion
in one slice; pagination and :meth:`CypherEngine.task` suspend it after
a time quantum on the injected clock and resume it from a JSON-safe
continuation -- the SaGe web-preemption model, which lets the UI
server page results and serve many concurrent queries with bounded
per-slice latency.  There is one engine, so a sliced run is
row-identical to an unsliced one by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphdb.cypher import ast
from repro.graphdb.cypher.iterators import (
    CypherRuntimeError,
    ExecutionContext,
    QuantumExhausted,
)
from repro.graphdb.cypher.lexer import CypherSyntaxError
from repro.graphdb.cypher.parser import parse
from repro.graphdb.cypher.planner import build_plan
from repro.graphdb.store import Node, PropertyGraph
from repro.obs import NO_OBS, Obs
from repro.runtime.clock import Clock, REAL_CLOCK


class CypherAnalysisError(CypherRuntimeError):
    """Semantic errors caught by static analysis, before execution.

    Subclasses :class:`CypherRuntimeError` so callers that treat all
    semantic failures alike keep working; carries the structured
    diagnostics for callers (CLI, UI server) that render them.
    """

    def __init__(self, diagnostics, source: str):
        from repro.analysis.diagnostics import render

        super().__init__(render(source, diagnostics))
        self.diagnostics = list(diagnostics)
        self.source = source


@dataclass
class ResultRow:
    """One row of a query result: alias -> value."""

    values: dict[str, object]

    def __getitem__(self, alias: str) -> object:
        return self.values[alias]

    def keys(self):
        return self.values.keys()


@dataclass
class CypherPage:
    """One page of a paginated query: rows plus a resume continuation.

    ``continuation`` is a JSON-safe dict (``None`` when the query is
    exhausted); callers that need an opaque wire token encode it
    themselves (the UI server base64s it with a query fingerprint).
    """

    rows: list[ResultRow]
    continuation: dict | None = None


@dataclass
class QueryProfile:
    """The result of a ``PROFILE`` query: rows plus operator counters.

    ``operators`` lists the linear plan root-first, one dict per
    operator: ``operator``, ``detail``, ``rows`` produced, ``calls``
    (``next()`` invocations), ``cumulative_s`` (clock seconds inside
    the operator including its child) and ``self_s`` (cumulative minus
    the child's cumulative).  ``partitions`` carries per-partition
    operator lists for sharded scatter-gather profiles.

    The profiled execution is the preemptable operator tree run to
    completion, so ``rows`` is row-identical to the unprofiled query.
    """

    rows: list[ResultRow]
    operators: list[dict]
    partitions: dict[str, list[dict]] | None = None

    def lines(self) -> list[str]:
        """Annotated operator tree, EXPLAIN-style indentation."""
        out = _profile_lines(self.operators)
        for key in sorted(self.partitions or (), key=lambda k: (len(k), k)):
            out.append(f"partition {key}:")
            out.extend(
                "  " + line for line in _profile_lines(self.partitions[key])
            )
        return out

    def to_dict(self) -> dict:
        """JSON-safe rendering for the UI server and CLI ``--json``."""
        payload: dict = {
            "rows": len(self.rows),
            "operators": self.operators,
        }
        if self.partitions is not None:
            payload["partitions"] = self.partitions
        return payload


def _profile_lines(operators: list[dict]) -> list[str]:
    lines = []
    for depth, op in enumerate(operators):
        head = f"{op['operator']} {op['detail']}".rstrip()
        lines.append(
            "  " * depth + head
            + f"  (rows={op['rows']} calls={op['calls']} "
            f"self={op['self_s']:.6f}s total={op['cumulative_s']:.6f}s)"
        )
    return lines


def _operator_stats(profilers) -> list[dict]:
    """Root-first counter dicts with self time from cumulative times.

    The plan is a linear chain, so an operator's only child is the
    next entry; its self time is the cumulative difference (clamped at
    zero -- a parent can observe slightly less than its child charges
    when ``step_cost`` ticks fire inside the child's ``next``).
    """
    stats = [profiler.stats() for profiler in profilers]
    for index, entry in enumerate(stats):
        child_s = (
            stats[index + 1]["cumulative_s"] if index + 1 < len(stats) else 0.0
        )
        entry["self_s"] = max(0.0, entry["cumulative_s"] - child_s)
    return stats


def is_streamable(parsed: ast.Query) -> bool:
    """Whether a query runs as a sliceable :class:`QueryTask`: a MATCH
    that is neither EXPLAINed nor PROFILEd."""
    return (
        isinstance(parsed, ast.MatchQuery)
        and not parsed.explain
        and not parsed.profile
    )


class CypherEngine:
    """Execute parsed Cypher against a property graph."""

    def __init__(
        self,
        graph: PropertyGraph,
        strict: bool = True,
        obs: Obs = NO_OBS,
        clock: Clock | None = None,
    ):
        self.graph = graph
        #: default-on semantic analysis: queries with ERROR-severity
        #: findings raise :class:`CypherAnalysisError` before execution
        self.strict = strict
        #: observability bundle (``cypher.plan`` / ``cypher.slice``
        #: spans, slice counters); the no-op default is free
        self.obs = obs
        #: timestamp source for PROFILE operator timing; falls back to
        #: the tracer's clock so a virtual-clock deployment profiles on
        #: its own timeline without extra plumbing
        self.clock = (
            clock
            if clock is not None
            else getattr(obs.tracer, "clock", None) or REAL_CLOCK
        )
        self._schema_cache: tuple[tuple[int, int], object] | None = None

    # -- public API -----------------------------------------------------

    def run(self, query: str, strict: bool | None = None) -> list[ResultRow]:
        """Parse, analyze (in strict mode) and execute.

        Returns result rows (empty for CREATE).  ``strict=None`` uses
        the engine default; pass ``strict=False`` for exploratory
        queries that intentionally probe labels the graph lacks.
        ``EXPLAIN``-prefixed queries return the physical plan as one
        ``plan`` row per operator instead of executing.
        ``PROFILE``-prefixed queries execute with instrumentation and
        return the data rows (row-identical to the plain query); reach
        the operator counters through :meth:`profile`.
        """
        return self.execute(self._parse(query, strict))

    def execute(self, parsed: ast.Query) -> list[ResultRow]:
        """Execute an already-parsed (and already-analyzed) query.

        The one dispatch over query forms: CREATE mutates the graph,
        EXPLAIN returns plan lines, PROFILE runs instrumented, and any
        other MATCH runs as a :class:`QueryTask` to completion.  The
        scatter-gather engine parses and analyzes once, then runs the
        same AST against every partition through this entry point.
        """
        if isinstance(parsed, ast.CreateQuery):
            self._execute_create(parsed)
            # CREATE changes the schema; drop the cached analyzer view.
            self._schema_cache = None
            return []
        if parsed.explain:
            return self.explain_rows(parsed)
        if parsed.profile:
            return self.profile_parsed(parsed).rows
        return QueryTask(self, parsed, ExecutionContext()).run_to_completion()

    def plan(self, parsed: ast.MatchQuery):
        """Lower an analyzed MATCH query into a physical plan."""
        with self.obs.tracer.span("cypher.plan"):
            return build_plan(parsed, self.graph)

    def explain_rows(self, parsed: ast.MatchQuery) -> list[ResultRow]:
        """The physical plan as result rows (one ``plan`` line each)."""
        plan = self.plan(parsed)
        return [ResultRow({"plan": line}) for line in plan.explain_lines()]

    def profile(
        self,
        query: str,
        strict: bool | None = None,
        step_cost: float = 0.0,
    ) -> QueryProfile:
        """Execute with per-operator instrumentation.

        The plan is instantiated with every operator wrapped in a
        :class:`~repro.graphdb.cypher.iterators.ProfiledOp` and run to
        completion; the result carries the data rows *and* per-operator
        rows/calls/seconds.  ``step_cost`` charges virtual seconds per
        safe-point tick, giving virtual-clock profiles deterministic
        nonzero timings.  The ``PROFILE`` keyword prefix is optional
        here -- this entry point always profiles.
        """
        parsed = self._parse(query, strict)
        if not isinstance(parsed, ast.MatchQuery):
            raise CypherRuntimeError("PROFILE applies to MATCH queries only")
        return self.profile_parsed(parsed, step_cost=step_cost)

    def profile_parsed(
        self, parsed: ast.MatchQuery, step_cost: float = 0.0
    ) -> QueryProfile:
        """Profile an already-parsed (and already-analyzed) MATCH query."""
        context = ExecutionContext(clock=self.clock, step_cost=step_cost)
        plan = self.plan(parsed)
        with self.obs.tracer.span("cypher.profile") as span:
            root, profilers = plan.build_profiled(self.graph, context)
            context.begin_slice()
            rows: list[ResultRow] = []
            while True:
                row = root.next()
                if row is None:
                    break
                rows.append(ResultRow(row))
            span.set("operators", len(profilers))
            span.set("rows", len(rows))
        self.obs.metrics.inc("cypher.profiled")
        return QueryProfile(rows=rows, operators=_operator_stats(profilers))

    def run_paginated(
        self,
        query: str,
        page_size: int,
        continuation: dict | None = None,
        strict: bool | None = None,
    ) -> CypherPage:
        """Execute preemptably, returning at most ``page_size`` rows.

        The returned continuation resumes exactly after the last row of
        this page; feeding every page's continuation back in yields the
        same rows, in the same order, as one :meth:`run`.  CREATE,
        EXPLAIN and PROFILE answer in one full page with no
        continuation (PROFILE counters only mean anything once the
        query has finished).
        """
        if page_size < 1:
            raise CypherRuntimeError("page_size must be >= 1")
        parsed = self._parse(query, strict)
        if not is_streamable(parsed):
            return CypherPage(rows=self.execute(parsed))
        task = QueryTask(self, parsed, ExecutionContext())
        if continuation is not None:
            task.load(continuation)
        rows = task.fetch(page_size)
        return CypherPage(rows=rows, continuation=task.save())

    def task(
        self,
        query: str,
        context: ExecutionContext | None = None,
        strict: bool | None = None,
    ) -> "QueryTask":
        """A suspendable query execution for a slice-at-a-time driver.

        ``context`` is an
        :class:`~repro.graphdb.cypher.iterators.ExecutionContext`
        carrying the quantum/clock; each :meth:`QueryTask.step` runs
        one slice and the task suspends when the quantum expires.
        """
        parsed = self._parse(query, strict)
        if not is_streamable(parsed):
            raise CypherRuntimeError(
                "only MATCH queries can run as preemptable tasks"
            )
        return QueryTask(self, parsed, context or ExecutionContext())

    def analyze(self, query: str | ast.Query, source: str = ""):
        """Diagnostics for a query against this graph's schema."""
        # Imported lazily: repro.analysis.cypher_check imports the
        # parser from this package.
        from repro.analysis.cypher_check import CypherAnalyzer, schema_for

        key = (self.graph.node_count, self.graph.edge_count)
        if self._schema_cache is None or self._schema_cache[0] != key:
            self._schema_cache = (key, schema_for(self.graph))
        return CypherAnalyzer(self._schema_cache[1]).analyze(query, source)

    def _parse(self, query: str, strict: bool | None) -> ast.Query:
        parsed = parse(query)
        if self.strict if strict is None else strict:
            self._check(parsed, query)
        return parsed

    def _check(self, parsed: ast.Query, source: str) -> None:
        from repro.analysis.diagnostics import errors

        failures = errors(self.analyze(parsed, source))
        if failures:
            raise CypherAnalysisError(failures, source)

    # -- CREATE ------------------------------------------------------------

    def _execute_create(self, query: ast.CreateQuery) -> None:
        bound: dict[str, Node] = {}
        for path in query.paths:
            previous: Node | None = None
            for index, node_pattern in enumerate(path.nodes):
                node = self._create_or_reuse(node_pattern, bound)
                if index > 0:
                    rel = path.rels[index - 1]
                    if rel.direction == "in":
                        self.graph.create_edge(
                            node.node_id, rel.rel_type or "RELATED_TO", previous.node_id
                        )
                    else:
                        self.graph.create_edge(
                            previous.node_id, rel.rel_type or "RELATED_TO", node.node_id
                        )
                previous = node

    def _create_or_reuse(
        self, pattern: ast.NodePattern, bound: dict[str, Node]
    ) -> Node:
        if pattern.variable and pattern.variable in bound:
            return bound[pattern.variable]
        node = self.graph.create_node(
            pattern.label or "Node", dict(pattern.properties)
        )
        if pattern.variable:
            bound[pattern.variable] = node
        return node


class QueryTask:
    """A preemptable query execution: planned once, run slice by slice.

    Each :meth:`step` runs one time slice under the context's quantum
    and returns the rows produced before suspension.  :meth:`save` /
    :meth:`load` round-trip the whole execution state as a JSON-safe
    continuation, so a task can be resumed in a later request (the
    pagination path) or interleaved with other tasks (the E22 storm).
    """

    def __init__(
        self,
        engine: CypherEngine,
        parsed: ast.MatchQuery,
        context: ExecutionContext,
    ):
        self.engine = engine
        self.query = parsed
        self.context = context
        self.plan = engine.plan(parsed)
        self.root = self.plan.build(engine.graph, context)
        self.done = False

    def step(self, max_rows: int | None = None) -> list[ResultRow]:
        """Run one slice; returns rows produced before the quantum expired."""
        obs = self.engine.obs
        rows: list[ResultRow] = []
        with obs.tracer.span("cypher.slice"):
            obs.metrics.inc("cypher.slices")
            self.context.begin_slice()
            try:
                while not self.done and (
                    max_rows is None or len(rows) < max_rows
                ):
                    row = self.root.next()
                    if row is None:
                        self.done = True
                        break
                    rows.append(ResultRow(row))
            except QuantumExhausted:
                obs.metrics.inc("cypher.suspended")
        return rows

    def fetch(self, count: int) -> list[ResultRow]:
        """Rows until ``count`` are gathered or the query is exhausted."""
        rows: list[ResultRow] = []
        while len(rows) < count and not self.done:
            rows.extend(self.step(max_rows=count - len(rows)))
        return rows

    def run_to_completion(self) -> list[ResultRow]:
        rows: list[ResultRow] = []
        while not self.done:
            rows.extend(self.step())
        return rows

    def save(self) -> dict | None:
        """JSON-safe continuation, or ``None`` once exhausted."""
        if self.done:
            return None
        return {
            "v": 1,
            "plan": self.plan.signature(),
            "state": self.root.save(),
        }

    def load(self, continuation: dict) -> None:
        if continuation.get("plan") != self.plan.signature():
            raise CypherRuntimeError(
                "continuation does not match this query's plan"
            )
        self.root.load(continuation["state"])


__all__ = [
    "CypherAnalysisError",
    "CypherEngine",
    "CypherPage",
    "CypherRuntimeError",
    "CypherSyntaxError",
    "QueryTask",
    "ResultRow",
    "is_streamable",
]
