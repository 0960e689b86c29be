"""A deliberately naive Cypher evaluator: the reference for the planner.

It enumerates every assignment of graph nodes to pattern nodes with
plain nested loops over ``graph.nodes()``, keeps the assignments whose
labels, properties and relationships match, then applies WHERE,
RETURN (with grouping), ORDER BY, DISTINCT, SKIP and LIMIT in that
order.  There is no anchoring, no index, no join reordering and no
filter pushdown, and ORDER BY is resolved here rather than through the
engine's helpers, so an answer the engine shares with this oracle was
not produced by shared shortcuts.  Only scalar expressions reuse the
engine's ``eval_expr``.

Semantics follow the engine where Cypher leaves room: relationship
patterns match homomorphically (two patterns may bind one edge), and a
variable-length pattern ``*m..n`` matches each endpoint whose shortest
pattern-consistent distance from the start lies in the hop range, once.

``graphs`` may list the partitions of a sharded deployment: a pattern
matches inside one partition, and everything after matching (WHERE,
grouping, ordering) sees the matches of all partitions together.
"""

from __future__ import annotations

import itertools

from repro.graphdb.cypher import ast
from repro.graphdb.cypher.iterators import eval_expr
from repro.graphdb.cypher.parser import parse
from repro.graphdb.store import Edge, Node, PropertyGraph

AGGREGATES = (ast.Count, ast.Collect, ast.NumAgg)


def naive_run(graphs: list[PropertyGraph], query: str) -> list[dict]:
    """Rows of a MATCH query as ``alias -> value`` dicts."""
    parsed = parse(query)
    bindings = [
        b
        for graph in graphs
        for b in _match(parsed, list(graph.nodes()), list(graph.edges()))
    ]
    if parsed.where is not None:
        bindings = [b for b in bindings if eval_expr(parsed.where, b)]
    if any(isinstance(item.expr, AGGREGATES) for item in parsed.returns):
        rows = _aggregate(parsed, bindings)
        sources = [None] * len(rows)
    else:
        rows = [
            {item.alias: eval_expr(item.expr, b) for item in parsed.returns}
            for b in bindings
        ]
        sources = bindings
    paired = list(zip(rows, sources))
    for expr, ascending in reversed(parsed.order_by):
        paired.sort(
            key=lambda pair: _natural(_order_value(parsed, expr, *pair)),
            reverse=not ascending,
        )
    rows = [row for row, _source in paired]
    if parsed.distinct:
        unique: list[dict] = []
        for row in rows:
            if all(_key(row) != _key(seen) for seen in unique):
                unique.append(row)
        rows = unique
    rows = rows[parsed.skip or 0:]
    if parsed.limit is not None:
        rows = rows[: parsed.limit]
    return rows


# -- matching -----------------------------------------------------------------


def _match(
    query: ast.MatchQuery, nodes: list[Node], edges: list[Edge]
) -> list[dict]:
    # one slot per distinct node variable, one per anonymous node
    slots: dict[str, list[ast.NodePattern]] = {}
    names: dict[tuple[int, int], str] = {}
    for p, path in enumerate(query.paths):
        for n, pattern in enumerate(path.nodes):
            name = pattern.variable or f"#{p}.{n}"
            names[(p, n)] = name
            slots.setdefault(name, []).append(pattern)
    order = list(slots)
    candidates = [
        [n for n in nodes if all(_node_fits(p, n) for p in slots[name])]
        for name in order
    ]
    distances: dict[tuple[int, int], dict[int, int]] = {}
    out: list[dict] = []
    for assignment in itertools.product(*candidates):
        bound = dict(zip(order, assignment))
        # every relationship pattern: the list of ways it is matched
        choices: list[list[tuple[str | None, Edge | None]]] = []
        for p, path in enumerate(query.paths):
            for r, rel in enumerate(path.rels):
                left = bound[names[(p, r)]]
                right = bound[names[(p, r + 1)]]
                choices.append(
                    _rel_matches(rel, left, right, edges, distances)
                )
        for combo in itertools.product(*choices):
            bindings = {k: v for k, v in bound.items() if not k.startswith("#")}
            consistent = True
            for variable, edge in combo:
                if variable is None:
                    continue
                if bindings.get(variable, edge) is not edge:
                    consistent = False
                bindings[variable] = edge
            if consistent:
                out.append(bindings)
    return out


def _node_fits(pattern: ast.NodePattern, node: Node) -> bool:
    if pattern.label and node.label != pattern.label:
        return False
    return all(node.properties.get(k) == v for k, v in pattern.properties)


def _oriented(rel: ast.RelPattern) -> list[bool]:
    """Edge orientations a pattern accepts: True = left-to-right."""
    return {"out": [True], "in": [False]}.get(rel.direction, [True, False])


def _rel_matches(
    rel: ast.RelPattern,
    left: Node,
    right: Node,
    edges: list[Edge],
    distances: dict[tuple[int, int], dict[int, int]],
) -> list[tuple[str | None, Edge | None]]:
    typed = [e for e in edges if not rel.rel_type or e.type == rel.rel_type]
    if not rel.is_variable_length:
        found = []
        for forward in _oriented(rel):
            src, dst = (left, right) if forward else (right, left)
            found.extend(
                (rel.variable, e)
                for e in typed
                if e.src == src.node_id and e.dst == dst.node_id
            )
        return found
    if left.node_id == right.node_id:
        return [(None, None)] if rel.min_hops == 0 else []
    key = (id(rel), left.node_id)
    if key not in distances:
        distances[key] = _distances(rel, left, typed)
    hops = distances[key].get(right.node_id)
    if hops is not None and max(rel.min_hops, 1) <= hops <= rel.max_hops:
        return [(None, None)]
    return []


def _distances(
    rel: ast.RelPattern, start: Node, edges: list[Edge]
) -> dict[int, int]:
    """Breadth-first hop counts from ``start`` over accepted orientations."""
    distance = {start.node_id: 0}
    frontier = [start.node_id]
    while frontier:
        step = []
        for current in frontier:
            for e in edges:
                for forward in _oriented(rel):
                    src, dst = (e.src, e.dst) if forward else (e.dst, e.src)
                    if src == current and dst not in distance:
                        distance[dst] = distance[current] + 1
                        step.append(dst)
        frontier = step
    return distance


# -- grouping and ordering -------------------------------------------------------


def _aggregate(query: ast.MatchQuery, bindings: list[dict]) -> list[dict]:
    group_items = [i for i in query.returns if not isinstance(i.expr, AGGREGATES)]
    groups: dict[tuple, list[dict]] = {}
    for b in bindings:
        values = [eval_expr(item.expr, b) for item in group_items]
        groups.setdefault(tuple(_identity(v) for v in values), []).append(b)
    if not group_items and not groups:
        groups[()] = []
    rows = []
    for members in groups.values():
        row = {}
        for item in query.returns:
            if isinstance(item.expr, AGGREGATES):
                row[item.alias] = _reduce(item.expr, members)
            else:
                row[item.alias] = eval_expr(item.expr, members[0])
        rows.append(row)
    return rows


def _reduce(expr: ast.Expr, members: list[dict]) -> object:
    if isinstance(expr, ast.Count) and expr.operand is None:
        return len(members)
    values = [eval_expr(expr.operand, b) for b in members]
    values = [v for v in values if v is not None]
    if expr.distinct:
        kept: list[object] = []
        for value in values:
            if all(_identity(value) != _identity(k) for k in kept):
                kept.append(value)
        values = kept
    if isinstance(expr, ast.Count):
        return len(values)
    if isinstance(expr, ast.Collect):
        return values
    if expr.func == "sum":
        return sum(values)
    if not values:
        return None
    if expr.func == "avg":
        return sum(values) / len(values)
    return min(values) if expr.func == "min" else max(values)


def _order_value(
    query: ast.MatchQuery, expr: ast.Expr, row: dict, source: dict | None
) -> object:
    for item in query.returns:
        if item.expr == expr:
            return row[item.alias]
    if isinstance(expr, ast.Variable) and expr.name in row:
        return row[expr.name]
    if source is None:
        raise ValueError(f"cannot order aggregated rows by {expr!r}")
    return eval_expr(expr, source)


def _natural(value: object) -> tuple:
    """None first, then the values' own ordering (numbers numerically)."""
    return (value is not None, value if value is not None else 0)


def _identity(value: object) -> object:
    if isinstance(value, Node):
        return ("node", value.node_id)
    if isinstance(value, Edge):
        return ("edge", value.edge_id)
    if isinstance(value, list):
        return tuple(_identity(v) for v in value)
    return value


def _key(row: dict) -> tuple:
    return tuple(sorted((k, _identity(v)) for k, v in row.items()))
