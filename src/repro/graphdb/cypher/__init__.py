"""Cypher-subset query engine (lexer, parser, planner, executor).

One execution engine: every MATCH query is lowered by `planner` into a
tree of resumable `iterators` and run as a `QueryTask` -- to completion
for `run`, slice by slice for `run_paginated` / `task`.
"""

from repro.graphdb.cypher.executor import (
    CypherAnalysisError,
    CypherEngine,
    CypherPage,
    CypherRuntimeError,
    QueryProfile,
    QueryTask,
    ResultRow,
)
from repro.graphdb.cypher.iterators import ExecutionContext, QuantumExhausted
from repro.graphdb.cypher.lexer import CypherSyntaxError, tokenize
from repro.graphdb.cypher.parser import parse
from repro.graphdb.cypher.planner import PhysicalPlan, build_plan

__all__ = [
    "CypherAnalysisError",
    "CypherEngine",
    "CypherPage",
    "CypherRuntimeError",
    "CypherSyntaxError",
    "ExecutionContext",
    "PhysicalPlan",
    "QuantumExhausted",
    "QueryProfile",
    "QueryTask",
    "ResultRow",
    "build_plan",
    "tokenize",
    "parse",
]
