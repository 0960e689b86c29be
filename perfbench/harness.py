"""Shared scaffolding: inputs, deployments, samples, failures, results.

Every workload builds its inputs from ``--seed`` (the web and every
query literal), drives SecurityKG through its public API, counts each
operation it attempts and each that fails (an exception, a non-2xx
status or a wrong answer), and records named samples that
:mod:`perfbench.catalogue` turns into metrics.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import time
from pathlib import Path

from repro.core.config import SystemConfig
from repro.core.system import SecurityKG
from repro.websim.sites import Web, build_default_web

ROOT = Path(__file__).resolve().parent.parent
#: scratch space inside the checkout (listed in .gitignore)
WORK = ROOT / ".perfbench"

#: simulated web size shared by all workloads: 42 sources x 10 reports
SCENARIOS = 40
REPORTS_PER_SITE = 10
#: no thread pool larger than a 2-CPU host
CRAWL_THREADS = 2

now = time.perf_counter

#: Host-speed probe for millisecond-scale requests.  The shared host's
#: vCPUs alternate between fast phases and ~1.8x slower ones lasting
#: 0.1-5 s (and sometimes minutes), which moves raw request medians by
#: 20-40% between runs.  Each request is preceded by this fixed slice of
#: interpreter work, and its latency is scaled by
#: ``PROBE_REFERENCE_S / probe`` -- milliseconds at the reference speed
#: (about the probe's fast-phase time on a 2-vCPU 2.0 GHz Xeon).
_PROBE_ITEMS = {str(i): i for i in range(4000)}
PROBE_REFERENCE_S = 0.0003


def build_web(seed: int) -> Web:
    """The seeded 42-source web with every page rendered up front, so
    no lazy rendering lands inside a timed region."""
    web = build_default_web(
        scenario_count=SCENARIOS, reports_per_site=REPORTS_PER_SITE, seed=seed
    )
    for site in web.sites:
        site.pages()
    return web


def system_config(
    seed: int, state: Path, partitions: int = 1, recognizer: str = "gazetteer"
) -> SystemConfig:
    """Durable deployment with the modelled network off and one worker
    per pipeline stage; fsync stays on as shipped."""
    return SystemConfig(
        seed=seed,
        scenario_count=SCENARIOS,
        reports_per_site=REPORTS_PER_SITE,
        storage_path=str(state),
        partitions=partitions,
        crawl_threads=CRAWL_THREADS,
        parse_workers=1,
        extract_workers=1,
        time_scale=0.0,
        clock="real",
        recognizer=recognizer,
    )


def probe() -> float:
    """Seconds the fixed probe work takes right now."""
    started = now()
    total = 0
    for _ in range(3):
        for value in _PROBE_ITEMS.values():
            total += value
    return now() - started


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def search_doc_count(kg: SecurityKG) -> int:
    if kg.shards is not None:
        return sum(p.search_index.doc_count for p in kg.shards.partitions)
    return kg.connectors["search"].index.doc_count


def _normalize(value):
    if isinstance(value, list):
        return sorted(json.dumps(item, sort_keys=True) for item in value)
    return value


def fingerprint(kg: SecurityKG) -> str:
    """Node-id-free digest of the graph and the search documents."""
    graph = kg.graph

    def props(properties: dict) -> str:
        return json.dumps(
            {k: _normalize(v) for k, v in properties.items()}, sort_keys=True
        )

    def key(node_id: int) -> tuple[str, str]:
        node = graph.node(node_id)
        return node.label, str(node.properties.get("merge_key", node.properties.get("name", "")))

    nodes = sorted((n.label, props(n.properties)) for n in graph.nodes())
    edges = sorted(
        (key(e.src), e.type, key(e.dst), props(e.properties)) for e in graph.edges()
    )
    if kg.shards is not None:
        indexes = [p.search_index for p in kg.shards.partitions]
    else:
        indexes = [kg.connectors["search"].index]
    docs = sorted(
        (doc_id, json.dumps(fields, sort_keys=True))
        for index in indexes
        for doc_id, fields in index.to_state()["documents"].items()
    )
    digest = hashlib.sha256(json.dumps([nodes, edges, docs]).encode("utf-8"))
    return digest.hexdigest()


class Run:
    """One benchmark invocation: its inputs, counters and samples."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}
        #: unscaled seconds of every probe-scaled request so far
        self.raw_seconds = 0.0
        self.facts: dict[str, object] = {}
        self.work = WORK / f"state-{workload}-{os.getpid()}"
        self._states = 0
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)

    # -- bookkeeping ------------------------------------------------------

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def values(self, name: str) -> list[float]:
        return self.samples.get(name, [])

    def scaled(self, seconds: float, probe_s: float) -> float:
        """A request latency at the reference host speed (see
        :data:`PROBE_REFERENCE_S`); the probe itself is kept as a sample."""
        self.sample("probe_us", probe_s * 1e6)
        self.raw_seconds += seconds
        return seconds * PROBE_REFERENCE_S / probe_s

    def op(self, ok: bool, what: str) -> bool:
        """Count one attempted operation; a false ``ok`` is a failure
        (the first 20 are described in the result)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def fresh_state(self) -> Path:
        self._states += 1
        path = self.work / f"s{self._states}"
        path.mkdir()
        return path

    def drop_state(self, path: Path) -> None:
        shutil.rmtree(path, ignore_errors=True)

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def host_facts(self, partitions: int) -> None:
        self.facts.update(
            nproc=os.cpu_count(),
            python=platform.python_version(),
            fsync="on (StorageEngine default)",
            partitions=partitions,
            crawl_threads=CRAWL_THREADS,
            stage_workers=1,
        )


def timed_setup(run: Run, build, repeats: int, close):
    """Run ``build()`` ``repeats`` times, recording each duration as a
    ``setup_s`` sample; ``close`` releases every result but the last."""
    result = None
    for index in range(repeats):
        if result is not None:
            close(result)
        settle()
        started = now()
        result = build()
        run.sample("setup_s", now() - started)
    return result


def keep_going(run: Run, started: float, have: int, need: int) -> bool:
    """Measure for ``run.seconds`` and at least until ``need`` units of
    work are complete."""
    return have < need or now() - started < run.seconds


def settle() -> None:
    """Collect the previous round's garbage before the next is timed."""
    gc.collect()


__all__ = [
    "CRAWL_THREADS",
    "ROOT",
    "Run",
    "WORK",
    "build_web",
    "dir_bytes",
    "fingerprint",
    "keep_going",
    "now",
    "peak_rss_mb",
    "probe",
    "search_doc_count",
    "settle",
    "system_config",
    "timed_setup",
]
