"""Tests for the benchmark itself (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest perfbench/tests -q

The workload smoke runs shrink the web and the per-round work through
module constants, so each finishes in seconds while still producing
the >= 100 samples every p90 needs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import analyst, bulk, catalogue, harness, live, report, stats  # noqa: E402
from repro.core.system import SecurityKG  # noqa: E402


# -- the percentile rule ---------------------------------------------------


def test_p90_needs_ten_samples_beyond():
    assert stats.min_samples(0.9) == 100
    assert stats.min_samples(0.99) == 1000
    values = list(range(1, 101))
    p90 = stats.percentile(values, 0.9)
    assert p90 == 90
    assert sum(1 for v in values if v > p90) == 10
    with pytest.raises(ValueError):
        stats.percentile(values[:99], 0.9)


def test_percentile_is_order_independent():
    values = [float(v % 37) for v in range(250)]
    assert stats.percentile(values, 0.9) == stats.percentile(sorted(values), 0.9)
    ranked = sorted(values)
    assert stats.percentile(values, 0.9) == ranked[225 - 1]


# -- BENCHMARK.json and the catalogue ---------------------------------------


def _declared():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return doc, {m["name"]: m for m in doc["end_to_end"]}, {
        m["name"]: m for m in doc["per_layer"]
    }


def test_benchmark_json_matches_the_catalogue():
    doc, e2e, layer = _declared()
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(catalogue.WORKLOADS)
    assert {m.name: (m.unit, m.better, m.bound) for m in catalogue.END_TO_END} == {
        n: (m["unit"], m["better"], m["bound"]) for n, m in e2e.items()
    }
    assert {m.name: (m.unit, m.better) for m in catalogue.PER_LAYER} == {
        n: (m["unit"], m["better"]) for n, m in layer.items()
    }
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())


# -- tiny smoke runs -----------------------------------------------------------


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(harness, "REPORTS_PER_SITE", 3)
    monkeypatch.setattr(bulk, "COLD_ARTICLES", 100)
    monkeypatch.setattr(bulk, "SETUP_REPEATS", 2)
    monkeypatch.setattr(analyst, "SETUP_REPEATS", 1)
    monkeypatch.setattr(live, "SETUP_REPEATS", 1)
    monkeypatch.setattr(live, "CRF_SCENARIOS", 2)
    monkeypatch.setattr(live, "CRF_ITERATIONS", 3)
    monkeypatch.setattr(live, "CYCLES", 10)
    monkeypatch.setattr(live, "ARTICLES", 1)


def _run(workload: str, trace: int):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    return report.execute(report.parse_args(argv))


@pytest.mark.parametrize("workload", catalogue.WORKLOADS)
def test_smoke_run_passes_its_checks_and_emits_the_declared_metrics(tiny, workload):
    _doc, e2e, layer = _declared()
    bench, result = _run(workload, 0)
    assert bench.failed == 0, bench.problems
    assert bench.attempted > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        n: m["unit"] for n, m in e2e.items()
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert {row["name"] for row in result["named"]} == set(catalogue.NAMED[workload])

    bench, result = _run(workload, 1)
    assert bench.failed == 0, bench.problems
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        n: m["unit"] for n, m in layer.items()
    }
    assert result["metrics"]["trace_overhead"]["value"] > 0
    shares = [v["value"] for k, v in result["metrics"].items() if k.endswith(".share")]
    assert sum(shares) == pytest.approx(1.0, abs=1e-6)  # layers + glue tile the steps
    spans = (ROOT / result["spans"]).read_text().splitlines()
    assert spans and all("name" in json.loads(line) for line in spans)


def test_a_planted_wrong_cypher_answer_is_a_failure(tiny, monkeypatch, capsys):
    real = SecurityKG.cypher

    def lossy(self, query, strict=None):
        rows = real(self, query, strict=strict)
        return rows[:-1] if query == analyst.SHAPES["scan"] else rows

    monkeypatch.setattr(SecurityKG, "cypher", lossy)
    code = report.main(
        ["--workload", "analyst_session", "--seed", "3", "--seconds", "0", "--trace", "0"]
    )
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False
    assert last["failed"] > 0 and last["failed"] < last["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk_ingest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
