"""Smoke test of the end-to-end benchmark at 3 ops per workload.

Run from the repository root::

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(tmp_path: Path, *args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict]:
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "bench/e2e.py", "--ops", "3", "--setups", "1", "--out", str(out), *args],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )
    return proc, json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Every workload, seed 1 (golden-gated), with the traced pass."""
    proc, doc = _bench(tmp_path_factory.mktemp("traced"), "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    return proc, doc


def test_result_line_follows_the_contract(traced):
    proc, _ = traced
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 3 * (3 * 1 + 2 * 12)
    assert result["failed"] == 0


def test_every_declared_metric_is_emitted_with_its_unit(traced):
    proc, doc = traced
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    declared = SPEC["end_to_end"] + SPEC["per_layer"]
    lines = {tuple(line.split()[:2]): line.split()[3] for line in proc.stdout.splitlines()[:-1]}
    for workload in WORKLOADS:
        for metric in declared:
            assert lines.get((workload, metric["name"])) == metric["unit"], (workload, metric)
    for metric in declared:
        assert doc["units"][metric["name"]] == metric["unit"]


def test_layer_self_times_add_up_to_op_wall_time(traced):
    _, doc = traced
    for workload, result in doc["workloads"].items():
        self_ms = sum(row["self_ms"] for row in result["layers"].values())
        unattributed = result["per_layer"]["unattributed_ms"]
        assert self_ms + unattributed == pytest.approx(result["op_wall_ms"], rel=0.01), workload
        assert unattributed >= 0


def test_traced_and_untraced_outcomes_agree(traced):
    _, doc = traced
    for workload, result in doc["workloads"].items():
        assert result["correct"] and not result["problems"], (workload, result["problems"])
        assert result["per_layer"]["trace_overhead_frac"] > -1


def test_another_seed_passes_the_cross_checks(tmp_path):
    proc, doc = _bench(
        tmp_path, "--seed", "2", "--workload", "select_degraded", "--workload", "serve_journaled"
    )
    assert proc.returncode == 0, proc.stderr
    assert all(r["correct"] for r in doc["workloads"].values())
    assert doc["workloads"]["serve_journaled"]["ops"] == 3


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(".run", "__pycache__"))
    proc, _ = _bench(tmp_path, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    faster = [v * 0.8 for v in base]
    assert compare.verdict(base, faster, "lower", 0.1)[0] == "improved"
    assert compare.verdict(base, [v * 1.2 for v in base], "lower", 0.1)[0] == "worse"
    assert compare.verdict(base, list(reversed(base)), "lower", 0.1)[0] == "no-worse"
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    assert compare.verdict(base, noisy, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(base, faster, "higher", 0.1) == ("worse", 0.0)
