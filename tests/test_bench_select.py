"""Smoke test for ``scripts/bench_select.py``.

Unlike the parallel benchmark, the smoke scale here is fast (seconds), so
the end-to-end run — including its internal check that the ClassAd index
and the full scan return identical match lists — is a tier-1 test.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "bench_select.py"


def test_bench_select_script_parses():
    ast.parse(SCRIPT.read_text())


def test_bench_select_smoke_runs_and_outputs_are_identical(tmp_path):
    out = tmp_path / "BENCH_select.json"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    subprocess.run(
        [sys.executable, str(SCRIPT), "--scale", "smoke", "--output", str(out)],
        check=True,
        env=env,
        cwd=REPO,  # git metadata lives here
        timeout=540,
        stdout=subprocess.DEVNULL,
    )
    report = json.loads(out.read_text())
    assert report["identical_output"] is True
    assert report["git_sha"] not in ("", None)
    assert report["timestamp_utc"].endswith("Z")
    assert report["results"], "benchmark produced no result rows"
    for row in report["results"]:
        assert row["workload"] == "classad_match"
        assert row["identical_output"] is True
        assert row["naive"]["p50_ms"] > 0 and row["indexed"]["p50_ms"] > 0
    # Lint throughput: every document language analyzed through the IR.
    lint_rows = {r["lang"]: r for r in report["lint_throughput"]}
    assert set(lint_rows) == {"vgdl", "classad", "sword", "json"}
    for row in lint_rows.values():
        assert row["clean"] is True
        assert row["specs_per_sec"] > 0


def test_checked_in_report_has_provenance_and_speedup():
    """The committed BENCH_select.json must carry provenance and meet the
    selective-spec speedup floor at 10k hosts."""
    report = json.loads((REPO / "BENCH_select.json").read_text())
    assert report["identical_output"] is True
    assert len(report["git_sha"]) == 40
    rows = [
        r
        for r in report["results"]
        if r["workload"] == "classad_match"
        and r.get("spec") == "selective"
        and r["n_hosts"] == 10_000
    ]
    assert rows, "bench scale must include the selective spec at 10k hosts"
    assert rows[0]["speedup"] >= 5.0
