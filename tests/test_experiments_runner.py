"""Tests for the chapter runner CLI (smoke scale, cheapest chapter only)."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import observe
from repro.experiments import runner


def test_requires_chapter_or_all():
    with pytest.raises(SystemExit):
        runner.main(["--scale", "smoke"])


def test_rejects_unknown_scale():
    with pytest.raises(SystemExit):
        runner.main(["--chapter", "4", "--scale", "galactic"])


def test_chapter4_smoke_runs(capsys):
    assert runner.main(["--chapter", "4", "--scale", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "Fig IV-5" in out
    assert "Fig IV-6" in out
    assert "Figs IV-7/IV-8" in out
    for axis in ("size", "ccr", "parallelism", "density", "regularity", "mean_comp_cost"):
        assert f"varying {axis}" in out
    assert "Chapter 4 done" in out


def test_cli_experiments_dispatch(capsys):
    from repro.cli import main

    assert main(["experiments", "--chapter", "4", "--scale", "smoke"]) == 0
    assert "Fig IV-5" in capsys.readouterr().out


def test_seed_and_jobs_reach_the_chapter(monkeypatch):
    calls = {}

    def fake_chapter4(scale, seed=0, jobs=None):
        calls["scale"] = scale.name
        calls["seed"] = seed
        calls["jobs"] = jobs

    monkeypatch.setattr(runner, "run_chapter4", fake_chapter4)
    assert runner.main(["--chapter", "4", "--scale", "smoke", "--seed", "9", "--jobs", "3"]) == 0
    assert calls == {"scale": "smoke", "seed": 9, "jobs": 3}


def test_seed_defaults_to_zero(monkeypatch):
    calls = {}

    def fake_chapter5(scale, seed=0, jobs=None, cache_dir=None):
        calls["seed"] = seed
        calls["jobs"] = jobs
        calls["cache_dir"] = cache_dir

    monkeypatch.setattr(runner, "run_chapter5", fake_chapter5)
    assert runner.main(["--chapter", "5", "--scale", "smoke", "--no-cache"]) == 0
    assert calls == {"seed": 0, "jobs": None, "cache_dir": None}


def test_cli_forwards_seed_and_jobs(monkeypatch):
    from repro.cli import main

    seen = {}

    def fake_chapter4(scale, seed=0, jobs=None):
        seen.update(seed=seed, jobs=jobs)

    monkeypatch.setattr(runner, "run_chapter4", fake_chapter4)
    argv = ["experiments", "--chapter", "4", "--scale", "smoke", "--no-cache"]
    assert main([*argv, "--seed", "2", "--jobs", "4"]) == 0
    assert seen == {"seed": 2, "jobs": 4}


def _tables(out: str) -> str:
    # Drop the wall-clock line; everything else must be bit-identical.
    return "\n".join(line for line in out.splitlines() if "done in" not in line)


def test_chapter4_seed_changes_random_sweeps(capsys):
    # The runner's --seed must actually reach the DAG generation: the
    # Montage figures are deterministic, but the random-DAG sweeps differ.
    assert runner.main(["--chapter", "4", "--scale", "smoke", "--seed", "0"]) == 0
    out_a = _tables(capsys.readouterr().out)
    assert runner.main(["--chapter", "4", "--scale", "smoke", "--seed", "0"]) == 0
    out_b = _tables(capsys.readouterr().out)
    assert runner.main(["--chapter", "4", "--scale", "smoke", "--seed", "1"]) == 0
    out_c = _tables(capsys.readouterr().out)
    assert out_a == out_b
    assert out_a != out_c


def test_chapter4_jobs_does_not_change_output(capsys):
    assert runner.main(["--chapter", "4", "--scale", "smoke", "--jobs", "1"]) == 0
    serial = _tables(capsys.readouterr().out)
    assert runner.main(["--chapter", "4", "--scale", "smoke", "--jobs", "2"]) == 0
    parallel = _tables(capsys.readouterr().out)
    assert serial == parallel


def test_metrics_out_and_trace(tmp_path, capsys):
    metrics = tmp_path / "m.json"
    assert (
        runner.main(
            [
                "--chapter",
                "4",
                "--scale",
                "smoke",
                "--metrics-out",
                str(metrics),
                "--trace",
            ]
        )
        == 0
    )
    data = json.loads(metrics.read_text())
    assert data["schema"] == 1
    assert data["counters"]["scheduler.runs"] > 0
    assert data["counters"]["scheduler.tasks_scheduled"] > 0
    assert "chapter4" in data["spans"]
    assert any(path.endswith("schedule_dag") for path in data["spans"])
    err = capsys.readouterr().err
    assert "spans (wall-clock):" in err
    assert "counters:" in err


def test_cli_forwards_trace_and_metrics_out(monkeypatch, tmp_path, capsys):
    from repro.cli import main

    def fake_chapter4(scale, seed=0, jobs=None):
        with observe.span("fake.chapter"):
            pass

    monkeypatch.setattr(runner, "run_chapter4", fake_chapter4)
    out = tmp_path / "m.json"
    argv = ["experiments", "--chapter", "4", "--scale", "smoke", "--no-cache"]
    assert main([*argv, "--trace", "--metrics-out", str(out)]) == 0
    assert any(path.endswith("fake.chapter") for path in json.loads(out.read_text())["spans"])
    assert "spans (wall-clock):" in capsys.readouterr().err


def _chapter5_metrics(tmp_path, jobs: int, tag: str) -> dict:
    metrics = tmp_path / f"metrics-{tag}.json"
    assert (
        runner.main(
            [
                "--chapter",
                "5",
                "--scale",
                "smoke",
                "--seed",
                "0",
                "--jobs",
                str(jobs),
                "--cache-dir",
                str(tmp_path / f"cache-{tag}"),
                "--metrics-out",
                str(metrics),
            ]
        )
        == 0
    )
    return json.loads(metrics.read_text())


@pytest.mark.slow
def test_chapter5_counter_totals_independent_of_jobs(tmp_path):
    # The acceptance check for the observability layer: a chapter-5 smoke
    # run emits span timings and cache hit/miss counters, and the counter
    # totals are identical for --jobs 1 and --jobs 4 (worker metrics are
    # merged back through map_cells).
    serial = _chapter5_metrics(tmp_path, jobs=1, tag="j1")
    parallel = _chapter5_metrics(tmp_path, jobs=4, tag="j4")
    assert serial["counters"] == parallel["counters"]
    assert serial["counters"]["cache.misses"] > 0
    assert serial["counters"]["knee.evaluations"] > 0
    assert "chapter5" in serial["spans"]
    assert any(path.endswith("schedule_dag") for path in serial["spans"])


# ----------------------------------------------------------------------
# Fault policy threading and failure-time metrics emission
# ----------------------------------------------------------------------
def test_fault_flags_install_ambient_policy(monkeypatch):
    from repro import parallel

    seen = {}

    def fake_chapter4(scale, seed=0, jobs=None):
        seen["policy"] = parallel.get_fault_policy()

    monkeypatch.setattr(runner, "run_chapter4", fake_chapter4)
    assert (
        runner.main(
            [
                "--chapter", "4", "--scale", "smoke",
                "--max-retries", "4", "--cell-timeout", "12.5", "--on-error", "retry",
            ]
        )
        == 0
    )
    policy = seen["policy"]
    assert policy.max_retries == 4
    assert policy.cell_timeout == 12.5
    assert policy.on_error == "retry"
    # The ambient policy is restored once the run finishes.
    assert parallel.get_fault_policy().on_error == "raise"


def test_default_policy_is_fail_fast(monkeypatch):
    from repro import parallel

    seen = {}

    def fake_chapter4(scale, seed=0, jobs=None):
        seen["policy"] = parallel.get_fault_policy()

    monkeypatch.setattr(runner, "run_chapter4", fake_chapter4)
    assert runner.main(["--chapter", "4", "--scale", "smoke"]) == 0
    assert seen["policy"].on_error == "raise"
    assert seen["policy"].max_retries == 2


def test_metrics_and_trace_emitted_when_chapter_raises(monkeypatch, tmp_path, capsys):
    # A failed run is exactly when the metrics matter: --trace and
    # --metrics-out must be honoured even though the chapter raised.
    def exploding_chapter4(scale, seed=0, jobs=None):
        import repro.observe as observe

        observe.inc("test.progress_before_crash")
        raise RuntimeError("chapter exploded")

    monkeypatch.setattr(runner, "run_chapter4", exploding_chapter4)
    metrics = tmp_path / "m.json"
    with pytest.raises(RuntimeError, match="chapter exploded"):
        runner.main(
            [
                "--chapter", "4", "--scale", "smoke",
                "--metrics-out", str(metrics), "--trace",
            ]
        )
    data = json.loads(metrics.read_text())
    assert data["schema"] == 1
    assert data["counters"]["test.progress_before_crash"] == 1
    err = capsys.readouterr().err
    assert "counters:" in err  # --trace table reached stderr too


def test_runner_prunes_stale_cache_tmp_files(monkeypatch, tmp_path):
    import os
    import time as _time

    from repro.parallel import ResultCache

    cache_dir = tmp_path / "cache"
    ns = cache_dir / "ns"
    ns.mkdir(parents=True)
    stale = ns / "orphan.tmp"
    stale.write_text("droppings")
    old = _time.time() - 7200
    os.utime(stale, (old, old))

    monkeypatch.setattr(runner, "run_chapter4", lambda scale, seed=0, jobs=None: None)
    assert (
        runner.main(["--chapter", "4", "--scale", "smoke", "--cache-dir", str(cache_dir)])
        == 0
    )
    assert not stale.exists()


#: sha256 of ``python -m repro.experiments.runner --all --scale smoke
#: --no-cache`` stdout, lines joined by newlines, without the wall-clock
#: lines (those containing ``done in``, and the ``[training]`` progress
#: lines).  Every table of chapters 4-7 goes through the schedulers, so a
#: scheduler change that moves any schedule changes this value.
GOLDEN_CHAPTER_TABLES_SHA256 = "de0ab144a6644e906d1b78323de04311f6b563be1f3a343fbd1f0edfd7bd5ecc"


@pytest.mark.slow
def test_smoke_chapter_tables_match_the_golden_digest(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner", "--all", "--scale", "smoke",
         "--no-cache"],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=900,
        check=True,
    )
    kept = [
        line
        for line in proc.stdout.splitlines()
        if "done in" not in line and not line.startswith("[training]")
    ]
    digest = hashlib.sha256("\n".join(kept).encode()).hexdigest()
    assert digest == GOLDEN_CHAPTER_TABLES_SHA256
    assert list(tmp_path.iterdir()) == []  # --no-cache wrote nothing
