#!/usr/bin/env python3
"""End-to-end benchmark of the ``repro select`` and ``repro serve`` paths.

Run from the repository root (no install and no PYTHONPATH needed)::

    python3 bench/e2e.py                                  # all five workloads, seed 1
    python3 bench/e2e.py --workload serve --seed 3 --seconds 10 --trace 1
    python3 bench/e2e.py --trace 1 --out bench/BENCH_e2e.json
    python3 bench/e2e.py --write-golden                   # re-record bench/golden.json

Each workload (see ``workloads.py``) runs in fresh subprocesses, one
after another, with no threads or pools.  ``--setups`` processes each
set the workload up — imports, platform and DAG construction, model
training and one untimed warm-up op — and the last of them then runs a
closed loop: the next op starts only when the previous one returned.
The loop runs for ``--seconds`` and for at least :data:`MIN_OPS` ops, so
that the p90 latency has ten samples beyond it (``--ops N`` runs exactly
N ops instead).  Op times are reported at a reference host speed: a
fixed probe is timed between ops and each op's wall time is scaled by
how much slower than :data:`PROBE_REF_S` its neighbouring probes ran
(see :func:`_probe`).  ``--trace 1`` adds a second, traced pass over the
same ops that yields the per-layer numbers (``trace.py``).

Outputs are checked, not just timed: structural invariants of every
outcome, determinism of replayed requests, the per-op sha256 digests in
``golden.json`` (seed 1), traced == untraced outcomes, ``serve`` ==
``serve_journaled`` outcomes, and each journal reloading with one batch
record per dispatcher batch.  Any failure exits 1.

Every metric is printed as ``workload metric value unit``; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
with ``--trace 1`` the per-layer ones).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform as pyplatform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = HERE / ".run"
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 1

sys.path.insert(0, str(HERE))
from workloads import PERIOD, WORKLOADS  # noqa: E402

DEFAULT_SECONDS = 10
MIN_OPS = 100
DEFAULT_SETUPS = 3
#: A worker is killed after this many seconds plus four times
#: ``--seconds`` (150 s by default: a run must end within 180 s).
WORKER_TIMEOUT_S = 110
#: Ops of the serve stream re-run without a journal after timing stops.
UNJOURNALED_RECHECK = 8

#: End-to-end metrics (measured with tracing off) and their units.
E2E_UNITS = {
    "setup_s": "s",
    "req_per_s": "requests/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced pass: ``(name, unit, source)``, where
#: ``source`` is ``(kind, key)`` with kind ``calls``/``self``/``total``/
#: a span note (per layer), ``counter`` (``repro.observe`` registry), or
#: ``derived`` (computed in :func:`_per_layer`).  Every count and time
#: is per op.
PER_LAYER = [
    ("generator.generate.calls", "calls/op", ("calls", "generator.generate")),
    ("generator.generate.self_ms", "ms/op", ("self", "generator.generate")),
    ("analysis.self_check.ms", "ms/op", ("total", "analysis.self_check")),
    ("analysis.preflight.calls", "calls/op", ("calls", "analysis.preflight")),
    ("analysis.preflight.ms", "ms/op", ("total", "analysis.preflight")),
    ("analysis.subsumes.calls", "calls/op", ("calls", "analysis.subsumes")),
    ("analysis.subsumes.ms", "ms/op", ("total", "analysis.subsumes")),
    ("pipeline.self_ms", "ms/op", ("self", "pipeline.run")),
    ("pipeline.refusals", "count/op", ("counter", "pipeline.refusals")),
    ("pipeline.respecifications", "count/op", ("counter", "pipeline.respecifications")),
    ("alternatives.calls", "calls/op", ("calls", "alternatives")),
    ("alternatives.self_ms", "ms/op", ("self", "alternatives")),
    ("knee.sweep.ms", "ms/op", ("total", "knee.sweep")),
    ("alternatives.useful_ratio", "ratio", ("derived", None)),
    ("scheduling.calls", "calls/op", ("calls", "scheduling")),
    ("scheduling.self_ms", "ms/op", ("self", "scheduling")),
    ("selection.vges.calls", "calls/op", ("calls", "selection.vges")),
    ("selection.vges.ms", "ms/op", ("total", "selection.vges")),
    ("selection.classad.calls", "calls/op", ("calls", "selection.classad")),
    ("selection.classad.ms", "ms/op", ("total", "selection.classad")),
    ("selection.sword.calls", "calls/op", ("calls", "selection.sword")),
    ("selection.sword.ms", "ms/op", ("total", "selection.sword")),
    ("selection.hit_ratio", "ratio", ("derived", None)),
    ("index.build.calls", "calls/op", ("calls", "index.build")),
    ("index.build.ms", "ms/op", ("total", "index.build")),
    ("index.plan.calls", "calls/op", ("calls", "index.plan")),
    ("index.plan.ms", "ms/op", ("total", "index.plan")),
    ("churn.trace.ms", "ms/op", ("total", "churn.trace")),
    ("churn.advance.ms", "ms/op", ("total", "churn.advance")),
    ("churn.unavailable.calls", "calls/op", ("calls", "churn.unavailable")),
    ("churn.unavailable.ms", "ms/op", ("total", "churn.unavailable")),
    ("binding.calls", "calls/op", ("calls", "binding")),
    ("binding.ms", "ms/op", ("total", "binding")),
    ("binding.conflicts", "count/op", ("conflict", "binding")),
    ("binding.state_digest.ms", "ms/op", ("total", "binding.state_digest")),
    ("service.self_ms", "ms/op", ("self", "service.run")),
    ("service.batches", "count/op", ("counter", "service.batches")),
    ("service.ladder_shared_hits", "count/op", ("counter", "service.ladder_shared_hits")),
    ("service.engine_reuses", "count/op", ("counter", "service.engine_reuses")),
    ("journal.create.ms", "ms/op", ("total", "journal.create")),
    ("journal.append.calls", "calls/op", ("calls", "journal.append")),
    ("journal.append.ms", "ms/op", ("total", "journal.append")),
    ("journal.close.ms", "ms/op", ("total", "journal.close")),
    ("journal.bytes", "bytes/op", ("derived", None)),
    ("unattributed_ms", "ms/op", ("derived", None)),
    ("trace_overhead_frac", "ratio", ("derived", None)),
    ("fail_frac", "ratio", ("derived", None)),
]
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _canonical(outcome: Any) -> str:
    return json.dumps(outcome.to_dict(), sort_keys=True, separators=(",", ":"))


# ======================================================================
# Worker: one workload in this process
# ======================================================================
def _probe() -> float:
    """Seconds a fixed pure-Python kernel takes right now (about 2 ms).

    On a 2-vCPU Xeon VM whose host is shared, one CPU-bound loop swings
    between 27 and 42 ms over spans of seconds, and run-to-run spreads of
    unscaled op times reach 20-30%.  Timing this probe between ops
    measures that swing, so op times can be reported at one reference
    speed (see :meth:`_Pass.at_reference_speed`).
    """
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(20000):
        acc += i * i % 7
        table[i & 255] = acc
    return time.perf_counter() - start


#: Probe duration that defines the reference speed: end-to-end times are
#: reported as the wall times of a host on which :func:`_probe` takes
#: this long.
PROBE_REF_S = 0.002


class _Pass:
    """Latencies, outcomes and per-op program counters of one pass.

    ``probes[i]`` ran just before op ``i`` and ``probes[i + 1]`` just
    after it."""

    def __init__(self) -> None:
        self.latency_s: list[float] = []
        self.probes_s: list[float] = []
        self.outcomes: list[Any] = []
        self.errors: dict[int, str] = {}
        self.batches: list[float] = []

    def at_reference_speed(self) -> list[float]:
        """Each op's wall time scaled by ``PROBE_REF_S`` over the mean of
        the probes on either side of it.  (Wider windows track the host
        less closely: on 150 ms ops they doubled the p90's spread.)"""
        p = self.probes_s
        return [2.0 * t * PROBE_REF_S / (p[i] + p[i + 1]) for i, t in enumerate(self.latency_s)]


def _run_pass(workload, registry, count: int | None, seconds: float, tracer=None) -> _Pass:
    """Closed loop over ops 0, 1, ...; ``count`` fixes the op count."""
    from repro import observe

    result = _Pass()
    result.probes_s.append(_probe())
    begin = time.perf_counter()
    i = 0
    with observe.use_registry(registry):
        while (
            i < count
            if count is not None
            else i < MIN_OPS or time.perf_counter() - begin < seconds
        ):
            call = workload.prepare(i)
            before = registry.counter("service.batches")
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                outcome = call()
            except Exception:
                outcome = None
                result.errors[i] = traceback.format_exc(limit=4)
            result.latency_s.append(time.perf_counter() - t0)
            result.outcomes.append(outcome)
            result.batches.append(registry.counter("service.batches") - before)
            result.probes_s.append(_probe())
            i += 1
    return result


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests(run: _Pass) -> tuple[list[str], str | None]:
    """Per-op outcome digests, and the digest of the first :data:`PERIOD`
    outcomes' newline-joined canonical JSON (None for a shorter run)."""
    canonical = ["" if o is None else _canonical(o) for o in run.outcomes]
    stream = _sha256("\n".join(canonical[:PERIOD])) if len(canonical) >= PERIOD else None
    return [_sha256(c) for c in canonical], stream


def _golden_problems(name: str, digests: list[str], stream: str | None) -> list[str]:
    try:
        entry = json.loads(GOLDEN.read_text(encoding="utf-8"))["workloads"][name]
    except (OSError, ValueError, KeyError) as exc:
        return [f"no golden digests for {name} in {GOLDEN.name}: {exc!r}"]
    bad = [i for i, d in enumerate(digests[:PERIOD]) if d[:16] != entry["ops"][i]]
    if bad:
        return [f"golden digest mismatch at ops {bad[:10]}"]
    if stream is not None and stream != entry["sha256"]:
        return ["golden stream sha256 mismatch"]
    return []


def _check(workload, run: _Pass, digests: list[str]) -> list[str]:
    """Every output check that holds for any seed."""
    from repro.journal import JournalError, load

    problems = [f"op {i} raised:\n{tb}" for i, tb in sorted(run.errors.items())]
    for i, outcome in enumerate(run.outcomes):
        if outcome is not None:
            problems.extend(f"op {i}: {p}" for p in workload.check(outcome))
    for i in range(PERIOD, len(digests)):
        if digests[i] != digests[i % PERIOD]:
            problems.append(f"op {i} replays op {i % PERIOD} with a different outcome")
    for i, path in sorted(workload.journals.items()):
        try:
            batches = len(load(path).batches)
        except JournalError as exc:
            problems.append(f"op {i}: journal does not reload: {exc}")
            continue
        if batches != run.batches[i]:
            problems.append(
                f"op {i}: journal holds {batches} batches, service.batches={run.batches[i]:g}"
            )
    return problems


def _recheck_unjournaled(digests: list[str], seed: int) -> list[str]:
    """``serve_journaled`` must serve exactly what ``serve`` serves."""
    import workloads
    from repro import observe

    plain = workloads.build("serve", seed, str(RUN_DIR))
    n = min(len(digests), UNJOURNALED_RECHECK)
    rerun = _run_pass(plain, observe.MetricsRegistry(), n, 0.0)
    if rerun.errors or _digests(rerun)[0] != digests[:n]:
        return [f"serve_journaled outcomes differ from serve on the first {n} ops"]
    return []


def _latency_stats(seconds: list[float], requests_per_op: int) -> dict[str, float]:
    ms = [1000.0 * s for s in seconds]
    return {
        "req_per_s": requests_per_op * len(ms) / sum(seconds),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0],
    }


def _e2e(workload, run: _Pass, failed: int) -> dict[str, float]:
    attempted = workload.requests_per_op * len(run.outcomes)
    return {
        **_latency_stats(run.at_reference_speed(), workload.requests_per_op),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": failed / attempted,
    }


def _per_layer(workload, plain: _Pass, traced: _Pass, tracer, registry, fail_frac) -> dict:
    from trace import layer_table, top_level_seconds

    n = len(traced.latency_s)
    table = layer_table(tracer.spans)
    counters = registry.snapshot()["counters"]
    wall_s = sum(traced.latency_s)
    unattributed_s = wall_s - top_level_seconds(tracer.spans)
    alt_calls = table.get("alternatives", {}).get("calls", 0)
    useful = sum(workload.useful_respecs(o) for o in traced.outcomes if o is not None)
    sel = [row for layer, row in table.items() if layer.startswith("selection.")]
    sel_calls = sum(r["calls"] for r in sel)
    derived = {
        "alternatives.useful_ratio": useful / alt_calls if alt_calls else 0.0,
        "selection.hit_ratio": sum(r.get("hit", 0) for r in sel) / sel_calls if sel_calls else 0.0,
        "journal.bytes": sum(os.path.getsize(p) for p in workload.journals.values()) / n,
        "unattributed_ms": 1000.0 * unattributed_s / n,
        "trace_overhead_frac": (
            sum(traced.at_reference_speed()) / sum(plain.at_reference_speed()) - 1.0
        ),
        "fail_frac": fail_frac,
    }
    metrics = {}
    for name, _unit, (kind, key) in PER_LAYER:
        row = table.get(key, {})
        if kind == "derived":
            metrics[name] = derived[name]
        elif kind == "counter":
            metrics[name] = counters.get(key, 0) / n
        elif kind in ("self", "total"):
            metrics[name] = 1000.0 * row.get(f"{kind}_s", 0.0) / n
        else:  # calls, or a span note such as "conflict"
            metrics[name] = row.get(kind, 0) / n
    layers = {
        layer: {
            "calls": row["calls"] / n,
            "self_ms": 1000.0 * row["self_s"] / n,
            "total_ms": 1000.0 * row["total_s"] / n,
        }
        for layer, row in sorted(table.items())
    }
    return {"per_layer": metrics, "layers": layers, "op_wall_ms": 1000.0 * wall_s / n}


def worker_main(args) -> int:
    """Set up one workload; with ``--role measure`` also time it."""
    sys.path.insert(0, str(SRC))
    import workloads
    from repro import observe

    name = args.workload[0]
    RUN_DIR.mkdir(exist_ok=True)
    ops_dir = RUN_DIR / f"{name}-{os.getpid()}"
    ops_dir.mkdir()
    try:
        workload = workloads.build(name, args.seed, str(ops_dir))
        workload.prepare(0)()  # warm-up: lazy imports, cached host tables
        print("READY", flush=True)
        if args.role == "setup":
            return 0

        registry = observe.MetricsRegistry()
        run = _run_pass(workload, registry, args.ops, args.seconds)
        digests, stream = _digests(run)
        problems = _check(workload, run, digests)
        if name == "serve_journaled":
            problems.extend(_recheck_unjournaled(digests, args.seed))
        failed = sum(
            workload.requests_per_op if o is None else workload.failures(o)
            for o in run.outcomes
        )
        metrics = _e2e(workload, run, failed)
        if args.seed == GOLDEN_SEED and not args.write_golden:
            golden = _golden_problems(name, digests, stream)
            if golden:
                problems.extend(golden)
                metrics["fail_frac"] = 1.0
        result = {
            "workload": name,
            "seed": args.seed,
            "ops": len(run.outcomes),
            "attempted": workload.requests_per_op * len(run.outcomes),
            "failed": failed,
            "metrics": metrics,
            "unscaled": _latency_stats(run.latency_s, workload.requests_per_op),
            "probe_ms": 1000.0 * statistics.median(run.probes_s),
            "digests": digests[:PERIOD],
            "stream_sha256": stream,
        }
        if args.trace:
            from trace import Tracer

            traced_registry = observe.MetricsRegistry()
            workload.journals.clear()
            with Tracer() as tracer:
                traced = _run_pass(workload, traced_registry, len(run.outcomes), 0.0, tracer)
            if _digests(traced)[0] != digests:
                problems.append("traced outcomes differ from untraced outcomes")
            result.update(
                _per_layer(workload, run, traced, tracer, traced_registry, metrics["fail_frac"])
            )
            tracer.dump(str(RUN_DIR / f"spans-{name}-seed{args.seed}.jsonl"))
        result["problems"] = problems[:20]
        result["correct"] = not problems
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(ops_dir, ignore_errors=True)


# ======================================================================
# Driver: subprocesses, aggregation, output
# ======================================================================
def _worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    # One thread per process; a fixed hash seed keeps set/dict layouts
    # (and so their timing) the same from run to run.
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def _spawn(name: str, role: str, args) -> tuple[float, str] | None:
    """Run one worker; returns (seconds until it was set up, its stdout).

    Set-up time is not scaled to the reference speed: the probe does not
    track it (its outliers come with normal probe times)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--role", role,
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.ops is not None:
        cmd += ["--ops", str(args.ops)]
    if args.write_golden:
        cmd.append("--write-golden")
    start = time.perf_counter()
    deadline = start + WORKER_TIMEOUT_S + 4 * args.seconds
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_worker_env(), cwd=ROOT)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], deadline - start)
        first = proc.stdout.readline() if readable else ""
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(0.1, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        print(f"error: {name} {role} worker timed out", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or first.strip() != "READY":
        print(f"error: {name} {role} worker failed (exit {proc.returncode})", file=sys.stderr)
        return None
    return setup_s, rest


def run_workload(name: str, args) -> dict | None:
    """``args.setups`` workers; the last one measures."""
    setups = []
    for k in range(args.setups):
        role = "measure" if k == args.setups - 1 else "setup"
        done = _spawn(name, role, args)
        if done is None:
            return None
        setups.append(done[0])
    result = json.loads(done[1].strip().splitlines()[-1])
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups
    return result


def _human_lines(name: str, result: dict, trace: bool) -> list[str]:
    m = result["metrics"]
    n = result["ops"]
    lines = [f"{name} {k} {m[k]:.6g} {u}" + (f" n={n}" if k.startswith("latency") else "")
             for k, u in E2E_UNITS.items()]
    lines.append(f"{name} fail_frac {m['fail_frac']:.6g} ratio")
    if trace:
        lines += [f"{name} {k} {v:.6g} {PER_LAYER_UNITS[k]}" for k, v in result["per_layer"].items()]
    return lines


def _write_golden(results: dict[str, dict]) -> str | None:
    """Record seed-1 digests; returns an error message or None."""
    short = [w for w, r in results.items() if r["ops"] < PERIOD]
    if short:
        return f"--write-golden needs {PERIOD} ops per workload; short: {short}"
    if {"serve", "serve_journaled"} <= set(results) and (
        results["serve"]["digests"] != results["serve_journaled"]["digests"]
    ):
        return "serve and serve_journaled outcomes differ; not recording them"
    try:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        golden = {"seed": GOLDEN_SEED, "period": PERIOD, "workloads": {}}
    for w, r in results.items():
        golden["workloads"][w] = {
            "sha256": r["stream_sha256"],
            "ops": [d[:16] for d in r["digests"]],
        }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return None


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def _document(results: dict[str, dict], args) -> dict:
    """The ``--out`` file: environment, settings and every result."""
    import numpy

    return {
        "benchmark": "bench/e2e.py",
        "git_sha": _git_sha(),
        "cpu_count": os.cpu_count(),
        "python": pyplatform.python_version(),
        "numpy": numpy.__version__,
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seed": args.seed,
        "seconds": args.seconds,
        "ops": args.ops,
        "setups": args.setups,
        "units": {**E2E_UNITS, "fail_frac": "ratio", **(PER_LAYER_UNITS if args.trace else {})},
        "workloads": {
            w: {k: v for k, v in r.items() if k != "digests"} for w, r in results.items()
        },
    }


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                   help="workload to run (repeatable; default: all five)")
    p.add_argument("--seed", type=int, default=GOLDEN_SEED,
                   help="seeds the request streams only (default: %(default)s)")
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                   help="timed seconds per workload (default: %(default)s)")
    p.add_argument("--ops", type=int, default=None,
                   help="run exactly this many timed ops instead of --seconds")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="add a traced pass and report per-layer metrics")
    p.add_argument("--setups", type=int, default=DEFAULT_SETUPS,
                   help="subprocesses that set up each workload; setup_s is their "
                        "median (default: %(default)s)")
    p.add_argument("--out", help="also write every result, with environment, to this JSON file")
    p.add_argument("--write-golden", action="store_true",
                   help=f"record {GOLDEN.name} from a seed-{GOLDEN_SEED} run")
    p.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.ops is not None and args.ops < 1:
        p.error("--ops must be at least 1")
    if args.setups < 1:
        p.error("--setups must be at least 1")
    if args.write_golden and args.seed != GOLDEN_SEED:
        p.error(f"--write-golden records seed {GOLDEN_SEED} only")
    args.workload = args.workload or list(WORKLOADS)
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.role is not None:
        return worker_main(args)
    if not (SRC / "repro").is_dir():
        print(f"error: the program is missing: no {SRC / 'repro'}", file=sys.stderr)
        return 2

    results = {}
    for name in args.workload:
        result = run_workload(name, args)
        if result is None:
            return 1
        results[name] = result
        for line in _human_lines(name, result, bool(args.trace)):
            print(line)
        for problem in result["problems"]:
            print(f"{name}: CHECK FAILED: {problem}", file=sys.stderr)

    if args.write_golden:
        error = _write_golden(results)
        if error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    if args.out:
        Path(args.out).write_text(json.dumps(_document(results, args), indent=1) + "\n",
                                  encoding="utf-8")

    key = "per_layer" if args.trace else "metrics"
    units = PER_LAYER_UNITS if args.trace else E2E_UNITS
    metrics = {}
    for name, r in results.items():
        for metric, unit in units.items():
            label = metric if len(results) == 1 else f"{name}/{metric}"
            metrics[label] = {"value": r[key][metric], "unit": unit}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
