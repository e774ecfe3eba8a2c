#!/usr/bin/env python
"""Selection hot-path benchmark: the ClassAd index against a full scan.

Times :meth:`repro.selection.classad.Matchmaker.match` over synthetic
platforms of growing host count (1e2–1e5 at ``--scale full``), once as
shipped (the index answers every constraint whose plan prunes) and once
with the matchmaker's planner patched to an empty
:class:`~repro.selection.index.IndexPlan`, which prunes nothing and so
scans every ad.  It writes specs/sec plus p50/p99 per-query latency to
``BENCH_select.json``, alongside a static-analysis throughput column
(specs/sec linted through the shared constraint IR, per document
language).  Every timed configuration first asserts that the two paths
return **bit-identical ordered match lists** — a divergence aborts the run
with a non-zero exit code.

Usage::

    PYTHONPATH=src python scripts/bench_select.py [--scale smoke|bench|full]

The matchmaker population is reused across repetitions, so the indexed
numbers reflect a warm index (the index build cost is reported separately
per host count).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import time
from unittest.mock import patch

import numpy as np

import repro.selection.classad.matchmaker as matchmaker
from repro.durability import atomic_write_json
from repro.resources.generator import ClusterSpec
from repro.resources.platform import Platform
from repro.selection.classad import Matchmaker, parse_classad
from repro.selection.classad.builders import machine_ads
from repro.selection.index import IndexPlan

#: Host counts per scale.  ``smoke`` must stay fast enough for the tier-1
#: smoke test; ``full`` reaches the 1e5 ceiling of the ROADMAP item.
SCALES = {
    "smoke": {"sizes": (100, 1000), "reps": 5},
    "bench": {"sizes": (100, 1000, 10_000), "reps": 10},
    "full": {"sizes": (100, 1000, 10_000, 100_000), "reps": 10},
}

HOSTS_PER_CLUSTER = 50

#: Benchmarked request ads.  ``selective`` matches a small slice of the
#: population (where pruning shines — the acceptance criterion measures
#: this one at 10k hosts); ``broad`` matches roughly half (worst case for
#: an index: little to prune).
SPECS = {
    "selective": """[
        Requirements = TARGET.Clock >= 3400 && TARGET.OpSys == "LINUX"
            && TARGET.Memory >= 2000;
        Rank = TARGET.Clock;
    ]""",
    "broad": """[
        Requirements = TARGET.Clock >= 2000 && TARGET.OpSys == "LINUX";
        Rank = TARGET.Clock;
    ]""",
}


def make_platform(n_hosts: int, seed: int) -> Platform:
    """Deterministic synthetic platform with ``n_hosts`` hosts."""
    n_clusters = max(1, n_hosts // HOSTS_PER_CLUSTER)
    rng = np.random.default_rng(seed)
    clusters = [
        ClusterSpec(
            cluster_id=c,
            n_hosts=HOSTS_PER_CLUSTER,
            clock_ghz=float(rng.choice([1.0, 1.5, 2.0, 2.5, 3.0, 3.5])),
            memory_mb=int(rng.choice([512, 1024, 2048, 4096])),
            arch="x86",
            os=str(rng.choice(["LINUX", "SOLARIS"])),
        )
        for c in range(n_clusters)
    ]
    bw = np.full((n_clusters, n_clusters), 1.0e9)
    return Platform(clusters=clusters, bandwidth_bps=bw)


def _match_key(matches) -> list[tuple[int, float]]:
    """Order-sensitive identity of a match list (ad object id + rank)."""
    return [(id(m.machine), m.rank) for m in matches]


def _time_queries(fn, reps: int) -> dict[str, float]:
    """p50/p99 latency (ms) and specs/sec over ``reps`` identical queries."""
    lat = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        lat.append(time.perf_counter() - t0)
    lat.sort()
    p50 = statistics.median(lat)
    p99 = lat[min(len(lat) - 1, int(round(0.99 * (len(lat) - 1))))]
    return {
        "p50_ms": round(p50 * 1e3, 4),
        "p99_ms": round(p99 * 1e3, 4),
        "specs_per_sec": round(1.0 / statistics.mean(lat), 2),
    }


def _full_scan():
    """Patch the matchmaker's planner to an empty plan: it prunes nothing,
    so every match scans all ads."""
    return patch.object(matchmaker, "plan_constraint", lambda *args, **kwargs: IndexPlan())


def bench_match(platform: Platform, reps: int) -> list[dict]:
    """Matchmaker.match, index against full scan, over every benchmark spec."""
    mm = Matchmaker(machine_ads(platform, range(platform.n_hosts)))
    t0 = time.perf_counter()
    mm._host_index()
    build_s = time.perf_counter() - t0
    rows = []
    for name, text in SPECS.items():
        req = parse_classad(text)
        indexed = mm.match(req)
        with _full_scan():
            naive = mm.match(req)
            naive_timing = _time_queries(lambda: mm.match(req), reps)
        if _match_key(indexed) != _match_key(naive):
            raise SystemExit(
                f"FATAL: indexed and naive match lists diverge "
                f"(spec={name}, hosts={platform.n_hosts})"
            )
        rows.append(
            {
                "workload": "classad_match",
                "spec": name,
                "n_hosts": platform.n_hosts,
                "n_matches": len(indexed),
                "index_build_ms": round(build_s * 1e3, 3),
                "identical_output": True,
                "naive": naive_timing,
                "indexed": _time_queries(lambda: mm.match(req), reps),
            }
        )
        rows[-1]["speedup"] = round(
            rows[-1]["naive"]["p50_ms"] / max(rows[-1]["indexed"]["p50_ms"], 1e-9), 2
        )
    return rows


def bench_lint(reps: int) -> list[dict]:
    """Static-analysis throughput: specs/sec through the shared IR path.

    Lints one representative specification in every supported document
    language (the three renderings plus the JSON form).  Each lint is a
    full frontend-lowering plus the semantic pass pipeline, so the
    ``specs_per_sec`` column tracks the cost of the typed constraint IR
    end to end; every document must analyze clean.
    """
    from repro.analysis import lint_text
    from repro.core.generator import ResourceSpecification

    spec = ResourceSpecification(
        heuristic="mcp",
        size=24,
        min_size=20,
        clock_min_mhz=2000.0,
        clock_max_mhz=4000.0,
        connectivity="loose",
        threshold=0.001,
        dag_name="bench",
    )
    documents = {
        "vgdl": spec.to_vgdl(),
        "classad": spec.to_classad(),
        "sword": spec.to_sword_xml(),
        "json": json.dumps(spec.to_dict()),
    }
    rows = []
    for lang, text in documents.items():
        report = lint_text(text, lang=lang)
        if len(report):
            raise SystemExit(
                f"FATAL: benchmark specification lints dirty ({lang}):\n"
                f"{report.render()}"
            )
        timing = _time_queries(lambda t=text, lg=lang: lint_text(t, lang=lg), reps)
        rows.append({"workload": "lint_ir", "lang": lang, "clean": True, **timing})
    return rows


def _git_sha() -> str:
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        )
    except Exception:
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="bench", choices=tuple(SCALES))
    parser.add_argument("--output", default="BENCH_select.json")
    args = parser.parse_args()

    cfg = SCALES[args.scale]
    results = []
    for n_hosts in cfg["sizes"]:
        platform = make_platform(n_hosts, seed=1)
        results.extend(bench_match(platform, cfg["reps"]))
        print(f"... {n_hosts} hosts done", flush=True)

    lint_rows = bench_lint(max(cfg["reps"] * 20, 100))
    print("... lint throughput done", flush=True)

    report = {
        "scale": args.scale,
        "git_sha": _git_sha(),
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "identical_output": True,
        "results": results,
        "lint_throughput": lint_rows,
    }
    atomic_write_json(args.output, report, indent=2)
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
