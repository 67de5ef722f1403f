#!/usr/bin/env python3
"""The QFix benchmark: one command, four workloads, end-to-end and per-layer metrics.

Run one workload (the form ``BENCHMARK.json`` names)::

    python3 perfbench/run.py --workload request-mix --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full
report with provenance goes to ``.perfbench-out/reports/`` (untracked).

``--workload all`` runs every workload, each in a fresh process.
``--repeat N`` runs the chosen workload(s) N times on seeds ``seed ..
seed+N-1`` (untraced, plus one traced run each) and prints, per metric, the
median, the spread between quartiles as a share of the median, and the bound
from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("request-mix", "long-history", "batch-bnb", "session-durable")
#: Python's string hashing is seeded per process, and set iteration order in
#: the program follows it; the benchmark fixes it so that the same seed makes
#: the same run (``main`` re-executes itself with this value).
HASH_SEED = "0"


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _missing_program() -> str | None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return f"the program's sources (src/repro) are missing under {ROOT}"
    if not (ROOT / "BENCHMARK.json").is_file():
        return f"BENCHMARK.json is missing under {ROOT}"
    return None


# -- metrics ---------------------------------------------------------------------------


def end_to_end(name: str, run) -> dict[str, tuple[float, str]]:
    import measure
    from workloads import DIAGNOSE_TAIL

    diagnoses = len(run.diagnose_s)
    tail = DIAGNOSE_TAIL[name]
    if diagnoses * (1 - tail / 100) < 10:
        run.problems.append(f"{diagnoses} diagnosis samples leave fewer than ten beyond p{tail:g}")
    return {
        "setup_s": (measure.median(run.setup_s), "s"),
        "diagnoses_per_s": (diagnoses / run.diagnose_busy_s, "1/s"),
        "diagnose_p50_ms": (1000 * measure.percentile(run.diagnose_s, 50), "ms"),
        "diagnose_tail_ms": (1000 * measure.percentile(run.diagnose_s, tail), "ms"),
        "append_p50_ms": (1000 * measure.percentile(run.append_s, 50), "ms"),
        "recover_s": (measure.median(run.recover_s), "s"),
        "store_mb": (run.store_mb, "MB"),
        "repair_f1": (statistics.fmean(run.f1) if run.f1 else 0.0, "ratio"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def per_layer(name: str, run) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run (see README for each definition)."""
    from layers import APPLY, LAYERS

    units_of = {metric["name"]: metric["unit"] for metric in _spec()["per_layer"]}
    #: Every wrapped layer reports its self time as ``<layer>_s``.
    clock_times = {layer: f"{layer}_s" for layer, _, _ in (*LAYERS, APPLY)}
    clock = run.clock
    extra = run.extra
    summaries = run.summaries
    diagnoses = max(1, len(run.diagnose_s))
    sessions = name == "session-durable"
    units = max(1, int(extra.get("appends", 0))) if sessions else diagnoses

    def total(key: str) -> float:
        return float(sum(float(s.get(key, 0) or 0) for s in summaries))

    values: dict[str, float] = {metric: 0.0 for metric in units_of}
    self_seconds = dict(clock.self_seconds)
    calls = dict(clock.calls)
    if name == "batch-bnb":
        # The layers run in forked workers: their times come back in each
        # response's summary; the parent's clock sees only the parent side.
        # Encode and solve seconds cover every window a diagnosis tried; the
        # ``stats.*`` figures describe the solve of its last window only.
        worker = sum(run.diagnose_s)
        encode = total("encode_seconds")
        solve = total("solve_seconds")
        presolve = total("stats.presolve_seconds")
        lp = total("stats.lp_seconds")
        self_seconds["core.encode"] = self_seconds.get("core.encode", 0.0) + encode
        self_seconds["milp.presolve"] = self_seconds.get("milp.presolve", 0.0) + presolve
        values["parallel.worker_s"] = (worker - encode - solve) / units
        values["parallel.busy_share"] = worker / (extra["batch_wall_s"] * extra["shards"])
        values["milp.bnb.lp_s"] = lp / units
        values["milp.bnb.search_s"] = (solve - presolve - lp) / units
        wall = extra["batch_wall_s"] * extra["shards"]
    else:
        wall = run.op_wall_s
    for layer, metric in clock_times.items():
        values[metric] = self_seconds.get(layer, 0.0) / units
    values["core.encode_calls"] = calls.get("core.encode", 0) / units
    values["core.refine_calls"] = calls.get("core.refine", 0) / units
    values["milp.native_calls"] = calls.get("milp.native", 0) / units
    values["queries.replay_calls"] = calls.get("queries.replay", 0) / units
    values["core.windows_per_diagnosis"] = total("windows_tried") / diagnoses
    refined = sum(1 for s in summaries if s.get("refined"))
    values["core.refine_kept_ratio"] = refined / calls["core.refine"] if calls.get("core.refine") else 0.0
    values["core.compacted_share"] = total("stats.compacted_queries") / max(1, run.request_queries)
    values["milp.components_per_diagnosis"] = total("stats.components") / diagnoses
    values["milp.bnb.nodes"] = total("stats.nodes_explored") / diagnoses
    values["milp.bnb.lp_calls"] = total("stats.lp_relaxations") / diagnoses
    lp_attempts = total("stats.lp_relaxations") + total("stats.lp_skipped")
    values["milp.bnb.lp_skip_ratio"] = total("stats.lp_skipped") / lp_attempts if lp_attempts else 0.0
    if name != "batch-bnb":
        values["milp.bnb.lp_s"] = total("stats.lp_seconds") / diagnoses
    values["milp.warm_start_ratio"] = total("stats.warm_start_used") / diagnoses
    if sessions:
        requests = max(1.0, clock.counters.get("http_requests", 0.0))
        client_seconds = clock.counters.get("http_seconds", 0.0)
        values["server.transport_ms"] = (
            1000 * (client_seconds - clock.inclusive_seconds.get("server.dispatch", 0.0)) / requests
        )
        values["db.rows_copied_per_append"] = clock.counters.get("rows_copied", 0.0) / units
        values["durability.bytes_per_append"] = extra.get("wal_bytes", 0.0) / units
        values["durability.fsyncs"] = extra.get("fsyncs", 0.0) / units
        values["durability.snapshots"] = extra.get("snapshots", 0.0)
        user_bytes = clock.counters.get("user_bytes", 0.0)
        written = extra.get("wal_bytes", 0.0) + extra.get("snapshot_bytes", 0.0)
        values["durability.write_amplification"] = written / user_bytes if user_bytes else 0.0
        values["durability.recovered_records"] = extra.get("recovered_records", 0.0)
    attributed = sum(values[metric] for metric in clock_times.values())
    if name == "batch-bnb":
        attributed += values["parallel.worker_s"] + values["milp.bnb.lp_s"] + values["milp.bnb.search_s"]
    values["unattributed_s"] = wall / units - attributed
    return {metric: (values[metric], unit) for metric, unit in units_of.items()}


# -- one workload in this process -------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    from layers import LayerClock
    from workloads import WORKLOADS, Run

    run = Run(traced=trace, clock=LayerClock() if trace else None)
    work = OUT / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = time.time()
    try:
        WORKLOADS[name](seed, seconds, run, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = per_layer(name, run) if trace else end_to_end(name, run)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    report = {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "wall_s": time.time() - started,
        "rounds": run.rounds,
        "round_s": run.round_s,
        "samples": {
            "diagnoses": len(run.diagnose_s),
            "appends": len(run.append_s),
            "setups": len(run.setup_s),
            "recoveries": len(run.recover_s),
        },
        "setup_s": run.setup_s,
        "recover_s": run.recover_s,
        "percentiles_ms": {
            label: {f"p{q}": 1000 * measure.percentile(samples, q) for q in (50, 75, 80, 90, 95, 99)}
            for label, samples in (("diagnose", run.diagnose_s), ("append", run.append_s))
            if samples
        },
        "traced_wall_s": run.op_wall_s,
        "failures": run.failures,
        "problems": run.problems,
        "extra": run.extra,
        "provenance": measure.provenance(ROOT, seed=seed, runs=1),
        "result": result,
    }
    reports = OUT / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(started))
    path = reports / f"{name}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True))
    return result


# -- several runs in fresh processes ----------------------------------------------------


def _subprocess_result(name: str, seed: int, seconds: float, trace: bool) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{name} seed {seed} failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _bounds() -> dict[str, float]:
    return {metric["name"]: metric["bound"] for metric in _spec()["end_to_end"]}


def repeat_mode(names: list[str], seed: int, seconds: float, runs: int) -> int:
    import measure

    bounds = _bounds()
    summary: dict[str, dict] = {}
    for name in names:
        values: dict[str, list[float]] = {}
        failed = []
        for offset in range(runs):
            result = _subprocess_result(name, seed + offset, seconds, False)
            failed.append((result["failed"], result["attempted"]))
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed + offset}: failed {result['failed']}/{result['attempted']}", file=sys.stderr)
        traced = _subprocess_result(name, seed, seconds, True)
        rows = {}
        for metric, series in values.items():
            middle = statistics.median(series)
            quartiles = statistics.quantiles(series, n=4) if len(series) > 1 else [middle] * 3
            spread = (quartiles[2] - quartiles[0]) / middle if middle else 0.0
            rows[metric] = {
                "median": middle,
                "iqr_share": spread,
                "bound": bounds.get(metric),
                "values": series,
            }
            print(f"{name:16s} {metric:18s} median {middle:12.5g}  iqr/median {spread:6.3f}  bound {bounds.get(metric)}")
        summary[name] = {
            "runs": rows,
            "failed": failed,
            "traced": traced,
            "provenance": measure.provenance(ROOT, seed=seed, runs=runs),
        }
    reports = OUT / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    path = reports / f"repeat-{time.strftime('%Y%m%dT%H%M%S', time.gmtime())}.json"
    path.write_text(json.dumps(summary, indent=2, sort_keys=True))
    print(json.dumps({name: {m: r["median"] for m, r in s["runs"].items()} for name, s in summary.items()}))
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="runs per workload in repeat mode")
    args = parser.parse_args(argv)
    problem = _missing_program()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    names = list(WORKLOAD_NAMES) if args.workload == "all" else [args.workload]
    if args.repeat:
        return repeat_mode(names, args.seed, args.seconds, args.repeat)
    if args.workload == "all":
        results = {name: _subprocess_result(name, args.seed, args.seconds, bool(args.trace)) for name in names}
        for name, result in results.items():
            for metric, entry in result["metrics"].items():
                print(f"{name:16s} {metric:32s} {entry['value']:14.6g} {entry['unit']}")
            print(f"{name:16s} attempted {result['attempted']} failed {result['failed']}")
        print(json.dumps(results))
        return 0 if all(result["correct"] for result in results.values()) else 1
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
