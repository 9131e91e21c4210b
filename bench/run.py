"""diracmech benchmark: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --workload all --seed <n>

Run from the repository root. Each workload runs in a fresh worker process
(``bench/worker.py``) with PYTHONPATH=src and BLAS pinned to one thread, the
single-threaded baseline. With ``--trace 0`` it reports the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` the per-layer metrics of a
separate traced run. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller report,
run metadata included, goes to ``.bench_out/reports/``.

``setup_s`` is the median cold import of the entry module over the worker
and ``SETUP_PROBES`` extra fresh processes. ``ops_per_s``, ``op_p50_ms`` and
``op_tail_ms`` are host-adjusted (units ops/ref_s and ref_ms): each op's time
is scaled by REFERENCE_PROBE_MS over a pure-Python probe timed around it,
because the shared host's CPU speed drifts by tens of percent between runs.
The wall-clock values are printed next to them and kept in the report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import BLAS_THREAD_VARS, ENTRY, OUT_DIR, REFERENCE_PROBE_MS, ROOT

BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
SETUP_PROBES = 3
TIME_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def _worker(args, timeout):
    return subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), *args],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))


def tail_latency(latencies):
    """(value, percentile, ops beyond): the highest percentile with >= 10 ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def all_ops(result):
    """Every op the worker ran and checked: warm-up, untraced and timed."""
    return result["warmup_ops"] + result.get("untraced_ops", []) + result["ops"]


def end_to_end(result, setup_probes):
    """Metric -> (value, unit, samples, note).

    Op times are host-adjusted: each is scaled by REFERENCE_PROBE_MS over the
    host speed probe taken around it (units ref_ms and ops/ref_s). The note
    gives the wall-clock value.
    """
    raw = [op["seconds"] for op in result["ops"]]
    lat = [op["seconds"] * REFERENCE_PROBE_MS / op["host_ms"] for op in result["ops"]]
    n = len(lat)
    tail, pct, beyond = tail_latency(lat)
    ops = all_ops(result)
    failed = sum(1 for op in ops if not op["passed"])
    setup = [result["setup_s"], *setup_probes]
    rows = {
        "setup_s": (statistics.median(setup), "s", len(setup),
                    f"median cold import of {len(setup)} fresh processes"),
        "ops_per_s": (n / sum(lat), "ops/ref_s", n,
                      f"{result['cycles']} cycles; wall clock {n / sum(raw):.4g} ops/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ref_ms", n,
                      f"wall clock {statistics.median(raw) * 1e3:.4g} ms"),
        "op_tail_ms": (tail * 1e3, "ref_ms", n,
                       f"p{pct:.1f}, {beyond} ops beyond; wall clock "
                       f"{tail_latency(raw)[0] * 1e3:.4g} ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB", 1, "ru_maxrss of the worker"),
        "ops_failed_frac": (failed / len(ops), "ratio", len(ops),
                            f"{failed} of {len(ops)} ops, warm-up included"),
    }
    return rows


def metadata(result) -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "src_lines": lines,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": 1, **result["environment"]}


def run_workload(name, seed, seconds, trace, deadline):
    setup_probes = []
    if not trace:
        for _ in range(SETUP_PROBES):
            done = _worker(["--probe-import", ENTRY[name]], deadline - time.monotonic())
            if done.returncode != 0:
                raise RuntimeError(f"import probe failed:\n{done.stderr[-2000:]}")
            setup_probes.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result-{name}-{os.getpid()}.json"
    try:
        done = _worker(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", str(trace), "--out", str(out)], deadline - time.monotonic())
        if done.returncode != 0:
            raise RuntimeError(f"worker for {name} failed:\n{done.stderr[-4000:]}")
        result = json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)
    return result, setup_probes


def report(name, seed, seconds, trace, result, setup_probes, bench):
    """Print the human-readable tables; return (attempted, failed, metrics, record)."""
    print(f"== {name}  seed={seed}  seconds={seconds:g}  trace={trace}")
    meta = metadata(result)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "metadata": meta, "result": result}
    ops = all_ops(result)
    failed = sum(1 for op in ops if not op["passed"])
    if trace:
        wanted = bench["per_layer"]
        metrics = {m["name"]: {"value": result["per_layer"][m["name"]], "unit": m["unit"]}
                   for m in wanted}
        print(f"{'layer':<16}{'spans/cycle':>14}{'self s/cycle':>14}{'share':>8}")
        for row in result["self_time"]:
            print(f"{row['layer']:<16}{row['calls']:>14.1f}{row['self_s']:>14.6f}"
                  f"{row['share']:>8.1%}")
        print(f"tracing overhead {result['per_layer']['trace.overhead_frac']:+.1%} per cycle; "
              f"layers account for {result['per_layer']['trace.layer_share']:.2%} of traced op "
              f"time; spans in {result.get('spans_file')}")
    else:
        e2e = end_to_end(result, setup_probes)
        wanted = bench["end_to_end"]
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]} for m in wanted}
        print(f"{'metric':<17}{'value':>14}  {'unit':<10}{'samples':>8}  note")
        for key, (value, unit, samples, note) in e2e.items():
            print(f"{key:<17}{value:>14.6g}  {unit:<10}{samples:>8}  {note}")
    margins = {}
    for op in ops:
        for key, value in (op.get("margins") or {}).items():
            pick = min if key.endswith("_min") else max
            margins[key] = pick(margins.get(key, value), value)
    if margins:
        print("health margins (not gated): "
              + ", ".join(f"{k}={v:.3e}" for k, v in sorted(margins.items())))
    record["health_margins"] = margins
    host = [op["host_ms"] for op in result["ops"]]
    print(f"host speed probe: median {statistics.median(host):.3f} ms over {len(host)} ops")
    if name == "lattice_maxwell":
        for lattice, kernels in result["kernel_counts"].items():
            print(f"computed kernel counts {lattice} (not gated): " + ", ".join(
                f"{kernel} {c['flops']:.3g} flops {c['bytes']:.3g} bytes"
                for kernel, c in kernels.items()))
    for op in ops:
        if not op["passed"]:
            print(f"FAILED {op['kind']}: {op['detail']}")
    print("meta: " + json.dumps(meta, sort_keys=True))
    return len(ops), failed, metrics, record


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "diracmech" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'diracmech'} is missing", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S * (len(names) if args.workload == "all" else 1)
    selected = names if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in selected:
        try:
            result, setup_probes = run_workload(name, args.seed, args.seconds, args.trace,
                                                deadline)
        except (RuntimeError, subprocess.TimeoutExpired) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        n, bad, values, record = report(name, args.seed, args.seconds, args.trace, result,
                                        setup_probes, bench)
        attempted += n
        failed += bad
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + key: value for key, value in values.items()})
        reports = OUT_DIR / "reports"
        reports.mkdir(parents=True, exist_ok=True)
        (reports / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
