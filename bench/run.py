"""prodap benchmark: one seeded workload per invocation, run from the
repository root.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 28 --trace 0

Each workload runs in fresh single-threaded worker processes that import
prodap from ./src.  With --trace 0 the result is the end-to-end metrics:
setup time (median of several fresh processes), ops per second, latency p50
and p90, and peak RSS.  With --trace 1 an untraced and a traced process run
back to back, each for half of --seconds, and the result is the per-layer
metrics of the traced one plus the tracing overhead.  Metric lines go to
stdout with their units, a result file with an environment stamp goes to
.bench_out/, and the last stdout line is one JSON object: {"correct",
"attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from spans import PER_LAYER
from worker import REF_S, reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("pipeline", "study-random", "reduce-long", "construct-verify")
SETUPS = 3  # setup_s is the median over this many fresh processes
DEADLINE_S = 170  # every worker must have ended by then
# one thread: numpy's BLAS pools would otherwise start one thread per core
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)


def spawn(args, mode: str, seconds: float, deadline: float) -> dict:
    """Run one worker to completion and return its result object, with its
    setup time scaled to the reference speed as ``setup_s``."""
    ref = reference()
    t0 = time.perf_counter()
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--mode", mode, "--t0", repr(t0),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV}, stdout=subprocess.PIPE,
            text=True, timeout=max(deadline - time.perf_counter(), 1),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{mode} worker passed the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise SystemExit(f"{mode} worker exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_wall_s"] = out["setup_s"]
    out["setup_s"] *= REF_S / ((ref + out["setup_ref_s"]) / 2)
    return out


def scaled(run: dict) -> list[float]:
    """Per-op latencies scaled to the reference speed."""
    return [t * REF_S / ref for t, ref in zip(run["latencies"], run["refs"])]


def timing(lat: list[float]) -> dict:
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "beyond_p90": sum(x > p90 for x in lat),
    }


def environment(ops: int, seconds: float) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(models, None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "ops_per_run": ops,
        "run_seconds": seconds,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    deadline = time.perf_counter() + DEADLINE_S

    # the traced run's two workers share the time of one untraced run
    seconds = args.seconds / 2 if args.trace else args.seconds
    measured = spawn(args, "measure", seconds, deadline)
    lat, failures = scaled(measured), list(measured["failures"])
    t = timing(lat)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        traced = spawn(args, "trace", seconds, deadline)
        failures += traced["failures"]
        attempted = len(lat) + len(traced["latencies"])
        layers = traced["layers"]
        # both processes ran the same input stream: compare the ops both did
        k = min(len(lat), len(traced["latencies"]))
        layers["trace.overhead_ratio"] = sum(scaled(traced)[:k]) / sum(lat[:k])
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
        record.update(spans=traced["spans"], spans_total=traced["spans_total"])
    else:
        setups = [spawn(args, "setup", seconds, deadline) for _ in range(SETUPS - 1)]
        setups.append(measured)
        record["setup_s"] = [s["setup_s"] for s in setups]
        record["setup_wall_s"] = [s["setup_wall_s"] for s in setups]
        values = {
            "setup_s": statistics.median(record["setup_s"]),
            "peak_rss_mib": measured["peak_rss_mib"],
            **t,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        attempted = len(lat)

    env = environment(len(lat), args.seconds)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"untraced ops {len(lat)}  samples beyond p90 {t['beyond_p90']}  "
          f"attempted ops {attempted}")
    for name, m in metrics.items():
        print(f"  {name:50s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ratio':50s} {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} ops)")
    for f in failures[:5]:
        print(f"  failed {f['key']}: {f['error']}")
    print("env " + json.dumps(env, sort_keys=True))

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    record.update(env=env, result=result, failures=failures, latencies_s=lat,
                  wall_latencies_s=measured["latencies"], reference_s=measured["refs"])
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
