"""One workload in one fresh process: set up, warm up, then time ops.

run.py starts this script; it is not meant to be run by hand.  The last line
of stdout is a JSON object with the setup time, per-op latencies and failure
counts, and in trace mode the per-layer metrics and the recorded spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from functools import partial
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
REF_LOOPS = 20_000
# Times are reported as if the reference loop took REF_S: each op's wall time
# is scaled by REF_S over the loop's duration measured right around it.  On a
# shared machine whose speed drifts by tens of percent within a minute this
# cancels the drift; a change to prodap moves the op and not the loop.
REF_S = 0.003


def import_program():
    """Import prodap from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "prodap" / "__init__.py").is_file():
        raise SystemExit(f"no prodap sources under {src}")
    sys.path.insert(0, str(src))
    import prodap

    if Path(prodap.__file__).resolve().parent != (src / "prodap").resolve():
        raise SystemExit(f"prodap imported from {prodap.__file__}, not {src}")


def reference() -> float:
    """Duration of a fixed pure-Python loop of integer arithmetic and dict
    stores: a probe of how fast this machine runs Python right now."""
    t = perf_counter()
    acc, table = 0, {}
    for i in range(REF_LOOPS):
        acc += (i * i) % 7
        table[i & 1023] = acc
    return perf_counter() - t


def attempt(w, key, inp, op) -> tuple[float, float, Exception | None]:
    """Time one op and check its output; returns (seconds, reference seconds
    around the op, failure).  Any exception, from the op or from its check,
    is that op's failure."""
    before = reference()
    failure = None
    t = perf_counter()
    try:
        result = op(inp)
    except Exception as exc:
        failure = exc
    seconds = perf_counter() - t
    ref = (before + reference()) / 2
    if failure is None:
        try:
            w.check(key, inp, result)
        except Exception as exc:
            failure = exc
    return seconds, ref, failure


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True, help="parent's perf_counter at spawn")
    args = ap.parse_args()

    import_program()
    import workloads

    w = workloads.WORKLOADS[args.workload]()
    stream = w.inputs(args.seed)
    key = w.warmup_key()
    inp = w.make(key)
    w.check(key, inp, w.run(inp))
    setup_s = perf_counter() - args.t0
    out = {"setup_s": setup_s, "setup_ref_s": reference()}
    if args.mode == "setup":
        print(json.dumps(out))
        return

    tracer = None
    if args.mode == "trace":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    latencies, refs, failures = [], [], []
    start = perf_counter()
    while perf_counter() - start < args.seconds:
        key, inp = next(stream)
        op = w.run if tracer is None else partial(tracer.run_op, len(latencies), w.run)
        seconds, ref, failure = attempt(w, key, inp, op)
        latencies.append(seconds)
        refs.append(ref)
        if failure is not None:
            failures.append({"key": key, "error": f"{type(failure).__name__}: {failure}"})
            traceback.print_exception(failure, file=sys.stderr)
    out.update(
        latencies=latencies,
        refs=refs,
        failures=failures,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        tracer.uninstall()
        from prodap.exactnum import DEFAULT_TABLE

        layers = tracer.layer_metrics(len(latencies))
        layers["exactnum.sieve_limit"] = DEFAULT_TABLE.limit
        layers["trace.op_s"] = sum(latencies) / len(latencies)
        out.update(layers=layers, spans=tracer.spans, spans_total=tracer.n_spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
