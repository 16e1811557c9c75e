"""Span tracer for the traced run: wraps prodap's public functions from the
outside, records spans in memory and derives per-layer self times and counts.

A layer's self time is its span's duration minus the time its child spans
cover.  Counters come from call arguments and return values only, so nothing
under src/ is touched.  Spans are recorded only inside an op; input
generation and output checks call into prodap too and must not count.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

INT64_SWITCH = 2**62


def _gcd_audit(c, args, kwargs, result, dur):
    desc = args[0]
    c["apcore.gcd_bound_audit.pairs"] += desc.L * (desc.L - 1) // 2
    if desc.term(desc.L - 1) >= INT64_SWITCH:
        c["apcore.gcd_bound_audit.bigint_calls"] += 1
        c["apcore.gcd_bound_audit.bigint_self_s"] += dur


def _enumerate(c, args, kwargs, result, dur):
    c["cyclelab.enumerate_even_cycles.cycles"] += len(result)
    cap = kwargs.get("max_count", args[2] if len(args) > 2 else None)
    c["cyclelab.enumerate_even_cycles.capped"] += cap is not None and len(result) >= cap


def _coverage(c, args, kwargs, result, dur):
    methods = Counter(result.methods.values())
    c["construct.witnesses.large_prime"] += methods["large-prime"]
    c["construct.witnesses.transfer"] += methods["transfer"]


def _irregular(c, args, kwargs, result, dur):
    c["irregular.irregularity_report.window_primes"] += len(result.window.primes)
    c["irregular.irregularity_report.irregular_edges"] += sum(
        len(v) for v in result.per_prime.values()
    )


def _count(name, f):
    def add(c, args, kwargs, result, dur):
        c[name] += f(args, result)

    return add


# (module, attribute or Class.method, span name, counter); the span name groups
# the three cycle audit checks into one layer
TARGETS = [
    ("cyclelab", "find_even_cycle", "cyclelab.find_even_cycle",
     _count("cyclelab.find_even_cycle.edges_scanned", lambda a, r: len(a[0].edges))),
    ("cyclelab", "enumerate_even_cycles", "cyclelab.enumerate_even_cycles", _enumerate),
    ("cyclelab", "cycle_identity_check", "cyclelab.cycle_audit", None),
    ("cyclelab", "cycle_poly", "cyclelab.cycle_audit", None),
    ("cyclelab", "divisibility_audit", "cyclelab.cycle_audit", None),
    ("prodset", "longest_ap", "prodset.longest_ap", lambda c, a, k, r, d: (
        c.update({"prodset.longest_ap.input_size": len(a[0]),
                  "prodset.longest_ap.found_length": r.length}))),
    ("prodset", "product_set", "prodset.product_set",
     _count("prodset.product_set.products", lambda a, r: len(r))),
    ("prodset", "build_rep_graph", "prodset.build_rep_graph",
     _count("prodset.build_rep_graph.edges", lambda a, r: len(r.edges))),
    ("apcore", "gcd_bound_audit", "apcore.gcd_bound_audit", _gcd_audit),
    ("apcore", "reduce_ap", "apcore.reduce_ap",
     _count("apcore.reduce_ap.steps", lambda a, r: len(r[2].steps))),
    ("apcore", "verify_coverage", "apcore.verify_coverage", None),
    ("exactnum", "PrimeTable.factorize", "exactnum.factorize", None),
    ("exactnum", "PrimeTable.is_prime", "exactnum.is_prime", None),
    ("construct", "coverage_check", "construct.coverage_check", _coverage),
    ("construct", "split_factor", "construct.split_factor", None),
    ("construct", "exceeds_ln", "construct.exceeds_ln", None),
    ("irregular", "irregularity_report", "irregular.irregularity_report", _irregular),
    ("rationalize", "make_quad_instance", "rationalize.make_quad_instance", None),
    ("rationalize", "rationalize_components", "rationalize.rationalize_components", None),
    ("rationalize", "four_cycle_exists_audit", "rationalize.four_cycle_exists_audit", None),
    ("jsonio", "dumps_canonical", "jsonio.dumps_canonical",
     _count("jsonio.dumps_canonical.bytes", lambda a, r: len(r))),
    ("harness", "pipeline", "harness.pipeline", None),
    ("harness", "run_trial", "harness.run_trial", None),
]

# per-layer metrics: (name, unit); self times and counts are per op
CALLS = ("cyclelab.find_even_cycle", "apcore.verify_coverage", "exactnum.factorize",
         "exactnum.is_prime", "construct.coverage_check", "construct.split_factor",
         "construct.exceeds_ln")
COUNTS = (
    "cyclelab.find_even_cycle.edges_scanned", "cyclelab.enumerate_even_cycles.cycles",
    "cyclelab.enumerate_even_cycles.capped", "prodset.longest_ap.input_size",
    "prodset.longest_ap.found_length", "prodset.product_set.products",
    "prodset.build_rep_graph.edges", "apcore.gcd_bound_audit.pairs",
    "apcore.gcd_bound_audit.bigint_calls", "apcore.reduce_ap.steps",
    "construct.witnesses.large_prime", "construct.witnesses.transfer",
    "irregular.irregularity_report.window_primes",
    "irregular.irregularity_report.irregular_edges", "jsonio.dumps_canonical.bytes",
)
SELF = tuple(dict.fromkeys(span for _, _, span, _ in TARGETS))
PER_LAYER = (
    [(f"{s}.self_s", "s/op") for s in SELF]
    + [("apcore.gcd_bound_audit.bigint_self_s", "s/op")]
    + [(f"{s}.calls", "count/op") for s in CALLS]
    + [(c, "count/op") for c in COUNTS]
    + [("exactnum.sieve_limit", "count"), ("trace.op_s", "s/op"),
       ("trace.overhead_ratio", "ratio")]
)


class Tracer:
    """Spans (id, name, start, end, parent id, op id) for the first
    ``span_cap`` spans, self time and counters for all of them."""

    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.n_spans = 0
        self.stack: list[list] = []  # [span id, start, child time]
        self.self_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.op_id: int | None = None
        self._undo: list = []

    def wrap(self, name, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            sid = tracer.n_spans
            tracer.n_spans += 1
            frame = [sid, perf_counter(), 0.0]
            stack = tracer.stack
            parent = stack[-1] if stack else None
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[1]
                tracer.self_s[name] += dur - frame[2]
                tracer.calls[name] += 1
                if parent is not None:
                    parent[2] += dur
                if sid < tracer.span_cap:
                    tracer.spans.append(
                        (sid, name, frame[1], end, parent[0] if parent else None, tracer.op_id)
                    )
            if counter is not None:
                counter(tracer.counters, args, kwargs, result, dur - frame[2])
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace each target at every prodap module attribute that holds
        it, so callers reach the wrapper whichever import path they used."""
        mods = [m for k, m in sys.modules.items() if k == "prodap" or k.startswith("prodap.")]
        for modname, attr, name, counter in TARGETS:
            owner = sys.modules[f"prodap.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._undo.append((cls, meth, fn))
                setattr(cls, meth, self.wrap(name, fn, counter))
                continue
            fn = getattr(owner, attr)
            wrapper = self.wrap(name, fn, counter)
            for mod in mods:
                for k, v in list(vars(mod).items()):
                    if v is fn:
                        self._undo.append((mod, k, fn))
                        setattr(mod, k, wrapper)

    def uninstall(self) -> None:
        for obj, k, fn in reversed(self._undo):
            setattr(obj, k, fn)
        self._undo.clear()

    def run_op(self, op_id: int, fn, *args):
        """Run one op as the root span of its tree."""
        self.op_id = op_id
        try:
            return self.wrap("op", fn, None)(*args)
        finally:
            self.op_id = None

    def layer_metrics(self, ops: int) -> dict:
        out = {f"{s}.self_s": self.self_s[s] / ops for s in SELF}
        out.update({f"{s}.calls": self.calls[s] / ops for s in CALLS})
        out.update({c: self.counters[c] / ops for c in COUNTS})
        out["apcore.gcd_bound_audit.bigint_self_s"] = (
            self.counters["apcore.gcd_bound_audit.bigint_self_s"] / ops
        )
        return out
