"""Command-line interface.

Subcommands: construct, find-ap, reduce, graph, cycles, irregular,
rationalize, convex-demo, study, pipeline.  Exit codes: 0 success, 2 input
error, 3 capacity, 4 falsification report produced.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import harness, jsonio
from .apcore import gcd_bound_audit, reduce_ap
from .construct import cover_set, coverage_check
from .cyclelab import cycle_audit, find_even_cycle
from .errors import (
    EXIT_CAPACITY,
    EXIT_FALSIFIED,
    EXIT_INPUT,
    EXIT_OK,
    CapacityError,
    FalsificationError,
    InputError,
)
from .exactnum import PrimeTable
from .harness import (
    concavity_demo,
    demo_instance_file,
    load_instance,
    pipeline,
    scaling_study,
    study_csv,
)
from .irregular import irregularity_report
from .prodset import build_rep_graph, longest_ap, product_set
from .rationalize import make_quad_instance, rationalize_components


def _write_or_print(path, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_construct(args) -> int:
    table = PrimeTable(args.capacity) if args.capacity is not None else None
    if args.verify:
        result = coverage_check(args.n, table)
    else:
        result = cover_set(args.n, table)
    M = jsonio.enc_int(result.M)
    # every other integer written is in [1, M], so str cannot hit the digit
    # limit on it; the keys are sorted when the report is dumped
    out = {
        "n": result.n,
        "M": M,
        "log": "natural",
        "size": result.size,
        "elements": list(map(str, result.elements)),
        "witnesses": {str(x): [str(d1), str(d2)] for x, (d1, d2) in result.witnesses.items()},
        "methods": {str(x): m for x, m in result.methods.items()},
    }
    _write_or_print(args.out, jsonio.dumps_canonical(out))
    print(
        f"cover set n={result.n}: M={result.M}, |B|={result.size}"
        + (f", {len(result.witnesses)} witnesses verified" if args.verify else ""),
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_find_ap(args) -> int:
    inst = load_instance(args.infile)
    if inst.field_tag == "quadratic":
        raise InputError("longest-AP search needs ordered values; use a claim instead")
    ps = product_set(inst.elements)
    result = longest_ap(ps, limit=args.limit)
    desc = result.descriptor()
    out = {
        "start": jsonio.enc_rat(Fraction(result.start)),
        "diff": jsonio.enc_rat(Fraction(result.diff)),
        "length": result.length,
        "indices": list(result.indices),
        "descriptor": jsonio.descriptor_to_json(desc) if desc else None,
        "prodset_size": len(ps),
    }
    _write_or_print(args.out, jsonio.dumps_canonical(out))
    return EXIT_OK


def _load_descriptor_arg(path):
    obj = jsonio.load_json(path)
    # a find-ap report wraps its descriptor; only an absent or null wrapper
    # is no wrapper, so {} or false is a malformed descriptor
    if isinstance(obj, dict) and obj.get("descriptor") is not None:
        obj = obj["descriptor"]
    return jsonio.descriptor_from_json(obj)


def cmd_reduce(args) -> int:
    inst = load_instance(args.infile)
    if inst.field_tag != "integer":
        raise InputError("reduction runs on integer instances")
    if inst.ap is None:
        raise InputError("instance has no claimed progression to reduce")
    B_red, desc, trace = reduce_ap(inst.ap.terms(), inst.elements)
    ok, (i, j, g) = gcd_bound_audit(desc)
    out = {
        "descriptor": jsonio.descriptor_to_json(desc),
        "set": [jsonio.enc_int(b) for b in B_red],
        "trace": [
            {
                "prime": s.prime,
                "case": s.case,
                "divisors": [[jsonio.enc_int(b), jsonio.enc_int(q)] for b, q in s.divisors],
                "result_set": [jsonio.enc_int(b) for b in s.result_set],
                "result_descriptor": jsonio.descriptor_to_json(s.result_desc),
                "measure_drop": s.measure_drop,
            }
            for s in trace.steps
        ],
        "k0_primes": list(trace.k0_primes),
        "gcd_bound": {"ok": ok, "worst": [i, j, jsonio.enc_int(g)]},
    }
    _write_or_print(args.out, jsonio.dumps_canonical(out))
    return EXIT_OK


def cmd_graph(args) -> int:
    inst = load_instance(args.set)
    desc = _load_descriptor_arg(args.ap)
    if inst.field_tag == "quadratic":
        graph = make_quad_instance(inst.elements, desc.terms(), inst.m).graph
    else:
        graph = build_rep_graph(inst.elements, desc.terms())
    out = jsonio.graph_to_json(graph, inst.field_tag, inst.m)
    _write_or_print(args.out, jsonio.dumps_canonical(out))
    return EXIT_OK


def cmd_cycles(args) -> int:
    graph = jsonio.graph_from_json(jsonio.load_json(args.graph))
    cycle = find_even_cycle(graph, args.k)
    if cycle is None:
        _write_or_print(args.out, jsonio.dumps_canonical({"cycle": None, "k": args.k}))
        return EXIT_OK
    out = {
        "k": args.k,
        "cycle": {
            **cycle.as_json(),
            "values": [jsonio.enc_value(v) for v in cycle.values],
        },
    }
    if args.audit:
        if args.ap:
            desc = _load_descriptor_arg(args.ap)
        else:
            raise InputError("--audit needs --ap with the reduced descriptor")
        poly = cycle_audit(cycle, desc.terms(), desc)
        out["audit"] = {
            "identity": True,
            "coefficients": [jsonio.enc_int(c) for c in poly.coeffs],
            "l": poly.l,
            "m": poly.m,
            "divisibility": {"ok": True},
        }
    _write_or_print(args.out, jsonio.dumps_canonical(out))
    return EXIT_OK


def cmd_irregular(args) -> int:
    graph = jsonio.graph_from_json(jsonio.load_json(args.graph))
    desc = _load_descriptor_arg(args.ap)
    report = irregularity_report(graph, desc)
    out = {
        "window": list(report.window.primes),
        "per_prime": {jsonio.enc_int(p): list(marked) for p, marked in report.per_prime.items()},
        "selected": list(report.selected_primes),
        "selected_primes": {
            jsonio.enc_int(idx): list(ps) for idx, ps in report.selected_primes.items()
        },
        "forest": report.forest,
    }
    _write_or_print(args.out, jsonio.dumps_canonical(out))
    if not report.forest:
        raise FalsificationError("selected irregular edges contain a cycle", payload=out)
    return EXIT_OK


def cmd_rationalize(args) -> int:
    inst = load_instance(args.infile)
    if inst.field_tag != "quadratic":
        raise InputError("rationalize expects a quadratic instance")
    if inst.ap is None:
        raise InputError("quadratic instances need a claimed progression")
    qinst = make_quad_instance(inst.elements, inst.ap.terms(), inst.m)
    rational = rationalize_components(qinst)
    out = {
        "field": "rational",
        "elements": [jsonio.enc_rat(x) for x in rational],
        "targets": [jsonio.enc_rat(t) for t in qinst.targets],
    }
    _write_or_print(args.out, jsonio.dumps_canonical(out))
    return EXIT_OK


def cmd_convex_demo(args) -> int:
    desc = _load_descriptor_arg(args.ap)
    report = concavity_demo(desc)
    out = {
        "concave": report.concave,
        "margins": [jsonio.enc_int(m) for m in report.margins],
        "expected_margin": jsonio.enc_int(desc.D**2 * desc.d**2),
    }
    _write_or_print(args.out, jsonio.dumps_canonical(out))
    return EXIT_OK


def cmd_study(args) -> int:
    generators = [g.strip() for g in args.generators.split(",") if g.strip()]
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError as exc:
        raise InputError("--sizes must be comma-separated integers: {}", exc) from exc
    records = scaling_study(generators, sizes, args.trials, args.seed, args.limit)
    _write_or_print(args.out, study_csv(records))
    for r in records:
        if r.skipped:
            print(f"skipped {r.generator} n={r.n} trial={r.trial}: {r.skipped}", file=sys.stderr)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    if args.demo:
        inst = demo_instance_file(args.demo, args.seed)
    else:
        inst = load_instance(args.infile)
    report = pipeline(inst, cycle_cap=args.cycle_cap)
    _write_or_print(args.out, jsonio.dumps_canonical(report))
    if not report["ok"]:
        print("falsification report produced", file=sys.stderr)
        return EXIT_FALSIFIED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodap",
        description="exact-arithmetic audits of arithmetic progressions in product sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build the dense cover set, optionally verified")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--capacity", type=int, default=None, help="sieve capacity override")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("find-ap", help="longest progression in B.B")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_find_ap)

    p = sub.add_parser("reduce", help="reduce a claimed progression to coprime form")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("graph", help="build the representation graph")
    p.add_argument("--set", required=True)
    p.add_argument("--ap", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("cycles", help="find and audit a shortest even cycle")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--audit", action="store_true")
    p.add_argument("--ap", default=None, help="reduced descriptor (needed by --audit)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_cycles)

    p = sub.add_parser("irregular", help="prime-window irregularity report")
    p.add_argument("--graph", required=True)
    p.add_argument("--ap", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_irregular)

    p = sub.add_parser("rationalize", help="rescale a quadratic instance to rationals")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rationalize)

    p = sub.add_parser("convex-demo", help="log-concavity certificate for a progression")
    p.add_argument("--ap", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_convex_demo)

    p = sub.add_parser("study", help="seeded scaling study, CSV output")
    p.add_argument("--generators", default="cover,random,smooth")
    p.add_argument("--sizes", default="10,20,40")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--limit", type=int, default=None, help="longest-AP size limit")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("pipeline", help="full audit chain for one instance")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", dest="infile", default=None)
    source.add_argument("--demo", choices=["cover100", "quad"], default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--cycle-cap", type=int, default=harness.DEFAULT_CYCLE_CAP,
        help="even cycles audited per length",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FalsificationError as exc:
        payload = {"falsification": str(exc), "payload": exc.payload}
        sys.stderr.write(jsonio.dumps_canonical(payload))
        return EXIT_FALSIFIED
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        # str() of an int past the digit limit outside any library error,
        # which names such an int by its bit length: a report or print value
        # that skips jsonio.enc_int
        if "integer string conversion" not in str(exc):
            raise
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
