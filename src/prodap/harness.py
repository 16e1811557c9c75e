"""Experiment harness: instance files, preprocessing, seeded generators, the
scaling study, the log-concavity certificate, and the end-to-end audit
pipeline.

Every random stream is derived from (master seed, generator id, n, trial
index) through the stdlib Mersenne Twister seeded with a string, so any
single trial reproduces in isolation and CSV output is byte-identical across
runs up to the elapsed-time column.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul, sub

from . import jsonio
from .apcore import APDescriptor, gcd_bound_audit, reduce_ap
from .construct import cover_set, floor_mul_ln
from .cyclelab import _cycle_through, _walk_lengths, audit_cycle_walks, find_even_cycle
from .errors import CapacityError, FalsificationError, InputError, digit_safe
from .exactnum import QuadElem
from .irregular import irregularity_report
from .prodset import build_rep_graph, longest_ap, product_set
from .rationalize import (
    QuadInstance,
    four_cycle_exists_audit,
    four_cycle_r_rotations,
    make_quad_instance,
    rationalize_components,
)

AP_SHRINK_FACTOR = 2  # taking absolute values can at worst halve a progression
# the pipeline audits even cycles of length up to 2 * CYCLE_HALF_LENGTH, at
# most DEFAULT_CYCLE_CAP of each length
CYCLE_HALF_LENGTH = 5
DEFAULT_CYCLE_CAP = 50

CSV_COLUMNS = (
    "generator",
    "n",
    "set_size",
    "prodset_size",
    "ap_length",
    "status",
    "ratio_len_over_nlogn",
    "seed",
    "trial",
    "elapsed_ms",
)


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------


@dataclass
class InstanceFile:
    """On-disk instance: a field tag, the element list, an optional claimed
    progression, and free-form provenance."""

    field_tag: str  # "integer" | "rational" | "quadratic"
    elements: list
    m: int | None = None
    ap: APDescriptor | None = None
    provenance: dict = field(default_factory=dict)


def instance_to_json(inst: InstanceFile) -> dict:
    return {
        "field": inst.field_tag,
        "m": jsonio.enc_int(inst.m) if inst.m is not None else None,
        "elements": [jsonio.enc_value(x) for x in inst.elements],
        "ap": jsonio.descriptor_to_json(inst.ap) if inst.ap is not None else None,
        "provenance": inst.provenance,
    }


def instance_from_json(obj) -> InstanceFile:
    tag, m = jsonio.dec_header(obj)
    elements = [jsonio.dec_element(e, tag, m) for e in obj["elements"]]
    if len(set(elements)) != len(elements):
        raise InputError("instance elements must be distinct")
    # only an absent or null claim is no claim; {} or false is a malformed one
    ap = jsonio.descriptor_from_json(obj["ap"]) if obj.get("ap") is not None else None
    provenance = obj.get("provenance")
    if not isinstance(provenance, (dict, type(None))):
        raise InputError("instance 'provenance' must be an object")
    return InstanceFile(tag, elements, m, ap, provenance or {})


def load_instance(path) -> InstanceFile:
    return instance_from_json(jsonio.load_json(path))


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------


def absolutize(B) -> tuple[list, int]:
    """Absolute values, deduplicated and sorted; the second component is the
    worst-case factor by which the longest progression may shrink."""
    out = set()
    for b in B:
        if b == 0:
            raise InputError("zero element makes products degenerate")
        out.add(-b if b < 0 else b)
    return sorted(out), AP_SHRINK_FACTOR


def integerize(B) -> tuple[list[int], int]:
    """Clear denominators: scale = lcm of denominators, output scale * B in
    input order.  Progressions in B.B map to progressions scaled by scale**2."""
    fracs = [Fraction(b) for b in B]
    if any(f <= 0 for f in fracs):
        raise InputError("integerize needs positive rationals")
    scale = lcm(*(f.denominator for f in fracs))
    return [int(f * scale) for f in fracs], scale


@dataclass(frozen=True)
class ConcavityReport:
    concave: bool
    margins: tuple[int, ...]


def concavity_demo(desc: APDescriptor) -> ConcavityReport:
    """Certify that logs of the terms are strictly concave via the exact
    cross-multiplication test term(i+1)**2 > term(i)*term(i+2); each margin
    equals D**2 * d**2."""
    terms = desc.terms()
    inner = terms[1:-1]
    margins = tuple(map(sub, map(mul, inner, inner), map(mul, terms, terms[2:])))
    return ConcavityReport(not margins or min(margins) > 0, margins)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _trial_rng(seed: int, generator: str, n: int, trial: int) -> random.Random:
    return random.Random(f"{seed}:{generator}:{n}:{trial}")


def gen_cover(n: int) -> list[int]:
    """The dense cover set: [1..n] plus the primes up to floor(n*ln n)."""
    return list(cover_set(n).elements)


def gen_random(n: int, rng: random.Random) -> list[int]:
    """n distinct integers from [1, 10n]."""
    return sorted(rng.sample(range(1, 10 * n + 1), n))


def gen_smooth(n: int) -> list[int]:
    """The n smallest integers of the form 2**a * 3**b."""
    out = [1]
    i2 = i3 = 0
    while len(out) < n:
        n2, n3 = 2 * out[i2], 3 * out[i3]
        nxt = min(n2, n3)
        out.append(nxt)
        if n2 == nxt:
            i2 += 1
        if n3 == nxt:
            i3 += 1
    return out


GENERATORS = ("cover", "random", "smooth")


def build_set(generator: str, n: int, rng: random.Random) -> list[int]:
    if generator == "cover":
        return gen_cover(n)
    if generator == "random":
        return gen_random(n, rng)
    if generator == "smooth":
        return gen_smooth(n)
    raise InputError("unknown generator {!r}; choose from {}", generator, GENERATORS)


def quadratic_demo_instance(m: int = 2, gamma=Fraction(1, 2)) -> QuadInstance:
    """A canonical Q(sqrt(m)) instance: five pure surds whose product set
    carries the progression [2..6] through a genuine 4-cycle."""
    g = Fraction(gamma)
    if g == 0:
        raise InputError("gamma must be nonzero")
    b1 = QuadElem(Fraction(0), g, m)
    elements = [b1, 2 / b1, 2 * b1, 3 / b1, 5 / b1]
    inst = make_quad_instance(elements, range(2, 7), m)
    if find_even_cycle(inst.graph, 2) is None:
        raise InputError("gamma={} degenerates the built-in 4-cycle; pick another", g)
    return inst


def random_quad_cycle_instance(seed: int, m: int) -> QuadInstance:
    """Seeded instance guaranteed to contain a 4-cycle (progression [2..6]
    split across the surd with a random leading coefficient)."""
    rng = random.Random(f"quad-cycle:{seed}:{m}")
    while True:
        g = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        try:
            return quadratic_demo_instance(m, g)
        except InputError:
            continue


def demo_instance_file(kind: str, seed: int = 0) -> InstanceFile:
    """Built-in instances for the pipeline: the n=100 cover set with its
    interval progression, or the quadratic 4-cycle demo."""
    if kind == "cover100":
        res = cover_set(100)
        return InstanceFile(
            "integer",
            list(res.elements),
            ap=APDescriptor(1, 1, 1, res.M),
            provenance={"generator": "cover", "n": 100, "seed": seed},
        )
    if kind == "quad":
        inst = random_quad_cycle_instance(seed, 2)
        return InstanceFile(
            "quadratic",
            list(inst.elements),
            m=2,
            ap=APDescriptor(1, 2, 1, 5),
            provenance={"generator": "quad-cycle", "seed": seed},
        )
    raise InputError("unknown demo kind {!r}; choose cover100 or quad", kind)


# ---------------------------------------------------------------------------
# scaling study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentRecord:
    generator: str
    n: int
    set_size: int
    prodset_size: int
    ap_length: int
    ratio_e9: int  # floor(10**9 * ap_length / (set_size * ln set_size))
    seed: int
    trial: int
    elapsed_ms: int
    skipped: str | None = None

    @property
    def status(self) -> str:
        return "ok" if self.skipped is None else "skipped"


def ratio_e9(length: int, n: int) -> int:
    """floor(10**9 * length / (n ln n)), exact; 0 for n < 2.

    It is the largest R with R * n * ln n < 10**9 * length: the product is
    irrational for R >= 1 and n >= 2, so it never equals the integer, and
    R qualifies exactly when floor(R * n * ln n) < 10**9 * length."""
    target = 10**9 * length
    if n < 2 or target <= 0:
        return 0
    # n ln n lies in [g, g + 1) / 2**s, so r bounds the answer from above
    # and exceeds it by at most target / (2**s * (n ln n)**2) + 1 < 2
    s = target.bit_length()
    g = floor_mul_ln(n << s, n)
    r = (target << s) // g
    while floor_mul_ln(r * n, n) >= target:
        r -= 1
    return r


def run_trial(generator: str, n: int, seed: int, trial: int, ap_limit=None) -> ExperimentRecord:
    rng = _trial_rng(seed, generator, n, trial)
    t0 = time.perf_counter()
    B = build_set(generator, n, rng)
    ps = product_set(B)
    try:
        result = longest_ap(ps, limit=ap_limit)
        length = result.length
        skipped = None
    except CapacityError as exc:
        length = 0
        skipped = str(exc)
    elapsed = int((time.perf_counter() - t0) * 1000)
    return ExperimentRecord(
        generator, n, len(B), len(ps), length, ratio_e9(length, len(B)), seed, trial,
        elapsed, skipped,
    )


def scaling_study(
    generators, sizes, trials: int, seed: int, ap_limit=None
) -> list[ExperimentRecord]:
    if trials < 1:
        raise InputError("the trial count must be positive, got {}", trials)
    if not generators:
        raise InputError("the study needs at least one generator")
    if not sizes:
        raise InputError("the study needs at least one set size")
    if ap_limit is not None and ap_limit < 1:
        raise InputError("the longest-AP limit must be positive, got {}", ap_limit)
    records = []
    for generator in generators:
        if generator not in GENERATORS:
            raise InputError("unknown generator {!r}", generator)
        for n in sizes:
            if n < 1:
                raise InputError("set sizes must be positive, got {}", n)
            for trial in range(trials):
                records.append(run_trial(generator, n, seed, trial, ap_limit))
    records.sort(key=lambda r: (r.generator, r.n, r.trial))
    return records


def study_csv(records) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        lines.append(
            f"{r.generator},{r.n},{r.set_size},{r.prodset_size},{r.ap_length},{r.status},"
            f"{r.ratio_e9 // 10**9}.{r.ratio_e9 % 10**9:09d},{r.seed},{r.trial},{r.elapsed_ms}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def _integer_stages(B: list[int], A: list[int], report: dict, cycle_cap: int) -> None:
    """Shared integer-side audits: reduction, gcd bound, graph, cycles,
    irregularity, concavity."""
    stages = report["stages"]
    B_red, desc, trace = reduce_ap(A, B)
    stages["reduction"] = {
        "descriptor": jsonio.descriptor_to_json(desc),
        "set_size": len(B_red),
        "steps": [
            {"prime": s.prime, "case": s.case, "measure_drop": s.measure_drop}
            for s in trace.steps
        ],
        "k0_primes": list(trace.k0_primes),
    }
    ok, (i, j, g) = gcd_bound_audit(desc)
    stages["gcd_bound"] = {
        "ok": ok,
        "bound": jsonio.enc_int(desc.D * desc.L),
        "worst": [i, j, jsonio.enc_int(g)],
    }
    if not ok:
        raise FalsificationError(
            "pairwise gcd exceeded D*L on a reduced progression",
            payload=stages["gcd_bound"],
        )
    final_A = desc.terms()
    graph = build_rep_graph(B_red, final_A, trace.pairs)
    stages["graph"] = {"vertices": graph.n_vertices, "edges": len(graph.indices)}
    by_length = []
    first = None  # the first walk of the shortest length that has one
    lengths = range(4, 2 * CYCLE_HALF_LENGTH + 1, 2)
    walked = _walk_lengths(graph.neighbours, lengths, cycle_cap)
    for length, (walks, stopped) in zip(lengths, walked):
        audit_cycle_walks(graph, walks, final_A, desc)
        if first is None and walks:
            first = walks[0]
        by_length.append(
            {"length": length, "audited": len(walks), "complete": stopped is None, "stopped": stopped}
        )
    shortest = None if first is None else _cycle_through(graph, first)
    if any(
        row["stopped"] == "steps" and (first is None or row["length"] < len(first))
        for row in by_length
    ):
        # a length cut short before its first cycle may hide a shorter one
        shortest = find_even_cycle(graph, CYCLE_HALF_LENGTH)
    stages["cycles"] = {
        "shortest": shortest.as_json() if shortest else None,
        "cap": cycle_cap,
        "audited": sum(row["audited"] for row in by_length),
        "by_length": by_length,
        "all_pass": True,
    }
    irr = irregularity_report(graph, desc)
    if not irr.forest:
        raise FalsificationError(
            "selected irregular edges contain a cycle",
            payload={
                "window": list(irr.window.primes),
                "selected": list(irr.selected_primes),
            },
        )
    stages["irregular"] = {
        "window": list(irr.window.primes),
        "irregular_edges": sum(len(v) for v in irr.per_prime.values()),
        "selected": list(irr.selected_primes),
        "forest": irr.forest,
    }
    conc = concavity_demo(desc)
    margin = desc.D**2 * desc.d**2
    if not conc.concave or conc.margins.count(margin) != len(conc.margins):
        raise FalsificationError(
            "log-concavity margins deviated from D^2*d^2",
            payload={"descriptor": desc.as_payload()},
        )
    stages["concavity"] = {
        "concave": conc.concave,
        "margin": jsonio.enc_int(margin),
    }


def pipeline(inst: InstanceFile, cycle_cap: int = DEFAULT_CYCLE_CAP) -> dict:
    """Full audit chain for one instance; returns a canonical-JSON-ready
    report.  Falsifications are collected, not raised."""
    if cycle_cap < 1:
        raise InputError("the cycle cap must be positive, got {}", cycle_cap)
    report: dict = {
        "instance": {
            "field": inst.field_tag,
            "m": jsonio.enc_int(inst.m) if inst.m is not None else None,
            "size": len(inst.elements),
            "provenance": inst.provenance,
        },
        "stages": {},
        "falsifications": [],
        "ok": True,
    }
    stages = report["stages"]
    try:
        if inst.field_tag == "quadratic":
            if inst.ap is None:
                raise InputError("quadratic instances need a claimed progression")
            desc = inst.ap
            if desc.D != 1 or desc.d != 1:
                raise InputError("quadratic pipeline expects a claim with D = 1 and d = 1")
            qinst = make_quad_instance(inst.elements, desc.terms(), inst.m)
            c4 = four_cycle_exists_audit(qinst.graph)
            stages["c4_audit"] = {
                "edges": c4.edges,
                "threshold": c4.threshold,
                "exceeded": c4.exceeded,
                "four_cycle": c4.cycle.as_json() if c4.cycle else None,
            }
            if c4.cycle is not None:
                starts = four_cycle_r_rotations(c4.cycle)
                if any(s != qinst.targets[0] for s in starts):
                    raise FalsificationError(
                        "4-cycle start extraction disagreed with the claim",
                        payload={"starts": [digit_safe(s) for s in starts]},
                    )
                stages["four_cycle_r"] = {
                    "start": jsonio.enc_rat(starts[0]),
                    "rotations_agree": True,
                }
            rational = rationalize_components(qinst)
            stages["rationalize"] = {
                "size": len(rational),
                "elements": [jsonio.enc_rat(x) for x in rational],
            }
            B, scale = integerize(rational)
            stages["integerize"] = {"scale": jsonio.enc_int(scale)}
            A = [t * scale * scale for t in desc.terms()]
        else:
            B, factor = absolutize(inst.elements)
            stages["absolutize"] = {"size": len(B), "shrink_factor_bound": factor}
            scale = 1
            if inst.field_tag == "rational":
                B, scale = integerize(B)
                stages["integerize"] = {"scale": jsonio.enc_int(scale)}
            if inst.ap is not None:
                A = [t * scale * scale for t in inst.ap.terms()]
                stages["ap"] = {
                    "source": "claim",
                    "descriptor": jsonio.descriptor_to_json(inst.ap),
                }
            else:
                ps = product_set(B)
                found = longest_ap(ps)
                desc = found.descriptor()
                if desc is None:
                    raise InputError(
                        "no progression of length >= 3 found (best length {})", found.length
                    )
                A = desc.terms()
                stages["ap"] = {
                    "source": "search",
                    "descriptor": jsonio.descriptor_to_json(desc),
                }
        _integer_stages(B, A, report, cycle_cap)
    except FalsificationError as exc:
        report["falsifications"].append({"message": str(exc), "payload": exc.payload})
        report["ok"] = False
    return report
