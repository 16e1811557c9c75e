"""The four benchmark workloads: seeded inputs, one user-level op each, and
by-value output checks written independently of the prodap code they check.

Every workload draws its op sizes from a Kronecker sequence (golden-ratio and
sqrt(2) steps) started at seeded offsets, so any run of a few dozen ops covers
the size range evenly whatever the seed; the seed picks the offsets and the
concrete instances.  This keeps run-to-run spread small on a shared machine.

Expected values come from two places.  Where the input comes from a finite
key set (cover sets by n, random study trials, quadratic instances), they are
looked up in ``expected.json``, written once by ``make_expected.py``.  Where
the input's construction fixes them (reduced descriptor, gcd worst case,
cover-set M and |B|), they are computed here from that construction.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from decimal import Decimal, localcontext
from math import gcd, isqrt
from pathlib import Path

from prodap import apcore, construct, harness, jsonio
from prodap.apcore import APDescriptor
from prodap.harness import InstanceFile

EXPECTED_PATH = Path(__file__).with_name("expected.json")

PHI = (5**0.5 - 1) / 2  # golden-ratio step of the size coordinate
SQRT2 = 2**0.5 - 1  # second coordinate (reduce-long's big-D choice)

# pipeline: u < QUAD_SHARE quadratic, then cover sets without a claim (dense
# longest-AP search), then cover sets with their claimed interval [1, M]
QUAD_SHARE, NOCLAIM_SHARE = 0.15, 0.35
NOCLAIM_N = (12, 40)
CLAIM_N = (40, 100)
QUAD_SEEDS = 64
QUAD_FIELDS = (2, 3, 5, 6, 7)
# study-random: run_trial("random", n, STUDY_SEED, trial)
STUDY_N = (36, 58)
STUDY_TRIALS = 16
STUDY_SEED = 2013
# reduce-long
REDUCE_L = (1000, 2000)
REDUCE_RD_MAX = 20_000
BIG_SHARE = 0.2
BIG_L = (800, 1200)
BIG_D = (47 * 10**11, 60 * 10**11)
BIG_R_MAX = 1_000_000
SMALL_PRIMES = (2, 3, 5, 7)
MID_PRIMES = (11, 13, 17, 19, 23, 29, 31)
INT64_SWITCH = 2**62  # gcd_bound_audit takes its pure-Python path from here
# construct-verify: n log-uniform in this range
CONSTRUCT_N = (500, 5000)


class CheckError(Exception):
    """An op's output failed a by-value check."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


# ---------------------------------------------------------------------------
# independent arithmetic used by generators and checks
# ---------------------------------------------------------------------------


def prime_flags(limit: int) -> bytearray:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return flags


def floor_n_ln_n(n: int) -> int:
    """floor(n ln n) from 60-digit decimal logarithms; refuses a value too
    close to an integer to decide at that precision."""
    with localcontext() as ctx:
        ctx.prec = 60
        v = Decimal(n) * Decimal(n).ln()
    f = int(v)
    if not Decimal("1e-30") < v - f < 1 - Decimal("1e-30"):
        raise ValueError(f"n ln n too close to an integer at n={n}")
    return f


def cover_elements(n: int) -> tuple[int, list[int], bytearray]:
    """(M, sorted cover set, prime flags up to M) for [1..n] + primes in (n, M]."""
    M = floor_n_ln_n(n)
    flags = prime_flags(M)
    return M, list(range(1, n + 1)) + [p for p in range(n + 1, M + 1) if flags[p]], flags


def has_factor_pair(t, elems: list, elem_set: set) -> bool:
    for x in elems:
        if x * x > t:
            return False
        if t % x == 0 and t // x in elem_set:
            return True
    return False


def worst_pair_gcd(D: int, r: int, d: int, L: int) -> int:
    """max gcd(t_i, t_j) over j < i of a reduced progression, in closed form.

    gcd(t_i, t_j) = D * gcd(r + d*j, i - j) because gcd(r + d*j, d) = 1, so a
    value g is reached iff gcd(g, d) = 1 and the first j with g | r + d*j,
    j0 = -r/d mod g, leaves room for i = j0 + g.
    """
    for g in range(L - 1, 1, -1):
        if gcd(g, d) == 1 and (-r * pow(d, -1, g)) % g + g <= L - 1:
            return D * g
    return D


def _desc(obj) -> tuple[int, int, int, int]:
    return int(obj["D"]), int(obj["r"]), int(obj["d"]), int(obj["L"])


def _check_cycle(cycle: dict, terms: list[int]) -> int:
    """Independent check of a reported cycle: sides alternate, indices are
    distinct terms, and odd- and even-position term products agree."""
    verts, idx = cycle["vertices"], cycle["indices"]
    k2 = len(verts)
    _require(k2 >= 4 and k2 % 2 == 0 and len(idx) == k2, "cycle shape")
    _require(all(verts[t][0] != verts[(t + 1) % k2][0] for t in range(k2)), "cycle sides")
    _require(len(set(idx)) == k2 and all(0 <= j < len(terms) for j in idx), "cycle indices")
    odd = even = 1
    for t, j in enumerate(idx):
        if t % 2:
            even *= terms[j]
        else:
            odd *= terms[j]
    _require(odd == even, "cycle product identity")
    return k2


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """One workload: ``inputs(seed)`` yields (key, input) pairs forever,
    ``run`` is the timed op, ``check`` raises CheckError on a wrong output."""

    name = ""

    def __init__(self, expected: dict | None = None):
        if expected is None:
            expected = json.loads(EXPECTED_PATH.read_text())
        self.expected = expected.get(self.name, {})

    def inputs(self, seed: int):
        rng = random.Random(f"prodap-bench:{self.name}:{seed}")
        u0, v0 = rng.random(), rng.random()
        i = 0
        while True:
            i += 1
            u, v = (u0 + i * PHI) % 1.0, (v0 + i * SQRT2) % 1.0
            key = self.key(u, v, rng)
            yield key, self.make(key)

    def key(self, u: float, v: float, rng: random.Random):
        raise NotImplementedError

    def make(self, key):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, key, inp, out) -> None:
        raise NotImplementedError

    def warmup_key(self):
        raise NotImplementedError

    def expect(self, key, got: dict) -> None:
        want = self.expected.get(json.dumps(key))
        _require(want is not None, f"no expected values for {key}")
        _require(got == want, f"expected {want}, got {got}")


def _span(lo: int, hi: int, u: float) -> int:
    return lo + int(u * (hi - lo + 1))


class Pipeline(Workload):
    """harness.pipeline + canonical dump on cover sets (claimed interval or
    searched) and seeded quadratic 4-cycle instances."""

    name = "pipeline"

    def key(self, u, v, rng):
        if u < QUAD_SHARE:
            return ["quad", rng.randrange(QUAD_SEEDS), rng.choice(QUAD_FIELDS)]
        if u < QUAD_SHARE + NOCLAIM_SHARE:
            return ["noclaim", _span(*NOCLAIM_N, (u - QUAD_SHARE) / NOCLAIM_SHARE)]
        w = (u - QUAD_SHARE - NOCLAIM_SHARE) / (1 - QUAD_SHARE - NOCLAIM_SHARE)
        return ["claim", _span(*CLAIM_N, w)]

    def warmup_key(self):
        return ["claim", 60]

    def make(self, key):
        kind = key[0]
        if kind == "quad":
            _, qseed, m = key
            inst = harness.random_quad_cycle_instance(qseed, m)
            return InstanceFile(
                "quadratic", list(inst.elements), m=m, ap=APDescriptor(1, 2, 1, 5),
                provenance={"bench": kind, "seed": qseed},
            )
        n = key[1]
        M, B, _ = cover_elements(n)
        ap = APDescriptor(1, 1, 1, M) if kind == "claim" else None
        return InstanceFile("integer", B, ap=ap, provenance={"bench": kind, "n": n})

    def run(self, inp):
        return jsonio.dumps_canonical(harness.pipeline(inp))

    @staticmethod
    def values(inp, text: str) -> dict:
        """Independent checks of one report; returns its fixed values."""
        rep = json.loads(text)
        _require(rep["ok"] is True and rep["falsifications"] == [], "report not ok")
        st = rep["stages"]
        if inp.field_tag == "integer":
            D, r, d, L = _desc(st["ap"]["descriptor"])
            ap_terms = [D * (r + d * i) for i in range(L)]
            elems = sorted(inp.elements)
            eset = set(elems)
            _require(
                all(has_factor_pair(t, elems, eset) for t in ap_terms), "AP term outside B.B"
            )
        else:
            _require(st["c4_audit"]["four_cycle"] is not None, "no 4-cycle in a 4-cycle instance")
            _require(st["four_cycle_r"]["start"] == "2", "4-cycle start is not 2")
            L = 5
        D, r, d, L_red = _desc(st["reduction"]["descriptor"])
        _require(L_red == L and gcd(d, D * r) == 1, "reduced descriptor not reduced")
        terms = [D * (r + d * i) for i in range(L)]
        i, j, g = st["gcd_bound"]["worst"]
        g = int(g)
        _require(st["gcd_bound"]["ok"] and gcd(terms[i], terms[j]) == g <= D * L, "gcd bound")
        shortest = st["cycles"]["shortest"]
        cyc = _check_cycle(shortest, terms) if shortest else 0
        _require(st["irregular"]["forest"] is True, "irregular edges not a forest")
        _require(int(st["concavity"]["margin"]) == D * D * d * d, "concavity margin")
        return {
            "ap_L": L,
            "reduced": [D, r, d, L],
            "worst_gcd": g,
            "size": rep["instance"]["size"],
            "shortest_cycle": cyc,
        }

    def check(self, key, inp, out):
        self.expect(key, self.values(inp, out))


class StudyRandom(Workload):
    """harness.run_trial on sparse random sets: one CSV row of prodap study."""

    name = "study-random"

    def key(self, u, v, rng):
        return [_span(*STUDY_N, u), rng.randrange(STUDY_TRIALS)]

    def warmup_key(self):
        return [STUDY_N[0], 0]

    def make(self, key):
        return ("random", key[0], STUDY_SEED, key[1])

    def run(self, inp):
        return harness.run_trial(*inp)

    @staticmethod
    def values(inp, rec) -> dict:
        _require(rec.skipped is None, f"trial skipped: {rec.skipped}")
        _require((rec.generator, rec.n, rec.seed, rec.trial) == inp, "record echoes input")
        _require(rec.set_size == inp[1] and 3 <= rec.ap_length <= rec.prodset_size, "sizes")
        return {"ap_L": rec.ap_length, "prodset_size": rec.prodset_size}

    def check(self, key, inp, out):
        self.expect(key, self.values(inp, out))


class ReduceLong(Workload):
    """reduce_ap + gcd_bound_audit on long progressions inflated by prime
    scalings, as prodap reduce does.

    The base progression r + d*i has gcd(r, d) = 1, and the small primes p1
    and p2 divide d.  Each term is written U * V_i with V_i in B.  U carries
    one p1, so the inflated start holds p1 once and the difference more often
    (a k1 step).  U and every V_i carry one p2, so the start holds p2 twice
    and the difference more often (a partition step).  U also carries q, which
    divides neither r nor d (gcd extraction).  A big-D input
    has d = p1 = 2, no p2, and smooth factors on both sides that lift the
    reduced terms past 2**62; D stays in a narrow window so that factorizing
    the inflated difference needs a sieve of at most a few million.
    """

    name = "reduce-long"

    def key(self, u, v, rng):
        if v < BIG_SHARE:
            L = _span(*BIG_L, u)
            p1 = d = 2
            while True:
                q, left, right = rng.choice(MID_PRIMES), 1, 1
                while q * left * right < BIG_D[0]:
                    if left <= right:
                        left *= rng.choice(MID_PRIMES)
                    else:
                        right *= rng.choice(MID_PRIMES)
                if q * left * right <= BIG_D[1]:
                    break
            D = q * left * right
            r_lo = -(-INT64_SWITCH // D) - d * (L - 1)
            r = rng.randint(r_lo, BIG_R_MAX)
            while gcd(r, d * D) != 1:
                r += 1
            return [L, r, d, p1, 1, q, left, right]
        L = _span(*REDUCE_L, u)
        p1, p2 = rng.sample(SMALL_PRIMES, 2)
        while True:
            r = rng.randint(1, REDUCE_RD_MAX)
            d = p1 * p2 * rng.randint(1, REDUCE_RD_MAX // (p1 * p2))
            if gcd(r, d) == 1:
                break
        q = rng.choice([p for p in MID_PRIMES if r % p and d % p])
        return [L, r, d, p1, p2, q, 1, 1]

    def warmup_key(self):
        # the largest inflated difference any key can have, so the sieve is
        # grown before the timed phase
        return [BIG_L[1], 999_997, 2, 2, 1, 23, 11 * 13**3 * 17, 13**3 * 17**2]

    def make(self, key):
        L, r, d, p1, p2, q, left, right = key
        U = p1 * p2 * q * left
        V = [p2 * right * (r + d * i) for i in range(L)]
        return [U * x for x in V], sorted(set(V) | {U})

    def run(self, inp):
        A, B = inp
        B_red, desc, trace = apcore.reduce_ap(A, B)
        return B_red, desc, trace, apcore.gcd_bound_audit(desc)

    def check(self, key, inp, out):
        L, r, d, p1, p2, q, left, right = key
        B_red, desc, trace, (ok, (i, j, g)) = out
        D = q * left * right
        _require((desc.D, desc.r, desc.d, desc.L) == (D, r, d, L), f"descriptor {desc}")
        _require(gcd(desc.d, desc.D * desc.r) == 1, "descriptor not reduced")
        want = Counter({"k1": 1, "extract-gcd": 1, "partition-B1B2B3": int(p2 > 1)})
        _require(Counter(s.case for s in trace.steps) == +want, "reduction steps")
        terms = [D * (r + d * n) for n in range(L)]
        elems = sorted(B_red)
        eset = set(elems)
        _require(all(has_factor_pair(t, elems, eset) for t in terms), "reduced term outside B'.B'")
        _require(ok and gcd(terms[i], terms[j]) == g, "gcd audit pair")
        _require(g == worst_pair_gcd(D, r, d, L), "worst gcd differs from closed form")


class ConstructVerify(Workload):
    """coverage_check(n): witnesses for every x in [1, floor(n ln n)]."""

    name = "construct-verify"

    def key(self, u, v, rng):
        lo, hi = CONSTRUCT_N
        return [int(lo * (hi / lo) ** u)]

    def warmup_key(self):
        return [1000]

    def make(self, key):
        return key[0]

    def run(self, inp):
        return construct.coverage_check(inp)

    def check(self, key, inp, res):
        M, B, flags = cover_elements(inp)
        _require((res.n, res.M) == (inp, M), f"M={res.M}, expected {M}")
        _require(list(res.elements) == B, f"|B|={len(res.elements)}, expected {len(B)}")

        def member(x):
            return 1 <= x <= inp or (inp < x <= M and flags[x])

        _require(len(res.witnesses) == M, "witness count")
        for x in range(1, M + 1):
            d1, d2 = res.witnesses[x]
            _require(d1 * d2 == x and d1 <= d2 and member(d1) and member(d2), f"witness of {x}")


WORKLOADS = {w.name: w for w in (Pipeline, StudyRandom, ReduceLong, ConstructVerify)}

