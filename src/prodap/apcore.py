"""Arithmetic-progression descriptors, reduction to coprime-difference form,
and the pairwise-gcd bound auditor.

A progression is stored as D*(r + d*i) for i = 0..L-1.  ``reduce_ap`` rewrites
an input progression A inside B.B into that shape with gcd(d, D*r) = 1 by
repeatedly dividing out a prime that appears to a higher power in the
difference than in the start, shrinking B alongside.  Every step is followed
by an independent re-verification that A is still covered by products of the
shrunken set; the case analysis is never trusted on its own.  The reduction
ends because each step lowers the total prime multiplicity Omega of the set.
A step divides every element b by some q in {1, p, p**2}, so the step's drop,
the sum of Omega(q) over its divisors, is read off the quotients q alone and
the set itself is never factorized.  The drop equals the set's Omega decrease
unless two elements meet on one quotient, which lowers Omega further; a step
whose drop is 0 falsifies the reduction.

``gcd_bound_audit`` checks the paper's bound gcd(t_i, t_j) <= D*L on a
reduced descriptor in O(L) exact integer steps.  Reducedness gives
gcd(r + d*j, d) = 1, hence gcd(t_i, t_j) = D * gcd(r + d*j, i - j), and the
worst pair follows in closed form (see the function).  The gcd at the
reported pair is recomputed from the terms, so a wrong closed form surfaces
as a FalsificationError rather than as a silently wrong witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import filterfalse, islice, repeat
from math import gcd
from operator import eq, floordiv, mul, ne

from .errors import FalsificationError, InputError, RepresentationError, ShapeError, digit_safe
from .exactnum import DEFAULT_TABLE, valuation


@dataclass(frozen=True)
class APDescriptor:
    """Progression D*(r + d*i), i = 0..L-1.  All of D, r, d >= 1 and L >= 3."""

    D: int
    r: int
    d: int
    L: int

    def __post_init__(self):
        for name in ("D", "r", "d"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise InputError("APDescriptor.{} must be a positive integer, got {}", name, v)
        if not isinstance(self.L, int) or self.L < 3:
            raise InputError("APDescriptor.L must be an integer >= 3, got {}", self.L)

    def term(self, i: int) -> int:
        return self.D * (self.r + self.d * i)

    def terms(self) -> list[int]:
        return list(range(self.term(0), self.term(self.L), self.D * self.d))

    def as_payload(self) -> dict:
        """D, r and d as digit_safe text and L as is: a falsification's view."""
        return {"D": digit_safe(self.D), "r": digit_safe(self.r), "d": digit_safe(self.d), "L": self.L}

    @property
    def is_reduced(self) -> bool:
        return gcd(self.d, self.D * self.r) == 1

    def first_divisible(self, m: int) -> int:
        """The least i >= 0 with m | r + d*i, for m >= 1 coprime to d; every
        other such i lies a multiple of m above it."""
        return -self.r * pow(self.d, -1, m) % m


def validate_ap(A: list[int]) -> tuple[int, int, int]:
    """Check A is an ascending AP of >= 3 positive integers; return (r, d, L)."""
    if len(A) < 3:
        raise ShapeError("need at least 3 terms, got {}", len(A))
    if not all(map(isinstance, A, repeat(int))) or min(A) < 1:
        raise InputError("AP terms must be positive integers")
    d = A[1] - A[0]
    if d < 1:
        raise ShapeError("difference must be positive: term 1 is not above term 0")
    # the comparison runs in C; the loop runs only to find the bad gap
    if not all(map(eq, A, range(A[0], A[0] + d * len(A), d))):
        for i in range(2, len(A)):
            if A[i] - A[i - 1] != d:
                raise ShapeError(
                    "not an arithmetic progression: the gap at position {} "
                    "differs from the first gap", i,
                )
    return A[0], d, len(A)


def first_pairs(A, base) -> list[tuple | None]:
    """Per term a of A, its lexicographically first factor pair
    (base[i], a / base[i]) with a / base[i] = base[j], j >= i, or None.

    base is sorted by ``prodset.sort_key`` and duplicate-free.  The first i
    whose cofactor is in the base has j >= i, or the scan would have stopped
    at j.  Over positive integers the scan also stops once base[i]**2 > a,
    and a % x == 0 then holds only for integral a; other bases (negative,
    rational or quadratic elements) try every element."""
    members = set(base)
    positive = set(map(type, base)) == {int} and base[0] > 0
    pairs = []
    for a in A:
        pair = None
        if positive:
            for x in base:
                if x * x > a:
                    break
                if a % x == 0 and a // x in members:
                    pair = (x, a // x)
                    break
        else:
            for x in base:
                if isinstance(a, int) and isinstance(x, int):
                    if a % x:
                        continue
                    q = a // x
                else:
                    q = a / x
                if q in members:
                    pair = (x, q)
                    break
        pairs.append(pair)
    return pairs


def uncovered_term(A, i: int) -> RepresentationError:
    """The error for term i of A, a term with no factor pair in the set;
    named by index, since a term may be too long to print."""
    return RepresentationError("term {} is not a product of two set elements", i, term=A[i])


def factor_pairs(A, base) -> list[tuple]:
    """``first_pairs``; RepresentationError at the first term with none."""
    pairs = first_pairs(A, base)
    if None in pairs:
        raise uncovered_term(A, pairs.index(None))
    return pairs


def verify_coverage(A: list[int], B: list[int]) -> dict:
    """Raise RepresentationError at the first term of A not in B.B; return
    {term: first factor pair} over the terms outside the first column.

    Every product x0 * b with x0 = min(B) lies in B.B, so that first column
    is one C-level set, and its terms' first pairs are (x0, term // x0);
    only the terms outside it go through the ``first_pairs`` scan, and the
    pairs it finds are returned, {} when there is no such term.  The first
    uncovered term is the first of those the scan finds no pair for, named
    by its first index in A."""
    column = set(map(mul, B, repeat(min(B, default=0))))
    rest = list(filterfalse(column.__contains__, A))
    if not rest:
        return {}
    pairs = first_pairs(rest, sorted(B))
    if None in pairs:
        raise uncovered_term(A, A.index(rest[pairs.index(None)]))
    return dict(zip(rest, pairs))


def _sorted_unique(xs) -> tuple:
    """``tuple(sorted(set(xs)))`` with the same survivor of equal elements
    (the first in xs, as ``set`` keeps it and the sort is stable); the set is
    built only when two sorted neighbours are equal."""
    s = sorted(xs)
    if all(map(ne, s, islice(s, 1, None))):
        return tuple(s)
    return tuple(sorted(set(s)))


@dataclass(frozen=True)
class ReductionStep:
    """One step of ``reduce_ap``.  ``before`` is the set before the step (the
    previous step's ``result_set`` object, or the sorted input set) and
    ``quotients[i]`` the q in {1, p, p**2} that divides ``before[i]``; both
    are empty for the terminal gcd extraction."""

    prime: int | None  # None for the terminal gcd extraction
    case: str  # "k1" | "partition-B1B2B3" | "extract-gcd"
    before: tuple[int, ...]
    quotients: tuple[int, ...]
    result_set: tuple[int, ...]
    result_desc: APDescriptor
    measure_drop: int  # sum of Omega(q) over the quotients; 0 for extract-gcd

    @cached_property
    def divisors(self) -> tuple[tuple[int, int], ...]:
        """The pairs (element before, divisor applied)."""
        return tuple(zip(self.before, self.quotients))


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[ReductionStep, ...] = ()
    k0_primes: tuple[int, ...] = ()  # primes dividing d but not D*r, no step needed
    # the last coverage check's pairs: the first factor pair of each final
    # term outside the final set's first column (see ``verify_coverage``)
    pairs: dict = field(default_factory=dict, compare=False, repr=False)


def reduce_ap(A: list[int], B: list[int]) -> tuple[list[int], APDescriptor, ReductionTrace]:
    """Rewrite A subset of B.B as D*(r + d*i) with gcd(d, D*r) = 1.

    Returns (B', descriptor, trace).  The returned descriptor's terms are the
    transformed progression (the original A divided by the primes recorded in
    the trace), each still a product of two elements of B'; the trace's
    ``pairs`` are the last coverage check's, on those terms and B', since
    the gcd extraction changes neither.  Raises
    FalsificationError if a case of the reduction fails its post-step coverage
    oracle on a concrete instance.
    """
    r, d, L = validate_ap(A)
    if not all(map(isinstance, B, repeat(int))) or min(B, default=1) < 1:
        raise InputError("base-set elements must be positive integers")
    cur_B = _sorted_unique(B)
    pairs = verify_coverage(A, cur_B)

    steps: list[ReductionStep] = []
    while True:
        # smallest prime appearing to a higher power in d than in r, with the
        # power in r at least 1 (the power-0 case is handled by extraction)
        pick = None
        for p, e_d in (DEFAULT_TABLE.factorize(d) if d > 1 else []):
            e_r = valuation(r, p)
            if e_d > e_r >= 1:
                pick = (p, e_r, e_d)
                break
        if pick is None:
            break
        p, k_r, k_d = pick
        if k_r == 1:
            # every term carries exactly one factor p; strip one p from the
            # divisible elements of B and divide A by p
            qs = tuple(map(gcd, cur_B, repeat(p)))
            ap_div = p
            case = "k1"
        else:
            # k_d > k_r >= 2: terms carry exactly p**k_r; split B by valuation
            # (0, 1..k_r-1, >= k_r, read off gcd(b, p**k_r)) and divide A by p**2
            split = dict.fromkeys((p**e for e in range(1, k_r)), p) | {1: 1, p**k_r: p * p}
            qs = tuple(map(split.__getitem__, map(gcd, cur_B, repeat(p**k_r))))
            ap_div = p * p
            case = "partition-B1B2B3"
        # b // q has Omega(b) - Omega(q) for q in {1, p, p**2}; quotients
        # that meet lower it further
        drop = len(qs) - qs.count(1) + qs.count(p * p)
        new_B = _sorted_unique(map(floordiv, cur_B, qs))
        r //= ap_div
        d //= ap_div
        new_A = list(range(r, r + d * L, d))
        try:
            pairs = verify_coverage(new_A, new_B)
        except RepresentationError as exc:
            raise FalsificationError(
                "reduction case {} at p={} broke coverage: {}", case, p, exc,
                payload={
                    "case": case,
                    "prime": p,
                    "set": [digit_safe(b) for b in new_B],
                    "ap": [digit_safe(a) for a in new_A],
                    "missing_term": digit_safe(exc.term),
                },
            ) from exc
        if drop == 0:
            raise FalsificationError(
                "reduction step did not decrease the prime-multiplicity measure",
                payload={"case": case, "prime": p},
            )
        steps.append(
            ReductionStep(
                prime=p,
                case=case,
                before=cur_B,
                quotients=qs,
                result_set=new_B,
                result_desc=APDescriptor(1, r, d, L),
                measure_drop=drop,
            )
        )
        cur_B = new_B

    g = gcd(r, d)
    desc = APDescriptor(g, r // g, d // g, L)
    assert desc.is_reduced, "terminal extraction must yield gcd(d, D*r) = 1"
    k0 = tuple(
        p for p, _ in DEFAULT_TABLE.factorize(desc.d) if desc.r % p != 0
    ) if desc.d > 1 else ()
    if g > 1:
        steps.append(
            ReductionStep(
                prime=None,
                case="extract-gcd",
                before=(),
                quotients=(),
                result_set=cur_B,
                result_desc=desc,
                measure_drop=0,
            )
        )
    trace = ReductionTrace(tuple(steps), k0, pairs)
    return list(cur_B), desc, trace


def gcd_bound_audit(desc: APDescriptor) -> tuple[bool, tuple[int, int, int]]:
    """Check gcd(term_i, term_j) <= D*L over all pairs j < i of a reduced
    descriptor; returns (ok, (i, j, gcd)) for a maximizing pair.

    Reducedness gives gcd(r + d*j, d) = 1, so gcd(term_i, term_j) =
    D * gcd(r + d*j, i - j).  A value g is therefore reached iff gcd(g, d) = 1
    and j0 = ``desc.first_divisible(g)``, the first j with g | r + d*j, leaves
    room for i = j0 + g <= L - 1.  The worst pair is (j0 + g, j0) for the
    largest such g in 2..L-1, or (1, 0) with gcd D when there is none: the
    largest gcd, then the smallest j, then the smallest i.  The gcd at that
    pair is recomputed from the terms themselves, and a mismatch is a
    falsification.
    """
    if not desc.is_reduced:
        raise InputError("descriptor not reduced: gcd(d, D*r) != 1")
    D, r, d, L = desc.D, desc.r, desc.d, desc.L
    i, j, g = 1, 0, 1
    # h | r + d*j0 >= h and j0 + h <= L - 1 need h*(d + 1) <= r + d*(L - 1)
    for h in range(min(L - 1, (r + d * (L - 1)) // (d + 1)), 1, -1):
        if gcd(h, d) == 1:
            j0 = desc.first_divisible(h)
            if j0 + h <= L - 1:
                i, j, g = j0 + h, j0, h
                break
    worst = gcd(desc.term(i), desc.term(j))
    if worst != D * g:
        raise FalsificationError(
            "closed-form worst pair disagrees with its recomputed gcd",
            payload={
                "descriptor": desc.as_payload(),
                "pair": [i, j],
                "closed_form": digit_safe(D * g),
                "gcd": digit_safe(worst),
            },
        )
    return worst <= D * L, (i, j, worst)
