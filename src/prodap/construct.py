"""Dense product-set cover: the first n integers together with all primes up
to floor(n*ln n), whose product set covers the whole interval [1, floor(n*ln n)].

Witnesses are produced by a greedy splitter: a term x with largest prime
factor p > ln n and x/p <= n splits off that prime directly; otherwise
factors migrate one smallest prime at a time from the big part to the small
part until both parts land in the set.  Threshold comparisons against ln n
are decided by an integer enclosure of ln n, never by a float.

``coverage_check`` certifies all of [1, floor(n*ln n)] from one witness
table w, where x splits as (w[x], x / w[x]), and that table is the
certificate: the witnesses are read from it on demand, so no per-x object is
kept.  Every prime comes from the shared prime table, which the cover set
grows to M once, so a later call with no larger M sieves nothing.  Each
prime above floor(ln n) sieves its multiples into w, so w[x] is x's largest
prime whenever that prime is above floor(ln n); the other x, 1
and the floor(ln n)-smooth x, are enumerated from the primes up to
floor(ln n) and split by the transfer loop, which writes the smaller factor,
or M + 1, which divides no x, when it fails.  Three passes over the table
check every x with no mask, and only when one fails does an ascending scan
look for the least bad x.  ``split_factor`` splits a single x by trial
division and shares the transfer loop with it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import floordiv, mod

from .errors import DomainError, FalsificationError, InputError
from .exactnum import DEFAULT_TABLE, PrimeTable

SIZE_RATIO_CHECK_FROM = 10  # |B| <= 2n is asserted from this n on


def _atanh_fixed(a: int, b: int, prec: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2**prec * atanh(a/b) <= hi, for 0 <= a/b <= 1/3.

    Each floored power p_j = p_{j-1}*a**2 // b**2 sits below its true value
    by less than 9/8, so each of the j summed terms is short by less than 3
    and the tail after p_j = 0 is below 2."""
    p = (a << prec) // b
    a2, b2 = a * a, b * b
    s = j = 0
    while p:
        s += p // (2 * j + 1)
        p = p * a2 // b2
        j += 1
    return s, s + 3 * j + 2


def floor_mul_ln(c: int, n: int) -> int:
    """floor(c * ln n), exact, for integers c >= 0 and n >= 1.

    ln n = 2k*atanh(1/3) + 2*atanh((n - 2**k)/(n + 2**k)) with
    2**k <= n < 2**(k+1), so both arguments are at most 1/3.  Precision
    doubles until both ends of the enclosure share a floor; this ends because
    c*ln n is irrational for c >= 1 and n >= 2, and for c = 0 or n = 1 the
    lower end is exactly 0 while the upper one stays below 1."""
    if c < 0 or n < 1:
        raise DomainError("need c >= 0 and n >= 1, got c={}, n={}", c, n)
    k = n.bit_length() - 1
    prec = c.bit_length() + k.bit_length() + 32
    while True:
        lo1, hi1 = _atanh_fixed(1, 3, prec)
        lo2, hi2 = _atanh_fixed(n - (1 << k), n + (1 << k), prec)
        lo = (c * (k * lo1 + lo2)) >> (prec - 1)
        if lo == (c * (k * hi1 + hi2)) >> (prec - 1):
            return lo
        prec *= 2


def floor_n_log_n(n: int) -> int:
    """floor(n * ln n), exact."""
    if n < 1:
        raise DomainError("need n >= 1, got {}", n)
    return floor_mul_ln(n, n)


@lru_cache(maxsize=64)
def _floor_ln(n: int) -> int:
    return floor_mul_ln(1, n)


def exceeds_ln(p: int, n: int) -> bool:
    """Exact decision of p > ln n for integer p: ln n is irrational for
    n >= 2, so p > ln n exactly when p > floor(ln n)."""
    if n < 2:
        return p > 0
    return p > _floor_ln(n)


@dataclass
class ConstructionResult:
    """The cover set for a given n, with witness pairs for [1, M] once the
    coverage check has run.  methods records which splitting path produced
    each witness.  Both are empty until then, and afterwards read-only views
    of the coverage certificate.  Membership is a lookup in the set of
    elements."""

    n: int
    M: int
    elements: tuple[int, ...]
    witnesses: Mapping[int, tuple[int, int]] = field(default_factory=dict)
    methods: Mapping[int, str] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.elements)

    @cached_property
    def _members(self) -> frozenset[int]:
        return frozenset(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self._members


def cover_set(n: int, table: PrimeTable | None = None) -> ConstructionResult:
    """[1..n] together with the primes in [n, floor(n*ln n)], taken from the
    table, which grows to floor(n*ln n) unless it already reaches it."""
    if n < 3:
        raise InputError("need n >= 3, got {}", n)
    table = table or DEFAULT_TABLE
    M = floor_n_log_n(n)
    primes = table.primes_upto(M) if M > n else []  # M = n only at n = 3
    above = primes[bisect_right(primes, n) :]
    result = ConstructionResult(n, M, (*range(1, n + 1), *above))
    if n >= SIZE_RATIO_CHECK_FROM and result.size > 2 * n:
        raise FalsificationError(
            "cover set for n={} has {} > 2n elements", n, result.size,
            payload={"n": n, "M": M, "size": result.size},
        )
    return result


def _transfer(d1: int, d2: int, moves, members: frozenset) -> tuple[int, int, str] | None:
    """Greedy transfer from d1 = the largest prime of x and d2 = x / d1: move
    the primes of d2, in the ascending order ``moves`` gives them, across to
    d1 until both parts are in ``members``.  None if the moves run out."""
    moves = iter(moves)
    while d1 not in members or d2 not in members:
        p = next(moves, None)
        if p is None:
            return None
        d1 *= p
        d2 //= p
    a, b = sorted((d1, d2))
    return (a, b, "transfer")


def split_factor(
    x: int, n: int, result: ConstructionResult, table: PrimeTable | None = None
) -> tuple[int, int, str] | None:
    """Witness (d1, d2, method), d1 <= d2, with d1*d2 = x and both in the
    cover set; method names the path that found it ("unit", "large-prime" or
    "transfer").  None if the transfer loop fails (which the coverage argument
    says cannot happen for x in range)."""
    table = table or DEFAULT_TABLE
    if not 1 <= x <= result.M:
        raise InputError("x={} outside [1, {}]", x, result.M)
    if x == 1:
        return (1, 1, "unit")
    factors = table.factorize(x)
    p_big = factors[-1][0]
    if exceeds_ln(p_big, n) and x // p_big <= n:
        a, b = sorted((p_big, x // p_big))
        return (a, b, "large-prime")
    # x's factorization less one p_big lists the big part's primes in order
    moves = [p for p, e in factors for _ in range(e)][:-1]
    return _transfer(p_big, x // p_big, moves, result._members)


def _witness_table(
    result: ConstructionResult, table: PrimeTable
) -> tuple[list[int], frozenset, dict]:
    """(w, smooth, failed): w[x] is the smaller factor of a witness
    (w[x], x / w[x]) for each x in [1, M]; smooth holds x = 1 and the
    floor(ln n)-smooth x, whose witnesses the transfer loop wrote; failed maps
    each such x whose loop failed, or handed back a pair with d1*d2 != x, to
    what it returned, and its w[x] is M + 1, which divides no x.

    Every other x has a prime above floor(ln n), and w[x] is the largest:
    each such prime writes its multiples in ascending order, so the largest
    is written last.  A prime above M // 2 has no multiple in [1, M] but
    itself, so it writes only w[p].  The primes come from the table, which
    ``cover_set`` has already grown to M."""
    n, M, members = result.n, result.M, result._members
    primes = table.primes_upto(M)
    cut, half = bisect_right(primes, _floor_ln(n)), bisect_right(primes, M // 2)
    small = primes[:cut]
    w = [1] * (M + 1)
    for p in primes[cut:half]:
        w[p::p] = [p] * (M // p)
    for p in primes[half:]:
        w[p] = p
    # each smooth x with its primes, ascending, built from the small primes
    smooth = [(1, [])]
    for p in small:
        for x, primes in smooth[:]:
            while (x := x * p) <= M:
                primes = [*primes, p]
                smooth.append((x, primes))
    failed = {}
    for x, primes in smooth[1:]:
        found = _transfer(primes[-1], x // primes[-1], primes[:-1], members)
        if found is None or found[0] * found[1] != x:
            failed[x] = found
            w[x] = M + 1
        else:
            w[x] = found[0]
    return w, frozenset(x for x, _ in smooth), failed


class _CertificateView(Mapping):
    """Read-only mapping over x = 1..M, ascending, read on demand from the
    coverage certificate: the witness table w, where x splits as
    (w[x], x / w[x]), and the set of unit and transfer x."""

    def __init__(self, M: int, w: list[int], smooth: frozenset) -> None:
        self._M, self._w, self._smooth = M, w, smooth

    def __iter__(self):
        return iter(range(1, self._M + 1))

    def __len__(self) -> int:
        return self._M

    def __repr__(self) -> str:
        return f"{type(self).__name__}(M={self._M}, transfers={len(self._smooth)})"


class _WitnessView(_CertificateView):
    def __getitem__(self, x: int) -> tuple[int, int]:
        if not (isinstance(x, int) and 1 <= x <= self._M):
            raise KeyError(x)
        p = self._w[x]
        q = x // p
        return (q, p) if q <= p else (p, q)


class _MethodView(_CertificateView):
    def __getitem__(self, x: int) -> str:
        if not (isinstance(x, int) and 1 <= x <= self._M):
            raise KeyError(x)
        if x not in self._smooth:
            return "large-prime"
        return "unit" if x == 1 else "transfer"


def _invalid_witness(n: int, x: int, d1: int, d2: int) -> FalsificationError:
    return FalsificationError(
        "invalid witness ({}, {}) for {}", d1, d2, x,
        payload={"n": n, "x": x, "d1": d1, "d2": d2},
    )


def coverage_check(n: int, table: PrimeTable | None = None) -> ConstructionResult:
    """Certify that every x in [1, floor(n*ln n)] is a product of two cover-set
    elements, with one witness per x.  A missing witness is a falsification,
    not a crash.

    The witness table holds (w[x], x/w[x]) for every x: for x with a prime
    p > floor(ln n) (exact, since ln n is irrational), p is its largest
    prime, which also gives x/p < n since p*n > n*ln n >= x; the other x are
    enumerated from the primes up to floor(ln n) and split by the transfer
    loop.  Three passes over the table re-check every witness: x % w[x] == 0,
    w[x] in the set and x // w[x] in the set.  Only when one fails is the
    least bad x looked for.  The result's witnesses and methods read the
    pairs from the table when looked up."""
    table = table or DEFAULT_TABLE
    result = cover_set(n, table)
    w, smooth, failed = _witness_table(result, table)
    members = result._members
    xs, ws = range(1, result.M + 1), w[1:]
    if (
        any(map(mod, xs, ws))
        or not members.issuperset(ws)
        or not members.issuperset(map(floordiv, xs, ws))
    ):
        for x, p in zip(xs, ws):
            if x % p or p not in members or x // p not in members:
                break
        if x not in failed:
            raise _invalid_witness(n, x, *sorted((p, x // p)))
        if failed[x] is None:
            raise FalsificationError(
                "no witness for {} in the cover set of n={}", x, n,
                payload={"n": n, "M": result.M, "x": x},
            )
        raise _invalid_witness(n, x, *failed[x][:2])
    result.witnesses = _WitnessView(result.M, w, smooth)
    result.methods = _MethodView(result.M, w, smooth)
    return result
