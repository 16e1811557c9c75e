"""Exact arithmetic substrate: primes, factorization, p-adic valuations, and
quadratic-field elements a + b*sqrt(m).

Python ints are arbitrary precision, so they serve directly as the natural and
signed integer types; ``fractions.Fraction`` provides reduced rationals with a
positive denominator. Everything here is exact: no floats and no probabilistic
primality anywhere.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, islice, repeat
from math import isqrt

from .errors import CapacityError, DomainError, FieldMismatchError, InputError, digit_safe

DEFAULT_SIEVE_CAPACITY = 10**8


def _sieve(lo: int, hi: int, base: list[int] | None = None) -> list[int]:
    """Primes p with lo <= p <= hi, ascending, for 2 <= lo <= hi.

    Crosses out in [lo, hi] the multiples of ``base``, ascending primes that
    include every prime up to isqrt(hi); without ``base`` they come from this
    sieve over [2, isqrt(hi)].
    """
    if base is None:
        root = isqrt(hi)
        base = _sieve(2, root) if root >= 2 else []
    segment = bytearray([1]) * (hi - lo + 1)
    for p in base:
        if p * p > hi:
            break
        start = max(p * p, ((lo + p - 1) // p) * p)
        segment[start - lo :: p] = bytearray(len(range(start, hi + 1, p)))
    return list(compress(range(lo, hi + 1), segment))


class PrimeTable:
    """Growable prime sieve with a hard capacity.

    Primality is decided only by trial division against sieved primes; any
    request that would need a prime beyond ``capacity`` raises CapacityError
    instead of falling back to a probabilistic test.

    ``factorize`` divides by the sieved primes one at a time and grows the
    sieve only when the division runs past its last prime.  ``is_prime`` is
    the verdict of ``factorize``.

    ``largest_prime_factors`` copies from a cached column, lpf[x] = the
    largest prime of x (1 for x = 0, 1), that grows only to the largest m a
    caller has asked for, never to the sieve's limit.
    """

    def __init__(self, capacity: int = DEFAULT_SIEVE_CAPACITY):
        if capacity < 2:
            raise InputError("sieve capacity must be at least 2")
        self.capacity = capacity
        self._limit = 0
        self._primes: list[int] = []
        self._lpf = [1, 1]

    @property
    def limit(self) -> int:
        return self._limit

    @property
    def primes(self) -> list[int]:
        return self._primes

    def _ensure(self, limit: int) -> None:
        if limit <= self._limit:
            return
        if limit > self.capacity:
            raise CapacityError("sieve limit {} exceeds capacity {}", limit, self.capacity)
        limit = min(max(limit, 2 * self._limit, 1 << 10), self.capacity)
        # only (old limit, limit] is sieved; the table's own primes serve as
        # the base once they reach isqrt(limit)
        base = self._primes if isqrt(limit) <= self._limit else None
        self._primes += _sieve(max(self._limit + 1, 2), limit, base)
        self._limit = limit

    def primes_upto(self, n: int) -> list[int]:
        """All primes <= n, ascending."""
        if n < 2:
            return []
        self._ensure(n)
        return self._primes[: bisect_right(self._primes, n)]

    def largest_prime_factors(self, m: int) -> list[int]:
        """[lpf(1), ..., lpf(m)], a new list, where lpf(x) is the largest
        prime of x and lpf(1) = 1.

        Only the column's tail (old m, m] is written, in place, from the
        primes that ``primes_upto(m)`` gives: each prime writes its
        multiples in the tail in ascending order of the prime, so the
        largest is written last, and a prime above m // 2 writes only
        itself."""
        if m < 1:
            raise DomainError("largest_prime_factors needs m >= 1, got {}", m)
        lpf = self._lpf
        old = len(lpf) - 1
        if m > old:
            primes = self.primes_upto(m)
            lpf.extend(repeat(1, m - old))
            half = bisect_right(primes, m // 2)
            for p in primes[:half]:
                start = (old // p + 1) * p  # p's first multiple past old
                lpf[start::p] = [p] * ((m - start) // p + 1)
            for p in primes[bisect_right(primes, max(old, m // 2)) :]:
                lpf[p] = p
        return lpf[1 : m + 1]

    def is_prime(self, n: int) -> bool:
        """Exact primality for n <= capacity**2; beyond that, CapacityError.

        The verdict of ``factorize``, which cannot raise below that bound."""
        if n < 2:
            return False
        if isqrt(n) > self.capacity:
            raise CapacityError(
                "cannot certify primality of {}: needs primes beyond capacity {}", n, self.capacity
            )
        return self.factorize(n) == [(n, 1)]

    def factorize(self, n: int) -> list[tuple[int, int]]:
        """Prime factorization [(p, e), ...] with ascending p, exact or error.

        Never returns a partial factorization: if the remaining cofactor
        cannot be certified prime within capacity, raises CapacityError.
        """
        if n < 2:
            raise DomainError("factorize requires n >= 2, got {}", n)
        out: list[tuple[int, int]] = []
        rem, start = n, 0
        while rem > 1:
            for p in islice(self._primes, start, None):
                if p * p > rem:
                    break
                if rem % p == 0:
                    e = valuation(rem, p)
                    rem //= p**e
                    out.append((p, e))
            else:
                # past the last sieved prime: grow only while the cofactor
                # may still have a prime factor above the limit
                if self._limit < min(isqrt(rem), self.capacity):
                    start = len(self._primes)
                    self._ensure(self._limit + 1)
                    continue
            break
        if rem > 1:
            # cofactor has no prime factor <= min(sqrt(rem), capacity)
            if isqrt(rem) > self.capacity:
                raise CapacityError(
                    "factor of {} exceeds capacity {}: cofactor {} not certifiable",
                    n, self.capacity, rem,
                )
            out.append((rem, 1))
        return out


DEFAULT_TABLE = PrimeTable()


def valuation(n: int, p: int) -> int:
    """Largest e such that p**e divides n, for n != 0 and p >= 2 (p need
    not be prime)."""
    if n == 0 or p < 2:
        raise DomainError("valuation needs n != 0 and p >= 2, got n={}, p={}", n, p)
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


@lru_cache(maxsize=None)
def _squarefree_ok(m: int) -> bool:
    if m in (0, 1):
        return False
    a = abs(m)
    if a == 1:
        return True  # m == -1
    return all(e == 1 for _, e in DEFAULT_TABLE.factorize(a))


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise InputError("expected an exact rational, got {}", type(x).__name__)


@dataclass(frozen=True, eq=False)
class QuadElem:
    """Element a + b*sqrt(m) of the real or imaginary quadratic field Q(sqrt(m)).

    m is a fixed squarefree integer outside {0, 1}; negative m realizes
    complex instances.  Elements compare equal to plain rationals when b == 0.
    Composite extensions (mixing two different m) are rejected on every
    operation.
    """

    a: Fraction
    b: Fraction
    m: int

    def __post_init__(self):
        object.__setattr__(self, "a", _as_fraction(self.a))
        object.__setattr__(self, "b", _as_fraction(self.b))
        if not isinstance(self.m, int):
            raise InputError("field discriminant m must be an integer")
        if not _squarefree_ok(self.m):
            raise InputError("m must be squarefree and outside {{0, 1}}, got {}", self.m)

    @classmethod
    def from_rational(cls, x, m: int) -> "QuadElem":
        return cls(_as_fraction(x), Fraction(0), m)

    def _coerce(self, other) -> "QuadElem":
        if isinstance(other, QuadElem):
            if other.m != self.m:
                raise FieldMismatchError("mixed fields: sqrt({}) versus sqrt({})", self.m, other.m)
            return other
        return QuadElem.from_rational(_as_fraction(other), self.m)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise DomainError("{} is not rational", self)
        return self.a

    def conjugate(self) -> "QuadElem":
        return QuadElem(self.a, -self.b, self.m)

    def norm(self) -> Fraction:
        return self.a * self.a - self.b * self.b * self.m

    @property
    def sort_key(self) -> tuple[Fraction, Fraction]:
        """Deterministic total order on coordinates (not the real order)."""
        return (self.a, self.b)

    def __add__(self, other):
        o = self._coerce(other)
        return QuadElem(self.a + o.a, self.b + o.b, self.m)

    __radd__ = __add__

    def __neg__(self):
        return QuadElem(-self.a, -self.b, self.m)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        o = self._coerce(other)
        return QuadElem(
            self.a * o.a + self.b * o.b * self.m,
            self.a * o.b + self.b * o.a,
            self.m,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        n = o.norm()
        if n == 0:
            raise DomainError("division by zero in quadratic field")
        num = self * o.conjugate()
        return QuadElem(num.a / n, num.b / n, self.m)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __eq__(self, other):
        if isinstance(other, QuadElem):
            if self.m != other.m:
                return self.is_rational and other.is_rational and self.a == other.a
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.is_rational:
            return hash(self.a)
        return hash((self.a, self.b, self.m))

    def __repr__(self):
        return f"QuadElem({self.a!r}, {self.b!r}, m={self.m})"

    def __str__(self):
        if self.is_rational:
            return digit_safe(self.a)
        return f"{digit_safe(self.a)} + {digit_safe(self.b)}*sqrt({digit_safe(self.m)})"
