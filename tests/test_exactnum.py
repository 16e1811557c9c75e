"""Prime utilities and quadratic-field arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodap.errors import CapacityError, DomainError, FieldMismatchError, InputError
from prodap.exactnum import (
    PrimeTable,
    QuadElem,
    factorize,
    is_prime,
    ord_p,
    primes_in,
    sqrt_decompose,
    squarefree_decompose,
    valuation,
)


def trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class TestOrdP:
    def test_examples(self):
        assert ord_p(12, 2) == 2
        assert ord_p(7, 5) == 0

    def test_tower(self):
        n = 2
        for _ in range(17):
            n *= 3
        assert ord_p(n, 3) == 17
        # confirm by repeated exact division
        m, e = n, 0
        while m % 3 == 0:
            m //= 3
            e += 1
        assert e == 17 and m == 2

    def test_errors(self):
        with pytest.raises(DomainError):
            ord_p(0, 3)
        with pytest.raises(DomainError):
            ord_p(12, 4)

    @given(st.integers(min_value=1, max_value=10**9), st.sampled_from([2, 3, 5, 7, 11, 13]))
    def test_cofactor_coprime(self, n, p):
        e = ord_p(n, p)
        assert n % p**e == 0
        assert (n // p**e) % p != 0


class TestValuation:
    def test_examples(self):
        assert valuation(12, 2) == 2
        assert valuation(-54, 3) == 3
        assert valuation(7, 5) == 0
        # no primality check: the multiplicity of any base >= 2
        assert valuation(2**10, 4) == 5

    def test_errors(self):
        with pytest.raises(DomainError):
            valuation(0, 3)
        with pytest.raises(DomainError):
            valuation(12, 1)

    @given(st.integers(min_value=-(10**30), max_value=10**30).filter(bool), st.integers(2, 60))
    def test_cofactor(self, n, p):
        e = valuation(n, p)
        assert n % p**e == 0
        assert (n // p**e) % p != 0
        if is_prime(p):
            assert ord_p(n, p) == e


class TestPrimes:
    def test_primes_in_examples(self):
        assert primes_in(10, 23) == [11, 13, 17, 19, 23]
        assert primes_in(8, 10) == []
        assert primes_in(2, 2) == [2]

    def test_against_trial_division(self):
        got = len(primes_in(2, 10**5))
        expected = sum(1 for k in range(2, 10**5 + 1) if trial_division_is_prime(k))
        assert got == expected == 9592

    def test_segments_match_full_sieve(self):
        table = PrimeTable()
        full = set(table.primes_upto(3000))
        for lo, hi in [(100, 200), (1000, 1100), (2500, 3000), (2, 50)]:
            assert set(table.primes_in(lo, hi)) == {p for p in full if lo <= p <= hi}

    def test_capacity_error_names_limit(self):
        table = PrimeTable(capacity=100)
        with pytest.raises(CapacityError) as exc:
            table.primes_in(2, 1000)
        assert exc.value.limit == 100
        assert "100" in str(exc.value)

    def test_is_prime_beyond_capacity(self):
        table = PrimeTable(capacity=10)
        assert table.is_prime(101)  # sqrt fits under the capacity
        with pytest.raises(CapacityError):
            table.is_prime(10**4 + 7_000_000)


class TestFactorize:
    def test_examples(self):
        assert factorize(12) == [(2, 2), (3, 1)]
        assert factorize(97) == [(97, 1)]
        assert factorize(2 * 3 * 5 * 7 * 11) == [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1)]

    def test_rejects_small(self):
        for n in (0, 1):
            with pytest.raises(DomainError):
                factorize(n)

    def test_roundtrip_random(self):
        rng = random.Random(0xFAC7)
        for _ in range(1000):
            n = rng.randint(2, 10**12)
            fac = factorize(n)
            prod = 1
            for p, e in fac:
                assert is_prime(p)
                prod *= p**e
            assert prod == n
            assert [p for p, _ in fac] == sorted({p for p, _ in fac})

    def test_never_partial(self):
        table = PrimeTable(capacity=10)
        with pytest.raises(CapacityError):
            table.factorize(101 * 103)
        # small cofactor certified prime without exceeding capacity
        assert table.factorize(2 * 97) == [(2, 1), (97, 1)]


class TestSquarefree:
    def test_decompose(self):
        assert squarefree_decompose(1) == (1, 1)
        assert squarefree_decompose(8) == (2, 2)
        assert squarefree_decompose(36) == (6, 1)
        assert sqrt_decompose(Fraction(4)) == (Fraction(2), 1)
        assert sqrt_decompose(Fraction(2)) == (Fraction(1), 2)
        assert sqrt_decompose(Fraction(1, 2)) == (Fraction(1, 2), 2)


_rats = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)


def quads(m):
    return st.builds(lambda a, b: QuadElem(a, b, m), _rats, _rats)


class TestQuadElem:
    def test_examples(self):
        rt2 = QuadElem(0, 1, 2)
        assert rt2 * rt2 == QuadElem(2, 0, 2) == 2
        x = QuadElem(1, 1, 2)
        assert x / x == QuadElem(1, 0, 2)
        assert QuadElem(0, 1, 2) * QuadElem(0, Fraction(3, 2), 2) == 3

    def test_field_validation(self):
        for m in (0, 1, 4, 12, 18):
            with pytest.raises(InputError):
                QuadElem(1, 1, m)
        for m in (-1, 2, 3, -5, 6, 10):
            QuadElem(1, 1, m)

    def test_mixed_fields_rejected(self):
        with pytest.raises(FieldMismatchError):
            QuadElem(1, 1, 2) * QuadElem(1, 1, 3)

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            QuadElem(1, 1, 2) / QuadElem(0, 0, 2)

    def test_imaginary_norm(self):
        i = QuadElem(0, 1, -1)
        assert i * i == -1
        assert (QuadElem(3, 4, -1)).norm() == 25

    @given(quads(2), quads(2))
    def test_commutative(self, x, y):
        assert x * y == y * x

    @settings(max_examples=60)
    @given(quads(-1), quads(-1), quads(-1))
    def test_associative(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @given(quads(3), quads(3))
    def test_rational_closure(self, x, y):
        if x.b == 0 and y.b == 0:
            assert (x * y).is_rational
        if x.a == 0 and y.a == 0:
            assert (x * y).is_rational

    @given(quads(2), quads(2))
    def test_division_inverts(self, x, y):
        if not y.is_zero:
            assert (x * y) / y == x

    def test_hash_matches_rational(self):
        assert hash(QuadElem(Fraction(3, 2), 0, 5)) == hash(Fraction(3, 2))
        assert QuadElem(3, 0, 5) == 3
