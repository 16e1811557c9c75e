"""Prime utilities and quadratic-field arithmetic."""

import random
from bisect import bisect_left
from fractions import Fraction
from itertools import compress
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodap import construct, cyclelab, harness, jsonio, prodset, rationalize
from prodap.apcore import APDescriptor
from prodap.errors import CapacityError, DomainError, FieldMismatchError, InputError, digit_safe
from prodap.exactnum import (
    DEFAULT_SIEVE_CAPACITY,
    DEFAULT_TABLE,
    PrimeTable,
    QuadElem,
    valuation,
)

from instances import graph_from_edges


def trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factorize_oracle(self, n):
    """The per-prime trial-division loop that ``PrimeTable.factorize`` ran
    before the block gcd probe, verbatim, with ``self`` the table."""
    if n < 2:
        raise DomainError(f"factorize requires n >= 2, got {n}")
    out: list[tuple[int, int]] = []
    rem = n
    root = isqrt(rem)
    self._ensure(min(max(root, 2), self.capacity))
    idx = 0
    while rem > 1:
        if idx >= len(self._primes):
            if self._limit >= self.capacity:
                break
            self._ensure(min(max(root, 2 * self._limit), self.capacity))
            if idx >= len(self._primes):
                break
        p = self._primes[idx]
        if p > root:
            break
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            out.append((p, e))
            root = isqrt(rem)
        idx += 1
    if rem > 1:
        # cofactor has no prime factor <= min(sqrt(rem), capacity)
        if isqrt(rem) > self.capacity:
            raise CapacityError(
                f"factor of {n} exceeds capacity {self.capacity}: "
                f"cofactor {rem} not certifiable"
            )
        out.append((rem, 1))
    return out


def is_prime_oracle(table, n):
    """Per-prime trial division by every sieved prime up to isqrt(n)."""
    return n >= 2 and all(n % p for p in table.primes_upto(isqrt(n)))


class ResieveTable(PrimeTable):
    """The table with the ``_ensure`` it had before the segmented extension,
    verbatim: every growth sieves [0, limit] again from scratch."""

    def _ensure(self, limit: int) -> None:
        if limit <= self._limit:
            return
        if limit > self.capacity:
            raise CapacityError(f"sieve limit {limit} exceeds capacity {self.capacity}")
        limit = min(max(limit, 2 * self._limit, 1 << 10), self.capacity)
        sieve = bytearray([1]) * (limit + 1)
        sieve[0:2] = b"\x00\x00"
        for p in range(2, isqrt(limit) + 1):
            if sieve[p]:
                step = len(range(p * p, limit + 1, p))
                sieve[p * p :: p] = bytearray(step)
        self._primes = list(compress(range(limit + 1), sieve))
        self._limit = limit


def outcome(factorize_fn, n):
    try:
        return factorize_fn(n)
    except CapacityError:
        return "capacity"


_PRIMES = PrimeTable().primes_upto(3 * 10**5)
_SMALL = _PRIMES[:200]  # up to 1223
_LARGE = _PRIMES[-2000:]  # about 2.8e5 to 3e5

_smooth = st.lists(st.sampled_from(_SMALL), max_size=12).map(prod)
_factorize_inputs = st.one_of(
    # smooth part times up to two large primes
    st.builds(lambda s, ps: max(2, s * prod(ps)), _smooth,
              st.lists(st.sampled_from(_LARGE), max_size=2)),
    # prime powers
    st.builds(pow, st.sampled_from(_PRIMES[:2000]), st.integers(1, 12)),
    # p * q with p and q near sqrt(n): consecutive primes
    st.integers(0, len(_PRIMES) - 2).map(lambda i: _PRIMES[i] * _PRIMES[i + 1]),
    st.integers(2, 10**12),
)


# the former block gcd probe scanned a hit block's gcd only up to its root
# and read what was left of it as one prime: 311 and 719 ended the first two
# blocks of 64 primes
ROOT_STOP = [3 * 307 * 311, 307**2 * 311, 313 * 409 * 719]


class TestValuation:
    def test_examples(self):
        assert valuation(12, 2) == 2
        assert valuation(-54, 3) == 3
        assert valuation(7, 5) == 0
        # no primality check: the multiplicity of any base >= 2
        assert valuation(2**10, 4) == 5

    def test_tower(self):
        n = 2
        for _ in range(17):
            n *= 3
        assert valuation(n, 3) == 17
        # confirm by repeated exact division
        m, e = n, 0
        while m % 3 == 0:
            m //= 3
            e += 1
        assert e == 17 and m == 2

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


class TestPrimes:
    def test_primes_in_examples(self):
        # the primes in [lo, hi] are a slice of primes_upto(hi)
        def primes_in(lo, hi):
            primes = PrimeTable().primes_upto(hi)
            return primes[bisect_left(primes, lo) :]

        assert primes_in(10, 23) == [11, 13, 17, 19, 23]
        assert primes_in(8, 10) == []
        assert primes_in(2, 2) == [2]

    def test_against_trial_division(self):
        got = len(PrimeTable().primes_upto(10**5))
        expected = sum(1 for k in range(2, 10**5 + 1) if trial_division_is_prime(k))
        assert got == expected == 9592

    def test_capacity_error_names_limit(self):
        table = PrimeTable(capacity=100)
        with pytest.raises(CapacityError, match="sieve limit 1000 exceeds capacity 100$"):
            table.primes_upto(1000)

    def test_is_prime_beyond_capacity(self):
        table = PrimeTable(capacity=10)
        assert table.is_prime(101)  # sqrt fits under the capacity
        with pytest.raises(CapacityError):
            table.is_prime(10**4 + 7_000_000)

    def test_is_prime_on_fresh_table(self):
        # n runs past the first sieve's limit of 1024, and a prime n is told
        # from a composite only by its factorization [(n, 1)]
        for n in range(0, 1100):
            assert PrimeTable().is_prime(n) == trial_division_is_prime(n), n

    @settings(deadline=None)
    @given(st.one_of(
        st.integers(0, 10**12),
        st.builds(lambda p, q: p * q, st.sampled_from(_LARGE), st.sampled_from(_LARGE)),
        st.sampled_from(_LARGE),
    ))
    def test_is_prime_matches_oracle(self, n):
        assert DEFAULT_TABLE.is_prime(n) == is_prime_oracle(self.oracle_table, n)

    def test_is_prime_fixed_cases(self):
        edges = [_PRIMES[i] for i in (63, 64, 127, 128, 191, 192)]
        cases = edges + [p * p for p in edges] + [p * q for p in edges for q in _LARGE[-3:]]
        cases += [_LARGE[-1], _LARGE[-1] * _LARGE[-2], 999_999_999_989, 10**12]
        cases += ROOT_STOP + [307, 311]
        for n in cases:
            assert PrimeTable().is_prime(n) == is_prime_oracle(self.oracle_table, n), n

    oracle_table = PrimeTable()


# requested limits, in order, for one table; 1031 and 1033 are prime, so
# growth from limit 1031 or 1032 must start just past the old limit, and
# isqrt(2 * 10**6) is past 1024, so that growth cannot take its base primes
# from the table
_GROWTH = [
    [1], [2], [3], [31], [32], [33], [1023], [1024], [1025], [10**6],
    [1, 2, 3, 31, 32, 33, 1023, 1024, 1025, 10**6],
    [33, 1025, 4097, 10**6],
    [1031, 1033],
    [1032, 1033],
    [3, 2 * 10**6],
]


class TestSieveGrowth:
    @pytest.mark.parametrize(
        "capacity", [2, 3, 31, 32, 33, 1023, 1024, 1025, 10**6, DEFAULT_SIEVE_CAPACITY]
    )
    def test_growth_matches_resieve(self, capacity):
        for requests in _GROWTH:
            table, oracle = PrimeTable(capacity), ResieveTable(capacity)
            for limit in requests:
                if limit > capacity:
                    for t in (table, oracle):
                        with pytest.raises(CapacityError):
                            t._ensure(limit)
                    continue
                table._ensure(limit)
                oracle._ensure(limit)
                assert table.limit == oracle.limit, requests
                assert table.primes == oracle.primes, requests


class TestFactorize:
    def test_examples(self):
        factorize = DEFAULT_TABLE.factorize
        assert factorize(12) == [(2, 2), (3, 1)]
        assert factorize(97) == [(97, 1)]
        assert factorize(2 * 3 * 5 * 7 * 11) == [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1)]

    def test_rejects_small(self):
        for n in (0, 1):
            with pytest.raises(DomainError):
                DEFAULT_TABLE.factorize(n)

    def test_roundtrip_random(self):
        rng = random.Random(0xFAC7)
        for _ in range(1000):
            n = rng.randint(2, 10**12)
            fac = DEFAULT_TABLE.factorize(n)
            prod = 1
            for p, e in fac:
                assert DEFAULT_TABLE.is_prime(p)
                prod *= p**e
            assert prod == n
            assert [p for p, _ in fac] == sorted({p for p, _ in fac})

    def test_never_partial(self):
        table = PrimeTable(capacity=10)
        with pytest.raises(CapacityError):
            table.factorize(101 * 103)
        # small cofactor certified prime without exceeding capacity
        assert table.factorize(2 * 97) == [(2, 1), (97, 1)]


class TestFactorizeBlocks:
    """The per-prime division, with its lazy sieve growth, against the loop
    that sieved to the square root up front."""

    # the oracle sieves to min(sqrt(n), capacity) up front, so both tables
    # stop at 10**6, past the square root of every input's cofactor
    oracle_table = PrimeTable(capacity=10**6)
    table = PrimeTable(capacity=10**6)  # grows across the examples

    @settings(max_examples=300, deadline=None)
    @given(_factorize_inputs)
    def test_matches_oracle(self, n):
        want = outcome(lambda m: factorize_oracle(self.oracle_table, m), n)
        assert want != "capacity"
        assert self.table.factorize(n) == want

    def test_block_edges(self):
        edges = [_PRIMES[i] for i in (63, 64, 127, 128)]
        assert edges == [311, 313, 719, 727]
        cases = edges + [p * p for p in edges] + [prod(edges), 2**40 * edges[3]]
        cases += [p * q for p in edges for q in (_LARGE[0], _LARGE[-1])]
        cases += ROOT_STOP
        for n in cases:
            want = factorize_oracle(self.oracle_table, n)
            assert PrimeTable().factorize(n) == want, n

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.integers(2, 2**100),
        st.builds(lambda s, k: max(2, s * k), _smooth, st.integers(1, 2**60)),
        st.integers(0, 1200).map(lambda i: _PRIMES[i] * _PRIMES[i + 1]),
    ))
    def test_capacity_errors_match(self, n):
        # both refuse exactly the inputs with a cofactor past capacity**2
        oracle, table = PrimeTable(capacity=10**4), PrimeTable(capacity=10**4)
        assert outcome(table.factorize, n) == outcome(
            lambda m: factorize_oracle(oracle, m), n
        )
        assert table.limit <= 10**4

    def test_partial_block_is_not_cached(self):
        # the division of 727 * 1021 ends at 733 > sqrt(1021), inside the
        # first sieve, so the limit stays at 1024
        table = PrimeTable()
        assert table.factorize(727 * 1021) == [(727, 1), (1021, 1)]
        assert table.limit == 1024
        # no prime up to 1021 divides 1031 * 1033, whose root is 1031: the
        # division runs past the last prime and the sieve doubles once
        assert table.factorize(1031 * 1033) == [(1031, 1), (1033, 1)]
        assert table.limit == 2048

    def test_sieve_grows_only_as_far_as_the_division(self):
        # sqrt(n) is near 2**63, but the cofactor is 1 after 2 and 3
        table = PrimeTable()
        assert table.factorize(2**80 * 3**40) == [(2, 80), (3, 40)]
        assert table.limit == 1024

    @settings(max_examples=100, deadline=None)
    @given(_factorize_inputs)
    def test_limit_at_most_twice_the_root(self, n):
        # the sieve doubles only while its limit is below the cofactor's root
        table = PrimeTable()
        table.factorize(n)
        assert table.limit <= max(1024, 2 * isqrt(n))


_GRAPH = prodset.build_rep_graph([1, 2], [2])


class TestDigitLimit:
    """An error about an integer past Python's int-to-decimal digit limit
    (4300 by default) names it by its bit length."""

    big = 1009**1665  # 5002 digits, no prime factor below 1009

    def test_is_prime(self):
        with pytest.raises(CapacityError, match=r"<16610-bit integer>"):
            DEFAULT_TABLE.is_prime(10**5000 + 1)

    def test_factorize(self):
        with pytest.raises(CapacityError, match=r"of <16615-bit integer> .* "
                           r"cofactor <16615-bit integer>"):
            PrimeTable(capacity=1000).factorize(self.big)

    def test_valuation(self):
        with pytest.raises(DomainError, match=r"n=<16610-bit integer>, p=1$"):
            valuation(10**5000, 1)

    def test_exact_values_name_their_ints(self):
        big = 10**5000
        assert digit_safe(Fraction(big, 3)) == "<16610-bit integer>/3"
        assert digit_safe(Fraction(3, big + 1)) == "3/<16610-bit integer>"
        assert digit_safe(Fraction(big)) == "<16610-bit integer>"
        assert digit_safe(QuadElem(big, 0, 2)) == "<16610-bit integer>"
        assert digit_safe(QuadElem(1, Fraction(big, 7), 2)) == "1 + <16610-bit integer>/7*sqrt(2)"
        # below the limit the text is str(x)
        for x in (Fraction(-5, 3), QuadElem(1, -2, 3), QuadElem(4, 0, 3)):
            assert digit_safe(x) == str(x)

    def test_containers_name_their_ints(self):
        big = 10**5000
        value = [big, "a", (big,), {big: Fraction(big, 3)}, ()]
        assert digit_safe(value) == (
            "[<16610-bit integer>, 'a', (<16610-bit integer>,), "
            "{<16610-bit integer>: <16610-bit integer>/3}, ()]"
        )
        # below the limit the text is str(x)
        for x in ([1, "a", (2,), {3: [Fraction(1, 3)]}, (), {}], (1, [2]), {"k": (1, 2)}):
            assert digit_safe(x) == str(x)

    def test_as_rational(self):
        with pytest.raises(DomainError, match=r"^<16610-bit integer> \+ 1\*sqrt\(2\) is not"):
            QuadElem(10**5000, 1, 2).as_rational()

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda x: prodset.longest_ap([1, 2, 3], limit=x), InputError),
            (lambda x: graph_from_edges((1, 2), (prodset.Edge(x, 0, 0, 2),)), InputError),
            (lambda x: graph_from_edges((1, 2), (prodset.Edge(0, 2, 0, -x),)), InputError),
            (lambda x: harness.scaling_study(["random"], [10], x, 0), InputError),
            (lambda x: harness.scaling_study(["random"], [10], 1, 0, ap_limit=x), InputError),
            (lambda x: harness.scaling_study(["random"], [x], 1, 0), InputError),
            (lambda x: harness.pipeline(harness.demo_instance_file("quad", 3), x), InputError),
            (lambda x: construct.floor_mul_ln(x, 2), DomainError),
            (lambda x: construct.floor_mul_ln(1, x), DomainError),
            (lambda x: construct.floor_n_log_n(x), DomainError),
            (lambda x: construct.cover_set(x), InputError),
            (lambda x: rationalize.c4_extremal_threshold(x), InputError),
            (lambda x: APDescriptor(1, 1, 1, x), InputError),
            (lambda x: cyclelab.find_even_cycle(_GRAPH, x), InputError),
            (lambda x: cyclelab.enumerate_even_cycles(_GRAPH, x), InputError),
            (lambda x: cyclelab.enumerate_even_cycles(_GRAPH, 3, max_count=x), InputError),
            (lambda x: QuadElem(1, 1, x), InputError),
            (lambda x: PrimeTable().primes_upto(-x), CapacityError),
            (lambda x: jsonio.dec_quad([x]), InputError),
            (lambda x: jsonio.descriptor_from_json([x]), InputError),
        ],
        ids=[
            "longest_ap-limit", "RepGraph-endpoint", "RepGraph-value", "study-trials",
            "study-ap_limit", "study-size", "pipeline-cycle_cap", "floor_mul_ln-c",
            "floor_mul_ln-n", "floor_n_log_n", "cover_set", "c4_extremal_threshold",
            "APDescriptor-L", "find_even_cycle-k", "enumerate_even_cycles-k",
            "enumerate_even_cycles-max_count", "QuadElem-m", "primes_upto", "dec_quad-list",
            "descriptor_from_json-list",
        ],
    )
    def test_argument_messages(self, call, error):
        with pytest.raises(error, match=r"<16610-bit integer>"):
            call(-(10**5000))


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
