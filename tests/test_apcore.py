"""Descriptor reduction and the pairwise-gcd bound."""

import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import prodap
from prodap import apcore
from prodap.apcore import (
    APDescriptor,
    factor_pairs,
    first_pairs,
    gcd_bound_audit,
    reduce_ap,
    validate_ap,
    verify_coverage,
)
from prodap.errors import FalsificationError, InputError, RepresentationError, ShapeError
from prodap.exactnum import DEFAULT_TABLE, QuadElem, valuation
from prodap.prodset import sort_key

from instances import inflated_instance


def pairwise_worst(desc):
    """Oracle: the O(L^2) scan over all pairs j < i, first maximum in (j, i)
    order, returned in the shape of gcd_bound_audit."""
    terms = desc.terms()
    worst, i, j = 0, 1, 0
    for jj in range(desc.L):
        for ii in range(jj + 1, desc.L):
            g = gcd(terms[ii], terms[jj])
            if g > worst:
                worst, i, j = g, ii, jj
    return worst <= desc.D * desc.L, (i, j, worst)


def gcd_scan_from_top(desc):
    """The closed form of ``gcd_bound_audit`` with its scan over every h from
    L - 1 down: (i, j, D*g) for the first h, coprime to d, whose j0 leaves
    room for i = j0 + h <= L - 1."""
    i, j, g = 1, 0, 1
    for h in range(desc.L - 1, 1, -1):
        if gcd(h, desc.d) == 1:
            j0 = desc.first_divisible(h)
            if j0 + h <= desc.L - 1:
                i, j, g = j0 + h, j0, h
                break
    return i, j, desc.D * g


def omega_sum(B):
    """Oracle for the reduction measure: factorize every element from scratch."""
    return sum(e for b in B if b > 1 for _, e in DEFAULT_TABLE.factorize(b))


def check_drops(B, trace):
    """The drop oracle, step by step against from-scratch factorization.

    A non-terminal step divides each element b of the set before it by its
    divisor q and lowers the set's Omega by at least its measure_drop > 0.
    The two are equal unless quotients meet: each extra element mapped to a
    quotient c lowers Omega by a further Omega(c), so equality fails exactly
    when two elements meet on a quotient above 1.  Returns the number of
    non-terminal steps."""
    before, n = tuple(sorted(set(B))), 0
    for s in trace.steps:
        if s.case == "extract-gcd":
            assert s.measure_drop == 0 and s.result_set == before
            continue
        assert tuple(b for b, _ in s.divisors) == before
        quotients = Counter(b // q for b, q in s.divisors)
        assert s.result_set == tuple(sorted(quotients))
        decrease = omega_sum(before) - omega_sum(s.result_set)
        assert decrease >= s.measure_drop > 0
        assert decrease == s.measure_drop + sum(
            (k - 1) * omega_sum([c]) for c, k in quotients.items()
        )
        before, n = s.result_set, n + 1
    return n


def check_columns(B, trace):
    """Each non-terminal step's columns: ``before`` is the previous step's
    ``result_set`` object (the sorted input set for the first step),
    ``quotients`` runs alongside it, and ``divisors`` pairs the two.  The
    terminal gcd extraction has empty columns.  Returns the number of
    non-terminal steps."""
    prev, n = None, 0
    for s in trace.steps:
        if s.case == "extract-gcd":
            assert s.before == s.quotients == () and s.divisors == ()
            continue
        if prev is None:
            assert s.before == tuple(sorted(set(B)))
        else:
            assert s.before is prev.result_set
        assert type(s.before) is type(s.quotients) is tuple
        assert len(s.before) == len(s.quotients)
        assert s.divisors == tuple(zip(s.before, s.quotients))
        assert s.divisors is s.divisors
        prev, n = s, n + 1
    return n


def divisor_oracle(b, p, k_r):
    """The divisor of b at a step on p: for k_r = 1, p when p | b; else the
    three-way split by valuation, 1 below p, p for 1 <= e < k_r and p**2
    from k_r on."""
    if k_r == 1:
        return p if b % p == 0 else 1
    e = valuation(b, p)
    return 1 if e == 0 else p if e < k_r else p * p


def check_divisors(A, trace):
    """Each non-terminal step's divisors and drop against ``divisor_oracle``,
    with k_r the valuation at p of the start before the step.  Returns the
    list of k_r, one per step."""
    r, ks = A[0], []
    for s in trace.steps:
        if s.case == "extract-gcd":
            continue
        p = s.prime
        k_r = valuation(r, p)
        assert s.case == ("k1" if k_r == 1 else "partition-B1B2B3")
        want = tuple((b, divisor_oracle(b, p, k_r)) for b, _ in s.divisors)
        assert s.divisors == want
        assert s.measure_drop == sum({1: 0, p: 1, p * p: 2}[q] for _, q in want)
        r, ks = s.result_desc.r, ks + [k_r]
    return ks


def validate_ap_oracle(A):
    """``validate_ap`` as one loop over the terms and one over the gaps: the
    reference for its errors and their order."""
    if len(A) < 3:
        raise ShapeError("need at least 3 terms, got {}", len(A))
    if any(not isinstance(a, int) or a < 1 for a in A):
        raise InputError("AP terms must be positive integers")
    d = A[1] - A[0]
    if d < 1:
        raise ShapeError("difference must be positive: term 1 is not above term 0")
    for i in range(2, len(A)):
        if A[i] - A[i - 1] != d:
            raise ShapeError(
                "not an arithmetic progression: the gap at position {} "
                "differs from the first gap", i,
            )
    return A[0], d, len(A)


def outcome(f, *args):
    """f(*args), or the type and message of the InputError it raises, with
    the term of a RepresentationError."""
    try:
        return f(*args)
    except InputError as exc:
        return type(exc), str(exc), getattr(exc, "term", None)


class TestDescriptor:
    def test_terms_examples(self):
        assert APDescriptor(1, 1, 1, 4).terms() == [1, 2, 3, 4]
        assert APDescriptor(2, 3, 2, 3).terms() == [6, 10, 14]
        assert APDescriptor(4, 2, 1, 3).terms() == [8, 12, 16]

    def test_validation(self):
        with pytest.raises(InputError):
            APDescriptor(0, 1, 1, 3)
        with pytest.raises(InputError):
            APDescriptor(1, 1, 0, 3)
        with pytest.raises(InputError):
            APDescriptor(1, 1, 1, 2)

    def test_is_reduced(self):
        assert APDescriptor(1, 3, 2, 3).is_reduced
        assert not APDescriptor(2, 3, 2, 3).is_reduced

    def test_validate_ap(self):
        assert validate_ap([3, 5, 7]) == (3, 2, 3)
        with pytest.raises(ShapeError):
            validate_ap([1, 2])
        with pytest.raises(ShapeError):
            validate_ap([3, 3, 3])
        with pytest.raises(ShapeError):
            validate_ap([1, 2, 4])
        with pytest.raises(InputError):
            validate_ap([-1, 0, 1])

    def test_validate_ap_past_digit_limit(self):
        # the messages name positions, not the 5001-digit gap or difference
        with pytest.raises(ShapeError, match="gap at position 2"):
            validate_ap([1, 2, 10**5000])
        with pytest.raises(ShapeError, match="difference must be positive"):
            validate_ap([10**5000, 1, 2])

    @pytest.mark.parametrize(
        "A",
        [
            [1, 2, 4, 5, 6],
            [*range(1, 11), 12, *range(12, 21)],
            [*range(1, 20), 21],
            [1, 2, 3, 4, True],
            [True, 2, 3, 4],
            [False, 1, 2],
            [1, 2, 3, Fraction(4)],
            [Fraction(1, 2), 1, Fraction(3, 2)],
            [0, 1, 2],
            [3, 2, 1, -1],
            [-5, 1, 7],
            [1, 2, 10**5000],
            [10**5000, 10**5000 + 1, 10**5000 + 2],
            [10**5000, 1, 2],
            (1, 3, 5),
            (1, 3, 6),
            [7, 7],
        ],
    )
    def test_validate_ap_matches_loop(self, A):
        # the C-level tests give each error the loops' type, message and
        # position
        assert outcome(validate_ap, A) == outcome(validate_ap_oracle, A)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-2, 9), st.integers(-1, 5), st.integers(0, 8),
        st.lists(st.tuples(st.integers(0, 7), st.integers(-3, 3) | st.booleans())),
    )
    def test_validate_ap_matches_loop_on_near_progressions(self, r, d, L, edits):
        A = [r + d * i for i in range(L)]
        for i, v in edits:
            if i < L:
                A[i] = v if isinstance(v, bool) else A[i] + v
        assert outcome(validate_ap, A) == outcome(validate_ap_oracle, A)

    def test_descriptor_past_digit_limit(self):
        with pytest.raises(InputError, match="APDescriptor.r .* got <16610-bit integer>"):
            APDescriptor(1, -(10**5000), 1, 4)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10**6), st.integers(1, 10**6), st.integers(1, 300))
    def test_first_divisible_is_least(self, r, d, m):
        assume(gcd(m, d) == 1)
        i = APDescriptor(1, r, d, 3).first_divisible(m)
        assert 0 <= i < m and (r + d * i) % m == 0
        assert all((r + d * j) % m for j in range(i))


class TestReduce:
    def test_single_strip(self):
        B2, desc, trace = reduce_ap([6, 10, 14], [2, 3, 5, 7])
        assert B2 == [1, 3, 5, 7]
        assert desc == APDescriptor(1, 3, 2, 3)
        assert [s.case for s in trace.steps] == ["k1"]
        assert trace.steps[0].prime == 2
        assert trace.k0_primes == (2,)
        assert desc.terms() == [3, 5, 7]

    def test_gcd_extraction_only(self):
        B2, desc, trace = reduce_ap([8, 12, 16], [2, 4, 6, 8])
        assert B2 == [2, 4, 6, 8]
        assert desc == APDescriptor(4, 2, 1, 3)
        assert [s.case for s in trace.steps] == ["extract-gcd"]

    @pytest.mark.parametrize(
        "term, shown", [(3, "3"), (10**5000, "<16610-bit integer>")], ids=["small", "long"]
    )
    def test_falsification_payload_encodes_terms(self, monkeypatch, term, shown):
        # a step whose post-step coverage check fails reports the set, the
        # progression and the missing term as decimal strings; a term too
        # long to print in decimal is named by its bit length instead
        real, calls = apcore.verify_coverage, []

        def fail_after_first(A, B):
            calls.append(A)
            if len(calls) > 1:
                raise RepresentationError("term 0 is not a product", term=term)
            real(A, B)

        monkeypatch.setattr(apcore, "verify_coverage", fail_after_first)
        with pytest.raises(FalsificationError) as info:
            reduce_ap([6, 10, 14], [2, 3, 5, 7])
        payload = info.value.payload
        assert payload["case"] == "k1" and payload["prime"] == 2
        assert payload["set"] == ["1", "3", "5", "7"]
        assert payload["ap"] == ["3", "5", "7"]
        assert payload["missing_term"] == shown

    def test_already_reduced(self):
        B2, desc, trace = reduce_ap([3, 5, 7], [1, 3, 5, 7])
        assert B2 == [1, 3, 5, 7]
        assert desc == APDescriptor(1, 3, 2, 3)
        assert trace.steps == ()

    def test_partition_case(self):
        # ord_2(r=4) = 2, ord_2(d=8) = 3: the three-way split applies
        A = [4, 12, 20, 28]
        B = [2, 4, 6, 10, 14]  # 4=2*2, 12=2*6, 20=2*10, 28=2*14
        B2, desc, trace = reduce_ap(A, B)
        assert desc == APDescriptor(1, 1, 2, 4)
        assert B2 == [1, 3, 5, 7]
        assert desc.terms() == [desc.D * (desc.r + desc.d * i) for i in range(4)]
        cases = [s.case for s in trace.steps]
        assert "partition-B1B2B3" in cases
        verify_coverage(desc.terms(), B2)

    def test_partition_divisors_at_k_r_three(self):
        # ord_2(r = 8) = 3 < ord_2(d = 16) = 4: 4, 12, 20 and 28 have
        # valuation 2, below k_r, so they lose one 2; only 8 loses 2**2
        A = [8, 24, 40, 56]
        B = [1, 2, 3, 4, 5, 6, 7, 8, 12, 20, 28]
        B2, desc, trace = reduce_ap(A, B)
        assert [(s.case, s.prime) for s in trace.steps] == [("partition-B1B2B3", 2), ("k1", 2)]
        assert check_divisors(A, trace) == [3, 1]
        assert dict(trace.steps[0].divisors) == {
            1: 1, 2: 2, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 4, 12: 2, 20: 2, 28: 2
        }
        assert trace.steps[0].measure_drop == 8
        assert B2 == [1, 3, 5, 7] and desc == APDescriptor(1, 1, 2, 4)
        check_drops(B, trace)

    @pytest.mark.parametrize(
        "B", [[0, 1, 2, 3], [-1, 1, 2, 3], [1, 2, 3, Fraction(5)], [1, 2, 3, 2.0]]
    )
    def test_base_set_must_be_positive_integers(self, B):
        with pytest.raises(InputError, match="^base-set elements must be positive integers$"):
            reduce_ap([1, 2, 3], B)

    def test_bool_base_element_is_an_int(self):
        # True passes the positive-integer check, as any int subclass does
        assert reduce_ap([1, 2, 3], [True, 2, 3])[1] == APDescriptor(1, 1, 1, 3)

    def test_length_preserved_and_measure_decreases(self):
        B = [2, 3, 5, 7]
        B2, desc, trace = reduce_ap([6, 10, 14], B)
        assert all(s.result_desc.L == 3 for s in trace.steps)
        # one k1 step at p = 2 divides only the 2: Omega 4 -> 3
        assert [s.measure_drop for s in trace.steps] == [1]
        assert check_drops(B, trace) == 1

    def test_merged_elements_drop_more_than_reported(self):
        # the k1 step at p = 2 maps 1, 2 to 1 and 3, 6 to 3: the divisors
        # give drop 2, the set's Omega goes 6 -> 3
        B = [1, 2, 3, 5, 6, 7]
        B2, desc, trace = reduce_ap([2, 6, 10, 14], B)
        assert [(s.case, s.prime, s.measure_drop) for s in trace.steps] == [("k1", 2, 2)]
        assert B2 == [1, 3, 5, 7] and desc == APDescriptor(1, 1, 2, 4)
        assert (omega_sum(B), omega_sum(B2)) == (6, 3)
        assert check_drops(B, trace) == 1

    def test_zero_drop_falsifies(self, monkeypatch):
        # with coverage unchecked, B has no even element for the k1 step at
        # p = 2 to divide, so the step lowers nothing
        monkeypatch.setattr(apcore, "verify_coverage", lambda A, B: None)
        with pytest.raises(FalsificationError, match="did not decrease") as info:
            reduce_ap([6, 10, 14], [3, 5, 7])
        assert info.value.payload == {"case": "k1", "prime": 2}

    def test_idempotent_on_examples(self):
        for A, B in [
            ([6, 10, 14], [2, 3, 5, 7]),
            ([8, 12, 16], [2, 4, 6, 8]),
            ([3, 5, 7], [1, 3, 5, 7]),
        ]:
            B1, d1, _ = reduce_ap(A, B)
            B2, d2, _ = reduce_ap(d1.terms(), B1)
            assert B1 == B2 and d1 == d2

    def test_unrepresentable_term_reported(self):
        with pytest.raises(RepresentationError) as exc:
            reduce_ap([6, 10, 14], [2, 3, 5])
        assert exc.value.term == 14

    def test_randomized_inflations(self):
        rng = random.Random(0xAB12)
        for _ in range(60):
            A, B = inflated_instance(rng)
            B2, desc, trace = reduce_ap(A, B)
            assert desc.is_reduced
            assert len(B2) <= len(B)
            verify_coverage(desc.terms(), B2)
            ok, _ = gcd_bound_audit(desc)
            assert ok
            # idempotence
            B3, desc3, _ = reduce_ap(desc.terms(), B2)
            assert B3 == B2 and desc3 == desc
            check_drops(B, trace)
            check_divisors(A, trace)

    def test_measures_match_factorization(self):
        # each step's drop, read off its divisors, against the from-scratch
        # prime multiplicity of the sets before and after it
        rng = random.Random(0x0E6A)
        cases = [([6, 10, 14], [2, 3, 5, 7]), ([4, 12, 20, 28], [2, 4, 6, 10, 14])]
        cases += [inflated_instance(rng) for _ in range(300)]
        traces = [(A, B, reduce_ap(A, B)[2]) for A, B in cases]
        assert sum(check_drops(B, trace) for _, B, trace in traces) > 100
        # the divisors against the valuation split, at k_r = 1, 2 and above
        ks = Counter(k for A, _, trace in traces for k in check_divisors(A, trace))
        assert ks[1] and ks[2] and sum(n for k, n in ks.items() if k >= 3)

    def test_steps_hold_columns(self):
        # each step holds the set before it and its quotients; the pairs are
        # built from them when read, and two runs give equal, equal-hashing
        # traces
        rng = random.Random(0xC015)
        cases = [
            ([2, 6, 10, 14], [1, 2, 3, 5, 6, 7]),
            ([8, 24, 40, 56], [1, 2, 3, 4, 5, 6, 7, 8, 12, 20, 28]),
        ]
        cases += [inflated_instance(rng) for _ in range(100)]
        for A, B in cases:
            trace = reduce_ap(A, B)[2]
            assert check_columns(B, trace) == check_drops(B, trace)
            again = reduce_ap(A, B)[2]
            assert again == trace and hash(again) == hash(trace)
            assert [s.divisors for s in again.steps] == [s.divisors for s in trace.steps]

    def test_shuffled_duplicated_base(self):
        # repeats and order in B change neither B', the descriptor nor the
        # trace; True may stand in for 1
        rng = random.Random(0x5EED)
        for _ in range(100):
            A, B = inflated_instance(rng)
            messy = B + rng.choices(B, k=rng.randint(1, len(B))) + [True] * (1 in B)
            rng.shuffle(messy)
            got, want = reduce_ap(A, messy), reduce_ap(A, sorted(set(B)))
            assert got == want and hash(got[2]) == hash(want[2])
            assert [s.divisors for s in got[2].steps] == [s.divisors for s in want[2].steps]
            check_columns(messy, got[2])


class TestSortedUnique:
    # ints past 2**62, small ints with repeats and bools, which equal 0 and 1
    values = st.one_of(
        st.integers(-3, 8), st.booleans(), st.integers(2**62 - 2, 2**62 + 2), st.integers()
    )

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(values, max_size=30),
        st.sampled_from(["drawn", "sorted", "reversed", "shuffled"]),
        st.randoms(),
    )
    @example([3, 1, 3, 1], "drawn", random.Random(0))
    @example([True, 1, 2], "drawn", random.Random(0))
    @example([1, True, 2], "drawn", random.Random(0))
    @example([2**63, 2**62 + 1, 2**63, 2**62 + 1], "drawn", random.Random(0))
    def test_matches_sorted_set(self, xs, order, rnd):
        if order == "sorted":
            xs.sort()
        elif order == "reversed":
            xs.sort(reverse=True)
        elif order == "shuffled":
            rnd.shuffle(xs)
        want = tuple(sorted(set(xs)))
        got = apcore._sorted_unique(xs)
        assert got == want
        # the same survivor of equal elements: True against 1
        assert list(map(type, got)) == list(map(type, want))


class TestGcdBound:
    def test_examples(self):
        ok, (i, j, g) = gcd_bound_audit(APDescriptor(1, 3, 2, 3))
        assert ok and g == 1
        ok, (i, j, g) = gcd_bound_audit(APDescriptor(2, 1, 3, 4))
        assert ok and (i, j, g) == (3, 1, 4)  # gcd(8, 20) = 4 <= 8
        ok, (i, j, g) = gcd_bound_audit(APDescriptor(1, 1, 1, 10))
        assert ok and g == 5 and (i, j) == (9, 4)  # gcd(5, 10)

    def test_unreduced_rejected(self):
        with pytest.raises(InputError):
            gcd_bound_audit(APDescriptor(1, 2, 2, 3))

    def test_unreduced_past_digit_limit(self):
        # gcd(2, 10**6000) = 2; the message does not print D*r
        with pytest.raises(InputError, match="not reduced"):
            gcd_bound_audit(APDescriptor(10**3000, 10**3000, 2, 3))

    def test_big_terms_python_path(self):
        # terms far above the int64 range: the closed form is pure big-int
        for desc in (
            APDescriptor(1, 10**19 + 1, 2, 4),
            APDescriptor(3, 10**40 + 1, 7 * 10**20 + 1, 50),
            APDescriptor(2**70 + 1, 5, 2**64, 40),
        ):
            assert desc.terms()[-1] > 2**63
            assert gcd_bound_audit(desc) == pairwise_worst(desc)

    def test_randomized(self):
        rng = random.Random(0x9C2D)
        for _ in range(100):
            D = rng.randint(1, 6)
            L = rng.randint(3, 60)
            while True:
                r = rng.randint(1, 10**6)
                d = rng.randint(1, 10**6)
                if gcd(d, D * r) == 1:
                    break
            ok, (i, j, g) = gcd_bound_audit(APDescriptor(D, r, d, L))
            assert ok
            terms = APDescriptor(D, r, d, L).terms()
            assert gcd(terms[i], terms[j]) == g
            assert (ok, (i, j, g)) == pairwise_worst(APDescriptor(D, r, d, L))

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.integers(1, 40), st.integers(1, 2**80)),
        st.one_of(st.integers(1, 10**6), st.integers(2**62, 2**100)),
        st.one_of(st.integers(1, 60), st.integers(1, 10**12)),
        st.integers(3, 80),
    )
    def test_matches_pairwise_oracle(self, D, r, d, L):
        assume(gcd(d, D * r) == 1)
        desc = APDescriptor(D, r, d, L)
        assert gcd_bound_audit(desc) == pairwise_worst(desc)

    def test_scan_start_matches_scan_from_top(self):
        # the scan starts at min(L - 1, (r + d*(L - 1)) // (d + 1)); no h
        # above it has a pair, so the pick is the full scan's, for r below
        # and at or above L, at d = 1 and d > 1
        seen = set()
        for L in (3, 4, 10, 29, 64):
            for r in range(1, 2 * L + 4):
                for d in (1, 2, 3, 5, 6, 35):
                    for D in (1, 2, 11):
                        desc = APDescriptor(D, r, d, L)
                        if desc.is_reduced:
                            assert gcd_bound_audit(desc)[1] == gcd_scan_from_top(desc)
                            seen.add((r < L, d == 1))
        assert len(seen) == 4

    def test_witness_is_rechecked(self, monkeypatch):
        # a wrong closed form (j0 forced to 0) must surface as a falsification
        monkeypatch.setattr(apcore, "pow", lambda *args: 0, raising=False)
        with pytest.raises(FalsificationError) as exc:
            gcd_bound_audit(APDescriptor(1, 1, 1, 10))
        # the scan starts at h = (1 + 9) // 2 = 5, which j0 = 0 admits
        assert exc.value.payload["pair"] == [5, 0]
        assert exc.value.payload["closed_form"] == "5"
        assert exc.value.payload["descriptor"] == {"D": "1", "r": "1", "d": "1", "L": 10}

    def test_falsification_past_digit_limit(self, monkeypatch):
        # the 5001-digit D is named by its bit length, so the falsification
        # is reported rather than lost to an int-to-str failure
        monkeypatch.setattr(apcore, "pow", lambda *args: 0, raising=False)
        with pytest.raises(FalsificationError) as exc:
            gcd_bound_audit(APDescriptor(10**5000, 1, 1, 10))
        payload = exc.value.payload
        assert payload["descriptor"] == {"D": "<16610-bit integer>", "r": "1", "d": "1", "L": 10}
        assert payload["pair"] == [5, 0]
        assert payload["closed_form"] == "<16612-bit integer>"
        assert payload["gcd"] == "<16610-bit integer>"


class TestVerifyCoverage:
    """``verify_coverage`` against the full ``factor_pairs`` scan over A:
    the same first uncovered term, and the same first pairs of the terms
    outside the first column x0 * B, x0 = min(B)."""

    @staticmethod
    def full_scan(A, B):
        pairs = factor_pairs(A, sorted(B))
        column = {min(B, default=0) * b for b in B}
        return {a: pair for a, pair in zip(A, pairs) if a not in column}

    @pytest.mark.parametrize(
        "A, B, expected",
        [
            ([1, 2], [], (0, 1)),
            ([6, 10, 15, 25], [5, 3, 2], {15: (3, 5), 25: (5, 5)}),
            ([4, 9, 7, 6], [3, 2, 3, 2], (2, 7)),
            ([9, 4, 6, 25], [3, 2, 5], {9: (3, 3), 25: (5, 5)}),
            ([15, 35, 21, 49], [2, 3, 5, 7], {15: (3, 5), 35: (5, 7), 21: (3, 7), 49: (7, 7)}),
            ([15, 35, 21, 11], [2, 3, 5, 7], (3, 11)),
            ([4, 11, 6, 11], [1, 2, 3, 4, 6], (1, 11)),
            ([4, 13, 11, 13], [1, 2, 3, 4], (1, 13)),
            ([2, 4], [1], (0, 2)),
            ([3, 1, 4, 2], [1, 2, 3, 4], {}),
            ([9, 12, 9], [1, 3, 4], {9: (3, 3), 12: (3, 4)}),
        ],
        ids=[
            "empty", "unsorted", "duplicates", "min-above-1", "later-column",
            "later-column-missing", "repeated-missing", "two-missing", "one-element",
            "all-column", "repeated-pair",
        ],
    )
    def test_examples(self, A, B, expected):
        want = expected
        if isinstance(expected, tuple):
            i, term = expected
            want = (RepresentationError, f"term {i} is not a product of two set elements", term)
        assert outcome(verify_coverage, A, B) == want
        assert outcome(self.full_scan, A, B) == want

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.integers(1, 40), max_size=10), st.data())
    def test_matches_full_scan(self, B, data):
        # B unsorted, with repeats; A mixes products (any column) and strays
        terms = st.integers(1, 1600)
        if B:
            terms |= st.sampled_from([x * y for x in B for y in B])
        A = data.draw(st.lists(terms, max_size=12))
        assert outcome(verify_coverage, A, B) == outcome(self.full_scan, A, B)


def first_pair_oracle(a, base):
    """(base[i], base[j]) for the lexicographically least index pair (i, j),
    i <= j, with base[i] * base[j] == a, or None: every pair, in order."""
    for i in range(len(base)):
        for j in range(i, len(base)):
            if base[i] * base[j] == a:
                return base[i], base[j]
    return None


nonzero_ints = st.integers(-40, 40).filter(bool)
fractions = st.builds(Fraction, nonzero_ints, st.integers(1, 6))
quads = st.builds(
    lambda a, b: QuadElem(a, b, 2), st.integers(-3, 3), st.integers(-3, 3)
).filter(lambda q: not q.is_zero)
bases = st.one_of(
    st.sets(st.integers(1, 60), min_size=1, max_size=12),
    st.sets(nonzero_ints, min_size=1, max_size=12),
    st.sets(fractions, min_size=1, max_size=10),
    st.sets(quads, min_size=1, max_size=8),
)


class TestFirstPairs:
    @settings(max_examples=400, deadline=None)
    @given(bases, st.data())
    def test_matches_all_pairs_oracle(self, B, data):
        base = sorted(B, key=sort_key)
        products = [x * y for x in base for y in base]
        # products of the base, and values that mostly have no pair
        strays = fractions | nonzero_ints
        strays |= quads if isinstance(base[0], QuadElem) else st.integers(-3600, 3600)
        A = data.draw(st.lists(st.sampled_from(products) | strays, max_size=12))
        assert first_pairs(A, base) == [first_pair_oracle(a, base) for a in A]

    def test_negative_base_takes_no_early_exit(self):
        # 6 = (-3)*(-2) although (-3)**2 > 6
        base = [-3, -2, 1, 5]
        assert first_pairs([6, 4, 5, 7], base) == [(-3, -2), (-2, -2), (1, 5), None]

    def test_positive_base_pair_order(self):
        # 1*4 comes before 2*2; 12 = 3*4 is found with 3 <= sqrt(12)
        assert first_pairs([4, 12, 13], [1, 2, 3, 4]) == [(1, 4), (3, 4), None]

    def test_quadratic_base(self):
        r = QuadElem(0, 1, 2)  # sqrt(2)
        base = sorted([r, 2 * r, 3 * r], key=sort_key)
        assert first_pairs([QuadElem(4, 0, 2), QuadElem(5, 0, 2)], base) == [(r, 2 * r), None]


def test_import_leaves_numpy_out():
    src = Path(prodap.__file__).resolve().parents[1]
    code = "import sys, prodap; sys.exit('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=src, timeout=60)
    assert proc.returncode == 0


def test_import_loads_only_stdlib():
    # pyproject.toml declares no dependencies: every module that importing
    # prodap loads is prodap's own or the standard library's
    src = Path(prodap.__file__).resolve().parents[1]
    code = (
        "import sys; before = set(sys.modules); import prodap; "
        "print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=src, timeout=60, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "prodap" in loaded
    tops = {name.partition(".")[0] for name in loaded}
    assert tops - {"prodap"} <= sys.stdlib_module_names
