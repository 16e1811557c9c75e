"""Product sets, representation graphs, and longest-AP search."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodap.apcore import APDescriptor
from prodap.errors import CapacityError, InputError, RepresentationError
from prodap.exactnum import QuadElem
from prodap.prodset import (
    build_rep_graph,
    contains_ap,
    longest_ap,
    product_set,
)


class TestProductSet:
    def test_examples(self):
        assert product_set([1, 2, 3, 4]).products == (1, 2, 3, 4, 6, 8, 9, 12, 16)
        assert product_set([1]).products == (1,)
        assert product_set([2, 8]).products == (4, 16, 64)

    def test_duplicates_rejected(self):
        with pytest.raises(InputError):
            product_set([2, 2, 3])

    def test_rep_pairs_lex_order(self):
        ps = product_set([1, 2, 3, 4])
        assert ps.reps[4] == ((0, 3), (1, 1))  # 1*4 before 2*2
        assert ps.reps[12] == ((2, 3),)

    @given(st.sets(st.integers(min_value=1, max_value=400), min_size=1, max_size=15))
    def test_size_bounds(self, B):
        n = len(B)
        ps = product_set(sorted(B))
        assert n <= len(ps) <= n * (n + 1) // 2

    def test_generic_set_attains_max(self):
        primes = [2, 3, 5, 7, 11, 13, 17, 19]
        ps = product_set(primes)
        assert len(ps) == 8 * 9 // 2


class TestRepGraph:
    def test_unique_factorizations(self):
        g = build_rep_graph([2, 3, 5, 7], [6, 10, 14])
        pairs = [(g.elements[e.u], g.elements[e.v]) for e in g.edges]
        assert pairs == [(2, 3), (2, 5), (2, 7)]

    def test_lex_first_beats_square(self):
        g = build_rep_graph([1, 2, 3, 4], [4])
        e = g.edges[0]
        assert (g.elements[e.u], g.elements[e.v]) == (1, 4)

    def test_square_term_is_loop_free(self):
        g = build_rep_graph([2], [4])
        e = g.edges[0]
        assert (e.u, e.v) == (0, 0)  # ends in different copies
        assert g.n_vertices == 2

    def test_edge_count_and_divisibility(self):
        A = list(range(1, 24))
        B = sorted(set(range(1, 11)) | {11, 13, 17, 19, 23})
        g = build_rep_graph(B, A)
        assert len(g.edges) == len(A)
        for e in g.edges:
            assert e.value % g.elements[e.u] == 0
            assert g.elements[e.u] * g.elements[e.v] == e.value

    def test_unrepresentable(self):
        with pytest.raises(RepresentationError) as exc:
            build_rep_graph([2, 3], [7])
        assert exc.value.term == 7

    def test_negative_elements(self):
        # 6 = (-3)*(-2) is the first pair although (-3)**2 > 6
        g = build_rep_graph([-3, -2, 1, 5], [4, 5, 6])
        pairs = [(g.elements[e.u], g.elements[e.v]) for e in g.edges]
        assert pairs == [(-2, -2), (1, 5), (-3, -2)]

    def test_rational_elements(self):
        g = build_rep_graph([Fraction(1, 2), Fraction(3, 2)], [Fraction(3, 4)])
        e = g.edges[0]
        assert g.elements[e.u] * g.elements[e.v] == Fraction(3, 4)


def oracle_lengths_match(S):
    exact = longest_ap(S, mode="exact")
    oracle = longest_ap(S, mode="oracle")
    assert exact.length == oracle.length
    assert (exact.start, exact.diff) == (oracle.start, oracle.diff)
    assert exact.indices == oracle.indices
    return exact


class TestLongestAP:
    def test_products_of_1234(self):
        ps = product_set([1, 2, 3, 4])
        r = longest_ap(list(ps.products))
        assert (r.start, r.diff, r.length) == (1, 1, 4)
        assert r.indices == (0, 1, 2, 3)

    def test_no_three_term(self):
        r = oracle_lengths_match([1, 2, 4, 8])
        assert r.length == 2
        assert (r.start, r.diff) == (1, 1)

    def test_singleton(self):
        r = longest_ap([5])
        assert r.length == 1 and r.start == 5

    def test_tie_breaking_smallest_diff(self):
        # [1,2,3,4] and [2,4,6,8] both have length 4; smaller difference wins
        r = oracle_lengths_match([1, 2, 3, 4, 6, 8])
        assert (r.start, r.diff, r.length) == (1, 1, 4)

    def test_interleaved(self):
        r = oracle_lengths_match([1, 2, 3, 5, 7])
        assert (r.start, r.diff, r.length) == (1, 2, 4)  # 1,3,5,7

    def test_fractions(self):
        S = [Fraction(1, 2), Fraction(3, 4), Fraction(1, 1), Fraction(7, 4)]
        r = oracle_lengths_match(S)
        assert r.length == 3 and r.diff == Fraction(1, 4)

    def test_descriptor_roundtrip(self):
        r = longest_ap([3, 5, 7, 11])
        desc = r.descriptor()
        assert desc == APDescriptor(1, 3, 2, 3)

    def test_oracle_equivalence_seeded(self):
        rng = random.Random(0x5EED)
        for _ in range(40):
            size = rng.randint(1, 8)
            S = sorted(rng.sample(range(1, 51), size))
            oracle_lengths_match(S)

    def test_determinism_under_input_order(self):
        S = [9, 1, 5, 3, 13, 7]
        a = longest_ap(S)
        b = longest_ap(list(reversed(S)))
        assert a == b

    def test_capacity_errors(self):
        S = list(range(1, 200))
        with pytest.raises(CapacityError) as exc:
            longest_ap(S, mode="oracle", limit=100)
        assert "exact" in str(exc.value)
        with pytest.raises(CapacityError):
            longest_ap(S, mode="exact", limit=100)

    def test_quadratic_rejected(self):
        with pytest.raises(InputError):
            longest_ap([QuadElem(0, 1, 2)])

    def test_unknown_mode(self):
        with pytest.raises(InputError):
            longest_ap([1, 2, 3], mode="fast")

    @settings(max_examples=50)
    @given(st.sets(st.integers(min_value=1, max_value=60), min_size=1, max_size=9))
    def test_modes_agree_property(self, B):
        oracle_lengths_match(sorted(B))


class TestContainsAP:
    def test_examples(self):
        ps = product_set(list(range(1, 11)))
        assert contains_ap(list(ps.products), APDescriptor(1, 1, 1, 10))
        assert contains_ap([3, 5, 7], APDescriptor(1, 3, 2, 3))
        assert not contains_ap([3, 5, 7], APDescriptor(1, 3, 2, 4))
