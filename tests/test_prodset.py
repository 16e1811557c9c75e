"""Product sets, representation graphs, and longest-AP search."""

import hashlib
import random
import re
import sys
from bisect import bisect_right
from fractions import Fraction
from itertools import compress, repeat
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodap import prodset
from prodap.apcore import APDescriptor, first_pairs, reduce_ap
from prodap.errors import CapacityError, InputError, RepresentationError
from prodap.exactnum import QuadElem
from prodap.construct import cover_set
from prodap.harness import (
    _trial_rng,
    demo_instance_file,
    gen_cover,
    gen_random,
    integerize,
    random_quad_cycle_instance,
)
from prodap.jsonio import graph_from_json, graph_to_json
from prodap.rationalize import make_quad_instance, rationalize_components
from prodap.prodset import (
    Edge,
    _best_pair_result,
    _indices_of_run,
    build_rep_graph,
    longest_ap,
    product_set,
)

from instances import (
    assert_graph_matches_oracle,
    graph_from_edges,
    inflated_instance,
    longest_ap_oracle,
    rep_graph_oracle,
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
        base = (1, 2, 3, 4)
        assert {4, 12} <= set(product_set(base).products)
        assert first_pairs([4, 12], base) == [(1, 4), (3, 4)]  # 1*4 before 2*2
        assert first_pairs([4], base[1:]) == [(2, 2)]  # then 2*2
        assert first_pairs([12], base[:2] + base[3:]) == [None]  # 3*4 only

    def test_membership(self):
        ps = product_set([Fraction(1, 2), 3])
        assert Fraction(1, 4) in ps and 9 in ps and Fraction(3, 2) in ps
        assert 3 not in ps and len(ps) == 3

    @given(st.sets(st.integers(min_value=1, max_value=400), min_size=1, max_size=15))
    def test_size_bounds(self, B):
        n = len(B)
        ps = product_set(sorted(B))
        assert n <= len(ps) <= n * (n + 1) // 2

    def test_generic_set_attains_max(self):
        primes = [2, 3, 5, 7, 11, 13, 17, 19]
        ps = product_set(primes)
        assert len(ps) == 8 * 9 // 2


mixed_values = st.one_of(
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 7)),
    st.builds(
        lambda a, b: QuadElem(Fraction(a), Fraction(b), 2), st.integers(-5, 5), st.integers(-5, 5)
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(mixed_values, max_size=20))
def test_sort_key_keeps_the_fraction_order(xs):
    """sort_key orders mixed lists as a key that turns every rational into a
    pair of Fractions does; positions are compared, so equal values keep
    their places too."""

    def fraction_key(x):
        return x.sort_key if isinstance(x, QuadElem) else (Fraction(x), Fraction(0))

    def order(key):
        return sorted(range(len(xs)), key=lambda i: key(xs[i]))

    assert order(prodset.sort_key) == order(fraction_key)


# a Fraction and a QuadElem with a 5001-digit coordinate, and how messages
# name them
BIG_FRACTION, BIG_FRACTION_TEXT = Fraction(10**5000, 3), "<16610-bit integer>/3"
BIG_QUAD, BIG_QUAD_TEXT = QuadElem(10**5000, 1, 2), "<16610-bit integer> + 1*sqrt(2)"


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

    @pytest.mark.parametrize(
        "call",
        [
            lambda big: product_set([big, big]),
            lambda big: longest_ap([big, big, 3]),
            lambda big: graph_from_edges((big, big), ()),
        ],
        ids=["product_set", "longest_ap", "RepGraph"],
    )
    def test_duplicate_past_digit_limit(self, call):
        # the repeated 5001-digit element is named by its bit length
        with pytest.raises(InputError, match="<16610-bit integer>"):
            call(10**5000)

    @pytest.mark.parametrize(
        "call,big,message",
        [
            (product_set, BIG_FRACTION, f"duplicate element {BIG_FRACTION_TEXT} in base set"),
            (product_set, BIG_QUAD, f"duplicate element {BIG_QUAD_TEXT} in base set"),
            (longest_ap, BIG_FRACTION, f"duplicate element {BIG_FRACTION_TEXT}"),
            # a quadratic element is refused before any repeat is looked for
            (longest_ap, BIG_QUAD, "needs ordered values"),
            (lambda B: graph_from_edges(B, ()), BIG_FRACTION, f"{BIG_FRACTION_TEXT} appears twice"),
            (lambda B: graph_from_edges(B, ()), BIG_QUAD, f"{BIG_QUAD_TEXT} appears twice"),
        ],
        ids=[f"{site}-{kind}" for site in ("product_set", "longest_ap", "RepGraph")
             for kind in ("Fraction", "QuadElem")],
    )
    def test_exact_duplicate_past_digit_limit(self, call, big, message):
        # the library's own error, not the ValueError of str(big)
        with pytest.raises(InputError, match=re.escape(message)):
            call([big, big])

    def test_unrepresentable_term_past_digit_limit(self):
        # the message names the term by its index; the error carries the value
        big = 10**5000 + 1
        with pytest.raises(RepresentationError, match="^term 1 is not a product") as exc:
            build_rep_graph([2, 3], [6, big])
        assert exc.value.term == big

    def test_negative_elements(self):
        # 6 = (-3)*(-2) is the first pair although (-3)**2 > 6
        g = build_rep_graph([-3, -2, 1, 5], [4, 5, 6])
        pairs = [(g.elements[e.u], g.elements[e.v]) for e in g.edges]
        assert pairs == [(-2, -2), (1, 5), (-3, -2)]

    def test_rational_elements(self):
        g = build_rep_graph([Fraction(1, 2), Fraction(3, 2)], [Fraction(3, 4)])
        e = g.edges[0]
        assert g.elements[e.u] * g.elements[e.v] == Fraction(3, 4)

    @pytest.mark.parametrize(
        "elements, edges, message",
        [
            ((1, 2, Fraction(2)), [(0, 1, 0)], "element 2 appears twice"),
            ((1, 2), [(0, 1, 0), (1, 2, 1)], "endpoint out of range"),
            ((1, 2), [(0, 1, 0), (-1, 0, 1)], "endpoint out of range"),
            ((1, 2), [(0, 1, 0), (1, 0, 1), (0, 1, 2)], "second edge on the vertex pair"),
            ((1, 2), [(0, 1, 0), (1, 0, 0)], "edge index 0 used twice"),
        ],
    )
    def test_rejects_non_simple_graphs(self, elements, edges, message):
        with pytest.raises(InputError, match=message):
            graph_from_edges(elements, (Edge(u, v, j, 2) for u, v, j in edges))

    @pytest.mark.parametrize("n", range(3, 61))
    def test_cover_claim_matches_per_edge_build(self, n):
        res = cover_set(n)
        B, A = list(res.elements), list(range(1, res.M + 1))
        g = build_rep_graph(B, A)
        elements, edges = rep_graph_oracle(B, A)
        assert g.elements == elements
        assert_graph_matches_oracle(g, edges)

    @pytest.mark.parametrize("seed", range(6))
    def test_quad_demo_matches_per_edge_build(self, seed):
        inst = random_quad_cycle_instance(seed, 2)
        A = [QuadElem.from_rational(t, 2) for t in inst.targets]
        elements, edges = rep_graph_oracle(inst.elements, A)
        assert inst.graph.elements == elements
        assert_graph_matches_oracle(inst.graph, edges)

    @pytest.mark.parametrize("n", range(10, 31))
    def test_cover_graph_file_round_trip(self, n):
        res = cover_set(n)
        g = build_rep_graph(list(res.elements), range(1, res.M + 1))
        assert graph_from_json(graph_to_json(g)) == g

    @pytest.mark.parametrize("seed", range(5))
    def test_quad_graph_file_round_trip(self, seed):
        g = random_quad_cycle_instance(seed, 2).graph
        obj = graph_to_json(g, "quadratic", 2)
        # elements are written without "m": the field comes from the header
        assert all("m" not in x for x in obj["elements"])
        assert graph_from_json(obj) == g
        assert all(x.m == 3 for x in graph_from_json({**obj, "m": "3"}).elements)


# 2 * (1 + 2i): one k1 step on p = 2, after which 21 = 3 * 7 lies outside 1 * B'
K1_CLAIM = list(range(2, 43, 4))
K1_SET = [1, 2, 3, 5, 6, 7, 9, 11, 13, 15, 17, 19]


def handed_over(B, A):
    """The reduction of A in B, and its graph built from the trace's pairs
    and from a search of every term: (trace, given, searched)."""
    B_red, desc, trace = reduce_ap(A, B)
    terms = desc.terms()
    return trace, build_rep_graph(B_red, terms, trace.pairs), build_rep_graph(B_red, terms)


class TestPairsHandOver:
    """``build_rep_graph`` with the reduction's pairs against the search."""

    @pytest.mark.parametrize("n", range(3, 61))
    def test_cover_claims(self, n):
        res = cover_set(n)
        trace, given, searched = handed_over(list(res.elements), list(range(1, res.M + 1)))
        assert given == searched
        # from n = 5 on, [1, M] has a term outside the column 1 * B
        assert bool(trace.pairs) is (n >= 5)

    @pytest.mark.parametrize("n", range(12, 41))
    def test_searched_covers(self, n):
        B = gen_cover(n)
        desc = longest_ap(product_set(B)).descriptor()
        _, given, searched = handed_over(B, desc.terms())
        assert given == searched

    @pytest.mark.parametrize("seed", range(6))
    def test_integerized_quad_demos(self, seed):
        inst = demo_instance_file("quad", seed)
        claim = inst.ap.terms()
        B, scale = integerize(rationalize_components(make_quad_instance(inst.elements, claim, 2)))
        _, given, searched = handed_over(B, [t * scale * scale for t in claim])
        assert given == searched

    def test_reductions_with_steps(self):
        # inflated claims reduce through k1 and partition steps, and the
        # pairs come from the check after the last of them
        rng = random.Random(0x5EED)
        cases = [inflated_instance(rng) for _ in range(200)]
        cases += [(K1_CLAIM, K1_SET), ([4, 12, 20, 28], [2, 4, 6, 10, 14])]
        seen = set()
        for A, B in cases:
            trace, given, searched = handed_over(B, A)
            assert given == searched
            seen.update(s.case for s in trace.steps)
            seen.add("pairs" if trace.pairs else "column")
        assert seen >= {"k1", "partition-B1B2B3", "pairs", "column"}

    def test_pairs_stay_out_of_trace_equality(self):
        _, _, trace = reduce_ap(K1_CLAIM, K1_SET)
        assert [s.case for s in trace.steps] == ["k1"]
        assert trace.pairs == {21: (3, 7)}
        bare = type(trace)(trace.steps, trace.k0_primes)
        assert bare == trace and hash(bare) == hash(trace)

    @pytest.mark.parametrize(
        "B, A, pairs, missing",
        [
            # 15 = 3 * 5 lies outside 2 * B and the pairs lack it
            ([2, 3, 5, 7], [6, 10, 15], {}, (2, 15)),
            # 11 has no pair at all
            ([2, 3, 5, 7], [6, 11, 14], {}, (1, 11)),
            # 8 = 2 * 4 with 4 outside B; 9 is odd
            ([2, 3, 5], [4, 8, 6], {}, (1, 8)),
            ([2, 3], [4, 9, 6], {}, (1, 9)),
            ([2, 3], [4, 9, 6], {9: (3, 3)}, None),
        ],
    )
    def test_term_without_pair(self, B, A, pairs, missing):
        if missing is None:
            assert build_rep_graph(B, A, pairs) == build_rep_graph(B, A)
            return
        i, term = missing
        with pytest.raises(Exception) as info:
            build_rep_graph(B, A, pairs)
        assert type(info.value) is RepresentationError
        assert str(info.value) == f"term {i} is not a product of two set elements"
        assert info.value.term == term


def oracle_lengths_match(S):
    found = longest_ap(S)
    oracle = longest_ap_oracle(S)
    assert found.length == oracle.length
    assert (found.start, found.diff) == (oracle.start, oracle.diff)
    assert found.indices == oracle.indices
    return found


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
        with pytest.raises(CapacityError):
            longest_ap(S, limit=100)

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one(self, limit):
        # a malformed limit, not a capacity hit
        with pytest.raises(InputError, match="limit must be positive"):
            longest_ap([1, 2, 3], limit=limit)

    def test_quadratic_rejected(self):
        with pytest.raises(InputError):
            longest_ap([QuadElem(0, 1, 2)])

    @pytest.mark.parametrize("B", [
        [1, 2, 3, 4],
        [-3, -2, 1, 5],
        [Fraction(1, 2), Fraction(2, 3), 3, 5, 7],
        list(range(1, 41)) + [41, 43, 47],
        sorted(random.Random(7).sample(range(1, 2000), 30)),
    ])
    def test_product_set_input_matches_sorted_products(self, B):
        # a ProductSet skips the sort and the duplicate scan, nothing else
        ps = product_set(B)
        found = longest_ap(ps)
        assert found == longest_ap(sorted(ps.products)) == longest_ap_oracle(ps.products)

    def test_product_set_input_keeps_checks(self):
        with pytest.raises(InputError):
            longest_ap(product_set([QuadElem(0, 1, 2), 1]))
        with pytest.raises(CapacityError):
            longest_ap(product_set(range(1, 20)), limit=50)

    @settings(max_examples=50)
    @given(st.sets(st.integers(min_value=1, max_value=60), min_size=1, max_size=9))
    def test_modes_agree_property(self, B):
        oracle_lengths_match(sorted(B))


def _pair_loop_oracle(S):
    """The single pair loop that preceded the two kernels, kept verbatim as a
    second oracle: every start against every larger element, with the reach
    break and the prefix skip but no filter."""
    n = len(S)
    if n <= 2:
        length, diff, start = _best_pair_result(S)
        return prodset.APSearchResult(start, diff, length, tuple(range(length)))
    member = set(S)
    top = S[-1]
    best_len, best_diff, best_start = _best_pair_result(S)
    for i in range(n - 1):
        x = S[i]
        for j in range(i + 1, n):
            d = S[j] - x
            # longest run from x with this difference cannot beat the record
            reach = (top - x) // d + 1
            if reach < best_len or (reach == best_len and d >= best_diff):
                break
            if x - d in member:
                continue  # suffix of a progression that starts earlier
            count = 2
            nxt = S[j] + d
            while nxt in member:
                count += 1
                nxt += d
            cand = (-count, d, x)
            if cand < (-best_len, best_diff, best_start):
                best_len, best_diff, best_start = count, d, x
    return prodset.APSearchResult(
        best_start, best_diff, best_len, _indices_of_run(S, best_start, best_diff, best_len)
    )


def _start_pair_kernel(S, best, ints):
    """The pair kernel that preceded top-pair anchoring, kept verbatim as a
    third oracle: every start x against every larger y, in a window cut at
    x + (top - x) / (best - 1)."""
    best_len, best_diff, best_start = best
    member = set(S)
    top = S[-1]
    doubled = [y + y for y in S]
    for i in range(len(S) - 1):
        x = S[i]
        if ints:
            hi = bisect_right(S, x + (top - x) // (best_len - 1), i + 1)
            thirds = map((-x).__add__, doubled[i + 1 : hi])
        else:
            hi = bisect_right(S, x + Fraction(top - x) / (best_len - 1), i + 1)
            thirds = map(sub, doubled[i + 1 : hi], repeat(x))
        for j in compress(range(i + 1, hi), map(member.__contains__, thirds)):
            y = S[j]
            d = y - x
            # longest run from x with this difference cannot beat the record
            reach = (top - x) // d + 1
            if reach < best_len or (reach == best_len and d >= best_diff):
                break
            if x - d in member:
                continue  # suffix of a progression that starts earlier
            count = 3
            nxt = y + d + d
            while nxt in member:
                count += 1
                nxt += d
            if (-count, d, x) < (-best_len, best_diff, best_start):
                best_len, best_diff, best_start = count, d, x
    return best_len, best_diff, best_start


def _run(start, diff, length):
    return [start + i * diff for i in range(length)]


dense_sets = st.builds(
    lambda lo, width, holes: set(range(lo, lo + width)) - holes,
    st.integers(-20, 20),
    st.integers(3, 40),
    st.sets(st.integers(-20, 60), max_size=6),
)
sparse_sets = st.sets(st.integers(1, 3000), min_size=1, max_size=14)
negative_sets = st.sets(st.integers(-80, 30), min_size=1, max_size=16)
fraction_sets = st.sets(
    st.builds(Fraction, st.integers(-15, 15), st.sampled_from([1, 2, 3, 4, 6])),
    min_size=1,
    max_size=12,
)
# ints and Fractions in one set: int.__sub__(Fraction) is NotImplemented
mixed_sets = st.sets(
    st.integers(-12, 12)
    | st.builds(Fraction, st.integers(-30, 30), st.sampled_from([2, 3, 4])),
    min_size=1,
    max_size=14,
)
# two progressions of one length: the tie breaks on difference, then start
tie_sets = st.builds(
    lambda length, a, d1, b, d2, extra: set(_run(a, d1, length)) | set(_run(b, d2, length)) | extra,
    st.integers(3, 6),
    st.integers(-10, 10),
    st.integers(1, 7),
    st.integers(-10, 30),
    st.integers(1, 7),
    st.sets(st.integers(-10, 60), max_size=4),
)


class TestKernels:
    """The bitset kernel and the filtered pair kernel, each run directly
    against the oracles."""

    @staticmethod
    def check(values):
        S = sorted(values)
        expected = longest_ap_oracle(S)
        assert _pair_loop_oracle(S) == expected
        assert longest_ap(S) == expected
        triple = (expected.length, expected.diff, expected.start)
        ints = all(type(x) is int for x in S)
        assert _start_pair_kernel(S, _best_pair_result(S), ints) == triple
        assert prodset._pair_kernel(S, _best_pair_result(S)) == triple
        if ints:
            assert prodset._bitset_kernel(S, _best_pair_result(S)) == triple

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(dense_sets, sparse_sets, negative_sets, fraction_sets, mixed_sets, tie_sets))
    def test_kernels_match_oracles(self, values):
        if values:
            self.check(values)

    def test_fractional_difference_past_a_floor_cut(self):
        # in the start-anchored window of _start_pair_kernel: after 0, 2, 4
        # sets the record at length 3, the start 5/2 reaches (11/2 - 5/2) / 2
        # = 3/2: a floored cut at 1 would miss 5/2, 4, 11/2, which wins the
        # tie on its smaller difference
        S = [0, 2, Fraction(5, 2), 4, Fraction(11, 2)]
        r = longest_ap(S)
        assert (r.start, r.diff, r.length) == (Fraction(5, 2), Fraction(3, 2), 3)
        self.check(S)
        self.check([Fraction(1, 3), Fraction(2, 3), 1])

    def test_fractional_difference_past_a_floor_window(self):
        # after the anchor 3 sets the record 0, 3, 6, the anchor 3/2 reaches
        # 3/2 + (3/2 - 0) / 1 = 3: a floored window would end at 5/2 and miss
        # 0, 3/2, 3, which wins the tie on its smaller difference
        S = [0, Fraction(3, 2), 3, 6]
        r = longest_ap(S)
        assert (r.start, r.diff, r.length) == (0, Fraction(3, 2), 3)
        self.check(S)

    @pytest.mark.parametrize("scale", [1, Fraction(1, 2)], ids=["int", "fraction"])
    def test_rounded_up_cut_admits_one_past_the_window(self, scale):
        # once 100, 110, 120, 130 sets the record at length 4, the anchor a =
        # 7 has the exact window a + (a - 0) / 2 = 21/2; the cut rounds it up
        # to 11, and 11 passes the filter (2a - 11 = 3 is in S) but reaches
        # only 3 terms, so the loop breaks there
        S = [x * scale for x in (0, 3, 7, 11, 100, 110, 120, 130)]
        a, lo = S[2], S[0]
        assert a - (lo - a) // 2 == S[3] > a + Fraction(a - lo) / 2
        r = longest_ap(S)
        assert (r.start, r.diff, r.length) == (100 * scale, 10 * scale, 4)
        self.check(S)

    @staticmethod
    def windows(monkeypatch, S):
        """Run the pair kernel on S and return each anchor's window end,
        a + cut, keyed by the anchor."""
        ends = {}

        def spy(S, x, lo):
            ends[S[lo - 1]] = x
            return bisect_right(S, x, lo)

        monkeypatch.setattr(prodset, "bisect_right", spy)
        triple = prodset._pair_kernel(S, _best_pair_result(S))
        monkeypatch.undo()
        return triple, ends

    def test_tie_window_keeps_a_smaller_difference(self, monkeypatch):
        # once 100, 110, 120, 130 sets the record, the anchor 6 tops 0, 3,
        # 6, 9: d = 3 lies past (6 - 0) / 3 = 2, so it cannot beat the
        # record, but within min(6 / 2, 10) = 3, so it ties and wins on d
        S = [0, 3, 6, 9, 100, 110, 120, 130]
        triple, ends = self.windows(monkeypatch, S)
        assert triple == (4, 3, 0)
        assert ends[6] == 9
        self.check(S)

    def test_tie_window_cuts_a_larger_difference(self, monkeypatch):
        # once 100, 102, 104, 106 sets the record, the anchor 10 tops 0, 5,
        # 10, 15: d = 5 is past (10 - 0) / 3, rounded up to 4, and past the
        # record's d = 2, so 15 is outside the window
        S = [0, 5, 10, 15, 100, 102, 104, 106]
        triple, ends = self.windows(monkeypatch, S)
        assert triple == (4, 2, 100)
        assert ends[10] == 14
        self.check(S)

    def test_rounded_up_tie_bound_admits_one_past_the_window(self, monkeypatch):
        # once 50, 55, 60, 65 sets the record, the anchor a = 5/2 has the
        # beat bound (5/2) / 3 = 5/6 and the tie bound min((5/2) / 2, 5) =
        # 5/4; rounded up they are 1 and 2, so the window ends at 9/2, not
        # 15/4, and holds b = 4, which passes the filter (2a - 4 = 1 is in
        # S) but reaches only 3 terms, so the loop breaks there
        S = [0, 1, Fraction(5, 2), 4, 50, 55, 60, 65]
        a = S[2]
        triple, ends = self.windows(monkeypatch, S)
        assert triple == (4, 5, 50)
        assert a + Fraction(a, 2) < S[3] <= ends[a] == Fraction(9, 2)
        self.check(S)

    @pytest.mark.parametrize("n", range(36, 59))
    def test_pair_kernel_matches_start_kernel_on_study_sets(self, n):
        S = list(product_set(gen_random(n, _trial_rng(2013, "random", n, 0))).products)
        best = _best_pair_result(S)
        assert prodset._pair_kernel(S, best) == _start_pair_kernel(S, best, True)

    def test_ties(self):
        # [0, 3, 6, 9] and [1, 2, 3, 4]: equal length, smaller difference wins
        self.check({0, 3, 6, 9, 1, 2, 4})
        r = longest_ap([0, 1, 2, 3, 4, 6, 9])
        assert (r.start, r.diff, r.length) == (0, 1, 5)
        # equal length and difference: smaller start wins, also when the pair
        # kernel meets the lower run at a later, smaller anchor
        r = longest_ap([-7, -5, -3, 10, 12, 14])
        assert (r.start, r.diff, r.length) == (-7, 2, 3)
        self.check([-7, -5, -3, 10, 12, 14])

    def test_cover_search_stays_in_bitset(self, monkeypatch):
        S = list(product_set(gen_cover(40)).products)
        monkeypatch.setattr(prodset, "_pair_kernel", None)  # never called
        r = longest_ap(S)
        assert (r.start, r.diff, r.length) == (1, 1, 148)

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit to run under"
    )
    def test_bitset_past_the_decimal_digit_limit(self):
        # the n = 40 cover products make a 19 321-digit base-2 numeral, which
        # int() reads whatever the decimal digit limit
        S = list(product_set(gen_cover(40)).products)
        assert S[-1] - S[0] + 1 > 640
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            found = longest_ap(S)
        finally:
            sys.set_int_max_str_digits(limit)
        assert found == longest_ap_oracle(S)

    def test_random_study_set_goes_to_pairs(self, monkeypatch):
        S = list(product_set(gen_random(58, _trial_rng(2013, "random", 58, 0))).products)
        assert S[-1] - S[0] > prodset.BITSET_SPAN_RATIO * len(S)
        monkeypatch.setattr(prodset, "_bitset_kernel", None)  # never built
        r = longest_ap(S)
        assert (r.length, r.diff, r.start) == (9, 1533, 22484)


class TestStudyPin:
    def test_random_study_results(self):
        # (length, diff, start) of the longest progression in twelve study
        # trials, pinned across changes to the kernels
        rows = []
        for n in (36, 47, 58):
            for t in range(4):
                r = longest_ap(product_set(gen_random(n, _trial_rng(2013, "random", n, t))))
                rows.append(f"{n},{t},{r.length},{r.diff},{r.start};")
        digest = hashlib.sha256("".join(rows).encode()).hexdigest()
        assert digest == "eb9ee0f8d061de6d98d0f3c67bc6b4262f2e9f80b7a0cd67077bd282228691db"
