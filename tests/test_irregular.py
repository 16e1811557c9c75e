"""Prime windows, hit counts and the irregularity report: classification,
selection and the forest verdict."""

import random
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from math import gcd

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodap import harness, irregular
from prodap.apcore import APDescriptor, reduce_ap
from prodap.construct import cover_set
from prodap.errors import InputError
from prodap.exactnum import PrimeTable, valuation
from prodap.irregular import (
    IrregularityReport,
    forest_check,
    hit_count,
    irregularity_report,
    prime_window,
)
from prodap.prodset import Edge, build_rep_graph
from prodap.rationalize import rationalize_components

from instances import graph_from_edges, primes_between


def cover_graph(n):
    res = cover_set(n)
    A = list(range(1, res.M + 1))
    return build_rep_graph(list(res.elements), A), APDescriptor(1, 1, 1, res.M)


class TestWindow:
    def test_examples(self):
        assert prime_window(APDescriptor(1, 1, 1, 31)).primes == (11, 13)
        assert prime_window(APDescriptor(1, 1, 11, 31)).primes == (13,)
        assert prime_window(APDescriptor(1, 1, 1, 10)).primes == ()

    def test_strict_bounds(self):
        # L = 22: window is (7.33, 11); 11 is excluded by the strict upper bound
        assert prime_window(APDescriptor(1, 1, 1, 22)).primes == ()
        # L = 23: (7.67, 11.5) contains 11
        assert prime_window(APDescriptor(1, 1, 1, 23)).primes == (11,)

    def test_requires_reduced(self):
        with pytest.raises(InputError):
            prime_window(APDescriptor(1, 2, 2, 31))

    @pytest.mark.parametrize("grown", [False, True])
    def test_matches_independent_sieve(self, grown, monkeypatch):
        # the primes p with L < 3p and 2p < L from a sieve that shares no
        # code with the table, for d = 1, d = 6 and d a window prime
        table = PrimeTable()
        if grown:
            table.primes_upto(2 * 10**6)
        monkeypatch.setattr(irregular, "DEFAULT_TABLE", table)
        for L in (*range(3, 3001), 10**5, 10**6):
            want = primes_between(L // 3 + 1, (L - 1) // 2)
            for d in (1, 6, want[len(want) // 2]) if want else (1, 6):
                got = prime_window(APDescriptor(1, 1, d, L)).primes
                assert got == tuple(p for p in want if d % p != 0), (L, d)
        assert table.limit == (2 * 10**6 if grown else 499999)

    def test_fresh_table_limit(self, monkeypatch):
        # a window's primes lie below 1024 up to L = 2050, so the first
        # fill serves it; past that the table doubles to 2048, which holds
        # the window of the cover-500 claim L = 3107
        table = PrimeTable()
        monkeypatch.setattr(irregular, "DEFAULT_TABLE", table)
        for L in range(3, 2051):
            prime_window(APDescriptor(1, 1, 1, L))
            assert table.limit <= 1024, L
        assert table.limit == 1024
        for L in (2051, 3107):
            prime_window(APDescriptor(1, 1, 1, L))
            assert table.limit == 2048, L
        # an empty table sieves only to the window's last prime
        table = PrimeTable()
        monkeypatch.setattr(irregular, "DEFAULT_TABLE", table)
        prime_window(APDescriptor(1, 1, 1, 3107))
        assert table.limit == 1553


class TestHitCount:
    def test_examples(self):
        assert hit_count(11, APDescriptor(1, 1, 1, 31)) == 2
        assert hit_count(11, APDescriptor(1, 11, 1, 31)) == 3
        assert hit_count(13, APDescriptor(1, 1, 1, 31)) == 2

    def test_matches_direct_scan(self):
        rng = random.Random(0x711)
        for _ in range(200):
            L = rng.randint(31, 120)
            d = rng.randint(1, 20)
            r = rng.randint(1, 50)
            if gcd(d, r) != 1:
                continue
            desc = APDescriptor(1, r, d, L)
            for p in prime_window(desc).primes:
                direct = sum(1 for i in range(L) if (r + d * i) % p == 0)
                assert hit_count(p, desc) == direct

    def test_non_window_prime_rejected(self):
        with pytest.raises(InputError):
            hit_count(7, APDescriptor(1, 1, 1, 31))
        with pytest.raises(InputError):
            hit_count(11, APDescriptor(1, 1, 11, 31))  # divides d

    def test_non_window_prime_past_digit_limit(self):
        # the 5001-digit p and d are named by their bit lengths
        with pytest.raises(
            InputError,
            match=r"^<16610-bit integer> is not a window prime for L=31, d=<16610-bit integer>$",
        ):
            hit_count(10**5000, APDescriptor(1, 1, 10**5000, 31))


class TestClassify:
    def test_d_one_counts_equal_hits(self):
        graph, desc = cover_graph(10)
        report = irregularity_report(graph, desc)
        for p in report.window.primes:
            assert len(report.per_prime[p]) == hit_count(p, desc)

    def test_common_factor_absorbs_one_power(self):
        # D = 11: a term with exactly one factor 11 is regular
        desc = APDescriptor(11, 1, 2, 31)
        B = sorted({11} | {desc.r + desc.d * i for i in range(desc.L)})
        graph = build_rep_graph(B, desc.terms())
        report = irregularity_report(graph, desc)
        irregular_indices = set(report.per_prime[11])
        expected = {i for i in range(desc.L) if (1 + 2 * i) % 11 == 0}
        assert irregular_indices == expected

    def test_value_consistency_enforced(self):
        graph, desc = cover_graph(10)
        with pytest.raises(InputError):
            irregularity_report(graph, APDescriptor(1, 2, 1, 23))

    def test_first_bad_edge_is_named(self):
        # two bad edges of different kinds: the error is the one of the
        # earlier edge, in edge order, whichever kind it is
        graph, desc = cover_graph(10)
        wrong = replace(graph.edges[1], value=graph.edges[1].value + 1)
        fraction = replace(graph.edges[-2], value=Fraction(graph.edges[-2].value))
        for first, later, message in [
            (wrong, fraction, "^edge 1 does not carry term 1$"),
            (fraction, wrong, "^irregularity analysis needs an integer instance$"),
        ]:
            edges = list(graph.edges)
            edges[1], edges[-2] = first, later
            bad = graph_from_edges(graph.elements, edges)
            with pytest.raises(InputError, match=message):
                irregularity_report(bad, desc)

    def test_mismatch_past_digit_limit(self):
        # the expected term has 5001 digits; the message names it by index
        graph = graph_from_edges((1, 2), (Edge(0, 1, 0, 2),))
        with pytest.raises(InputError, match="^edge 0 does not carry term 0$"):
            irregularity_report(graph, APDescriptor(10**5000, 1, 1, 3))


class TestSelection:
    def test_distinct_primes_all_selected(self):
        # L=31, d=1, r=1: windows {11, 13}, hits at distinct terms
        desc = APDescriptor(1, 1, 1, 31)
        B = sorted(set(range(1, 32)))
        graph = build_rep_graph(B, desc.terms())
        report = irregularity_report(graph, desc)
        used = [p for ps in report.selected_primes.values() for p in ps]
        assert sorted(used) == [11, 13]
        assert list(report.selected_primes) == [10, 12]  # terms 11 and 13

    def test_same_prime_keeps_lower_index(self):
        graph, desc = cover_graph(10)  # window {11}: terms 11 and 22
        report = irregularity_report(graph, desc)
        assert tuple(report.selected_primes) == (10,)  # term 11, not term 22

    def test_double_prime_edge_excluded(self):
        # r=119, d=1, L=31: term 121 (i=2) and 132 (i=13) hit 11; 130 (i=11)
        # hits 13; 143 (i=24) hits both and is processed last
        desc = APDescriptor(1, 119, 1, 31)
        B = sorted({1} | set(desc.terms()))
        graph = build_rep_graph(B, desc.terms())
        report = irregularity_report(graph, desc)
        assert report.per_prime[11] == (2, 13, 24)
        assert report.per_prime[13] == (11, 24)
        assert tuple(report.selected_primes) == (2, 11)
        assert 24 not in report.selected_primes
        assert 13 not in report.selected_primes  # second 11-hit blocked too

    def test_selected_edge_claims_all_its_primes(self):
        # r=143, d=1, L=31: term 143 = 11*13 (i=0) comes first for both
        # primes, so it is selected alone and blocks the other four hits,
        # 154 and 165 for 11, 156 and 169 for 13
        desc = APDescriptor(1, 143, 1, 31)
        graph = build_rep_graph(sorted({1} | set(desc.terms())), desc.terms())
        report = irregularity_report(graph, desc)
        assert report.selected_primes == {0: (11, 13)}
        assert assert_matches_oracle(graph, desc) == 5


class TestForest:
    def test_empty_selection(self):
        graph, desc = cover_graph(10)
        assert forest_check(graph, ()) is True

    def test_explicit_cycle_detected(self):
        graph = build_rep_graph([1, 2, 6, 7], [6, 7, 12, 14])
        assert forest_check(graph, range(4)) is False
        assert forest_check(graph, range(3)) is True

    def test_reads_positions_not_indices(self):
        # positions 0-3 close the 4-cycle 6, 7, 12, 14; index 0 is the
        # pendant edge 5*5 at position 4
        edges = [Edge(0, 2, 1, 6), Edge(0, 3, 2, 7), Edge(1, 2, 3, 12), Edge(1, 3, 4, 14)]
        graph = graph_from_edges((1, 2, 6, 7, 5), edges + [Edge(4, 4, 0, 25)])
        assert forest_check(graph, range(4)) is False
        assert forest_check(graph, [4, 0, 1, 2]) is True

    def test_full_reports_on_cover_instances(self):
        for n in (10, 20, 50):
            graph, desc = cover_graph(n)
            report = irregularity_report(graph, desc)
            assert report.forest is True
            # no prime claimed twice
            used = [p for ps in report.selected_primes.values() for p in ps]
            assert len(used) == len(set(used))
            # every selected edge is irregular for each prime it claims
            for i in report.selected_primes:
                assert report.selected_primes[i]
                for p in report.selected_primes[i]:
                    assert i in report.per_prime[p]
            with pytest.raises(FrozenInstanceError):
                report.forest = False


# ---------------------------------------------------------------------------
# slow oracle: the classification as first written, comparing the valuation
# of every edge value with D's for every window prime, then its own greedy
# selection and a networkx forest verdict
# ---------------------------------------------------------------------------


def _valuation_report(graph, desc):
    window = prime_window(desc)
    per_prime = {p: [] for p in window.primes}
    edge_primes = {}
    d_ord = {p: valuation(desc.D, p) for p in window.primes}
    for e in sorted(graph.edges, key=lambda e: e.index):
        mine = tuple(p for p in window.primes if valuation(e.value, p) > d_ord[p])
        if mine:
            edge_primes[e] = mine
            for p in mine:
                per_prime[p].append(e)
    selected, selected_primes, used = [], {}, set()
    for e, primes in edge_primes.items():
        if not used & set(primes):
            used |= set(primes)
            selected.append(e)
            selected_primes[e.index] = primes
    nx_graph = nx.MultiGraph(((0, e.u), (1, e.v)) for e in selected)
    forest = nx.is_forest(nx_graph) if selected else True  # networkx rejects empty graphs
    return IrregularityReport(
        window,
        {p: tuple(e.index for e in edges) for p, edges in per_prime.items()},
        selected_primes,
        forest,
    )


def assert_matches_oracle(graph, desc):
    """irregularity_report against the valuation scan, every field; returns
    the number of irregular edges."""
    want = _valuation_report(graph, desc)
    got = irregularity_report(graph, desc)
    assert got == want
    # dicts compare without order; the selection is the keys in order
    assert list(got.selected_primes) == list(want.selected_primes)
    return len({i for marked in want.per_prime.values() for i in marked})


def _quad_reduced_graph(seed, m):
    """The reduced graph and descriptor the pipeline classifies for a
    seeded quadratic 4-cycle instance."""
    inst = harness.random_quad_cycle_instance(seed, m)
    B, scale = harness.integerize(rationalize_components(inst))
    claim = APDescriptor(1, 2, 1, 5)
    B_red, desc, _ = reduce_ap([t * scale * scale for t in claim.terms()], B)
    return build_rep_graph(B_red, desc.terms()), desc


@st.composite
def graphs_in_range(draw):
    """A graph whose edge at index i in [0, L) carries term i of a reduced
    descriptor; vertex pairs and indices drawn at random."""
    D = draw(st.sampled_from([1, 2, 11, 13, 121, 11 * 13, 17 * 19]) | st.integers(1, 10**6))
    r = draw(st.integers(1, 200))
    d = draw(st.integers(1, 60))
    while gcd(d, D * r) > 1:
        d //= gcd(d, D * r)
    desc = APDescriptor(D, r, d, draw(st.integers(3, 80)))
    n = draw(st.integers(1, 10))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 unique=True, max_size=desc.L)
    )
    indices = draw(st.permutations(range(desc.L)))
    edges = tuple(Edge(u, v, i, desc.term(i)) for (u, v), i in zip(pairs, indices))
    return graph_from_edges(tuple(range(1, n + 1)), edges), desc


class TestResidueRuleOracle:
    def test_cover_graphs(self):
        irregular = sum(assert_matches_oracle(*cover_graph(n)) for n in range(10, 61))
        assert irregular > 0

    def test_common_factor_carries_window_primes(self):
        irregular = 0
        for D in (11, 121, 11 * 13):
            for r in range(1, 7):
                for d in range(1, 5):
                    for L in (27, 31, 47, 60):
                        desc = APDescriptor(D, r, d, L)
                        if not desc.is_reduced:
                            continue
                        B = sorted({D} | {r + d * i for i in range(L)})
                        irregular += assert_matches_oracle(
                            build_rep_graph(B, desc.terms()), desc
                        )
        assert irregular > 0

    @pytest.mark.parametrize("m", [2, 3, 5, 6, 7])
    def test_reduced_quadratic_graphs(self, m):
        for seed in range(64):
            assert_matches_oracle(*_quad_reduced_graph(seed, m))

    def test_selection_with_a_cycle(self):
        # L = 100: window {37, 41, 43, 47} marks terms 37, 41, 43 and 47,
        # placed here on the four edges of one 4-cycle
        desc = APDescriptor(1, 1, 1, 100)
        pairs = {36: (0, 0), 40: (0, 1), 42: (1, 0), 46: (1, 1)}
        edges = tuple(Edge(*pairs[i], i, desc.term(i)) for i in sorted(pairs))
        graph = graph_from_edges((1, 2), edges)
        assert assert_matches_oracle(graph, desc) == 4
        assert irregularity_report(graph, desc).forest is False

    @settings(max_examples=300, deadline=None)
    @given(graphs_in_range())
    def test_drawn_graphs(self, case):
        assert_matches_oracle(*case)
