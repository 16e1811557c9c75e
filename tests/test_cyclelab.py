"""Cycle detection, the alternating product identity and coefficient audits."""

import re
from collections import deque
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import comb, gcd
from operator import mul

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from prodap import cyclelab, harness
from prodap.apcore import APDescriptor, reduce_ap
from prodap.cyclelab import (
    CyclePoly,
    EvenCycle,
    _cycle_through,
    _walk_lengths,
    audit_cycle_walks,
    cycle_audit,
    cycle_identity_check,
    cycle_poly,
    divisibility_audit,
    elementary_symmetric,
    enumerate_even_cycles,
    find_even_cycle,
    symmetric_coefficients,
)
from prodap.errors import FalsificationError, InputError, ProdapError, ShapeError
from prodap.exactnum import QuadElem
from prodap.irregular import forest_check
from prodap.jsonio import graph_from_json, graph_to_json
from prodap.prodset import Edge, RepGraph, build_rep_graph
from prodap.rationalize import rationalize_components

from instances import assert_graph_matches_oracle, graph_from_edges

# B = [1,2,6,7] with terms {6,7,12,14} interlocks into a 4-cycle:
# 6=1*6, 7=1*7, 12=2*6, 14=2*7
SQUARE_B = [1, 2, 6, 7]
SQUARE_A = [6, 7, 12, 14]


def cover_instance(n=10):
    from prodap.construct import cover_set

    res = cover_set(n)
    A = list(range(1, res.M + 1))
    return list(res.elements), A, build_rep_graph(list(res.elements), A)


def stops(graph: RepGraph, k: int, cap) -> dict:
    """Length -> why _walk_lengths cut that length short ("cap" or "steps"),
    for each length 4..2k it did not finish."""
    lengths = range(4, 2 * k + 1, 2)
    return {
        length: stop
        for length, (_, stop) in zip(lengths, _walk_lengths(graph.neighbours, lengths, cap))
        if stop is not None
    }


def walk_length(nbrs, length, cap):
    """_walk_lengths at one length: its walks, and why it stopped early."""
    return next(_walk_lengths(nbrs, [length], cap))


def walk_length_oracle(nbrs, length, cap) -> tuple[list[list[int]], str | None]:
    """The walk of one length as first written, building each root's ends
    and near sets afresh: the slow oracle of _walk_lengths."""
    walks: list[list[int]] = []
    steps = 0
    on_path = [False] * len(nbrs)
    path: list[int] = []
    for root in range(len(nbrs)):
        ends = set(nbrs[root])  # the last vertex must close back to the root
        # the vertex before the last must reach the root in two edges
        near = {x for y in ends for x in nbrs[y] if x > root}
        path.append(root)
        on_path[root] = True
        stack = [iter(nbrs[root])]
        while stack:
            depth = len(path)
            for w in stack[-1]:
                if w <= root or on_path[w]:
                    continue
                if depth == length - 1:
                    if w in ends and path[1] < w:
                        if len(walks) == cap:
                            return walks, "cap"  # a cycle past the cap
                        steps += 1
                        if steps >= cyclelab.STEP_BUDGET:
                            return walks, "steps"
                        walks.append(path + [w])
                    continue
                if depth == length - 2 and w not in near:
                    continue
                steps += 1
                if steps >= cyclelab.STEP_BUDGET:
                    return walks, "steps"
                path.append(w)
                on_path[w] = True
                stack.append(iter(nbrs[w]))
                break
            else:
                stack.pop()
                on_path[path.pop()] = False
    return walks, None


def hand_built(elements, edges) -> RepGraph:
    """graph_from_edges(elements, edges), checked against the per-Edge
    construction of its columns, neighbours and edge lookup."""
    edges = tuple(edges)
    g = graph_from_edges(elements, edges)
    assert_graph_matches_oracle(g, edges)
    return g


def to_networkx(graph: RepGraph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from((0, i) for i in range(len(graph.elements)))
    G.add_nodes_from((1, i) for i in range(len(graph.elements)))
    G.add_edges_from(((0, e.u), (1, e.v)) for e in graph.edges)
    return G


class TestFindCycle:
    def test_explicit_square(self):
        g = build_rep_graph(SQUARE_B, SQUARE_A)
        cyc = find_even_cycle(g, 2)
        assert cyc is not None and len(cyc.vertices) == 4
        assert sorted(cyc.values) == [6, 7, 12, 14]

    def test_tree_has_none(self):
        g = build_rep_graph([2, 3, 5, 7], [6, 10, 14])
        assert find_even_cycle(g, 5) is None

    def test_shortest_matches_girth(self):
        _, _, g = cover_instance(10)
        cyc = find_even_cycle(g, 10)
        assert len(cyc.vertices) == nx.girth(to_networkx(g))

    def test_k_cap_respected(self):
        # a lone 6-cycle: values chain around six vertices
        elements = (2, 3, 5, 7, 11, 13)
        edges = tuple(
            Edge(u, v, i, elements[u] * elements[v])
            for i, (u, v) in enumerate([(0, 3), (1, 3), (1, 4), (2, 4), (2, 5), (0, 5)])
        )
        g = hand_built(elements, edges)
        assert find_even_cycle(g, 2) is None
        assert find_even_cycle(g, 3) is not None

    def test_invalid_k(self):
        g = build_rep_graph([2], [4])
        with pytest.raises(InputError):
            find_even_cycle(g, 1)


class TestEnumerate:
    def test_counts_match_networkx(self):
        for n in (10, 15):
            _, _, g = cover_instance(n)
            ours = enumerate_even_cycles(g, 5)
            G = to_networkx(g)
            ref = [c for c in nx.simple_cycles(G, length_bound=10)]
            assert len(ours) == len(ref)
            assert sorted(len(c.vertices) for c in ours) == sorted(len(c) for c in ref)

    def test_max_count_caps(self):
        _, _, g = cover_instance(15)
        capped = enumerate_even_cycles(g, 5, max_count=3)
        assert [len(c.vertices) for c in capped] == [4] * 3 + [6] * 3 + [8] * 3 + [10] * 3
        assert capped == ref_prefixes(g, 5, 3)
        assert stops(g, 5, 3) == {4: "cap", 6: "cap", 8: "cap", 10: "cap"}

    def test_cap_reports_only_a_cut(self):
        # cover n = 10 has 16 four-cycles and 5 six-cycles
        _, _, g = cover_instance(10)
        full = enumerate_even_cycles(g, 3)
        fours = [c for c in full if len(c.vertices) == 4]
        assert (len(fours), len(full)) == (16, 21)
        assert enumerate_even_cycles(g, 3, max_count=16) == full
        assert stops(g, 3, 16) == {}  # exactly the cap: nothing was cut
        assert enumerate_even_cycles(g, 3, max_count=15) == full[:15] + full[16:]
        assert stops(g, 3, 15) == {4: "cap"}  # one past the cap
        assert enumerate_even_cycles(g, 3, max_count=0) == []
        assert stops(g, 3, 0) == {4: "cap", 6: "cap"}
        tree = hand_built((2, 3, 5), (Edge(0, 1, 0, 6), Edge(1, 2, 1, 15)))
        assert enumerate_even_cycles(tree, 3, max_count=0) == []
        assert stops(tree, 3, 0) == {}
        with pytest.raises(InputError, match="cycle cap"):
            enumerate_even_cycles(g, 3, max_count=-1)

    def test_uncapped_walk_reports_no_stop(self):
        _, _, g = cover_instance(10)
        assert stops(g, 5, None) == {}

    def test_step_budget_stops_walk_on_hub_tree(self, monkeypatch):
        # hubs (0, 0) and (1, 0), joined by an edge, each with 40 neighbours
        # that carry 5 leaves each: a tree, so no cycle at all, yet many
        # paths for the walk to try
        pairs = [(0, 0)]
        for t in range(1, 41):
            pairs += [(0, t), (t, 0)]
            for s in range(1, 6):
                pairs += [(40 * s + t, t), (t, 40 * s + t)]
        elements = tuple(range(2, 243))
        edges = (Edge(u, v, i, elements[u] * elements[v]) for i, (u, v) in enumerate(pairs))
        g = hand_built(elements, tuple(edges))
        assert enumerate_even_cycles(g, 5) == []
        assert stops(g, 5, None) == {}  # the default budget lets the whole tree be walked
        monkeypatch.setattr(cyclelab, "STEP_BUDGET", 1000)
        assert enumerate_even_cycles(g, 5) == []
        assert stops(g, 5, None) == {6: "steps", 8: "steps", 10: "steps"}

    def test_step_budget_counts_closed_walks(self, monkeypatch):
        # cover n = 100 closes about 30 cycles of length 10 per path
        # extension: a budget on extensions alone let 31 338 through
        _, _, g = cover_instance(100)
        monkeypatch.setattr(cyclelab, "STEP_BUDGET", 1000)
        walks, stop = walk_length(g.neighbours, 10, None)
        assert stop == "steps"
        assert 0 < len(walks) <= 1000
        # one step more of budget buys one walk more at most
        _, _, g = cover_instance(20)
        for length in (4, 6):
            counts = []
            for budget in range(1, 300):
                monkeypatch.setattr(cyclelab, "STEP_BUDGET", budget)
                counts.append(len(walk_length(g.neighbours, length, None)[0]))
            assert counts[-1] > 0
            assert all(b - a in (0, 1) for a, b in zip(counts, counts[1:]))

    def test_cycles_are_valid(self):
        _, A, g = cover_instance(12)
        for cyc in enumerate_even_cycles(g, 5):
            assert cycle_identity_check(cyc, A)


class TestSharedClosingSets:
    """_walk_lengths, which builds each root's ends and near sets once for
    all lengths, against walk_length_oracle, which builds them per length."""

    LENGTHS = range(4, 2 * harness.CYCLE_HALF_LENGTH + 1, 2)

    @classmethod
    def assert_agrees(cls, graph, cap):
        # the pipeline's order, and the reverse, where the longest length
        # builds the sets the shorter ones then share
        for lengths in (cls.LENGTHS, cls.LENGTHS[::-1]):
            want = [walk_length_oracle(graph.neighbours, length, cap) for length in lengths]
            assert list(_walk_lengths(graph.neighbours, lengths, cap)) == want

    @pytest.mark.parametrize("n", range(12, 101))
    def test_cover_graphs(self, n, monkeypatch):
        _, _, g = cover_instance(n)
        for cap in (1, 50) if n > 24 else (1, 50, None):
            self.assert_agrees(g, cap)
        # every length of cover n = 100 ends on this budget
        monkeypatch.setattr(cyclelab, "STEP_BUDGET", 2000)
        for cap in (1, 50, None):
            self.assert_agrees(g, cap)

    @pytest.mark.parametrize("m", [2, 3, 5, 6, 7])
    def test_quadratic_instances(self, m, monkeypatch):
        graphs = [_quad_audit_inputs(seed, m)[0] for seed in range(64)]
        for budget in (cyclelab.STEP_BUDGET, 3):
            monkeypatch.setattr(cyclelab, "STEP_BUDGET", budget)
            for g in graphs:
                for cap in (1, 50, None):
                    self.assert_agrees(g, cap)

    def test_reasons_are_exercised(self, monkeypatch):
        # the comparisons above see both reasons and finished lengths
        _, _, g = cover_instance(100)
        assert stops(g, 5, 50) == {4: "cap", 6: "cap", 8: "cap", 10: "cap"}
        monkeypatch.setattr(cyclelab, "STEP_BUDGET", 2000)
        assert stops(g, 5, None) == {4: "steps", 6: "steps", 8: "steps", 10: "steps"}
        quads = [_quad_audit_inputs(seed, 2)[0] for seed in range(64)]
        assert all(stops(g, 5, None) == {} for g in quads)
        monkeypatch.setattr(cyclelab, "STEP_BUDGET", 3)
        assert all("steps" in stops(g, 5, None).values() for g in quads)


class TestIdentity:
    def test_genuine_cycles_pass(self):
        _, A, g = cover_instance(10)
        cyc = find_even_cycle(g, 5)
        assert cycle_identity_check(cyc, A) is True

    def test_perturbed_value_fails(self):
        g = build_rep_graph(SQUARE_B, SQUARE_A)
        cyc = find_even_cycle(g, 2)
        A_bad = list(SQUARE_A)
        pos = A_bad.index(cyc.values[0])
        A_bad[pos] += 1
        bad_cycle = EvenCycle(
            cyc.vertices,
            cyc.indices,
            tuple(A_bad[j] for j in cyc.indices),
        )
        assert cycle_identity_check(bad_cycle, A_bad) is False

    def test_value_mismatch_is_shape_error(self):
        g = build_rep_graph(SQUARE_B, SQUARE_A)
        cyc = find_even_cycle(g, 2)
        with pytest.raises(ShapeError):
            cycle_identity_check(cyc, [60, 70, 120, 140])

    def test_mismatch_past_digit_limit(self):
        # a 6001-digit term: the message names the edge and term by position
        g = build_rep_graph(SQUARE_B, SQUARE_A)
        cyc = find_even_cycle(g, 2)
        A = list(SQUARE_A)
        A[cyc.indices[1]] = 10**6000 + 7
        message = f"^edge 1 of the cycle does not carry term {cyc.indices[1]}$"
        with pytest.raises(ShapeError, match=message):
            cycle_identity_check(cyc, A)

    def test_four_cycle_alternating_product(self):
        g = build_rep_graph(SQUARE_B, SQUARE_A)
        cyc = find_even_cycle(g, 2)
        vals = cyc.values
        assert vals[0] * vals[2] == vals[1] * vals[3]


class TestCoefficients:
    def test_elementary_symmetric(self):
        assert elementary_symmetric([0, 3]) == [1, 3, 0]
        assert elementary_symmetric([1, 2]) == [1, 3, 2]
        assert elementary_symmetric([2, 3, 5]) == [1, 10, 31, 30]

    def test_hand_expansions(self):
        # (r)(r+3d) - (r+d)(r+2d) = -2d^2
        assert symmetric_coefficients((0, 3), (1, 2)) == (0, 0, -2)
        # (r+d)(r+4d) - (r+2d)(r+3d) = -2d^2
        assert symmetric_coefficients((1, 4), (2, 3)) == (0, 0, -2)

    def test_equal_multisets_vanish(self):
        assert symmetric_coefficients((1, 2), (2, 1)) == (0, 0, 0)

    def test_poly_on_genuine_cycle(self):
        _, A, g = cover_instance(10)
        desc = APDescriptor(1, 1, 1, 23)
        for cyc in enumerate_even_cycles(g, 5):
            poly = cycle_poly(cyc, desc)
            assert poly.coeffs[0] == 0
            assert poly.l >= 1 and poly.l < poly.m
            value = sum(
                c * desc.r ** (poly.k - t) * desc.d**t
                for t, c in enumerate(poly.coeffs)
            )
            assert value == 0

    def test_fake_cycle_falsifies(self):
        # indices {0,3} versus {1,2} cannot close a genuine cycle: the
        # polynomial evaluates to -2*d^2 != 0
        g = build_rep_graph(SQUARE_B, SQUARE_A)
        cyc = find_even_cycle(g, 2)
        fake = EvenCycle(cyc.vertices, (1, 0, 2, 3), cyc.values)
        with pytest.raises(FalsificationError):
            cycle_poly(fake, APDescriptor(1, 1, 2, 5))

    @pytest.mark.parametrize("r", [7, 10**5000 + 1], ids=["r=7", "huge r"])
    def test_falsification_payload(self, r):
        # indices {1, 3} against {0, 2}: c = (0, 2, 3), value 2*r*d + 3*d^2;
        # past the digit limit r and the value are named by bit length
        g = build_rep_graph(SQUARE_B, SQUARE_A)
        cyc = find_even_cycle(g, 2)
        fake = EvenCycle(cyc.vertices, (0, 1, 2, 3), cyc.values)
        with pytest.raises(FalsificationError, match="does not vanish") as exc:
            cycle_poly(fake, APDescriptor(1, r, 1, 5))
        big = r > 10**4300
        assert exc.value.payload == {
            "indices": [0, 1, 2, 3],
            "coeffs": ["0", "2", "3"],
            "r": "<16610-bit integer>" if big else "7",
            "d": "1",
            "value": "<16611-bit integer>" if big else "17",
        }

    def test_all_zero_guard(self):
        g = build_rep_graph(SQUARE_B, SQUARE_A)
        cyc = find_even_cycle(g, 2)
        degenerate = object.__new__(EvenCycle)
        object.__setattr__(degenerate, "vertices", cyc.vertices)
        object.__setattr__(degenerate, "indices", (1, 1, 2, 2))
        object.__setattr__(degenerate, "values", cyc.values)
        with pytest.raises(FalsificationError) as exc:
            cycle_poly(degenerate, APDescriptor(1, 1, 2, 5))
        assert "vanish" in str(exc.value)

    def test_poly_requires_reduced(self):
        g = build_rep_graph(SQUARE_B, SQUARE_A)
        cyc = find_even_cycle(g, 2)
        with pytest.raises(InputError):
            cycle_poly(cyc, APDescriptor(2, 2, 2, 5))


class TestDivisibility:
    def test_hand_example(self):
        poly = CyclePoly(k=2, coeffs=(0, 0, -2), l=2, m=2, max_index=3)
        report = divisibility_audit(poly, APDescriptor(1, 1, 2, 5))
        assert report.d_divides_cl and report.r_divides_cm and report.coeff_bound_ok

    def test_trivial_when_r_d_one(self):
        _, A, g = cover_instance(10)
        desc = APDescriptor(1, 1, 1, 23)
        for cyc in enumerate_even_cycles(g, 5):
            divisibility_audit(cycle_poly(cyc, desc), desc)

    def test_coefficient_bound_form(self):
        poly = CyclePoly(k=2, coeffs=(0, 0, -2), l=2, m=2, max_index=4)
        report = divisibility_audit(poly, APDescriptor(1, 1, 2, 5))
        assert report.coeff_bound_ok  # |-2| <= 2 * C(2,2) * 16

    def test_violation_falsifies(self):
        poly = CyclePoly(k=2, coeffs=(0, 3, -2), l=1, m=2, max_index=3)
        with pytest.raises(FalsificationError):
            divisibility_audit(poly, APDescriptor(1, 1, 2, 5))  # d=2 does not divide 3

    @pytest.mark.parametrize("D", [1, 3**10000], ids=["D=1", "huge D"])
    def test_violation_payload(self, D):
        # the descriptor's D, r and d are decimal strings, or named by bit
        # length past the digit limit; L stays an int
        poly = CyclePoly(k=2, coeffs=(0, 3, -2), l=1, m=2, max_index=3)
        with pytest.raises(FalsificationError, match="coefficient audit failed") as exc:
            divisibility_audit(poly, APDescriptor(D, 1, 2, 5))
        assert exc.value.payload == {
            "coeffs": ["0", "3", "-2"],
            "l": 1,
            "m": 2,
            "d_divides_cl": False,
            "r_divides_cm": True,
            "coeff_bound_ok": True,
            "descriptor": {
                "D": "1" if D == 1 else "<15850-bit integer>",
                "r": "1",
                "d": "2",
                "L": 5,
            },
        }


class TestForestAgreement:
    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            min_size=0,
            max_size=14,
            unique=True,
        )
    )
    def test_cycle_detection_matches_union_find(self, pairs):
        elements = tuple(range(2, 16))
        edges = tuple(
            Edge(u, v, i, elements[u] * elements[v]) for i, (u, v) in enumerate(pairs)
        )
        g = hand_built(elements, edges)
        # independent acyclicity oracle
        parent = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                x = parent[x]
            return x

        acyclic = True
        for e in edges:
            ra, rb = find((0, e.u)), find((1, e.v))
            if ra == rb:
                acyclic = False
                break
            parent[ra] = rb
        found = find_even_cycle(g, len(edges) // 2 + 2) if edges else None
        assert (found is None) == acyclic
        assert forest_check(g, range(len(edges))) == acyclic


# ---------------------------------------------------------------------------
# slow oracle: the cycle search as first written, on tuple vertices with the
# Fraction-valued order key and an edge lookup rebuilt for every cycle
# ---------------------------------------------------------------------------


def _ref_order_key(graph, vertex):
    x = graph.elements[vertex[1]]
    key = x.sort_key if isinstance(x, QuadElem) else (Fraction(x), Fraction(0))
    return (key, vertex[0])


def _ref_adjacency(graph):
    adj = {}
    for e in graph.edges:
        a, b = (0, e.u), (1, e.v)
        adj.setdefault(a, []).append((b, e))
        adj.setdefault(b, []).append((a, e))
    return {
        v: sorted(nbrs, key=lambda item: _ref_order_key(graph, item[0]))
        for v, nbrs in sorted(adj.items())
    }


def _ref_canonical_cycle(graph, vertices):
    lookup = {}
    for e in graph.edges:
        lookup[((0, e.u), (1, e.v))] = e
        lookup[((1, e.v), (0, e.u))] = e
    n = len(vertices)
    key = lambda v: _ref_order_key(graph, v)
    start = min(range(n), key=lambda t: key(vertices[t]))
    step = 1 if key(vertices[(start + 1) % n]) <= key(vertices[(start - 1) % n]) else -1
    ordered = [vertices[(start + step * t) % n] for t in range(n)]
    indices, values = [], []
    for t in range(n):
        e = lookup.get((ordered[t], ordered[(t + 1) % n]))
        if e is None:
            raise ShapeError(f"no edge between {ordered[t]} and {ordered[(t + 1) % n]}")
        indices.append(e.index)
        values.append(e.value)
    return EvenCycle(tuple(ordered), tuple(indices), tuple(values))


def _ref_cycle_sort_key(graph, cycle):
    return (len(cycle.vertices), [_ref_order_key(graph, v) for v in cycle.vertices])


def ref_find_even_cycle(graph, k):
    adj = _ref_adjacency(graph)
    best = best_key = None
    for e in sorted(graph.edges, key=lambda e: e.index):
        src, dst = (0, e.u), (1, e.v)
        max_edges = (2 * k - 1) if best is None else min(2 * k, len(best.vertices)) - 1
        parent = {src: None}
        queue = deque([(src, 0)])
        found = None
        while queue:
            v, depth = queue.popleft()
            if depth >= max_edges:
                continue
            for w, via in adj.get(v, ()):
                if via.index == e.index or w in parent:
                    continue
                parent[w] = v
                if w == dst:
                    found = w
                    queue.clear()
                    break
                queue.append((w, depth + 1))
        if found is None:
            continue
        path = []
        v = found
        while v is not None:
            path.append(v)
            v = parent[v]
        cycle = _ref_canonical_cycle(graph, path)
        ck = _ref_cycle_sort_key(graph, cycle)
        if best is None or ck < best_key:
            best, best_key = cycle, ck
    return best


def ref_enumerate_even_cycles(graph, k, max_count=None):
    adj = _ref_adjacency(graph)
    roots = sorted(adj, key=lambda v: _ref_order_key(graph, v))
    order = {v: i for i, v in enumerate(roots)}
    found = {}

    def dfs(root, v, path, on_path):
        if max_count is not None and len(found) >= max_count:
            return
        for w, _ in adj.get(v, ()):
            if w == root and len(path) >= 4:
                if order[path[1]] < order[path[-1]]:
                    cycle = _ref_canonical_cycle(graph, path)
                    found.setdefault((cycle.vertices, cycle.indices), cycle)
                continue
            if w in on_path or order.get(w, -1) < order[root]:
                continue
            if len(path) < 2 * k:
                on_path.add(w)
                path.append(w)
                dfs(root, w, path, on_path)
                path.pop()
                on_path.discard(w)

    for root in roots:
        dfs(root, root, [root], {root})
        if max_count is not None and len(found) >= max_count:
            break
    return sorted(found.values(), key=lambda c: _ref_cycle_sort_key(graph, c))


def ref_prefixes(graph, k, cap):
    """Per length, the first cap cycles of the full sorted reference
    enumeration."""
    full = ref_enumerate_even_cycles(graph, k)
    out = []
    for length in range(4, 2 * k + 1, 2):
        out += [c for c in full if len(c.vertices) == length][:cap]
    return out


_FIELD_VALUES = {
    "integer": st.integers(1, 40),
    "rational": st.fractions(min_value=Fraction(1, 6), max_value=12, max_denominator=6),
    "quadratic": st.builds(
        lambda a, b: QuadElem(Fraction(a), Fraction(b), 2), st.integers(-3, 3), st.integers(-3, 3)
    ),
}


@st.composite
def bipartite_graphs(draw):
    """RepGraphs as a graph file can describe them: distinct elements in any
    order, and edges on distinct vertex pairs given in any order with
    permuted indices."""
    field = draw(st.sampled_from(sorted(_FIELD_VALUES)))
    elements = tuple(draw(st.lists(_FIELD_VALUES[field], min_size=2, max_size=8, unique=True)))
    n = len(elements)
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=18, unique=True)
    )
    indices = draw(st.permutations(range(len(pairs))))
    edges = tuple(
        Edge(u, v, j, elements[u] * elements[v]) for (u, v), j in zip(pairs, indices)
    )
    return graph_from_edges(elements, edges)


class TestVertexIds:
    @settings(max_examples=150, deadline=None)
    @given(bipartite_graphs())
    def test_one_numbering(self, g):
        n = len(g.elements)
        every = [(side, i) for side in (0, 1) for i in range(n)]
        assert sorted(g.vertices) == every
        # an id's side is its low bit
        assert [side for side, _ in g.vertices] == [t & 1 for t in range(2 * n)]
        # ids follow (value, side), not positions in elements
        keys = [_ref_order_key(g, v) for v in g.vertices]
        assert keys == sorted(keys)
        side0, side1 = g.ends
        assert len(side0) == len(side1) == len(g.edges)
        joined = [set() for _ in every]
        for p, e in enumerate(g.edges):
            a, b = g.vertices.index((0, e.u)), g.vertices.index((1, e.v))
            assert (side0[p], side1[p]) == (a, b)
            assert g.edge_lookup[(a, b)] == p == g.edge_lookup[(b, a)]
            joined[a].add(b)
            joined[b].add(a)
        assert len(g.edge_lookup) == 2 * len(g.edges)
        assert len(g.neighbours) == 2 * n
        for t, row in enumerate(g.neighbours):
            assert list(row) == sorted(joined[t])
        assert_graph_matches_oracle(g, g.edges)


class TestGraphFile:
    @settings(max_examples=150, deadline=None)
    @given(bipartite_graphs())
    @example(RepGraph((2, 1), (), (), (), ()))
    def test_round_trip(self, g):
        # the writer reads the columns and the reader rebuilds them, for
        # every field, unsorted elements and zero edges alike
        field = {int: "integer", Fraction: "rational", QuadElem: "quadratic"}[type(g.elements[0])]
        m = 2 if field == "quadratic" else None
        assert graph_from_json(graph_to_json(g, field, m)) == g


class TestOracleEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(bipartite_graphs(), st.integers(2, 5))
    def test_find_even_cycle_matches_reference(self, g, k):
        assert find_even_cycle(g, k) == ref_find_even_cycle(g, k)

    @settings(max_examples=150, deadline=None)
    @given(bipartite_graphs(), st.integers(2, 4), st.one_of(st.none(), st.integers(1, 6)))
    def test_enumerate_matches_reference(self, g, k, cap):
        if cap is None:
            assert enumerate_even_cycles(g, k, cap) == ref_enumerate_even_cycles(g, k, cap)
        else:
            assert enumerate_even_cycles(g, k, cap) == ref_prefixes(g, k, cap)

    @settings(max_examples=300, deadline=None)
    @given(bipartite_graphs(), st.integers(2, 5))
    def test_first_cycle_is_the_shortest(self, g, k):
        # the BFS is the oracle for the first cycle the enumeration emits
        first = enumerate_even_cycles(g, k, 1)
        assert (first[0] if first else None) == find_even_cycle(g, k)

    def test_unsorted_elements(self):
        # the same square as SQUARE_B, listed out of order
        elements = (7, Fraction(2), 6, 1)
        pairs = [(3, 2), (3, 0), (1, 2), (1, 0)]
        edges = tuple(
            Edge(u, v, i, elements[u] * elements[v]) for i, (u, v) in enumerate(pairs)
        )
        g = hand_built(elements, edges)
        assert [g.vertices.index((0, i)) for i in range(4)] == [6, 2, 4, 0]
        cyc = find_even_cycle(g, 3)
        assert cyc is not None and cyc == ref_find_even_cycle(g, 3)
        assert enumerate_even_cycles(g, 3) == ref_enumerate_even_cycles(g, 3)

    def test_cover_graph_matches_reference(self):
        _, _, g = cover_instance(12)
        assert find_even_cycle(g, 5) == ref_find_even_cycle(g, 5)
        assert enumerate_even_cycles(g, 4, 40) == ref_prefixes(g, 4, 40)


def _outcome(call):
    """None if call returns, else the error's type, message and payload."""
    try:
        call()
    except ProdapError as exc:
        return type(exc), str(exc), getattr(exc, "payload", None)
    return None


def _pipeline_walks(graph):
    """The walks the pipeline audits, shortest length first."""
    lengths = range(4, 2 * harness.CYCLE_HALF_LENGTH + 1, 2)
    return [
        w
        for walks, _ in _walk_lengths(graph.neighbours, lengths, harness.DEFAULT_CYCLE_CAP)
        for w in walks
    ]


def _first_failure(graph, walks, A, desc):
    """The outcome of cycle_audit on the first cycle it fails among the
    cycles of enumerate_even_cycles, which must be the cycles of the walks."""
    cycles = enumerate_even_cycles(graph, harness.CYCLE_HALF_LENGTH, harness.DEFAULT_CYCLE_CAP)
    assert [_cycle_through(graph, w) for w in walks] == cycles
    return _walk_oracle(graph, walks, A, desc)


def _walk_oracle(graph, walks, A, desc):
    """The outcome of EvenCycle and cycle_audit on the first of any walks
    they reject.  A walk's vertices are checked before its edges, and a step
    with no edge is the ShapeError that _cycle_through names it by."""

    def audit(ids):
        cyclelab._check_vertices(tuple(graph.vertices[t] for t in ids))
        pairs = list(zip(ids, ids[1:] + ids[:1]))
        if not all(p in graph.edge_lookup for p in pairs):
            raise ShapeError("the walk steps between two vertices with no edge")
        cycle_audit(_cycle_through(graph, ids), A, desc)

    for ids in walks:
        out = _outcome(lambda: audit(ids))
        if out is not None:
            return out
    return None


def _quad_audit_inputs(seed, m):
    """The reduced graph, progression and descriptor that the pipeline
    audits for a seeded quadratic 4-cycle instance."""
    inst = harness.random_quad_cycle_instance(seed, m)
    B, scale = harness.integerize(rationalize_components(inst))
    claim = APDescriptor(1, 2, 1, 5)  # the progression 2..6 the demo carries
    B_red, desc, _ = reduce_ap([t * scale * scale for t in claim.terms()], B)
    A = desc.terms()
    return build_rep_graph(B_red, A), A, desc


@lru_cache(maxsize=None)
def _audit_pool():
    """(graph, A, descriptor, pipeline walks) to perturb: cover graphs with
    r = d = 1, the odd terms of a cover graph with d = 2, and quadratic
    instances with (r, d) != (1, 1)."""
    cases = []
    for n in (12, 20, 30):
        _, A, g = cover_instance(n)
        cases.append((g, A, APDescriptor(1, 1, 1, len(A))))
    B, A, _ = cover_instance(20)
    odd = APDescriptor(1, 1, 2, (len(A) + 1) // 2)
    cases.append((build_rep_graph(B, odd.terms()), odd.terms(), odd))
    cases += [_quad_audit_inputs(seed, m) for seed, m in [(5, 3), (0, 2), (9, 7)]]
    return [(g, A, desc, _pipeline_walks(g)) for g, A, desc in cases]


class TestBatchedAudit:
    """audit_cycle_walks against its oracle, cycle_audit on each EvenCycle."""

    @pytest.mark.parametrize("n", range(12, 101))
    def test_cover_graphs_agree(self, n):
        _, A, g = cover_instance(n)
        desc = APDescriptor(1, 1, 1, len(A))
        walks = _pipeline_walks(g)
        assert _first_failure(g, walks, A, desc) is None
        assert _outcome(lambda: audit_cycle_walks(g, walks, A, desc)) is None

    @pytest.mark.parametrize("m", [2, 3, 5, 6, 7])
    def test_quadratic_instances_agree(self, m):
        for seed in range(64):
            g, A, desc = _quad_audit_inputs(seed, m)
            walks = _pipeline_walks(g)
            assert walks
            want = _first_failure(g, walks, A, desc)
            assert _outcome(lambda: audit_cycle_walks(g, walks, A, desc)) == want

    @staticmethod
    def tampered_cases():
        B, A, g = cover_instance(20)
        yield g, A, APDescriptor(1, 1, 1, len(A))
        odd = APDescriptor(1, 1, 2, (len(A) + 1) // 2)  # the odd terms, d = 2
        yield build_rep_graph(B, odd.terms()), odd.terms(), odd
        g, A, desc = _quad_audit_inputs(5, 3)
        assert (desc.r, desc.d) != (1, 1)
        yield g, A, desc

    TAMPERS = ["r", "d", "term", "pair", "relabel", "short", "unreduced"]

    @pytest.mark.parametrize("tamper", TAMPERS)
    def test_tampered_inputs_fail_alike(self, tamper):
        for g, A, desc in self.tampered_cases():
            walks = _pipeline_walks(g)
            first = _cycle_through(g, walks[0]).indices
            D, r, d, L = desc.D, desc.r, desc.d, desc.L
            A = list(A)
            if tamper == "r":
                desc = APDescriptor(D, r + d, d, L)  # still reduced
            elif tamper == "d":
                desc = APDescriptor(D, r, d + D * r, L)  # still reduced
            elif tamper == "term":
                A[_cycle_through(g, walks[-1]).indices[1]] += 1
            elif tamper == "pair":
                # one odd- and one even-position term doubled: the products
                # still agree, the edge values no longer match A
                A[first[0]] *= 2
                A[first[1]] *= 2
            elif tamper == "relabel":
                # every term and edge value moved by one: the values match A
                # and the indices still vanish at (r, d), the products differ
                A = [a + 1 for a in A]
                g = graph_from_edges(g.elements, (replace(e, value=e.value + 1) for e in g.edges))
            elif tamper == "short":
                A = A[: max(first)]  # the first cycle's top index is past the end
            elif d > 1:
                desc = APDescriptor(D * d, r, d, L)  # r and d as before
            else:
                desc = APDescriptor(D, 2 * r, 2 * d, L)
            want = _first_failure(g, walks, A, desc)
            assert want is not None
            assert _outcome(lambda: audit_cycle_walks(g, walks, A, desc)) == want

    @pytest.mark.parametrize("tamper", [None, *TAMPERS])
    def test_uncertified_heads_agree(self, tamper, monkeypatch):
        # no genuine head fails _bound_certificate, so force every head to:
        # each walk then goes to cycle_audit, and the pool and the tampered
        # inputs must still come out as the oracle says
        monkeypatch.setattr(cyclelab, "_bound_certificate", lambda *args: False)
        if tamper is not None:
            self.test_tampered_inputs_fail_alike(tamper)
            return
        for g, A, desc, walks in _audit_pool():
            want = _walk_oracle(g, walks, A, desc)
            assert _outcome(lambda: audit_cycle_walks(g, walks, A, desc)) == want

    def test_coefficient_bound_failures_match(self, monkeypatch):
        # with C(k, t) taken as 0 for t >= 1, both the certificate and
        # divisibility_audit bound every c_t past c_0 by 0, so only the
        # |c_t| bound can fail
        _, A, g = cover_instance(20)
        desc = APDescriptor(1, 1, 1, len(A))
        walks = _pipeline_walks(g)
        monkeypatch.setattr(cyclelab, "comb", lambda k, t: int(t == 0))
        want = _first_failure(g, walks, A, desc)
        assert want[1] == "cycle coefficient audit failed"
        assert want[2]["coeff_bound_ok"] is False
        assert _outcome(lambda: audit_cycle_walks(g, walks, A, desc)) == want

    def test_divisibility_failures_match(self, monkeypatch):
        # A descriptor wrongly taken as reduced: D*(r + d*j) with r = d = 2
        # keeps every cycle's identity and vanishing, so only d | c_l and
        # r | c_m can fail
        B, _, _ = cover_instance(30)
        desc = APDescriptor(1, 2, 2, 40)
        A = desc.terms()
        g = build_rep_graph(B, A)
        walks = _pipeline_walks(g)
        monkeypatch.setattr(APDescriptor, "is_reduced", property(lambda self: True))
        want = _first_failure(g, walks, A, desc)
        assert want is not None and want[1] == "cycle coefficient audit failed"
        assert _outcome(lambda: audit_cycle_walks(g, walks, A, desc)) == want
        # each cycle alone: the batched audit passes exactly the cycles
        # cycle_audit passes
        for w in walks:
            cyc = _cycle_through(g, w)
            want = _outcome(lambda: cycle_audit(cyc, A, desc))
            assert _outcome(lambda: audit_cycle_walks(g, [w], A, desc)) == want

    def test_malformed_walks(self):
        _, A, g = cover_instance(12)
        desc = APDescriptor(1, 1, 1, len(A))
        fours = walk_length(g.neighbours, 4, None)[0]
        a, b, c, d = fours[0]
        side = [v[0] for v in g.vertices]
        off = next(
            t for t in range(len(side))
            if side[t] == side[a] and t not in (a, c) and (t, b) not in g.edge_lookup
        )
        # two 4-cycles through a and nothing else in common: a closed walk
        # on eight distinct edges that visits a twice
        eight = next(w for w in fours if w[0] == a and not {b, c, d} & set(w))
        for walk, message in [
            ([a, b, c], "cycle length must be even and >= 4, got 3"),
            ([a, b, a, b], "cycle revisits a vertex"),
            ([a, b, c, d] + eight, "cycle revisits a vertex"),
            ([a, c, b, d], "consecutive cycle vertices must alternate sides"),
            ([a, b, off, d], "the walk steps between two vertices with no edge"),
        ]:
            for call in (
                lambda: audit_cycle_walks(g, [[a, b, c, d], walk], A, desc),
                lambda: _cycle_through(g, walk),
            ):
                with pytest.raises(ShapeError, match=re.escape(message)):
                    call()

    @staticmethod
    def runs(walks):
        """Each walk that follows another with the same head, with it."""
        return [(prev, walk) for prev, walk in zip(walks, walks[1:]) if prev[:-1] == walk[:-1]]

    @pytest.mark.parametrize("n", [16, 20, 30])
    def test_later_walk_in_a_run_fails_alike(self, n):
        # each bad walk shares its head with the good walk before it, so
        # only the per-walk step of the batched audit can reject it.  The
        # pipeline's capped walks all start at id 0, which here is adjacent
        # to every id on the other side; the uncapped 6-walks start at
        # every root, some with a missing edge back to it
        _, A, g = cover_instance(n)
        desc = APDescriptor(1, 1, 1, len(A))
        walks = _pipeline_walks(g) + walk_length(g.neighbours, 6, None)[0]
        lookup = g.edge_lookup
        side = [v[0] for v in g.vertices]

        def figure_eight(head, w):
            # back to a head vertex at odd position >= 3 over two chords,
            # so the last two indices are new to the walk
            return w in head[3:-3:2] and (head[-1], w) in lookup and (w, head[0]) in lookup

        def open_end(head, w):
            # a new vertex on the right side, with no edge back to the root
            return (
                w not in head
                and side[w] != side[head[0]]
                and (head[-1], w) in lookup
                and (w, head[0]) not in lookup
            )

        def retrace(head, w):
            # the last edge is the head's last edge again, its index reused
            return w == head[-2]

        for fits, message in [
            (figure_eight, "cycle revisits a vertex"),
            (open_end, "the walk steps between two vertices with no edge"),
            (retrace, "cycle revisits a vertex"),
        ]:
            prev, bad = next(
                (prev, walk[:-1] + [w])
                for prev, walk in self.runs(walks)
                for w in range(g.n_vertices)
                if fits(walk[:-1], w)
            )
            want = _walk_oracle(g, [prev, bad], A, desc)
            assert want == (ShapeError, message, None)
            assert _outcome(lambda: audit_cycle_walks(g, [prev, bad], A, desc)) == want

    @pytest.mark.parametrize("n", [16, 20, 30])
    def test_later_walk_with_doubled_last_terms(self, n):
        # A doubled at the last two indices of a later walk in a run: its
        # products still agree, only its last two edge values are wrong
        _, A, g = cover_instance(n)
        desc = APDescriptor(1, 1, 1, len(A))
        prev, walk = self.runs(_pipeline_walks(g))[0]
        head, w = walk[:-1], walk[-1]
        A = list(A)
        for pair in [(head[-1], w), (w, head[0])]:
            A[g.indices[g.edge_lookup[pair]]] *= 2
        want = _walk_oracle(g, [prev, walk], A, desc)
        assert want[0] is ShapeError and "does not carry term" in want[1]
        assert _outcome(lambda: audit_cycle_walks(g, [prev, walk], A, desc)) == want

    # the prefix states: a head keeps the states of the prefix it shares with
    # the head before, when the root and length are the same, and builds the
    # rest

    @staticmethod
    def prefix_pairs(walks):
        """(p, q, c) for consecutive walks p and q of one length whose heads
        differ, c the number of leading vertices they share."""
        return [
            (p, q, next(t for t in range(len(q)) if p[t] != q[t]))
            for p, q in zip(walks, walks[1:])
            if len(p) == len(q) and p[:-1] != q[:-1]
        ]

    @staticmethod
    def prefix_cases():
        """(graph, A, descriptor, walks): cover graphs with r = d = 1 and
        d = 2, and a quadratic instance with (r, d) != (1, 1), each with
        the pipeline walks and 6- and 4-walks from every root."""
        _, A, g = cover_instance(40)
        cases = [*TestBatchedAudit.tampered_cases(), (g, A, APDescriptor(1, 1, 1, len(A)))]
        for g, A, desc in cases:
            extra = walk_length(g.neighbours, 6, 2000)[0] + walk_length(g.neighbours, 4, None)[0]
            yield g, A, desc, _pipeline_walks(g) + extra

    @staticmethod
    def index_of(graph, a, b):
        return graph.indices[graph.edge_lookup[a, b]]

    def test_head_revisited_after_another(self):
        # A, B, A: the second A keeps only the prefix it shares with B
        seen = 0
        for g, A, desc, walks in self.prefix_cases():
            for p, q, _ in self.prefix_pairs(walks)[:150]:
                for trio in ([p, q, p], [q, p, q]):
                    assert _walk_oracle(g, trio, A, desc) is None
                    assert _outcome(lambda: audit_cycle_walks(g, trio, A, desc)) is None
                    seen += 1
        assert seen > 300

    def test_interleaved_lengths_at_one_root(self):
        # round robin over the lengths: each walk's length differs from the
        # one before, so each head starts again from the root.  Then one
        # term is moved, on the first edge of the last walk
        seen = 0
        for g, A, desc, _ in self.prefix_cases():
            lengths = range(4, 2 * harness.CYCLE_HALF_LENGTH + 1, 2)
            groups = [walks for walks, _ in _walk_lengths(g.neighbours, lengths, 50)]
            root = groups[0][0][0]
            groups = [[w for w in walks if w[0] == root] for walks in groups]
            if sum(map(bool, groups)) < 2:
                continue  # the quadratic instance has 4-cycles only
            seen += 1
            mixed = [w for row in zip_longest(*groups) for w in row if w is not None]
            assert any(len(a) != len(b) for a, b in zip(mixed, mixed[1:]))
            assert _walk_oracle(g, mixed, A, desc) is None
            assert _outcome(lambda: audit_cycle_walks(g, mixed, A, desc)) is None
            A = list(A)
            A[self.index_of(g, *mixed[-1][:2])] += 1
            want = _walk_oracle(g, mixed, A, desc)
            assert want is not None
            assert _outcome(lambda: audit_cycle_walks(g, mixed, A, desc)) == want
        assert seen == 3

    def test_heads_that_differ_at_position_1(self):
        # no state past the root is kept: the edge from the root is new, and
        # a wrong value on it fails the second walk only
        seen = 0
        for g, A, desc, walks in self.prefix_cases():
            for p, q, c in self.prefix_pairs(walks):
                if c != 1 or p[0] != q[0]:
                    continue
                assert _outcome(lambda: audit_cycle_walks(g, [p, q], A, desc)) is None
                j = self.index_of(g, q[0], q[1])
                if j in _cycle_through(g, p).indices:
                    continue
                bad = list(A)
                bad[j] += 1
                want = _walk_oracle(g, [p, q], bad, desc)
                assert want == (ShapeError, f"edge 0 of the cycle does not carry term {j}", None)
                assert _outcome(lambda: audit_cycle_walks(g, [p, q], bad, desc)) == want
                seen += 1
        assert seen > 10

    def test_new_root(self):
        # a walk from another root starts again from that root, and a
        # wrong value on its first edge fails it
        seen = 0
        for g, A, desc, walks in self.prefix_cases():
            for p, q, c in self.prefix_pairs(walks):
                if c != 0:
                    continue
                assert _outcome(lambda: audit_cycle_walks(g, [p, q], A, desc)) is None
                j = self.index_of(g, q[0], q[1])
                if j in _cycle_through(g, p).indices:
                    continue
                bad = list(A)
                bad[j] += 1
                want = _walk_oracle(g, [p, q], bad, desc)
                assert want[0] is ShapeError and "does not carry term" in want[1]
                assert _outcome(lambda: audit_cycle_walks(g, [p, q], bad, desc)) == want
                seen += 1
        assert seen > 5

    def test_bad_new_suffix_after_a_passing_head(self):
        # q shares two or more vertices with p, which passes; the first new
        # vertex of q's head, at position t, or the edge into it, is broken
        # in one way at a time
        def variants(g, A, p, q, t):
            side = [v[0] for v in g.vertices]
            j = self.index_of(g, q[t - 1], q[t])
            p_indices = _cycle_through(g, p).indices
            if q[t] ^ 1 not in q:
                yield "wrong side", q[:t] + [q[t] ^ 1] + q[t + 1 :], A
            yield "revisit", q[:t] + [q[t - 2]] + q[t + 1 :], A
            off = [
                v for v in range(g.n_vertices)
                if side[v] == side[q[t]] and v not in q and (q[t - 1], v) not in g.edge_lookup
            ]
            if off:
                yield "no edge", q[:t] + [off[0]] + q[t + 1 :], A
            before = [self.index_of(g, a, b) for a, b in zip(q[: t - 1], q[1:t])]
            if j > max(p_indices + tuple(before)):
                yield "index", q, A[:j]
            if j not in p_indices:
                yield "value", q, A[:j] + [A[j] + 1] + A[j + 1 :]

        messages = {
            "wrong side": "consecutive cycle vertices must alternate sides",
            "revisit": "cycle revisits a vertex",
            "no edge": "the walk steps between two vertices with no edge",
            "index": "edge index {j} outside progression of length {j}",
            "value": "edge {e} of the cycle does not carry term {j}",
        }
        seen = dict.fromkeys(messages, 0)
        for g, A, desc, walks in self.prefix_cases():
            for p, q, c in self.prefix_pairs(walks)[:300]:
                if not 2 <= c < len(q) - 1:
                    continue
                assert _outcome(lambda: audit_cycle_walks(g, [p], A, desc)) is None
                j = self.index_of(g, q[c - 1], q[c])
                for kind, bad, terms in variants(g, A, p, q, c):
                    want = _walk_oracle(g, [p, bad], terms, desc)
                    assert want[:2] == (ShapeError, messages[kind].format(j=j, e=c - 1))
                    assert _outcome(lambda: audit_cycle_walks(g, [p, bad], terms, desc)) == want
                    seen[kind] += 1
        assert min(seen.values()) > 0, seen

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_perturbed_walk_lists_agree(self, data):
        g, A, desc, walks = data.draw(st.sampled_from(_audit_pool()))
        n = len(walks)
        start = data.draw(st.integers(0, n - 1))
        picks = data.draw(
            st.one_of(
                # a stretch of the walk order: runs of a head stay together
                st.integers(1, 30).map(lambda size: list(range(start, min(n, start + size)))),
                # sorted picks keep some runs; unsorted ones reorder the
                # walks and mix their lengths
                st.lists(st.integers(0, n - 1), min_size=1, max_size=30).map(sorted),
                st.lists(st.integers(0, n - 1), min_size=1, max_size=30),
            )
        )
        walks = [list(walks[i]) for i in picks]
        for _ in range(data.draw(st.integers(0, 2))):
            walk = walks[data.draw(st.integers(0, len(walks) - 1))]
            walk[-1] = data.draw(st.integers(0, g.n_vertices - 1))
        want = _walk_oracle(g, walks, A, desc)
        assert _outcome(lambda: audit_cycle_walks(g, walks, A, desc)) == want

    def test_bound_reaches_the_last_two_indices(self):
        # 4-cycles (0, 1)-(1, 3)-(0, 2)-(1, w) on terms 1..120: the head's
        # indices are 2 and 5, and w = 60 closes with indices 119 and 59,
        # so c_1 = -57 is within 2*C(2, 1)*119 but not 2*C(2, 1)*5
        elements = (1, 2, 3, 4, 60)
        pos = {x: i for i, x in enumerate(elements)}
        pairs = [(1, 3), (2, 3), (2, 4), (1, 4), (2, 60), (1, 60)]
        g = hand_built(elements, tuple(Edge(pos[u], pos[v], u * v - 1, u * v) for u, v in pairs))
        A = list(range(1, 121))
        desc = APDescriptor(1, 1, 1, len(A))
        walks = walk_length(g.neighbours, 4, None)[0]
        ids = [g.vertices.index(v) for v in [(0, 0), (1, 2), (0, 1), (1, 4)]]
        assert ids in walks[1:] and walks[walks.index(ids) - 1][:-1] == ids[:-1]
        cyc = _cycle_through(g, ids)
        assert cyc.indices == (2, 5, 119, 59)
        assert cycle_poly(cyc, desc).coeffs == (0, -57, 57)
        assert _walk_oracle(g, walks, A, desc) is None
        assert _outcome(lambda: audit_cycle_walks(g, walks, A, desc)) is None

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bound_certificate_covers_every_closing_pair(self, data):
        # a head certified by _bound_certificate passes the explicit bound
        # loop for every closing pair x, y >= 0.  Genuine heads (E and O of
        # distinct indices >= 0) are always certified; arbitrary E and O
        # near the bounds are certified or not
        k = data.draw(st.integers(2, 5))
        if data.draw(st.booleans()):
            size = 2 * k - 2
            idx = data.draw(st.lists(st.integers(0, 40), min_size=size, max_size=size, unique=True))
            top0 = max(idx)
            even, odd = elementary_symmetric(idx[1::2]), elementary_symmetric(idx[0::2])
        else:
            # at top0 >= 1 about half of these heads are certified.  At
            # top0 = 0 a certified head has delta_t = 0 for t >= 1, so O = E
            # there, and the sizes reach past 2*C(k, t) for the S_t
            # condition to decide
            top0 = data.draw(st.one_of(st.just(0), st.integers(1, 40)))
            sizes = [comb(k, t) * (top0 or 3) ** (t - 1) for t in range(1, k + 1)]
            even = [data.draw(st.integers(-s, s)) for s in sizes]
            odd = even
            if top0:
                odd = [
                    data.draw(st.one_of(st.just(e), st.integers(-s, s))) for e, s in zip(even, sizes)
                ]
            idx = None
        delta = [e - o for e, o in zip(even, odd)] + [0]
        twice_comb = [2 * comb(k, t) for t in range(k + 1)]
        certified = cyclelab._bound_certificate(delta, even, odd, top0, twice_comb)
        if idx is not None:
            assert certified
        if not certified:
            return
        for x in range(top0 + 21):
            for y in range(top0 + 21):
                top = max(top0, x, y)
                coeffs = delta[:1] + [
                    delta[t] + y * even[t - 1] - x * odd[t - 1] for t in range(1, k + 1)
                ]
                assert all(abs(c) <= 2 * comb(k, t) * top**t for t, c in enumerate(coeffs))

    def test_vanishing_end_coefficients_go_to_cycle_audit(self, monkeypatch):
        # l = 1 and m = k are read off per walk only when c_1 and c_k are
        # nonzero; every pipeline head is certified, so cycle_audit gets
        # exactly the walks with c_1 = 0 or c_k = 0, in walk order.  Cover
        # n = 12 has one: a capped 6-cycle with coefficients (0, 0, -20, 20)
        audit = cyclelab.cycle_audit
        deferred = []

        def spy(cycle, A, desc):
            deferred.append(cycle.indices)
            return audit(cycle, A, desc)

        monkeypatch.setattr(cyclelab, "cycle_audit", spy)
        want = []
        for n in range(12, 41):
            _, A, g = cover_instance(n)
            desc = APDescriptor(1, 1, 1, len(A))
            walks = _pipeline_walks(g)
            for cycle in (_cycle_through(g, w) for w in walks):
                coeffs = audit(cycle, A, desc).coeffs
                if coeffs[1] == 0 or coeffs[-1] == 0:
                    want.append(cycle.indices)
                    assert n > 12 or coeffs == (0, 0, -20, 20)
            audit_cycle_walks(g, walks, A, desc)
            assert deferred == want != []

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_vanishing_forces_end_divisibility(self, data):
        # why no reduced instance decides the c_k guard: with gcd(r, d) = 1,
        # sum c_t*r^(k-t)*d^t = 0 divided by r^(k-m)*d^l leaves, mod r, only
        # c_m*d^(m-l) and, mod d, only c_l*r^(m-l), so r | c_m and d | c_l.
        # A vanishing walk with c_k = 0 thus meets r | c_m already.  Random
        # head indices, small ones making c_k = 0 in a few percent of the
        # examples; the last two, x and y, are solved for vanishing
        k = data.draw(st.integers(2, 5))
        size = 2 * k - 2
        top = data.draw(st.sampled_from((8, 60)))
        head = data.draw(st.lists(st.integers(0, top), min_size=size, max_size=size))
        r, d = data.draw(st.integers(1, 60)), data.draw(st.integers(1, 60))
        assume(gcd(r, d) == 1)
        even, odd = elementary_symmetric(head[1::2]), elementary_symmetric(head[0::2])
        weights = [r ** (k - t) * d**t for t in range(k + 1)]
        delta = [e - o for e, o in zip(even, odd)] + [0]
        s0 = sum(map(mul, delta, weights))
        ew, ow = sum(map(mul, even, weights[1:])), sum(map(mul, odd, weights[1:]))
        # the sum is s0 + y*ew - x*ow, and ew, ow > 0
        g = gcd(ew, ow)
        assume(s0 % g == 0)
        x = s0 // g * pow(ow // g, -1, ew // g) % (ew // g)
        y = (x * ow - s0) // ew
        coeffs = symmetric_coefficients(head[1::2] + [y], head[0::2] + [x])
        assert sum(map(mul, coeffs, weights)) == 0
        nonzero = [c for c in coeffs if c]
        assume(nonzero)
        assert nonzero[-1] % r == 0 and nonzero[0] % d == 0

    def test_oracle_verdict_is_final(self, monkeypatch):
        # with cycle_audit passing every cycle, a walk handed to it passes.
        # The head of the first walks carries a wrong term on its last edge,
        # so all its walks go to cycle_audit; the heads after it share its
        # first vertices, keep the states before that edge, and are still
        # certified, so cycle_audit sees no other walk
        _, A, g = cover_instance(20)
        desc = APDescriptor(1, 1, 1, len(A))
        walks = _pipeline_walks(g)
        p, q, _ = next((p, q, c) for p, q, c in self.prefix_pairs(walks) if c >= 2)
        head = p[:-1]
        j = self.index_of(g, head[-2], head[-1])
        bad = [w for w in walks if w[:-1] == head]

        def certified(w):
            cycle = _cycle_through(g, w)
            coeffs = cycle_poly(cycle, desc).coeffs
            return j not in cycle.indices and coeffs[1] != 0 and coeffs[-1] != 0

        good = [w for w in walks[walks.index(q) :] if certified(w)][:40]
        assert good[0][:2] == head[:2] and len(good) == 40
        A = list(A)
        A[j] += 1
        message = f"edge {len(head) - 2} of the cycle does not carry term {j}"
        assert _walk_oracle(g, bad, A, desc) == (ShapeError, message, None)
        assert _walk_oracle(g, good, A, desc) is None
        handed = []
        monkeypatch.setattr(cyclelab, "cycle_audit", lambda cycle, A, desc: handed.append(cycle))
        audit_cycle_walks(g, bad + good, A, desc)
        assert handed == [_cycle_through(g, w) for w in bad]
