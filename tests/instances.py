"""Seeded instances shared by the test modules."""

import random
from fractions import Fraction
from math import gcd, isqrt

from prodap.apcore import APDescriptor, factor_pairs
from prodap.exactnum import QuadElem
from prodap.prodset import APSearchResult, Edge, RepGraph, sort_key
from prodap.rationalize import QuadInstance, make_quad_instance


def random_quad_chain_instance(seed: int, m: int) -> QuadInstance:
    """Seeded chain instance: consecutive targets share an element, so the
    graph is connected and parity arguments bite."""
    rng = random.Random(f"quad-chain:{seed}:{m}")
    while True:
        L = rng.randint(4, 7)
        start = Fraction(rng.randint(2, 9), rng.choice([1, 2]))
        targets = [start + i for i in range(L)]
        coeff = Fraction(rng.randint(1, 7), rng.randint(1, 5))
        b = QuadElem(Fraction(0), coeff, m)
        elements = [b]
        ok = True
        for t in targets:
            b = QuadElem.from_rational(t, m) / b
            if b in elements or b.is_zero:
                ok = False
                break
            elements.append(b)
        if not ok:
            continue
        return make_quad_instance(elements, targets, m)


def longest_ap_oracle(S) -> APSearchResult:
    """Longest progression in a set of distinct ordered values by plain
    enumeration over every (start, next term) pair, with no pruning; ties
    break by smallest difference, then smallest start, as in
    ``prodset.longest_ap``.  A one-element set is a run of length 1 with
    difference 0."""
    S = sorted(S)
    member = set(S)
    length, diff, start = 1, 0, S[0]
    for i, x in enumerate(S):
        for y in S[i + 1 :]:
            d, count = y - x, 2
            while x + count * d in member:
                count += 1
            if (-count, d, x) < (-length, diff, start):
                length, diff, start = count, d, x
    indices = tuple(S.index(start + k * diff) for k in range(length))
    return APSearchResult(start, diff, length, indices)


def inflated_instance(rng):
    """A reduced progression with 1 in the set, scaled by random small primes
    (p*p on A and p on B, or p on A and B | p*B)."""
    while True:
        r, d = rng.randint(1, 9), rng.randint(1, 6)
        if gcd(d, r) == 1:
            break
    L = rng.randint(3, 6)
    A = [r + d * i for i in range(L)]
    B = sorted(set(A) | {1})
    for _ in range(rng.randint(1, 3)):
        p = rng.choice([2, 3, 5, 7])
        if rng.random() < 0.5:
            A = [p * p * a for a in A]
            B = [p * b for b in B]
        else:
            A = [p * a for a in A]
            B = sorted(set(B) | {p * b for b in B})
    return A, B


def inflated_reduce_instance(L, r, d, p1, p2, q):
    """A claim for ``prodap reduce``, inflated like the benchmark's long
    reduction inputs: with gcd(r, d) = 1, p1 * p2 | d and q dividing neither,
    each term U * V_i has U = p1 * p2 * q and V_i = p2 * (r + d*i).  The start
    holds p1 once (a k1 step), p2 twice (a partition step), and q is left for
    the gcd extraction.  Returns (elements, claim)."""
    U = p1 * p2 * q
    V = [p2 * (r + d * i) for i in range(L)]
    return sorted(set(V) | {U}), APDescriptor(U * p2, r, d, L)


def primes_between(lo, hi):
    """Primes p with lo <= p <= hi, ascending, from a plain sieve of
    Eratosthenes over [0, hi] that shares no code with ``prodap``."""
    if hi < 2:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, isqrt(hi) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, hi + 1, p)))
    return [p for p in range(max(lo, 2), hi + 1) if sieve[p]]


def rep_graph_oracle(B, A) -> tuple[tuple, tuple]:
    """(elements, edges) of the representation graph as the per-term build
    made them: the base sorted by ``sort_key``, one ``Edge`` per term on its
    first factor pair."""
    base = tuple(sorted(B, key=sort_key))
    index_of = {b: i for i, b in enumerate(base)}
    edges = tuple(
        Edge(index_of[x], index_of[y], idx, a)
        for idx, (a, (x, y)) in enumerate(zip(A, factor_pairs(A, base)))
    )
    return base, edges


def graph_from_edges(elements, edges) -> RepGraph:
    """The RepGraph of hand-made ``Edge`` objects: their fields transposed
    into the four edge columns."""
    edges = tuple(edges)
    fields = ("u", "v", "index", "value")
    return RepGraph(elements, *([getattr(e, f) for e in edges] for f in fields))


def assert_graph_matches_oracle(g: RepGraph, edges) -> None:
    """g against the per-Edge construction of its edges: the columns, the
    Edge at each position, the vertex numbering, each edge's end ids, each
    id's neighbours, and the edge found at each id pair."""
    edges = tuple(edges)
    assert g == graph_from_edges(g.elements, edges)
    assert g.edges == edges
    assert (g.us, g.vs, g.indices, g.values) == tuple(
        tuple(getattr(e, f) for e in edges) for f in ("u", "v", "index", "value")
    )
    keys = [sort_key(x) for x in g.elements]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    vertices = tuple((side, i) for i in order for side in (0, 1))
    assert g.vertices == vertices
    assert all(side == t & 1 for t, (side, _) in enumerate(vertices))
    pairs = [(vertices.index((0, e.u)), vertices.index((1, e.v))) for e in edges]
    assert g.ends == (tuple(a for a, _ in pairs), tuple(b for _, b in pairs))
    rows = [[] for _ in vertices]
    for a, b in pairs:
        rows[a].append(b)
        rows[b].append(a)
    assert g.neighbours == tuple(tuple(sorted(row)) for row in rows)
    lookup = dict(zip(pairs, edges))
    lookup.update(zip([(b, a) for a, b in pairs], edges))
    assert g.edge_lookup.keys() == lookup.keys()
    for pair, e in lookup.items():
        assert g.edges[g.edge_lookup[pair]] == e
