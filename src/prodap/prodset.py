"""Product sets with representation tracking, the doubled bipartite
representation graph, and longest-AP search with a brute-force oracle.

The representation graph takes two copies of the base set as color classes
and places one edge per progression term, joining the lexicographically first
factor pair.  Doubling keeps the graph simple and bipartite even for square
terms, at the cost of a constant factor in the vertex count.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .apcore import APDescriptor, factor_pairs
from .errors import CapacityError, InputError
from .exactnum import QuadElem

DEFAULT_EXACT_LIMIT = 200_000
DEFAULT_ORACLE_LIMIT = 10_000


def sort_key(x):
    """Deterministic total order: rationals by value, quadratic elements by
    coordinates (a, b)."""
    if isinstance(x, QuadElem):
        return x.sort_key
    return (Fraction(x), Fraction(0))


def _check_elements(B):
    if not B:
        raise InputError("base set must be nonempty")
    seen = set()
    for b in B:
        if b in seen:
            raise InputError(f"duplicate element {b} in base set")
        seen.add(b)
        if isinstance(b, QuadElem):
            if b.is_zero:
                raise InputError("zero element makes products degenerate")
        elif b == 0:
            raise InputError("zero element makes products degenerate")


@dataclass(frozen=True)
class ProductSet:
    """All pairwise products of a base set, with every representing index pair."""

    base: tuple
    products: tuple
    reps: dict  # product -> tuple of (i, j) index pairs, i <= j, lex order

    def __contains__(self, x):
        return x in self.reps

    def __len__(self):
        return len(self.products)


def product_set(B) -> ProductSet:
    """Enumerate {b*b' : b, b' in B} with all unordered representing pairs."""
    _check_elements(B)
    base = tuple(sorted(B, key=sort_key))
    reps: dict = {}
    for i, x in enumerate(base):
        for j in range(i, len(base)):
            p = x * base[j]
            reps.setdefault(p, []).append((i, j))
    products = tuple(sorted(reps, key=sort_key))
    reps = {p: tuple(pairs) for p, pairs in reps.items()}
    return ProductSet(base, products, reps)


@dataclass(frozen=True)
class Edge:
    """One progression term: value = elements[u] * elements[v], u-side copy 1,
    v-side copy 2, u <= v in the element order."""

    u: int
    v: int
    index: int
    value: object


@dataclass(frozen=True)
class RepGraph:
    """Doubled bipartite representation graph.

    Vertices are (side, element index) with side 0 and 1 the two copies of
    the base set; each edge joins (0, u) to (1, v).

    Vertices are ordered by element value, then side: ``vertex_rank`` holds
    the dense rank of (sort_key(value), side), so the order follows values,
    not positions in ``elements``, and vertices with equal keys share a rank.
    The rank, the adjacency and the edge lookup are computed once per graph;
    caching them is sound only because the dataclass is frozen.
    """

    elements: tuple
    edges: tuple[Edge, ...]

    @property
    def n_vertices(self) -> int:
        return 2 * len(self.elements)

    def vertex_value(self, vertex):
        return self.elements[vertex[1]]

    @cached_property
    def vertex_rank(self) -> dict:
        # every value sits on both sides, so the dense rank of (key, side)
        # is twice the dense rank of the key, plus the side
        keys = [sort_key(x) for x in self.elements]
        rank: dict = {}
        dense, prev = -1, None
        for i in sorted(range(len(keys)), key=keys.__getitem__):
            if dense < 0 or keys[i] != prev:
                dense, prev = dense + 1, keys[i]
            rank[(0, i)], rank[(1, i)] = 2 * dense, 2 * dense + 1
        return rank

    @cached_property
    def adjacency(self) -> dict:
        adj: dict = {}
        for e in self.edges:
            a, b = (0, e.u), (1, e.v)
            adj.setdefault(a, []).append((b, e))
            adj.setdefault(b, []).append((a, e))
        rank = self.vertex_rank
        return {
            v: sorted(nbrs, key=lambda item: rank[item[0]])
            for v, nbrs in sorted(adj.items())
        }

    @cached_property
    def edge_lookup(self) -> dict:
        """Edge joining two vertices, keyed by the endpoint pair in either
        order; of several edges on one pair the last one wins."""
        table = {}
        for e in self.edges:
            a, b = (0, e.u), (1, e.v)
            table[(a, b)] = table[(b, a)] = e
        return table

    def vertex_order_key(self, vertex) -> int:
        return self.vertex_rank[vertex]


def build_rep_graph(B, A) -> RepGraph:
    """One edge per term of A, on the term's first factor pair in the
    element order."""
    _check_elements(B)
    base = tuple(sorted(B, key=sort_key))
    index_of = {b: i for i, b in enumerate(base)}
    edges = tuple(
        Edge(index_of[x], index_of[y], idx, a)
        for idx, (a, (x, y)) in enumerate(zip(A, factor_pairs(A, base)))
    )
    return RepGraph(base, edges)


@dataclass(frozen=True)
class APSearchResult:
    """Maximum-length progression found in a sorted set (lengths 1 and 2 are
    reported but are not called progressions)."""

    start: object
    diff: object
    length: int
    indices: tuple[int, ...]

    def descriptor(self) -> APDescriptor | None:
        """APDescriptor with D = 1, when the result is a genuine progression
        over positive integers."""
        if self.length < 3:
            return None
        s, d = self.start, self.diff
        if isinstance(s, Fraction):
            if s.denominator != 1 or Fraction(d).denominator != 1:
                return None
            s, d = s.numerator, Fraction(d).numerator
        if s < 1 or d < 1:
            return None
        return APDescriptor(1, int(s), int(d), self.length)


def _validate_search_input(S, limit, default_limit, other_mode_hint):
    if not S:
        raise InputError("cannot search an empty set")
    for x in S:
        if isinstance(x, QuadElem):
            raise InputError("longest-AP search needs ordered values; got a quadratic element")
    S = sorted(S)
    for i in range(1, len(S)):
        if S[i] == S[i - 1]:
            raise InputError(f"duplicate element {S[i]}")
    cap = limit if limit is not None else default_limit
    if len(S) > cap:
        raise CapacityError(
            f"set size {len(S)} exceeds limit {cap}; {other_mode_hint}",
            limit=cap,
        )
    return S


def _indices_of_run(S, start, diff, length):
    out = []
    x = start
    for _ in range(length):
        out.append(bisect_left(S, x))
        x = x + diff
    return tuple(out)


def _best_pair_result(S):
    """Length-2 baseline: smallest gap, then smallest start."""
    if len(S) == 1:
        return (1, 0, S[0])
    best = None
    for i in range(len(S) - 1):
        gap = S[i + 1] - S[i]
        if best is None or gap < best[1]:
            best = (2, gap, S[i])
    return best


def _longest_ap_exact(S):
    n = len(S)
    if n <= 2:
        length, diff, start = _best_pair_result(S)
        return APSearchResult(start, diff, length, tuple(range(length)))
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
    return APSearchResult(
        best_start, best_diff, best_len, _indices_of_run(S, best_start, best_diff, best_len)
    )


def _longest_ap_oracle(S):
    """Plain enumeration over all (start, difference) pairs; no pruning."""
    n = len(S)
    if n <= 2:
        length, diff, start = _best_pair_result(S)
        return APSearchResult(start, diff, length, tuple(range(length)))
    member = set(S)
    best_len, best_diff, best_start = _best_pair_result(S)
    for i in range(n - 1):
        for j in range(i + 1, n):
            x, d = S[i], S[j] - S[i]
            count = 2
            nxt = S[j] + d
            while nxt in member:
                count += 1
                nxt += d
            if (-count, d, x) < (-best_len, best_diff, best_start):
                best_len, best_diff, best_start = count, d, x
    return APSearchResult(
        best_start, best_diff, best_len, _indices_of_run(S, best_start, best_diff, best_len)
    )


def longest_ap(S, mode: str = "exact", limit: int | None = None) -> APSearchResult:
    """Maximum-length arithmetic progression inside a set of exact values.

    Ties break by smallest difference, then smallest start.  Both modes agree;
    the oracle is a deliberately unoptimized cross-check.
    """
    if mode == "exact":
        S = _validate_search_input(S, limit, DEFAULT_EXACT_LIMIT, "pass a larger limit")
        return _longest_ap_exact(S)
    if mode == "oracle":
        S = _validate_search_input(S, limit, DEFAULT_ORACLE_LIMIT, "use exact mode")
        return _longest_ap_oracle(S)
    raise InputError(f"unknown mode {mode!r}; expected 'exact' or 'oracle'")


def contains_ap(S, desc: APDescriptor) -> bool:
    """True iff every term of the descriptor is in the sorted sequence S."""
    for t in desc.terms():
        i = bisect_left(S, t)
        if i >= len(S) or S[i] != t:
            return False
    return True
