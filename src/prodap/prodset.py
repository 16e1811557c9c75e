"""Product sets (the sorted distinct products), the doubled bipartite
representation graph, and exact longest-AP search.

The representation graph takes two copies of the base set as color classes
and places one edge per progression term, joining the lexicographically first
factor pair (``apcore.first_pairs``).  Doubling keeps the graph simple and
bipartite even for square terms, at the cost of a constant factor in the
vertex count.

Longest-AP search runs one of two exact kernels, chosen from the input
alone: a big-int bitset kernel for dense int sets and a filtered pair kernel
for the rest (see ``longest_ap``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement, count, filterfalse, repeat
from operator import floordiv, itemgetter, mod, sub

from .apcore import APDescriptor, factor_pairs, uncovered_term
from .errors import CapacityError, InputError
from .exactnum import QuadElem

DEFAULT_EXACT_LIMIT = 200_000
# The bitset kernel takes int sets whose span is at most BITSET_SPAN_RATIO
# bits per element; sparser sets go to the pair kernel.
BITSET_SPAN_RATIO = 64


def sort_key(x):
    """Deterministic total order: rationals by value, quadratic elements by
    coordinates (a, b).  Python compares ints and Fractions exactly, so a
    rational keys as (x, 0) without conversion."""
    if isinstance(x, QuadElem):
        return x.sort_key
    return (x, 0)


def _repeat(items):
    """The first item equal to an earlier one, or None."""
    seen = set()
    for x in items:
        if x in seen:
            return x
        seen.add(x)
    return None


def _has_quad(items) -> bool:
    return any(issubclass(t, QuadElem) for t in set(map(type, items)))


def _check_elements(B):
    if not B:
        raise InputError("base set must be nonempty")
    members = set(B)
    if len(members) < len(B):
        raise InputError("duplicate element {} in base set", _repeat(B))
    # a zero QuadElem equals 0 and hashes like it
    if 0 in members:
        raise InputError("zero element makes products degenerate")


@dataclass(frozen=True)
class ProductSet:
    """All pairwise products of a base set, sorted and distinct."""

    products: tuple

    @cached_property
    def members(self) -> frozenset:
        return frozenset(self.products)

    def __contains__(self, x):
        return x in self.members

    def __len__(self):
        return len(self.products)


def product_set(B) -> ProductSet:
    """Enumerate {b*b' : b, b' in B}, ordered by ``sort_key``; rationals
    already sort by value, so only quadratic bases sort through the key."""
    _check_elements(B)
    products = {x * y for x, y in combinations_with_replacement(B, 2)}
    return ProductSet(tuple(sorted(products, key=sort_key if _has_quad(B) else None)))


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
    the base set; edge p joins (0, us[p]) to (1, vs[p]) and carries the term
    of progression index indices[p], of value values[p].  The edges are
    held as these four parallel columns, and the graph is built from them
    alone; ``edges`` builds the ``Edge`` of each position on first access.

    The graph is simple, as in the paper: construction raises InputError
    for two equal elements, an edge endpoint out of range, a second edge on
    one vertex pair, or an edge index used twice.

    Every graph walk runs on one integer vertex id: element i of value rank
    r (by sort_key) has ids 2r on side 0 and 2r + 1 on side 1, so an id's
    side is ``id & 1`` and ids follow values, not positions in
    ``elements``.  ``vertices`` maps an id to its vertex; ``ends`` holds
    each edge's side-0 id and side-1 id; ``neighbours`` holds each id's
    neighbour ids, ascending; and ``edge_lookup`` maps two ids to the
    position of the edge joining them.  The last two come from ``ends``.
    All of them are computed once per graph; caching them is sound only
    because the dataclass is frozen.
    """

    elements: tuple
    us: tuple
    vs: tuple
    indices: tuple
    values: tuple

    def __post_init__(self):
        for name in ("elements", "us", "vs", "indices", "values"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        n = len(self.elements)
        if len(set(self.elements)) < n:
            raise InputError("element {} appears twice", _repeat(self.elements))
        us, vs, indices = self.us, self.vs, self.indices
        if us and not (0 <= min(us) and max(us) < n and 0 <= min(vs) and max(vs) < n):
            for u, v, index, value in zip(us, vs, indices, self.values):
                if not (0 <= u < n and 0 <= v < n):
                    raise InputError(
                        "edge endpoint out of range: (u, v) = ({}, {}) on edge {} of value {}",
                        u, v, index, value,
                    )
        # sets first, the repeat itself only for the message
        if len(set(zip(us, vs))) < len(us):
            raise InputError("second edge on the vertex pair (u, v) = {}", _repeat(zip(us, vs)))
        if len(set(indices)) < len(indices):
            raise InputError("edge index {} used twice", _repeat(indices))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The Edge at each position."""
        return tuple(map(Edge, self.us, self.vs, self.indices, self.values))

    @property
    def n_vertices(self) -> int:
        return 2 * len(self.elements)

    @cached_property
    def vertices(self) -> tuple:
        """The vertex (side, i) of each id: every value sits on both sides,
        so value rank r gives ids 2r and 2r + 1."""
        elements = self.elements
        keys = list(map(sort_key, elements)) if _has_quad(elements) else elements
        order = sorted(range(len(keys)), key=keys.__getitem__)
        return tuple((side, i) for i in order for side in (0, 1))

    @cached_property
    def ends(self) -> tuple[tuple, tuple]:
        """The side-0 id and the side-1 id of each edge, in edge order."""
        first = [0] * len(self.elements)
        for t, (_, i) in enumerate(self.vertices[0::2]):
            first[i] = 2 * t
        second = [t + 1 for t in first]
        return tuple(map(first.__getitem__, self.us)), tuple(map(second.__getitem__, self.vs))

    @cached_property
    def neighbours(self) -> tuple:
        """For each id, the ascending ids of its neighbours."""
        rows: list = [[] for _ in range(self.n_vertices)]
        for a, b in zip(*self.ends):
            rows[a].append(b)
            rows[b].append(a)
        return tuple(map(tuple, map(sorted, rows)))

    @cached_property
    def edge_lookup(self) -> dict:
        """Position of the edge joining two vertex ids, keyed by the id pair
        in either order."""
        a, b = self.ends
        table = dict(zip(zip(a, b), count()))
        table.update(zip(zip(b, a), count()))
        return table


def build_rep_graph(B, A, pairs=None) -> RepGraph:
    """One edge per term of A, on the term's first factor pair in the
    element order.

    ``pairs`` is None, and every term's pair is searched, or, for a set of
    positive ints, the dict ``apcore.verify_coverage(A, B)`` returns: the
    first pair of each term outside the first column x0 * B, x0 = min(B).
    Every other term then takes (x0, a // x0), its first pair when x0 | a
    and a // x0 is in B; a term that fails this raises the search's
    RepresentationError."""
    _check_elements(B)
    base = tuple(sorted(B, key=sort_key if _has_quad(B) else None))
    index_of = {b: i for i, b in enumerate(base)}
    if pairs is None:
        pairs = factor_pairs(A, base)
    else:
        x0 = base[0]
        column = list(filterfalse(pairs.__contains__, A))
        cofactors = list(map(floordiv, column, repeat(x0)))
        if any(map(mod, column, repeat(x0))) or not all(map(index_of.__contains__, cofactors)):
            term = next(a for a in column if a % x0 or a // x0 not in index_of)
            raise uncovered_term(A, A.index(term))
        firsts = pairs | dict(zip(column, zip(repeat(x0), cofactors)))
        pairs = list(map(firsts.__getitem__, A))
    return RepGraph(
        base,
        map(index_of.__getitem__, map(itemgetter(0), pairs)),
        map(index_of.__getitem__, map(itemgetter(1), pairs)),
        range(len(pairs)),
        A,
    )


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
    gaps = list(map(sub, S[1:], S))
    gap = min(gaps)
    return (2, gap, S[gaps.index(gap)])


def _bitset_kernel(S, best):
    """Longest run of an int set held as one Python int, bit x - S[0] set for
    each x, over every difference d = 1, 2, ..., seeded with ``best``.

    A run of length t with difference d starts at every set bit of the AND of
    t copies shifted by 0, d, ..., (t-1)d, built by doubling in about
    2*bit_length(t) big-int operations.  Each d tests t = best + 1 and extends
    only on a hit; the lowest set bit is the smallest start, so ascending d
    keeps the (longest, smallest d, smallest start) order.  Past d = span //
    best no run can be longer, and the pass ends."""
    lo, hi = S[0], S[-1]
    span = hi - lo
    # one ASCII digit per value, "1" at position hi - x: the set's base-2
    # numeral, which int() reads with no decimal digit limit
    flags = bytearray(b"0") * (span + 1)
    for x in S:
        flags[hi - x] = 49
    bits = int(flags, 2)
    best_len, best_diff, best_start = best
    d = 0
    while d < span // best_len:
        d += 1
        t = best_len + 1
        run, have = bits, 1
        while run and 2 * have <= t:
            run &= run >> (have * d)
            have *= 2
        if run and have < t:
            run &= run >> ((t - have) * d)
        if run:
            while (nxt := run & (bits >> (t * d))):
                run, t = nxt, t + 1
            best_len, best_diff, best_start = t, d, lo + (run & -run).bit_length() - 1
    return best_len, best_diff, best_start


def _pair_kernel(S, best):
    """Every run anchored at its top pair a < b, a taken in descending order,
    seeded with ``best``.

    Only b with c = 2a - b in S tops a run longer than two, and a pair run
    never beats the length-2 baseline, so each anchor's window goes through
    one C-speed set intersection that returns those third terms c; they are
    walked in descending c, which is ascending d = a - c, and the reach
    break, the top skip and the downward extension run in Python.

    The window holds only the b that can still beat or tie the record.  A
    run that beats it has best + 1 terms down to a - (best - 1)d >= lo, so
    d <= (a - lo) / (best - 1); one that ties has best terms and a d no
    larger than the record's, so d <= min((a - lo) / (best - 2), best_diff).
    The window ends at a plus the larger bound: narrow where S is dense, at
    its small values.  While the record has two terms, c >= lo alone gives
    d <= a - lo.  One cut serves ints and Fractions: each quotient is
    rounded up, which only widens the window, so it may hold a b past the
    exact one.  Such a b has d > (a - lo) / (best - 1), so its run reaches
    at most best terms, and either fewer or d > best_diff as well: it fails
    the reach test, which ends the loop."""
    best_len, best_diff, best_start = best
    member = set(S)
    lo = S[0]
    for i in range(len(S) - 2, 0, -1):
        a = S[i]
        if best_len == 2:
            cut = a - lo
        else:
            # -((lo - a) // k) is (a - lo) / k rounded up, for ints and Fractions
            cut = max(-((lo - a) // (best_len - 1)), min(-((lo - a) // (best_len - 2)), best_diff))
        window = S[i + 1 : bisect_right(S, a + cut, i + 1)]
        for c in sorted(member.intersection(map(sub, repeat(a + a), window)), reverse=True):
            d = a - c
            # longest run topped by a, b cannot beat the record; an equal
            # (length, d) may still start lower, so the d test is strict
            reach = (a - lo) // d + 2
            if reach < best_len or (reach == best_len and d > best_diff):
                break
            nxt = c - d
            if best_len > 3 and nxt not in member:
                continue  # three terms cannot reach the record
            if a + d + d in member:
                continue  # top pair of a longer run, met at a higher anchor
            count = 3
            while nxt in member:
                count += 1
                nxt -= d
            start = nxt + d
            if count > best_len or count == best_len and (
                d < best_diff or d == best_diff and start < best_start
            ):
                best_len, best_diff, best_start = count, d, start
    return best_len, best_diff, best_start


def longest_ap(S, limit: int | None = None) -> APSearchResult:
    """Maximum-length arithmetic progression inside a set of exact values, or
    inside the products of a ``ProductSet``, at most ``limit`` of them
    (DEFAULT_EXACT_LIMIT when None).  Ties break by smallest difference, then
    smallest start.

    A ProductSet's products are sorted and distinct by construction, so only
    other input is sorted and scanned for duplicates.  The bitset kernel
    takes int sets whose span is at most BITSET_SPAN_RATIO bits per element,
    the pair kernel every other set (Fractions, huge elements, spread-out
    ints); both are exact over all differences.
    """
    if limit is not None and limit < 1:
        raise InputError("the longest-AP limit must be positive, got {}", limit)
    presorted = isinstance(S, ProductSet)
    if presorted:
        S = S.products
    if not S:
        raise InputError("cannot search an empty set")
    if _has_quad(S):
        raise InputError("longest-AP search needs ordered values; got a quadratic element")
    if not presorted:
        S = sorted(S)
        if len(set(S)) < len(S):
            raise InputError("duplicate element {}", _repeat(S))
    cap = limit if limit is not None else DEFAULT_EXACT_LIMIT
    if len(S) > cap:
        raise CapacityError("set size {} exceeds limit {}; pass a larger limit", len(S), cap)
    best = _best_pair_result(S)
    if len(S) > 2:
        if set(map(type, S)) == {int} and S[-1] - S[0] <= BITSET_SPAN_RATIO * len(S):
            best = _bitset_kernel(S, best)
        else:
            best = _pair_kernel(S, best)
    length, diff, start = best
    return APSearchResult(start, diff, length, _indices_of_run(S, start, diff, length))
