"""Prime-window irregularity analysis.

For a reduced progression D*(r + d*i) of length L, the window holds the
primes strictly between L/3 and L/2 that do not divide the difference.  An
edge is p-irregular when its value carries more factors p than the common
factor D does, that is when p | r + d*i.  Those i form one residue class mod
p, so each window prime marks two or three terms, read off from
``APDescriptor.first_divisible``.  A greedy pass picks an independent set of
irregular edges (at most one per prime), which is then checked to span a
forest.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import count, repeat

from .apcore import APDescriptor
from .errors import InputError, ShapeError
from .exactnum import DEFAULT_TABLE
from .prodset import RepGraph


@dataclass(frozen=True)
class PrimeWindow:
    """Primes p with L/3 < p < L/2 and p not dividing d, ascending."""

    primes: tuple[int, ...]


def _window_range(L: int) -> range:
    """The integers strictly between L/3 and L/2."""
    return range(L // 3 + 1, (L + 1) // 2)


def prime_window(desc: APDescriptor) -> PrimeWindow:
    """The window primes of a reduced descriptor; empty windows are normal
    for short progressions."""
    if not desc.is_reduced:
        raise InputError("descriptor must be reduced")
    span = _window_range(desc.L)
    if not span:
        return PrimeWindow(())
    primes = DEFAULT_TABLE.primes_upto(span[-1])
    start = bisect_left(primes, span.start)
    return PrimeWindow(tuple(p for p in primes[start:] if desc.d % p != 0))


def hit_count(p: int, desc: APDescriptor) -> int:
    """Number of i in [0, L-1] with p dividing r + d*i."""
    L = desc.L
    if not (p in _window_range(L) and desc.d % p != 0 and DEFAULT_TABLE.is_prime(p)):
        raise InputError("{} is not a window prime for L={}, d={}", p, L, desc.d)
    return len(range(desc.first_divisible(p), L, p))


@dataclass(frozen=True)
class IrregularityReport:
    """Per-prime irregular edges, the greedy selection (at most one
    irregular edge per prime) with each selected edge's irregular primes,
    and whether the selection spans a forest.  Edges are named by their
    progression index."""

    window: PrimeWindow
    per_prime: dict[int, tuple[int, ...]]
    # selected edge index -> its primes; the keys, in order, are the selection
    selected_primes: dict[int, tuple[int, ...]]
    forest: bool


def forest_check(graph: RepGraph, positions) -> bool:
    """True iff the edges at the given positions span an acyclic subgraph
    (union-find over the vertex ids in ``graph.ends``)."""
    side0, side1 = graph.ends
    parent = list(range(graph.n_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in positions:
        a, b = find(side0[p]), find(side1[p])
        if a == b:
            return False
        parent[a] = b
    return True


def irregularity_report(graph: RepGraph, desc: APDescriptor) -> IrregularityReport:
    """The one irregularity pass.  An edge at index i in [0, L) must carry
    D*(r + d*i); it is p-irregular, carrying a strictly larger power of p
    than D does, iff p | r + d*i, so p marks the edges at
    first_divisible(p) + k*p below L.  The greedy selection walks irregular
    edges in ascending index order; an edge joins iff none of its primes is
    used yet, and joining claims all of them.

    The edges' types, index range and values are checked as C-level passes
    over the graph's columns against the terms as one range, which holds no
    list of L terms; only when a pass fails are the edges scanned in order,
    so the error names the first bad edge."""
    window = prime_window(desc)
    L = desc.L
    values, indices = graph.values, graph.indices
    terms = range(desc.term(0), desc.term(L), desc.D * desc.d)
    if not (
        all(map(isinstance, values, repeat(int)))
        and all(map(isinstance, indices, repeat(int)))
        and (not indices or (0 <= min(indices) and max(indices) < L))
        and tuple(map(terms.__getitem__, indices)) == values
    ):
        for index, value in zip(indices, values):
            if not isinstance(value, int):
                raise InputError("irregularity analysis needs an integer instance")
            if not 0 <= index < L:
                raise ShapeError("edge index {} outside progression of length {}", index, L)
            if value != desc.term(index):
                # named by index: a term may be too long to print
                raise InputError("edge {} does not carry term {}", index, index)
    position = dict(zip(indices, count()))
    per_prime: dict[int, tuple[int, ...]] = {}
    hits: dict[int, list[int]] = {}
    for p in window.primes:
        marked = tuple(i for i in range(desc.first_divisible(p), L, p) if i in position)
        for i in marked:
            hits.setdefault(i, []).append(p)
        per_prime[p] = marked
    used: set[int] = set()
    selected_primes: dict[int, tuple[int, ...]] = {}
    for i in sorted(hits):
        if used.isdisjoint(hits[i]):
            used.update(hits[i])
            selected_primes[i] = tuple(hits[i])
    forest = forest_check(graph, map(position.__getitem__, selected_primes))
    return IrregularityReport(window, per_prime, selected_primes, forest)
