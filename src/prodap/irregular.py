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

from dataclasses import dataclass, field

from .apcore import APDescriptor
from .errors import InputError, ShapeError
from .exactnum import is_prime, primes_in
from .prodset import Edge, RepGraph


@dataclass(frozen=True)
class PrimeWindow:
    """Primes p with L/3 < p < L/2 and p not dividing d, ascending."""

    L: int
    primes: tuple[int, ...]

    def __contains__(self, p: int) -> bool:
        return p in self.primes


def prime_window(desc: APDescriptor) -> PrimeWindow:
    """The window primes of a reduced descriptor; empty windows are normal
    for short progressions."""
    if not desc.is_reduced:
        raise InputError("descriptor must be reduced")
    L = desc.L
    lo = L // 3 + 1  # smallest integer > L/3
    hi = (L - 1) // 2  # largest integer < L/2
    if lo > hi:
        return PrimeWindow(L, ())
    primes = tuple(
        p for p in primes_in(lo, hi) if 3 * p > L and 2 * p < L and desc.d % p != 0
    )
    return PrimeWindow(L, primes)


def hit_count(p: int, desc: APDescriptor) -> int:
    """Number of i in [0, L-1] with p dividing r + d*i."""
    L = desc.L
    if not (3 * p > L and 2 * p < L and desc.d % p != 0 and is_prime(p)):
        raise InputError("{} is not a window prime for L={}, d={}", p, L, desc.d)
    return len(range(desc.first_divisible(p), L, p))


@dataclass
class IrregularityReport:
    """Classification result: per-prime irregular edges, the greedy selection
    (at most one irregular edge per prime), and the forest verdict."""

    window: PrimeWindow
    per_prime: dict[int, tuple[Edge, ...]]
    edge_primes: dict[int, tuple[int, ...]]  # edge index -> its irregular primes
    selected: tuple[Edge, ...] = ()
    selected_primes: dict[int, tuple[int, ...]] = field(default_factory=dict)
    forest: bool | None = None


def classify_edges(
    graph: RepGraph, desc: APDescriptor, window: PrimeWindow
) -> IrregularityReport:
    """Mark each edge p-irregular when its value carries a strictly larger
    power of p than the common factor D does.  Once the edge at index i in
    [0, L) carries D*(r + d*i), that holds iff p | r + d*i, so p marks the
    edges at first_divisible(p) + k*p below L."""
    L = desc.L
    by_index: dict[int, Edge] = {}
    for e in graph.edges:
        if not isinstance(e.value, int):
            raise InputError("irregularity analysis needs an integer instance")
        if not 0 <= e.index < L:
            raise ShapeError("edge index {} outside progression of length {}", e.index, L)
        if e.value != desc.term(e.index):
            # named by index: a term may be too long to print
            raise InputError("edge {} does not carry term {}", e.index, e.index)
        by_index[e.index] = e
    per_prime: dict[int, tuple[Edge, ...]] = {}
    hits: dict[int, list[int]] = {}
    for p in window.primes:
        marked = [i for i in range(desc.first_divisible(p), L, p) if i in by_index]
        per_prime[p] = tuple(by_index[i] for i in marked)
        for i in marked:
            hits.setdefault(i, []).append(p)
    edge_primes = {i: tuple(hits[i]) for i in sorted(hits)}
    return IrregularityReport(window, per_prime, edge_primes)


def select_independent_irregulars(report: IrregularityReport) -> tuple[Edge, ...]:
    """Greedy pass over irregular edges in ascending index order; an edge
    joins the selection iff none of its irregular primes is used yet, and
    joining claims all of them.  Fills the report in place and returns S."""
    used: set[int] = set()
    selected: list[Edge] = []
    selected_primes: dict[int, tuple[int, ...]] = {}
    by_index: dict[int, Edge] = {}
    for edges in report.per_prime.values():
        for e in edges:
            by_index[e.index] = e
    for idx in sorted(report.edge_primes):
        primes = report.edge_primes[idx]
        if any(p in used for p in primes):
            continue
        used.update(primes)
        selected.append(by_index[idx])
        selected_primes[idx] = primes
    report.selected = tuple(selected)
    report.selected_primes = selected_primes
    return report.selected


def forest_check(graph: RepGraph, edges) -> bool:
    """True iff the edge-induced subgraph is acyclic (union-find over vertex
    ids)."""
    rank = graph.vertex_rank
    parent = list(range(graph.n_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        a, b = find(rank[(0, e.u)]), find(rank[(1, e.v)])
        if a == b:
            return False
        parent[a] = b
    return True


def irregularity_report(graph: RepGraph, desc: APDescriptor) -> IrregularityReport:
    """Full pass: window, classification, greedy selection, forest check."""
    report = classify_edges(graph, desc, prime_window(desc))
    select_independent_irregulars(report)
    report.forest = forest_check(graph, report.selected)
    return report
