"""Rescaling pipeline that turns a quadratic-field instance whose target
progression is rational into an all-rational base set preserving the
progression inside the product set.

Per connected component of the bipartite representation graph, vertices on
the pivot's side divide by the pivot and vertices on the other side multiply
by it; every edge product is untouched, and parity of connecting paths makes
every rescaled element rational.  A 4-cycle pins down the progression start
as an exact rational, and the extremal C4 edge bound says when a 4-cycle must
exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .apcore import first_pairs
from .cyclelab import EvenCycle, find_even_cycle
from .errors import DomainError, FalsificationError, InputError, digit_safe
from .exactnum import QuadElem
from .prodset import RepGraph, build_rep_graph


@dataclass
class QuadInstance:
    """A base set over a single Q(sqrt(m)) whose product set carries a
    rational progression, plus the representation graph tying them together."""

    m: int
    elements: list[QuadElem]
    targets: list[Fraction]
    graph: RepGraph


def make_quad_instance(elements, targets, m: int) -> QuadInstance:
    """Validate and assemble an instance: shared field, nonzero distinct
    elements, rational targets, every target representable."""
    elems = []
    for x in elements:
        q = x if isinstance(x, QuadElem) else QuadElem.from_rational(Fraction(x), m)
        if q.m != m:
            raise InputError("element {} lives in sqrt({}), instance has sqrt({})", q, q.m, m)
        if q.is_zero:
            raise InputError("zero element makes products degenerate")
        elems.append(q)
    targs = []
    for t in targets:
        if isinstance(t, QuadElem):
            if not t.is_rational:
                raise DomainError("target {} is not rational", t)
            t = t.as_rational()
        targs.append(Fraction(t))
    graph = build_rep_graph(elems, [QuadElem.from_rational(t, m) for t in targs])
    return QuadInstance(m, list(graph.elements), targs, graph)


def four_cycle_r(cycle: EvenCycle, i1: int, i2: int) -> Fraction:
    """Recover the progression start from two adjacent edges of a 4-cycle.

    With edge values r + i1 and r + i2 and rational quotient q, the start is
    r = (i1 - q*i2)/(q - 1).  The result is checked against both edge values.
    """
    if len(cycle.vertices) != 4:
        raise InputError("need a 4-cycle, got length {}", len(cycle.vertices))
    pos = {cycle.indices[t]: t for t in range(4)}
    if i1 not in pos or i2 not in pos:
        raise InputError("indices ({}, {}) are not edges of the cycle", i1, i2)
    t1, t2 = pos[i1], pos[i2]
    if (t2 - t1) % 4 not in (1, 3):
        raise InputError("edges {} and {} are not adjacent in the cycle", i1, i2)
    a1, a2 = (
        v.as_rational() if isinstance(v, QuadElem) else Fraction(v)
        for v in (cycle.values[t1], cycle.values[t2])
    )
    if a1 == a2:
        raise DomainError("degenerate cycle: equal adjacent edge values")
    q = a1 / a2
    r = (i1 - q * i2) / (q - 1)
    if r + i1 != a1 or r + i2 != a2:
        raise InputError(
            "edge values are not start + index (got r={}, values {}, {}); "
            "normalize the progression to difference 1 first", r, a1, a2,
        )
    return r


def four_cycle_r_rotations(cycle: EvenCycle) -> list[Fraction]:
    """The start recovered from each of the four adjacent edge pairs."""
    out = []
    for t in range(4):
        i1 = cycle.indices[t]
        i2 = cycle.indices[(t + 1) % 4]
        out.append(four_cycle_r(cycle, i1, i2))
    return out


def _components(graph: RepGraph) -> list[list]:
    """The connected components with an edge, each as its vertices in id
    order, in order of their smallest id."""
    nbrs = graph.neighbours
    seen = [False] * len(nbrs)
    comps = []
    for start in range(len(nbrs)):
        if seen[start] or not nbrs[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in nbrs[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append([graph.vertices[t] for t in sorted(comp)])
    return comps


def rationalize_components(inst: QuadInstance) -> list[Fraction]:
    """Rescale each component so every vertex value becomes rational while
    every target keeps its product representation; returns the sorted,
    deduplicated rational base set.

    Vertices on the pivot's color class divide by the pivot, the others
    multiply by it; isolated vertices carry no edge and become 1.
    """
    graph = inst.graph
    new_value = dict.fromkeys(graph.vertices, Fraction(1))
    for comp in _components(graph):
        # the first side-0 vertex has the smallest id on its side
        pivot = graph.elements[next(i for side, i in comp if side == 0)]
        if pivot.is_zero:
            raise InputError("zero pivot")
        for v in comp:
            val = graph.elements[v[1]]
            scaled = val / pivot if v[0] == 0 else val * pivot
            if not scaled.is_rational:
                raise FalsificationError(
                    "component rescaling left an irrational element",
                    payload={
                        "component": [[side, digit_safe(graph.elements[i])] for side, i in comp],
                        "pivot": digit_safe(pivot),
                        "vertex": digit_safe(val),
                        "scaled": digit_safe(scaled),
                    },
                )
            new_value[v] = scaled.as_rational()
    # every edge product must be exactly preserved
    for u, v, index in zip(graph.us, graph.vs, graph.indices):
        target = inst.targets[index]
        got = new_value[(0, u)] * new_value[(1, v)]
        if got != target:
            raise FalsificationError(
                "rescaling changed an edge product",
                payload={"index": index, "expected": digit_safe(target), "got": digit_safe(got)},
            )
    rational_set = sorted(set(new_value.values()))
    for t, pair in zip(inst.targets, first_pairs(inst.targets, rational_set)):
        if pair is None:
            raise FalsificationError(
                "a target lost all representations after rescaling",
                payload={"target": digit_safe(t), "set": [digit_safe(x) for x in rational_set]},
            )
    return rational_set


def c4_extremal_threshold(n: int) -> int:
    """ceil((n/4)(1 + sqrt(4n - 3))), exact via integer square-root bracketing."""
    if n < 1:
        raise InputError("need n >= 1, got {}", n)
    u = n * n * (4 * n - 3)
    t = isqrt(u)
    # exact root: ceil((n+t)/4); otherwise sqrt(u) lies in (t, t+1) strictly
    return (n + t + 3) // 4 if t * t == u else (n + t + 4) // 4


@dataclass(frozen=True)
class C4AuditReport:
    n: int
    edges: int
    threshold: int
    exceeded: bool
    cycle: EvenCycle | None


def four_cycle_exists_audit(graph: RepGraph) -> C4AuditReport:
    """Above the C4 extremal threshold a 4-cycle must exist; its absence is a
    falsifying instance.  Below threshold the count is just reported.

    n counts only vertices incident to an edge: isolated copies would merely
    weaken the bound."""
    n = max(sum(1 for row in graph.neighbours if row), 1)
    threshold = c4_extremal_threshold(n)
    edges = len(graph.indices)
    exceeded = edges > threshold
    cycle = find_even_cycle(graph, 2)
    if exceeded and cycle is None:
        raise FalsificationError(
            "edge count exceeds the C4 extremal threshold yet no 4-cycle found",
            payload={"n": n, "edges": edges, "threshold": threshold},
        )
    return C4AuditReport(n, edges, threshold, exceeded, cycle)
