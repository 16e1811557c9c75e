"""Even-cycle machinery over representation graphs.

Every cycle in the doubled bipartite graph is even.  Walking a cycle and
multiplying edge values with alternating exponents telescopes to 1, so the
product of odd-position edge values equals the product of even-position
values.  Writing each value as r + j*d and expanding turns the identity into
a polynomial relation whose coefficients are differences of elementary
symmetric functions of the edge indices; those coefficients drive exact
divisibility audits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod
from operator import mul
from typing import NoReturn

from .apcore import APDescriptor
from .errors import FalsificationError, InputError, ShapeError, digit_safe
from .prodset import RepGraph

Vertex = tuple[int, int]

# Steps _walk_length may make on one length, path extensions and closed
# walks alike, before it stops and reports the length cut short.
STEP_BUDGET = 1_000_000


@dataclass(frozen=True)
class EvenCycle:
    """Simple even cycle: vertices in canonical traversal order, and the
    progression index of each edge (edge t joins vertices t and t+1, wrapping).
    All indices are distinct because each term has exactly one edge."""

    vertices: tuple[Vertex, ...]
    indices: tuple[int, ...]
    values: tuple

    def __post_init__(self):
        _check_vertices(self.vertices)
        n = len(self.vertices)
        if len(self.indices) != n or len(self.values) != n:
            raise ShapeError("one index and one value per edge required")
        if len(set(self.indices)) != n:
            raise ShapeError("cycle reuses a progression index")

    @property
    def k(self) -> int:
        return len(self.vertices) // 2

    def as_json(self) -> dict:
        return {
            "vertices": [[side, idx] for side, idx in self.vertices],
            "indices": list(self.indices),
        }


def _check_vertices(vertices) -> None:
    """ShapeError unless the (side, i) vertices close a simple even cycle of
    length >= 4 whose consecutive vertices lie on opposite sides."""
    n = len(vertices)
    if n < 4 or n % 2 != 0:
        raise ShapeError("cycle length must be even and >= 4, got {}", n)
    if len(set(vertices)) != n:
        raise ShapeError("cycle revisits a vertex")
    for t in range(n):
        if vertices[t][0] == vertices[(t + 1) % n][0]:
            raise ShapeError("consecutive cycle vertices must alternate sides")


def _canonical_cycle(ids: list[int]) -> list[int]:
    """Rotate to the smallest id and orient toward its smaller neighbour."""
    n = len(ids)
    start = ids.index(min(ids))
    step = 1 if ids[(start + 1) % n] < ids[(start - 1) % n] else -1
    return [ids[(start + step * t) % n] for t in range(n)]


def _cycle_through(graph: RepGraph, ids: list[int]) -> EvenCycle:
    """The cycle visiting the vertex ids in the order given."""
    pos = list(map(graph.edge_lookup.__getitem__, zip(ids, ids[1:] + ids[:1])))
    return EvenCycle(
        tuple(graph.vertices[t] for t in ids),
        tuple(map(graph.indices.__getitem__, pos)),
        tuple(map(graph.values.__getitem__, pos)),
    )


def find_even_cycle(graph: RepGraph, k: int) -> EvenCycle | None:
    """Shortest cycle of length <= 2k, or None.

    For each edge in turn, a breadth-first search for the shortest path
    between its endpoints avoiding the edge itself closes the shortest cycle
    through that edge; the minimum over edges is the girth.  Ties break by
    canonical vertex order.

    The search scans each id's neighbours in ascending order.  It stops at
    the first vertex it reaches that is a neighbour of the far endpoint:
    level by level, that is the vertex a full search would close the path
    through, so the last level never needs expanding.  The graph is simple,
    so the far endpoint is reached from the near one only over the avoided
    edge, and is never entered.  Cycles are compared as canonical id lists,
    and only the shortest becomes an EvenCycle.
    """
    if k < 2:
        raise InputError("half-length bound must be >= 2, got {}", k)
    nbrs = graph.neighbours
    near = [set(row) for row in nbrs]
    side0, side1 = graph.ends
    best: list[int] | None = None
    for p in sorted(range(len(side0)), key=graph.indices.__getitem__):
        src, dst = side0[p], side1[p]
        max_edges = (2 * k - 1) if best is None else min(2 * k, len(best)) - 1
        parent = [-1] * len(nbrs)
        parent[src], parent[dst] = src, dst
        last = -1
        frontier = [src]
        for _ in range(max_edges - 1):
            if last >= 0 or not frontier:
                break
            level = []
            for v in frontier:
                for w in nbrs[v]:
                    if parent[w] >= 0:
                        continue
                    parent[w] = v
                    if dst in near[w]:
                        last = w
                        break
                    level.append(w)
                if last >= 0:
                    break
            frontier = level
        if last < 0:
            continue
        path = [dst]
        v = last
        while v != src:
            path.append(v)
            v = parent[v]
        path.append(src)
        ids = _canonical_cycle(path)
        if best is None or (len(ids), ids) < (len(best), best):
            best = ids
    return None if best is None else _cycle_through(graph, best)


def enumerate_even_cycles(graph: RepGraph, k: int, max_count: int | None = None) -> list[EvenCycle]:
    """Simple cycles of length <= 2k, canonicalized, sorted by (length,
    vertex ids).

    The walk runs one length at a time, 4, 6, ..., 2k.  Roots come in id
    order; a path extends only to ids above its root, in ascending order;
    and a cycle closes only when its second vertex has a smaller id than its
    last.  So each cycle is found once, already in canonical form, and each
    length's cycles come out in sorted order.

    max_count caps each length: the cycles kept of a length are an exact
    prefix of all its cycles.  A length also stops after STEP_BUDGET steps,
    path extensions and closed walks; _walk_length says why a length was cut
    short."""
    if k < 2:
        raise InputError("half-length bound must be >= 2, got {}", k)
    if max_count is not None and max_count < 0:
        raise InputError("cycle cap must be >= 0, got {}", max_count)
    cycles: list[EvenCycle] = []
    for length in range(4, 2 * k + 1, 2):
        walks, _ = _walk_length(graph.neighbours, length, max_count)
        # root first, second vertex before the last: each walk is already
        # in canonical form
        cycles.extend(_cycle_through(graph, w) for w in walks)
    return cycles


def _walk_length(nbrs, length, cap) -> tuple[list[list[int]], str | None]:
    """The cycles of one length as vertex-id walks, in walk order, and why
    the walk stopped early ("cap" or "steps"), or None if it finished."""
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
                        if steps >= STEP_BUDGET:
                            return walks, "steps"
                        walks.append(path + [w])
                    continue
                if depth == length - 2 and w not in near:
                    continue
                steps += 1
                if steps >= STEP_BUDGET:
                    return walks, "steps"
                path.append(w)
                on_path[w] = True
                stack.append(iter(nbrs[w]))
                break
            else:
                stack.pop()
                on_path[path.pop()] = False
    return walks, None


def cycle_identity_check(cycle: EvenCycle, A) -> bool:
    """Exact check that odd-position edge values multiply to the same result
    as even-position edge values."""
    vals = []
    for t, j in enumerate(cycle.indices):
        if j < 0 or j >= len(A):
            raise ShapeError("edge index {} outside progression of length {}", j, len(A))
        if cycle.values[t] != A[j]:
            # named by position: a term may be too long to print
            raise ShapeError("edge {} of the cycle does not carry term {}", t, j)
        vals.append(A[j])
    return prod(vals[0::2]) == prod(vals[1::2])


def elementary_symmetric(values: list[int]) -> list[int]:
    """e_0..e_n of the given values, by the product recurrence, exact."""
    e = [1] + [0] * len(values)
    for t, x in enumerate(values, start=1):
        for s in range(t, 0, -1):
            e[s] += x * e[s - 1]
    return e


def symmetric_coefficients(even_indices, odd_indices) -> tuple[int, ...]:
    """c_t = e_t(even indices) - e_t(odd indices) for t = 0..k.

    This is the raw coefficient computation; it accepts any two index lists
    of equal length, genuine cycle or not."""
    if len(even_indices) != len(odd_indices):
        raise InputError("index lists must have equal length")
    even = elementary_symmetric(list(even_indices))
    odd = elementary_symmetric(list(odd_indices))
    return tuple(even[t] - odd[t] for t in range(len(even_indices) + 1))


@dataclass(frozen=True)
class CyclePoly:
    """Coefficients c_0..c_k with c_t = e_t(even-position indices) minus
    e_t(odd-position indices); l and m bracket the nonzero coefficients."""

    k: int
    coeffs: tuple[int, ...]
    l: int
    m: int
    max_index: int


def cycle_poly(cycle: EvenCycle, desc: APDescriptor) -> CyclePoly:
    """Coefficient vector of the cycle's polynomial relation; verifies that
    the full evaluation at (r, d) vanishes exactly."""
    if not desc.is_reduced:
        raise InputError("descriptor must be reduced")
    k = cycle.k
    coeffs = symmetric_coefficients(cycle.indices[1::2], cycle.indices[0::2])
    if all(c == 0 for c in coeffs):
        raise FalsificationError(
            "all cycle coefficients vanish, impossible for distinct indices",
            payload={"indices": list(cycle.indices)},
        )
    value = sum(c * desc.r ** (k - t) * desc.d**t for t, c in enumerate(coeffs))
    if value != 0:
        raise FalsificationError(
            "cycle polynomial does not vanish at (r, d)",
            payload={
                "indices": list(cycle.indices),
                "coeffs": [digit_safe(c) for c in coeffs],
                "r": digit_safe(desc.r),
                "d": digit_safe(desc.d),
                "value": digit_safe(value),
            },
        )
    nonzero = [t for t, c in enumerate(coeffs) if c != 0]
    return CyclePoly(k, coeffs, nonzero[0], nonzero[-1], max(cycle.indices))


@dataclass(frozen=True)
class DivisibilityReport:
    d_divides_cl: bool
    r_divides_cm: bool
    coeff_bound_ok: bool
    c_l: int
    c_m: int


def divisibility_audit(poly: CyclePoly, desc: APDescriptor) -> DivisibilityReport:
    """Assert d | c_l, r | c_m, and |c_t| <= 2*C(k,t)*(max index)^t; any
    failure raises FalsificationError carrying the full evidence."""
    if not desc.is_reduced:
        raise InputError("descriptor must be reduced")
    c_l, c_m = poly.coeffs[poly.l], poly.coeffs[poly.m]
    d_ok = c_l % desc.d == 0
    r_ok = c_m % desc.r == 0
    bound_ok = all(
        abs(c) <= 2 * comb(poly.k, t) * poly.max_index**t
        for t, c in enumerate(poly.coeffs)
    )
    report = DivisibilityReport(d_ok, r_ok, bound_ok, c_l, c_m)
    if not (d_ok and r_ok and bound_ok):
        raise FalsificationError(
            "cycle coefficient audit failed",
            payload={
                "coeffs": [digit_safe(c) for c in poly.coeffs],
                "l": poly.l,
                "m": poly.m,
                "d_divides_cl": d_ok,
                "r_divides_cm": r_ok,
                "coeff_bound_ok": bound_ok,
                "descriptor": desc.as_payload(),
            },
        )
    return report


def cycle_audit(cycle: EvenCycle, A, desc: APDescriptor) -> CyclePoly:
    """The full audit of one cycle against the progression A with reduced
    descriptor desc: the alternating product identity, the coefficient
    polynomial and the divisibility checks.  Any failure raises
    FalsificationError.  The three checks are looked up as module globals
    at call time, so a wrapper installed on this module sees every call."""
    if not cycle_identity_check(cycle, A):
        raise FalsificationError("cycle identity failed", payload=cycle.as_json())
    poly = cycle_poly(cycle, desc)
    divisibility_audit(poly, desc)
    return poly


def audit_cycle_walks(graph: RepGraph, walks, A, desc: APDescriptor) -> None:
    """cycle_audit on the cycle through each vertex-id walk of graph, with no
    EvenCycle, CyclePoly or DivisibilityReport for a cycle that passes.

    Each walk is checked from its edges, A and desc alone, as EvenCycle and
    the three checks of cycle_audit would check it: shape, index range,
    edge values against A, the product identity, exact vanishing at (r, d),
    d | c_l, r | c_m and the |c_t| bounds.  The weights w_t = r^(k-t) * d^t
    and the 2*C(k, t) factors are taken once per half-length k.

    A walk's head, its first n - 1 vertices, is checked once for each run of
    walks that share it, as the walk order of _walk_length gives them: its
    shape, its n - 2 edges, the products of their values at odd and at even
    positions, and the elementary symmetric functions E of its indices at
    positions 1, 3, ... and O of those at 0, 2, ....  The last vertex w then
    adds the edges (head[-1], w) at position n - 2, index x, and (w, root),
    index y, so the products become P_odd*A[x] and P_even*A[y] and each
    coefficient is c_t = delta_t + y*E_(t-1) - x*O_(t-1), delta_t = E_t - O_t.

    Three per-head quantities leave O(1) numeric work per walk:
    - vanishing, by linearity: sum c_t*w_t = s0 + y*ew - x*ow, with
      s0 = sum delta_t*w_t, ew = sum E_(t-1)*w_t and ow = sum O_(t-1)*w_t;
    - the bound, certified once per head (_bound_certificate) for every
      x, y >= 0 at top = max(top0, x, y), top0 the head's largest index:
      |c_t| <= |delta_t| + top*S_t with S_t = |E_(t-1)| + |O_(t-1)|, and
      top^t - top0^t >= t*top0^(t-1)*(top - top0);
    - c_l and c_m: with E_0 = O_0 = 1, delta_0 = 0, so l = 1 when
      c_1 = delta_1 + y - x is nonzero, and m = k when c_k = y*E_(k-1) -
      x*O_(k-1) is nonzero.
    A walk whose head fails the certificate, or with c_1 = 0 or c_k = 0, or
    that fails one of these tests, goes to cycle_audit, which passes it or
    raises.  The first walk that fails a structural check goes through
    EvenCycle and cycle_audit too (_reaudit), so every error, its message
    and its payload are theirs."""
    if not walks:
        return
    if not desc.is_reduced:
        _reaudit(graph, walks[0], A, desc)
    lookup = graph.edge_lookup
    indices, values = graph.indices, graph.values
    n_terms = len(A)
    r, d = desc.r, desc.d
    scales: dict = {}  # k -> (r^(k-t) * d^t, 2*C(k, t)) for t = 0..k
    head = None
    for ids in walks:
        if ids[:-1] != head:
            head = ids[:-1]
            n = len(ids)
            k = n // 2
            sides = [t & 1 for t in ids]
            if n < 4 or n % 2 or len(set(ids)) != n or sides != [sides[0], 1 - sides[0]] * k:
                _reaudit(graph, ids, A, desc)
            try:
                pos = list(map(lookup.__getitem__, zip(head, head[1:])))
            except KeyError:
                _reaudit(graph, ids, A, desc)
            idx = list(map(indices.__getitem__, pos))
            top0 = max(idx)
            seen = set(idx)
            if len(seen) != n - 2 or min(idx) < 0 or top0 >= n_terms:
                _reaudit(graph, ids, A, desc)
            vals = [A[j] for j in idx]
            if list(map(values.__getitem__, pos)) != vals:
                _reaudit(graph, ids, A, desc)
            p_odd, p_even = prod(vals[0::2]), prod(vals[1::2])
            if k not in scales:
                scales[k] = (
                    [r ** (k - t) * d**t for t in range(k + 1)],
                    [2 * comb(k, t) for t in range(k + 1)],
                )
            weights, twice_comb = scales[k]
            even = elementary_symmetric(idx[1::2])
            odd = elementary_symmetric(idx[0::2])
            delta = [e - o for e, o in zip(even, odd)] + [0]
            fast = even[0] == odd[0] == 1 and _bound_certificate(
                delta, even, odd, top0, twice_comb
            )
            s0 = sum(map(mul, delta, weights))
            ew = sum(map(mul, even, weights[1:]))
            ow = sum(map(mul, odd, weights[1:]))
            d1, e_top, o_top = delta[1], even[-1], odd[-1]
            on_head = set(head)
            root, last, root_side = head[0], head[-1], sides[0]
        w = ids[-1]
        if w & 1 == root_side or w in on_head:
            _reaudit(graph, ids, A, desc)
        try:
            px, py = lookup[last, w], lookup[w, root]
        except KeyError:
            _reaudit(graph, ids, A, desc)
        x, y = indices[px], indices[py]
        if x == y or x in seen or y in seen or not (0 <= x < n_terms and 0 <= y < n_terms):
            _reaudit(graph, ids, A, desc)
        a_x, a_y = A[x], A[y]
        if values[px] != a_x or values[py] != a_y or p_odd * a_x != p_even * a_y:
            _reaudit(graph, ids, A, desc)
        if fast:
            c_1, c_k = d1 + y - x, y * e_top - x * o_top
            if c_1 and c_k and not c_1 % d and not c_k % r and s0 + y * ew == x * ow:
                continue
        cycle_audit(_cycle_through(graph, ids), A, desc)


def _bound_certificate(delta, even, odd, top0: int, twice_comb) -> bool:
    """True when c_0 = delta_0 and every c_t = delta_t + y*E_(t-1) -
    x*O_(t-1), t = 1..k, meet |c_t| <= 2*C(k, t)*top^t at top = max(top0, x,
    y), for all x, y >= 0.  even and odd hold E_0..E_(k-1) and
    O_0..O_(k-1), delta holds delta_0..delta_k, and twice_comb[t] is
    2*C(k, t).

    With S_t = |E_(t-1)| + |O_(t-1)|, |c_t| <= |delta_t| + top*S_t.  So it
    suffices that |delta_0| <= 2 and, for t = 1..k, that |delta_t| +
    top0*S_t <= 2*C(k, t)*top0^t and S_t <= 2t*C(k, t)*top0^(t-1): then
    |c_t| <= 2*C(k, t)*(top0^t + t*top0^(t-1)*(top - top0)), and that is at
    most 2*C(k, t)*top^t."""
    if abs(delta[0]) > twice_comb[0]:
        return False
    power = 1  # top0^(t-1)
    for t in range(1, len(delta)):
        s = abs(even[t - 1]) + abs(odd[t - 1])
        bound = twice_comb[t] * power
        if s > t * bound or abs(delta[t]) + top0 * s > bound * top0:
            return False
        power *= top0
    return True


def _reaudit(graph: RepGraph, ids: list[int], A, desc: APDescriptor) -> NoReturn:
    """Raise what EvenCycle and cycle_audit raise on the cycle through ids,
    after audit_cycle_walks found it failing; if they pass it, the two audits
    disagree, and that is raised instead."""
    _check_vertices(tuple(graph.vertices[t] for t in ids))
    try:
        cycle = _cycle_through(graph, ids)
    except KeyError:
        raise ShapeError("the walk steps between two vertices with no edge") from None
    cycle_audit(cycle, A, desc)
    raise FalsificationError(
        "the batched cycle audit failed a cycle that cycle_audit passes",
        payload=cycle.as_json(),
    )
