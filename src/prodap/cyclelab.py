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

from .apcore import APDescriptor
from .errors import FalsificationError, InputError, ShapeError, digit_safe
from .prodset import RepGraph

Vertex = tuple[int, int]

# Steps _walk_lengths may make on one length, path extensions and closed
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
    """The cycle visiting the vertex ids in the order given.  A walk that is
    no cycle fails in the oracle's order: on its vertices, as EvenCycle
    checks them, and then on a step between two vertices with no edge."""
    try:
        pos = list(map(graph.edge_lookup.__getitem__, zip(ids, ids[1:] + ids[:1])))
    except KeyError:
        _check_vertices(tuple(graph.vertices[t] for t in ids))
        raise ShapeError("the walk steps between two vertices with no edge") from None
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
    path extensions and closed walks; _walk_lengths says why a length was
    cut short."""
    if k < 2:
        raise InputError("half-length bound must be >= 2, got {}", k)
    if max_count is not None and max_count < 0:
        raise InputError("cycle cap must be >= 0, got {}", max_count)
    cycles: list[EvenCycle] = []
    for walks, _ in _walk_lengths(graph.neighbours, range(4, 2 * k + 1, 2), max_count):
        # root first, second vertex before the last: each walk is already
        # in canonical form
        cycles.extend(_cycle_through(graph, w) for w in walks)
    return cycles


def _walk_lengths(nbrs, lengths, cap):
    """For each length in turn, the cycles of that length as vertex-id
    walks, in walk order, and why the walk stopped early ("cap" or
    "steps"), or None if it finished.

    A root's cycles close only through its neighbours (its ends), and the
    vertex before the last must be an id above the root that reaches it in
    two edges (its near set).  Both sets depend on the root alone, so each
    root's are built the first time a length reaches it and shared by the
    lengths after."""
    closing: list[tuple[set, set]] = []
    for length in lengths:
        yield _walk_cycles(nbrs, length, cap, closing)


def _walk_cycles(nbrs, length, cap, closing) -> tuple[list[list[int]], str | None]:
    """One length of _walk_lengths; closing holds the (ends, near) sets of
    the roots walked so far, and gains those of each root walked first."""
    walks: list[list[int]] = []
    budget = STEP_BUDGET
    steps = 0
    on_path = [False] * len(nbrs)
    path: list[int] = []
    for root in range(len(nbrs)):
        if root == len(closing):
            ends = set(nbrs[root])
            closing.append((ends, {x for y in ends for x in nbrs[y] if x > root}))
        ends, near = closing[root]
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
                        if steps >= budget:
                            return walks, "steps"
                        walks.append(path + [w])
                    continue
                if depth == length - 2 and w not in near:
                    continue
                steps += 1
                if steps >= budget:
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
    EvenCycle, CyclePoly or DivisibilityReport for a walk that passes the
    fast checks below.

    One rule decides each walk.  It passes when every fast check passes;
    otherwise cycle_audit(_cycle_through(graph, ids), A, desc) passes it or
    raises, so every failure, its message and its payload are the oracle's.
    The fast checks read only the walk's edges, A and desc: a reduced
    descriptor, length >= 4, new vertices, an edge on every step, each index
    in range, each edge value equal to its term of A, the product identity,
    the head's bound certificate, c_1 != 0, c_k != 0, d | c_1, r | c_k and
    vanishing at (r, d).  Sides and index newness need no check of their
    own: every RepGraph edge joins a side-0 id to a side-1 id, so a vertex on
    the wrong side, or a walk of odd length, misses an edge; and each index
    sits on exactly one edge, so a repeated index is a repeated edge and
    revisits a vertex.

    A walk's head is its first n - 1 vertices.  The audit keeps one state
    per prefix of the current head, taken after each of its edges: the
    products of the A values at edge positions 0, 2, ... and at 1, 3, ...;
    the products P_O and P_E of r + d*j over the indices j at those
    positions; the elementary symmetric functions O and E of those indices;
    and the largest index so far.  A new head keeps the states of the
    prefix it shares with the head before, none when the root or the walk
    length changes, and checks only its new vertices and edges.  A new edge
    multiplies two products and extends O or E by one index, in O(k).  So a
    run of walks that share a head, as the walk order of _walk_lengths gives
    them, costs one head, and consecutive heads share most of their prefix.
    A head that fails a check stops at the vertex or edge that fails it:
    its walks go to cycle_audit, and the states before that point stay for
    the heads after.

    The last vertex w of a walk adds the edges (head[-1], w) at position
    n - 2, index x, and (w, root), index y.  The A products must then agree
    with A[x] and A[y] joined, and each coefficient is c_t = delta_t +
    y*E_(t-1) - x*O_(t-1), delta_t = E_t - O_t.  Per head, only delta, the
    bound certificate and the constants of c_1 and c_k are taken, which
    leaves O(1) numeric work per walk:
    - vanishing, in product form: sum_t c_t*r^(k-t)*d^t = P_E*(r + d*y) -
      P_O*(r + d*x), because sum_s e_s(S)*r^(|S|-s)*d^s is the product of
      r + d*i over i in S;
    - the bound, certified once per head (_bound_certificate) for every
      x, y >= 0 at top = max(top0, x, y), top0 the head's largest index:
      |c_t| <= |delta_t| + top*S_t with S_t = |E_(t-1)| + |O_(t-1)|, and
      top^t - top0^t >= t*top0^(t-1)*(top - top0);
    - c_l and c_m: E_0 = O_0 = 1, so delta_0 = 0, l = 1 when c_1 = delta_1
      + y - x is nonzero, and m = k when c_k = y*E_(k-1) - x*O_(k-1) is
      nonzero."""
    lookup = graph.edge_lookup
    indices, values = graph.indices, graph.values
    n_terms = len(A)
    r, d = desc.r, desc.d
    reduced = desc.is_reduced
    head = None
    # path holds the head's vertex ids as far as they pass, and state, per
    # prefix of path after its last edge, the A products at positions 0, 2,
    # ... and 1, 3, ..., P_O and P_E, O and E, and the largest index
    for ids in walks:
        if len(ids) < 4 or not reduced:
            head, fast = None, False  # the next walk starts from its root
        elif ids[:-1] != head:
            prev, head = head, ids[:-1]
            if prev is None or len(ids) != n or head[0] != prev[0]:
                n = len(ids)
                twice_comb = [2 * comb(n // 2, t) for t in range(n // 2 + 1)]
                root = head[0]
                path, state = [root], [(1, 1, 1, 1, [1], [1], -1)]
            else:
                c = 1
                while c < n - 1 and head[c] == prev[c]:
                    c += 1
                del path[c:], state[c:]
            a_o, a_e, p_o, p_e, odd, even, top = state[-1]
            for t in range(len(path), n - 1):
                v = head[t]
                p = lookup.get((path[-1], v))
                if p is None or v in path:
                    break
                j = indices[p]
                if not 0 <= j < n_terms or values[p] != A[j]:
                    break
                a = A[j]
                if t & 1:  # the edge into v is at position t - 1, even
                    a_o, p_o = a_o * a, p_o * (r + d * j)
                    odd = [1] + [e + j * f for e, f in zip(odd[1:] + [0], odd)]
                else:
                    a_e, p_e = a_e * a, p_e * (r + d * j)
                    even = [1] + [e + j * f for e, f in zip(even[1:] + [0], even)]
                top = max(top, j)
                path.append(v)
                state.append((a_o, a_e, p_o, p_e, odd, even, top))
            delta = [e - o for e, o in zip(even, odd)] + [0]
            fast = len(path) == n - 1 and _bound_certificate(delta, even, odd, top, twice_comb)
            d1, e_top, o_top, last = delta[1], even[-1], odd[-1], path[-1]
        if fast:
            w = ids[-1]
            px, py = lookup.get((last, w)), lookup.get((w, root))
            if px is not None and py is not None and w not in path:
                x, y = indices[px], indices[py]
                if 0 <= x < n_terms and 0 <= y < n_terms:
                    a_x, a_y = A[x], A[y]
                    c_1, c_k = d1 + y - x, y * e_top - x * o_top
                    if (
                        values[px] == a_x and values[py] == a_y and a_o * a_x == a_e * a_y
                        and c_1 and c_k and not c_1 % d and not c_k % r
                        and p_e * (r + d * y) == p_o * (r + d * x)
                    ):
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
