"""Constructive realization algorithms.

Besides the classical Havel-Hakimi graph construction (one heap of
integer keys, degrees in any order, O(sum(d) * log n); every general
realization the package prints comes from it) and a generic forest
construction, this module builds the two structured forest realizations
the extremal formulas rest on:

* a forest whose tail vertices {u_{k+1}, ..., u_n} form an independent
  set (exists iff the head degree sum is at least the tail degree sum);
* a forest whose head {u_1, ..., u_k} is an independent dominating set
  (exists iff the head sum covers the tail size and the tail degree
  surplus fits inside a forest on the high-degree tail vertices).

Both are built from the degrees alone by one leaf peel that never joins
two tail vertices: the first peels the sequence itself, the second peels
the head against the components of a small forest inside the tail and
hands each component's edges to its members.  Those components are read
off the peel that built the tail forest (``_peel_components``), with no
graph built for them.  All constructions are deterministic and return
witnesses that re-check their own claims on construction; the checks are
C-level passes over the sorted edge list (see ``graphs``).
"""

from __future__ import annotations

from heapq import heappop, heappush

from .errors import NotForestSequence, NotGraphic, PreconditionViolated
from .graphs import Graph, RealizationWitness, WitnessClaim
from .sequences import DegreeSequence, is_forest_sequence, is_graphic

__all__ = [
    "havel_hakimi_realize",
    "forest_realize",
    "independent_tail_forest",
    "independent_dominating_head_forest",
]


def _hh_edges(degrees) -> list[tuple[int, int]]:
    """Havel-Hakimi edges realizing graphic ``degrees`` positionally.

    ``degrees`` may come in any order.  The vertex of highest residual
    degree is wired to the next-highest residuals, ties broken by the
    vertex's rank in one stable sort by -degree (its position, when
    ``degrees`` is non-increasing).  One heap holds the key
    (n - residual) * n + rank of each vertex with residual left, so a step
    pops the top vertex and its partners in order and pushes each partner
    back one residual lower (key + n): O(sum(d) * log n) in all.
    """
    n = len(degrees)
    order = sorted(range(n), key=lambda i: -degrees[i])
    heap = [(n - degrees[v]) * n + rank for rank, v in enumerate(order) if degrees[v]]
    last = n * n - n  # keys from here on have residual 1, the last one
    edges: list[tuple[int, int]] = []
    while heap:  # ascending from the sort, so already a heap
        key = heappop(heap)
        residual = n - key // n
        if len(heap) < residual:
            raise AssertionError("non-graphic sequence reached construction")
        taken = [heappop(heap) for _ in range(residual)]
        v = order[key % n]
        edges += [(v, order[t % n]) for t in taken]
        for t in taken:
            if t < last:
                heappush(heap, t + n)
    return edges


def havel_hakimi_realize(d: DegreeSequence) -> Graph:
    """Deterministic Havel-Hakimi realization of a graphic sequence."""
    if not is_graphic(d):
        raise NotGraphic(f"{d.entries} is not graphic")
    return Graph(d.n, _hh_edges(d.entries))


def _independent_tail_edges(degrees, k: int) -> list[tuple[int, int]]:
    """Forest edges on positions 0..n-1 with the tail {k..n-1} independent.

    ``degrees`` need not be sorted.  They must be positive with an even sum
    of at most 2n-2, and the head sum must be at least the tail sum; the
    caller checks all of that.  Each edge lists its head end first.

    Leaf peeling: every vertex waits on a stack by side and by residual
    (1 = leaf, >= 2 = big).  A tail leaf joins a head big, or a head leaf
    once no big is left anywhere; otherwise a head leaf joins a tail big,
    else a head big (the tail is spent by then), else another head leaf.
    A leaf is joined once and never touched again, so no cycle can close.
    Every join keeps the residual sum at most 2 * (#positive) - 2, so a
    leaf exists while edges remain, and the head sum at least the tail sum,
    so the leaf finds its partner.  Equal sums stay equal, and then no edge
    joins two head vertices.
    """
    residual = list(degrees)
    head_leaves, tail_leaves, head_big, tail_big = [], [], [], []
    for v, r in enumerate(residual):
        if v < k:
            (head_leaves if r == 1 else head_big).append(v)
        else:
            (tail_leaves if r == 1 else tail_big).append(v)
    edges = []
    while head_leaves or tail_leaves:
        if tail_leaves and (head_big or not tail_big):
            leaf = tail_leaves.pop()
            big, small = head_big, head_leaves
        else:
            leaf = head_leaves.pop()
            big, small = (tail_big, tail_leaves) if tail_big else (head_big, head_leaves)
        if big:
            partner = big[-1]
            residual[partner] -= 1
            if residual[partner] == 1:
                small.append(big.pop())
        else:
            partner = small.pop()
        edges.append((partner, leaf) if leaf >= k else (leaf, partner))
    return edges


def _peel_components(edges, size: int) -> list[list[int]]:
    """Components of the forest a leaf peel with an empty tail built on 0..size-1.

    ``edges`` come from ``_independent_tail_edges(f, len(f))`` with
    len(f) <= size; vertices from len(f) on are isolated.  Each edge joins
    a leaf, listed first, to a vertex still being peeled, whose own edge
    to its parent comes later (or never, at the last vertex of a
    component).  Walking the edges backwards therefore hands every leaf its
    parent's final root.  Grouping the vertices by root in order of first
    appearance gives what ``Graph.connected_components`` would: components
    ordered by their smallest member, members ascending.
    """
    root = list(range(size))
    for leaf, parent in reversed(edges):
        root[leaf] = root[parent]
    components: dict[int, list[int]] = {}
    for j, r in enumerate(root):
        components.setdefault(r, []).append(j)
    return list(components.values())


def _require_positive_forest(d: DegreeSequence) -> None:
    if d.n0 > 0:
        raise PreconditionViolated(f"{d.entries} has zero entries")
    if d.total & 1 or d.total > 2 * d.n - 2:
        raise PreconditionViolated(
            f"{d.entries} is not a forest sequence (sum {d.total} vs limit {2 * d.n - 2})"
        )


def _check_k(d: DegreeSequence, k: int) -> None:
    if not 1 <= k <= d.n:
        raise PreconditionViolated(f"split index k={k} outside 1..{d.n}")


def forest_realize(d: DegreeSequence) -> Graph:
    """Some forest realizing ``d`` positionally (zeros become isolated vertices)."""
    if not is_forest_sequence(d):
        raise NotForestSequence(f"{d.entries} is not a forest sequence")
    # with the split after the last positive vertex the independence
    # constraint is vacuous: just a deterministic forest construction
    p = d.positive_count
    return Graph(d.n, _independent_tail_edges(d.entries[:p], p))


def independent_tail_forest(d: DegreeSequence, k: int) -> RealizationWitness:
    """Forest realization whose tail {u_{k+1}, ..., u_n} is independent.

    Requires positive entries, an even degree sum of at most 2n-2, and
    head sum >= tail sum.  The head dominates because the forest has no
    isolated vertices and the tail is independent.
    """
    _require_positive_forest(d)
    _check_k(d, k)
    if d.prefix(k) < d.suffix(k):
        raise PreconditionViolated(
            f"head degree sum {d.prefix(k)} below tail degree sum {d.suffix(k)}"
        )
    edges = _independent_tail_edges(d.entries, k)
    return RealizationWitness.checked(
        Graph(d.n, edges),
        d,
        k,
        {WitnessClaim.IS_FOREST, WitnessClaim.TAIL_INDEPENDENT, WitnessClaim.HEAD_DOMINATING},
    )


def independent_dominating_head_forest(d: DegreeSequence, k: int) -> RealizationWitness:
    """Forest realization whose head {u_1, ..., u_k} is independent and dominating.

    Feasible iff the head degree sum is at least n - k and the tail degree
    surplus s = (tail sum) - (head sum) satisfies
    0 <= s <= max(0, 2 * ((#degrees >= 2) - k) - 2).

    With H the head sum and e_j the tail degrees, the forest is built
    directly from the degrees:

    1. pick tail-internal degrees f_j <= e_j - 1 with sum s on at least
       s/2 + 1 vertices, so f is a forest sequence, and realize it inside
       the tail;
    2. contract each of its components C into one node needing
       sum(e_j - f_j) >= |C| edges to the head;
    3. peel a forest on the head (degrees d_i) with those nodes as its
       independent tail (``_independent_tail_edges``): both sides sum to H,
       so no edge joins two head vertices, and the sum 2H fits a forest
       because H <= k + (#components) - 1, as #components = n - k - s/2
       and 2H + s = sum(d) <= 2n - 2;
    4. expand: hand each component's head edges to its members, e_j - f_j
       each.

    For s = 0 the tail forest is empty and every component is one tail
    vertex.  Contracting trees inside a forest and expanding them back
    keeps it a forest, and every tail vertex gets at least one head
    neighbour.
    """
    _require_positive_forest(d)
    _check_k(d, k)
    n = d.n
    head_sum, tail_sum = d.prefix(k), d.suffix(k)
    if head_sum < n - k:
        raise PreconditionViolated(
            f"head degree sum {head_sum} cannot dominate {n - k} tail vertices"
        )
    s = tail_sum - head_sum
    surplus_cap = max(0, 2 * (d.count_ge(2) - k) - 2)
    if s < 0 or s > surplus_cap:
        raise PreconditionViolated(
            f"tail degree surplus {s} outside [0, {surplus_cap}]"
        )
    claims = {
        WitnessClaim.IS_FOREST,
        WitnessClaim.HEAD_INDEPENDENT,
        WitnessClaim.HEAD_DOMINATING,
    }
    # f: one internal edge end on each of min(s, q) tail vertices of degree
    # >= 2 (q of them; s <= 2q - 2), the rest of s filling their spare room
    # e_j - 2 from the largest down.  That room is (tail sum) - (n - k) - q
    # >= s - q, since the head sum covers the n - k tail vertices.
    tail = d.entries[k:]
    f = [1] * min(s, d.count_ge(2) - k)
    spare, j = s - len(f), 0
    while spare:
        extra = min(tail[j] - 2, spare)
        f[j] += extra
        spare -= extra
        j += 1
    internal = _independent_tail_edges(f, len(f))
    f += [0] * (n - k - len(f))
    # one slot per head edge a component's members need
    slots = [
        [k + j for j in members for _ in range(tail[j] - f[j])]
        for members in _peel_components(internal, n - k)
    ]
    cross = _independent_tail_edges([*d.entries[:k], *map(len, slots)], k)
    edges = [(k + a, k + b) for a, b in internal]
    edges += [(head, slots[c - k].pop()) for head, c in cross]
    return RealizationWitness.checked(Graph(n, edges), d, k, claims)

