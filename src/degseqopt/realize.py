"""Constructive realization algorithms.

Besides the classical Havel-Hakimi graph construction and a generic
forest construction, this module builds the two structured forest
realizations the extremal formulas rest on:

* a forest whose tail vertices {u_{k+1}, ..., u_n} form an independent
  set (exists iff the head degree sum is at least the tail degree sum);
* a forest whose head {u_1, ..., u_k} is an independent dominating set
  (exists iff the head sum covers the tail size and the tail degree
  surplus fits inside a forest on the high-degree tail vertices).

Both are built from the degrees alone: the first by peeling leaves and
contracting equal-degree blocks, the second by a small forest inside the
tail whose components are peeled against the head as a bipartite forest
and expanded back.  All constructions are
deterministic and return witnesses that re-check their own claims on
construction.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import count

from .errors import NotForestSequence, NotGraphic, PreconditionViolated
from .graphs import Graph, RealizationWitness, WitnessClaim
from .sequences import DegreeSequence, is_forest_sequence, is_graphic

__all__ = [
    "havel_hakimi_realize",
    "forest_realize",
    "independent_tail_forest",
    "independent_dominating_head_forest",
]


def _hh_edges(degrees: tuple[int, ...]) -> list[tuple[int, int]]:
    """Havel-Hakimi edges realizing ``degrees`` positionally.

    Assumes the (non-increasing) sequence is graphic.  The vertex of
    highest residual degree is wired to the next-highest residuals,
    ties broken by position.  Vertices sit in buckets of ascending
    positions per residual degree, so (-residual, position) order is the
    buckets read from the top down: each step takes prefixes of the top
    buckets, then merges each taken run into the bucket one lower.
    """
    buckets: list[list[int]] = [[] for _ in range(max(degrees, default=0) + 1)]
    for i, d in enumerate(degrees):
        buckets[d].append(i)
    edges: list[tuple[int, int]] = []
    top = len(buckets) - 1
    while True:
        while top and not buckets[top]:
            top -= 1
        if not top:
            return edges
        v = buckets[top].pop(0)
        taken = []
        need, level = top, top
        while need:
            if not level:
                raise AssertionError("non-graphic sequence reached construction")
            run = buckets[level][:need]
            del buckets[level][:need]
            taken.append((level, run))
            need -= len(run)
            level -= 1
        for level, run in taken:
            edges.extend((v, w) for w in run)
            if level > 1:  # two ascending runs: sorted() merges them in one pass
                buckets[level - 1] = sorted(buckets[level - 1] + run)


def havel_hakimi_realize(d: DegreeSequence) -> Graph:
    """Deterministic Havel-Hakimi realization of a graphic sequence."""
    if not is_graphic(d):
        raise NotGraphic(f"{d.entries} is not graphic")
    return Graph(d.n, _hh_edges(d.entries))


_sort_key = lambda item: (-item[0], item[1])  # noqa: E731


def _independent_tail_edges(degrees, k: int) -> list[tuple[int, int]]:
    """Forest edges on positions 0..n-1 with {k..n-1} independent.

    ``degrees`` must be non-increasing and positive with an even sum of at
    most 2n-2, and the head sum must be at least the tail sum; the caller
    checks all of that.  While the head strictly out-degrees the tail
    boundary, peel a degree-1 vertex off the end and re-attach it to the top
    vertex; when the boundary degree ties the maximum, contract an
    (l+1)-block of degree-l vertices into one virtual vertex of degree
    l(l-1); once all degrees are one, wire them up and undo the steps in
    reverse, expanding each virtual vertex into a star whose leaves inherit
    its edges round-robin.  Iterative, so n is not bounded by the recursion
    limit.
    """
    # Each step shrinks the live part items[h:] (kept sorted by
    # ``_sort_key``) and records only what undoing it needs: a peel edge
    # (p1, pl), or a contraction (virtual id, leaves, center).  The base
    # case wires the all-ones residue; the records are then undone in
    # reverse order.  Slots before h are dead, so dropping the top vertex
    # moves nothing.
    items = sorted(((d, i) for i, d in enumerate(degrees)), key=_sort_key)
    virtual_ids = count(-1, -1)
    unwind: list[tuple] = []
    h = 0
    total = sum(degrees)
    while total != len(items) - h:
        n = len(items) - h
        if k == n or items[h][0] > items[h + k][0]:
            dl, pl = items.pop()
            assert dl == 1, "a positive sequence with sum < 2n must end in a 1"
            d1, p1 = items[h]
            # the rest stays sorted and keys are distinct, so inserting the
            # decremented top vertex gives the order a full sort would
            top = (d1 - 1, p1)
            pos = bisect_left(items, _sort_key(top), h + 1, key=_sort_key)
            if pos == h + 1:
                items[h] = top
            else:
                items.insert(pos, top)
                h += 1
            k = min(k, n - 1)
            total -= 2
            unwind.append((p1, pl))
            continue
        # boundary tie: items[h..h+k] all share degree l
        ell = items[h + k][0]
        assert 2 <= ell <= k
        leaves = [items[h + i][1] for i in range(ell)]
        center = items[h + k][1]
        virt = next(virtual_ids)
        # drop the leaves and the center; l(l-1) >= l, and a tie at 2 goes
        # to the newest (smallest) id, so the virtual vertex leads the order
        del items[h + k]
        h += ell - 1
        items[h] = (ell * (ell - 1), virt)
        k = k - ell + 1
        total -= 2 * ell
        unwind.append((virt, leaves, center))

    # Every edge ever made, in order of creation; an edge a contraction
    # removes becomes None.  ``incident`` indexes the edges at each virtual
    # vertex, so undoing a contraction costs its degree, not the edge count.
    edges: list = []
    incident: dict[int, list[int]] = {}

    def add(a: int, b: int) -> None:
        for x in (a, b):
            if x < 0:
                incident.setdefault(x, []).append(len(edges))
        edges.append((a, b))

    # all degrees one: match each tail vertex to a head vertex, then pair
    # off the surplus head vertices
    tail_size = len(items) - h - k
    assert k >= tail_size, "head sum must cover the tail"
    for j in range(h, h + tail_size):
        add(items[j][1], items[k + j][1])
    leftover = [items[i][1] for i in range(h + tail_size, h + k)]
    assert len(leftover) % 2 == 0
    for a in range(0, len(leftover), 2):
        add(leftover[a], leftover[a + 1])

    for step in reversed(unwind):
        if len(step) == 2:
            add(*step)
            continue
        # expand the virtual vertex into a star whose leaves inherit its
        # edges round-robin
        virt, leaves, center = step
        ell = len(leaves)
        inherited: list[int] = []
        for i in incident.pop(virt):
            if edges[i] is None:  # already replaced by another expansion
                continue
            a, b = edges[i]
            inherited.append(b if a == virt else a)
            edges[i] = None
        assert len(inherited) == ell * (ell - 1)
        inherited.sort()
        for idx, nb in enumerate(inherited):
            add(leaves[idx % ell], nb)
        for leaf in leaves:
            add(center, leaf)
    return [e for e in edges if e is not None]


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
    pos = d.positive_part()
    if pos is None:
        return Graph(d.n)
    # with the split after the last vertex the independence constraint is
    # vacuous, so this is just a deterministic forest construction
    return Graph(d.n, _independent_tail_edges(pos.entries, pos.n))


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

    For s > 0, with H the head sum and e_j the tail degrees, the forest is
    built directly from the degrees:

    1. pick tail-internal degrees f_j <= e_j - 1 with sum s on at least
       s/2 + 1 vertices, so f is a forest sequence, and realize it inside
       the tail;
    2. contract each of its components C into one node needing
       sum(e_j - f_j) >= |C| edges to the head;
    3. peel a bipartite forest between the head (degrees d_i) and those
       nodes (``_bipartite_forest``): both sides sum to H, and
       H <= k + (#components) - 1 because #components = n - k - s/2 and
       2H + s = sum(d) <= 2n - 2;
    4. expand: hand each component's head edges to its members, e_j - f_j
       each.

    Contracting trees inside a forest and expanding them back keeps it a
    forest, no edge joins two head vertices, and every tail vertex gets at
    least one head neighbour.
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
    if s == 0:
        # equal degree sums force an edgeless head in the independent-tail
        # construction, so it already has the head independent
        edges = _independent_tail_edges(d.entries, k)
        return RealizationWitness.checked(Graph(n, edges), d, k, claims)

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
        for members in Graph(n - k, internal).connected_components()
    ]
    cross = _bipartite_forest(d.entries[:k], [len(c) for c in slots])
    edges = [(k + a, k + b) for a, b in internal]
    edges += [(head, slots[c].pop()) for head, c in cross]
    return RealizationWitness.checked(Graph(n, edges), d, k, claims)


def _bipartite_forest(left, right) -> list[tuple[int, int]]:
    """Edges (i, j) of a forest with degree left[i] at i and right[j] at j.

    Requires positive degrees with equal sums H <= len(left) + len(right) - 1.
    Leaf peeling: a residual-1 node is joined to a node of residual >= 2 on
    the other side, or to a residual-1 node there if none is left, and is
    then never touched again, so no cycle can close.  While edges remain a
    leaf exists: with every residual >= 2 each side would have at most
    H'/2 nodes, against H' <= (nodes left) - 1, and each join keeps that
    bound whichever partner it takes.
    """
    residual = (list(left), list(right))
    big = tuple([i for i, r in enumerate(side) if r >= 2] for side in residual)
    leaves = tuple([i for i, r in enumerate(side) if r == 1] for side in residual)
    edges = []
    while leaves[0] or leaves[1]:
        side = 0 if leaves[0] else 1
        other = 1 - side
        leaf = leaves[side].pop()
        if big[other]:
            partner = big[other][-1]
            residual[other][partner] -= 1
            if residual[other][partner] == 1:
                leaves[other].append(big[other].pop())
        else:
            partner = leaves[other].pop()
        edges.append((leaf, partner) if side == 0 else (partner, leaf))
    return edges
