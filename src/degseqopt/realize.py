"""Constructive realization algorithms.

Besides the classical Havel-Hakimi graph construction and a generic
forest construction, this module builds the two structured forest
realizations the extremal formulas rest on:

* a forest whose tail vertices {u_{k+1}, ..., u_n} form an independent
  set (exists iff the head degree sum is at least the tail degree sum);
* a forest whose head {u_1, ..., u_k} is an independent dominating set
  (exists iff the head sum covers the tail size and the tail degree
  surplus fits inside a forest on the high-degree tail vertices).

All constructions are deterministic and return witnesses that re-check
their own claims on construction.
"""

from __future__ import annotations

from itertools import count

from .bipartite import BipartiteDegreeSpec, build_bounded_bipartite
from .errors import (
    InternalRepairFailure,
    NotForestSequence,
    NotGraphic,
    PreconditionViolated,
)
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
    ties broken by position.
    """
    items = [[d, i] for i, d in enumerate(degrees)]
    edges: list[tuple[int, int]] = []
    while True:
        items.sort(key=lambda it: (-it[0], it[1]))
        r, v = items[0]
        if r == 0:
            return edges
        if r > len(items) - 1:
            raise AssertionError("non-graphic sequence reached construction")
        items[0][0] = 0
        for t in range(1, r + 1):
            items[t][0] -= 1
            if items[t][0] < 0:
                raise AssertionError("non-graphic sequence reached construction")
            edges.append((v, items[t][1]))


def havel_hakimi_realize(d: DegreeSequence) -> Graph:
    """Deterministic Havel-Hakimi realization of a graphic sequence."""
    if not is_graphic(d):
        raise NotGraphic(f"{d.entries} is not graphic")
    return Graph(d.n, _hh_edges(d.entries))


_sort_key = lambda item: (-item[0], item[1])  # noqa: E731


def _independent_tail_edges(degrees, k: int, virtual_ids=None) -> list[tuple[int, int]]:
    """Forest edges on positions 0..n-1 with {k..n-1} independent.

    ``degrees`` must be non-increasing and positive with an even sum of at
    most 2n-2, and the head sum must be at least the tail sum; the caller
    checks all of that.  Recursive construction: while the head strictly
    out-degrees the tail boundary, peel a degree-1 vertex off the end and
    re-attach it to the top vertex; when the boundary degree ties the
    maximum, contract an (l+1)-block of degree-l vertices into one virtual
    vertex of degree l(l-1), recurse, and expand the virtual vertex back
    into a star whose leaves inherit its edges round-robin.
    """
    if virtual_ids is None:
        virtual_ids = count(-1, -1)
    items = sorted(((d, i) for i, d in enumerate(degrees)), key=_sort_key)
    return _build_forest(items, k, virtual_ids)


def _build_forest(items, k, virtual_ids) -> list[tuple[int, int]]:
    n = len(items)
    total = sum(d for d, _ in items)
    if total == 0:
        return []
    if total == n:
        # all degrees one: match each tail vertex to a head vertex, then
        # pair off the surplus head vertices
        tail_size = n - k
        assert k >= tail_size, "head sum must cover the tail"
        edges = [(items[j][1], items[k + j][1]) for j in range(tail_size)]
        leftover = [items[i][1] for i in range(tail_size, k)]
        assert len(leftover) % 2 == 0
        for a in range(0, len(leftover), 2):
            edges.append((leftover[a], leftover[a + 1]))
        return edges
    if k == n or items[0][0] > items[k][0]:
        d1, p1 = items[0]
        dl, pl = items[-1]
        assert dl == 1, "a positive sequence with sum < 2n must end in a 1"
        rest = sorted([(d1 - 1, p1)] + items[1:-1], key=_sort_key)
        edges = _build_forest(rest, min(k, n - 1), virtual_ids)
        edges.append((p1, pl))
        return edges
    # boundary tie: items[0..k] all share degree l
    ell = items[k][0]
    assert 2 <= ell <= k
    leaves = [items[i][1] for i in range(ell)]
    center = items[k][1]
    virt = next(virtual_ids)
    rest = [(ell * (ell - 1), virt)] + items[ell:k] + items[k + 1:]
    edges = _build_forest(rest, k - ell + 1, virtual_ids)
    kept: list[tuple[int, int]] = []
    inherited: list[int] = []
    for a, b in edges:
        if a == virt:
            inherited.append(b)
        elif b == virt:
            inherited.append(a)
        else:
            kept.append((a, b))
    assert len(inherited) == ell * (ell - 1)
    inherited.sort()
    for idx, nb in enumerate(inherited):
        kept.append((leaves[idx % ell], nb))
    kept.extend((center, leaf) for leaf in leaves)
    return kept


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

    Built as a degree-bounded bipartite graph between head and tail plus a
    forest on the leftover tail degrees, then repaired into a forest by
    component-merging edge swaps.
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

    r = min(s, d.count_ge(2) - k)
    assert r >= 1 and d.entries[k] >= 2
    tail_deg = d.entries[k:]
    spec = BipartiteDegreeSpec.create(
        lower_left=d.entries[:k],
        upper_left=d.entries[:k],
        lower_right=[1] * (n - k),
        upper_right=[tail_deg[j] - 1 if j < r else tail_deg[j] for j in range(n - k)],
    )
    h = build_bounded_bipartite(spec)
    edges = {
        (spec.left_order[u], k + spec.right_order[v - k]) for u, v in h.edges()
    }

    # leftover tail degrees form a small forest among the first r tail slots
    sorted_index_of = {j: sj for sj, j in enumerate(spec.right_order)}
    residual = [tail_deg[j] - h.degree(k + sorted_index_of[j]) for j in range(n - k)]
    positive = [(residual[j], j) for j in range(n - k) if residual[j] > 0]
    assert all(j < r for _, j in positive) and sum(rd for rd, _ in positive) == s
    sorted_pos = sorted(positive, key=lambda t: (-t[0], t[1]))
    sub_edges = _independent_tail_edges([rd for rd, _ in sorted_pos], len(sorted_pos))
    edges.update(
        (min(k + sorted_pos[a][1], k + sorted_pos[b][1]),
         max(k + sorted_pos[a][1], k + sorted_pos[b][1]))
        for a, b in sub_edges
    )

    edges = _repair_cycles(n, k, edges)
    return RealizationWitness.checked(Graph(n, sorted(edges)), d, k, claims)


def _repair_cycles(n: int, k: int, edges: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """Swap cross edges between components until the graph is a forest.

    Each swap removes one cross edge on a cycle and one cross edge in
    another component and reconnects them crosswise, merging the two
    components; the component count strictly decreases, so at most n
    rounds are ever needed.
    """
    previous_components = n + 1
    for _ in range(n + 1):
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        comp = [-1] * n
        comps: list[list[int]] = []
        for start in range(n):
            if comp[start] >= 0:
                continue
            cid = len(comps)
            stack, members = [start], []
            comp[start] = cid
            while stack:
                u = stack.pop()
                members.append(u)
                for v in adj[u]:
                    if comp[v] < 0:
                        comp[v] = cid
                        stack.append(v)
            comps.append(sorted(members))
        assert len(comps) < previous_components
        previous_components = len(comps)

        cycle = None
        for members in comps:
            edge_count = sum(len(adj[u]) for u in members) // 2
            if edge_count >= len(members):
                cycle = _find_cycle(adj, members[0])
                break
        if cycle is None:
            return edges

        cyc_id = comp[cycle[0]]
        cyc_cross = min(
            _cross(cycle[i], cycle[(i + 1) % len(cycle)], k)
            for i in range(len(cycle))
            if _is_cross(cycle[i], cycle[(i + 1) % len(cycle)], k)
        )
        other = None
        for members in comps:
            if comp[members[0]] == cyc_id:
                continue
            cross = [
                _cross(u, v, k) for u, v in edges
                if comp[u] == comp[members[0]] and _is_cross(u, v, k)
            ]
            if cross:
                other = min(cross)
                break
        if other is None:
            raise InternalRepairFailure("no cross edge outside the cyclic component")
        u, v = cyc_cross    # head u, tail v, on the cycle
        x, y = other        # head x, tail y, elsewhere
        edges.discard((min(u, v), max(u, v)))
        edges.discard((min(x, y), max(x, y)))
        edges.add((min(u, y), max(u, y)))
        edges.add((min(x, v), max(x, v)))
    raise InternalRepairFailure("cycle repair did not terminate")


def _is_cross(u: int, v: int, k: int) -> bool:
    return (u < k) != (v < k)


def _cross(u: int, v: int, k: int) -> tuple[int, int]:
    return (u, v) if u < k else (v, u)


def _find_cycle(adj: list[list[int]], start: int) -> list[int]:
    """Vertices of some cycle in the component of ``start`` (which has one)."""
    parent = {start: -1}
    stack = [(start, -1)]
    while stack:
        u, pu = stack.pop()
        for v in sorted(adj[u]):
            if v == pu or parent.get(v) == u:
                continue
            if v in parent:
                # non-tree edge u-v: close the cycle through the lowest
                # common ancestor of u and v in the discovery tree
                anc_u = [u]
                x = u
                while parent[x] != -1:
                    x = parent[x]
                    anc_u.append(x)
                index_in_u = {vertex: idx for idx, vertex in enumerate(anc_u)}
                path_v = [v]
                x = v
                while x not in index_in_u:
                    x = parent[x]
                    path_v.append(x)
                meet = path_v[-1]
                down_to_u = list(reversed(anc_u[: index_in_u[meet]]))
                return path_v + down_to_u
            parent[v] = u
            stack.append((v, u))
    raise AssertionError("component contained no cycle")
