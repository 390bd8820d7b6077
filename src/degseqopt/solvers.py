"""Exact solvers for domination, independence, and clique numbers.

One branch and bound engine per invariant, run on each connected
component (gamma and alpha are additive over components; omega is the
largest over components of alpha of the component's complement):

* domination: minimum set cover over closed neighborhoods.  The search
  prunes on two lower bounds (a greedy distance-3 packing of uncovered
  vertices, and the uncovered count over the largest gain) and skips a
  coverer whose gain lies inside the gain of one it keeps: set-cover
  reductions of exact dominating-set algorithms (van Rooij and
  Bodlaender, 2011);
* independence: a search bounded by a greedy clique cover.

Both work on per-vertex neighbor bitmasks, a format private to this
module: the public solvers split a ``Graph`` into its connected components
(``Graph.connected_components``) and build each component's bitmasks from
the edge list in one pass, numbering the bits by position in the
component.  The oracle reads its numbers off subset tables of its own and
does not call these.
"""

from __future__ import annotations

from .errors import TooLarge
from .graphs import Graph

__all__ = [
    "DEFAULT_SOLVER_LIMIT",
    "domination_number",
    "independence_number",
    "clique_number",
]

DEFAULT_SOLVER_LIMIT = 32


def _bits(mask: int):
    while mask:
        lb = mask & -mask
        yield lb.bit_length() - 1
        mask ^= lb


def _gamma_branch_bound(masks: list[int], n: int) -> tuple[int, set[int]]:
    """Minimum set cover over closed-neighborhood masks.

    Starts from the greedy cover (largest gain first, lowest index on ties)
    and branches on the uncovered vertex with the smallest closed
    neighborhood, lowest index on ties, read off one order sorted up front:
    some vertex of its closed neighborhood must join the cover.  A node is
    pruned as soon as a lower bound on the vertices still to add reaches the
    room left below the best cover found:

    * packing: uncovered vertices at pairwise distance >= 3, picked greedily
      along that order, have disjoint closed neighborhoods, so no vertex
      covers two of them and each needs a vertex of its own;
    * gain: a vertex's gain is the set of uncovered vertices it covers, so
      at least ceil(|U| / largest gain) more vertices cover U.

    Both count vertices that every cover below the node must add, so no
    pruned node holds a smaller cover.  The coverers are tried by gain,
    largest first, and one whose gain lies inside a kept coverer's gain is
    skipped: swapping it for that coverer turns any cover into one no
    larger, so some minimum cover below the node goes through a kept one.
    """
    cn = [masks[v] | (1 << v) for v in range(n)]
    order = sorted(range(n), key=list(map(int.bit_count, cn)).__getitem__)
    near = [0] * n  # N[N[u]], built when the packing first picks u

    # greedy cover for the first upper bound
    unc = (1 << n) - 1
    best: list[int] = []
    while unc:
        gains = list(map(int.bit_count, map(unc.__and__, cn)))
        v = gains.index(max(gains))
        best.append(v)
        unc &= ~cn[v]
    chosen: list[int] = []

    def rec(unc: int) -> None:
        nonlocal best
        if not unc:  # the bounds let only a smaller cover get here
            best = list(chosen)
            return
        room = len(best) - len(chosen)
        # gain bound: no vertex covers more than `top` uncovered vertices
        top = max(map(int.bit_count, map(unc.__and__, cn)))
        lower = -(-unc.bit_count() // top)
        if lower >= room:
            return
        # packing bound: uncovered vertices pairwise at distance >= 3
        packed = 0
        left = unc
        for u in order:
            if left >> u & 1:
                packed += 1
                if packed >= room:
                    return
                ball = near[u]
                if not ball:
                    for w in _bits(cn[u]):
                        ball |= cn[w]
                    near[u] = ball
                left &= ~ball
        lower = max(lower, packed)
        u = next(u for u in order if unc >> u & 1)
        kept: list[int] = []  # gains of the coverers branched on
        for v in sorted(_bits(cn[u]), key=lambda v: -(cn[v] & unc).bit_count()):
            gain = cn[v] & unc
            if all(gain & ~other for other in kept):
                kept.append(gain)
                chosen.append(v)
                rec(unc & ~gain)
                chosen.pop()
                # a smaller cover found below may have closed this node
                if len(chosen) + lower >= len(best):
                    return

    rec((1 << n) - 1)
    return len(best), set(best)


def _alpha_branch_bound(masks: list[int], n: int) -> tuple[int, set[int]]:
    """Maximum independent set with a greedy clique-cover upper bound."""
    cn = [masks[v] | (1 << v) for v in range(n)]
    best_size = 0
    best_set: set[int] = set()

    def clique_cover_bound(pool: int) -> int:
        cliques: list[int] = []
        for v in _bits(pool):
            for i, c in enumerate(cliques):
                if c & ~masks[v] == 0:
                    cliques[i] = c | (1 << v)
                    break
            else:
                cliques.append(1 << v)
        return len(cliques)

    def rec(pool: int, current: list[int]) -> None:
        nonlocal best_size, best_set
        if not pool:
            if len(current) > best_size:
                best_size = len(current)
                best_set = set(current)
            return
        if len(current) + clique_cover_bound(pool) <= best_size:
            return
        v = max(_bits(pool), key=lambda x: ((masks[x] & pool).bit_count(), -x))
        current.append(v)
        rec(pool & ~cn[v], current)
        current.pop()
        rec(pool & ~(1 << v), current)

    rec((1 << n) - 1, [])
    return best_size, best_set


def _component_masks(g: Graph) -> list[tuple[list[int], list[int]]]:
    """Each connected component of ``g`` with its neighbor bitmasks.

    Bit i of a mask stands for the component's i-th vertex; a component is
    a sorted vertex list, so on a connected graph the bits are the vertices.
    """
    components = g.connected_components()
    index = [0] * g.n
    for comp in components:
        for i, v in enumerate(comp):
            index[v] = i
    masks = [0] * g.n
    for u, v in g.edges():  # both ends lie in one component
        masks[u] |= 1 << index[v]
        masks[v] |= 1 << index[u]
    return [(comp, [masks[v] for v in comp]) for comp in components]


def _solve(g: Graph, branch_bound) -> tuple[int, set[int]]:
    """``branch_bound`` on each connected component; the sizes add up."""
    total = 0
    chosen: set[int] = set()
    for comp, masks in _component_masks(g):
        size, picked = branch_bound(masks, len(comp))
        total += size
        chosen.update(comp[i] for i in picked)
    return total, chosen


def _check_limit(n: int, limit: int) -> None:
    if n > limit:
        raise TooLarge(f"graph has {n} vertices, solver limit is {limit}")


def domination_number(g: Graph, limit: int = DEFAULT_SOLVER_LIMIT) -> tuple[int, frozenset[int]]:
    """Exact domination number of ``g`` plus one minimum dominating set."""
    _check_limit(g.n, limit)
    size, chosen = _solve(g, _gamma_branch_bound)
    return size, frozenset(chosen)


def independence_number(g: Graph, limit: int = DEFAULT_SOLVER_LIMIT) -> tuple[int, frozenset[int]]:
    """Exact independence number of ``g`` plus one maximum independent set."""
    _check_limit(g.n, limit)
    size, chosen = _solve(g, _alpha_branch_bound)
    return size, frozenset(chosen)


def clique_number(g: Graph, limit: int = DEFAULT_SOLVER_LIMIT) -> int:
    """Exact clique number: the largest over the components of ``g`` of the
    independence number of the component's complement."""
    _check_limit(g.n, limit)
    best = 0
    for comp, masks in _component_masks(g):
        full = (1 << len(comp)) - 1
        complement = [full ^ m ^ (1 << i) for i, m in enumerate(masks)]
        best = max(best, _alpha_branch_bound(complement, len(comp))[0])
    return best
