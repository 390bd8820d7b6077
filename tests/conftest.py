"""Shared test helpers: independent brute-force oracles and generators.

Everything here deliberately avoids the production solver paths so the
tests cross-check two unrelated implementations.
"""

from __future__ import annotations

import random
import sys
from functools import lru_cache
from itertools import combinations, groupby

from degseqopt import (
    DegreeSequence,
    Graph,
    GraphClass,
    OracleReport,
    PreconditionViolated,
    clique_number,
    domination_number,
    independence_number,
)


# ---------------------------------------------------------------------------
# graph views built from the edge list (the graph model keeps only edges)


def neighbours(g: Graph) -> list[set[int]]:
    """The set of neighbours of each vertex."""
    out = [set() for _ in range(g.n)]
    for u, v in g.edges():
        out[u].add(v)
        out[v].add(u)
    return out


def neighbour_masks(g: Graph) -> list[int]:
    """Per-vertex neighbour bitmasks, bit w standing for vertex w."""
    return [sum(1 << w for w in nbrs) for nbrs in neighbours(g)]


def has_edge(g: Graph, u: int, v: int) -> bool:
    return (min(u, v), max(u, v)) in g.edges()


def same_graph(g: Graph, h: Graph) -> bool:
    return g.n == h.n and g.edges() == h.edges()


def components_reference(g: Graph) -> list[list[int]]:
    """Components by breadth-first search, as sorted vertex lists ordered by
    smallest vertex."""
    nbrs = neighbours(g)
    seen = [False] * g.n
    out = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        for u in queue:  # the list grows while it is read: a FIFO queue
            for w in nbrs[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        out.append(sorted(queue))
    return out


# ---------------------------------------------------------------------------
# naive exact solvers (subset enumeration, smallest-first / largest-first)


def naive_domination(g: Graph) -> int:
    n = g.n
    if n == 0:
        return 0
    closed = [nbrs | {v} for v, nbrs in enumerate(neighbours(g))]
    everything = set(range(n))
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            covered = set()
            for v in subset:
                covered |= closed[v]
            if covered == everything:
                return size
    raise AssertionError("the full vertex set always dominates")


def naive_independence(g: Graph) -> int:
    n = g.n
    nbrs = neighbours(g)
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            if all(v not in nbrs[u] for u, v in combinations(subset, 2)):
                return size
    return 0


def naive_clique(g: Graph) -> int:
    n = g.n
    nbrs = neighbours(g)
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            if all(v in nbrs[u] for u, v in combinations(subset, 2)):
                return size
    return 0


def subset_table_reference(masks: tuple[int, ...], n: int) -> tuple[int, int, int]:
    """(gamma, alpha, omega) of the graph with neighbor bitmasks ``masks``,
    read off tables over all 2^n vertex subsets (use only for n <= 14).

    Index s + 2^v stands for s plus a vertex v above all of s: its closed
    neighborhood gains N[v], it stays independent when v has no neighbor in
    s, and it stays a clique when v is adjacent to all of s.
    """
    full = (1 << n) - 1
    cover, independent, clique = [0], [True], [True]
    for v in range(n):
        low = range(1 << v)
        cover += [c | masks[v] | 1 << v for c in cover]
        independent += [ok and not masks[v] & s for s, ok in zip(low, independent)]
        clique += [ok and masks[v] & s == s for s, ok in zip(low, clique)]
    sizes = list(map(int.bit_count, range(1 << n)))
    return (
        min(sizes[s] for s in range(1 << n) if cover[s] == full),
        max(sizes[s] for s in range(1 << n) if independent[s]),
        max(sizes[s] for s in range(1 << n) if clique[s]),
    )


# ---------------------------------------------------------------------------
# independent sequence-level references


def graphic_havel_hakimi(d) -> bool:
    """Havel-Hakimi test by iterated reduction of the largest entry."""
    seq = sorted(d, reverse=True)
    while seq and seq[0] > 0:
        v = seq.pop(0)
        if v > len(seq):
            return False
        for i in range(v):
            seq[i] -= 1
            if seq[i] < 0:
                return False
        seq.sort(reverse=True)
    return True


def gamma_min_forest_fastpath(d: DegreeSequence) -> int:
    """Closed form of the smallest forest domination number, leaf-rich case.

    Requires positive entries with even sum at most 2n-2 and at least as
    many leaves as the total degree of the non-leaf vertices; then the
    value is (#degrees >= 2) + (n1 - sum of degrees >= 2) / 2, which also
    equals both the Slater number and n - annihilation.
    """
    entries = d.entries
    if 0 in entries:
        raise PreconditionViolated(f"{entries} has zero entries")
    if sum(entries) & 1 or sum(entries) > 2 * len(entries) - 2:
        raise PreconditionViolated(f"{entries} is not a forest sequence")
    heavy = [x for x in entries if x >= 2]
    n1 = entries.count(1)
    if n1 < sum(heavy):
        raise PreconditionViolated(f"needs at least {sum(heavy)} leaves, sequence has {n1}")
    return len(heavy) + (n1 - sum(heavy)) // 2


def profiles_by_sum(caps: list[int]) -> dict[int, list[tuple[int, ...]]]:
    """Every non-increasing positive sequence with v_i <= caps[i], by sum.

    The eager enumeration the profile scan used to build for each side;
    each group lists its profiles in lexicographically descending order.
    """
    out: dict[int, list[tuple[int, ...]]] = {}
    seq: list[int] = []

    def rec(i: int, hi: int, total: int) -> None:
        if i == len(caps):
            out.setdefault(total, []).append(tuple(seq))
            return
        for v in range(min(hi, caps[i]), 0, -1):
            seq.append(v)
            rec(i + 1, v, total + v)
            seq.pop()

    rec(0, max(caps, default=0), 0)
    return out


def rao_clique_feasible_positional(entries, k: int) -> bool:
    """Clique peel on the k largest entries, on a plain list.

    Drops the first entry, lowers the next d entries by one and re-sorts
    the tail beyond the remaining clique entries; feasible iff nothing goes
    negative on the way and the final tail is graphic.
    """
    seq = list(entries)
    for i in range(k):
        v = seq.pop(0)
        remaining_clique = k - i - 1
        if v < remaining_clique or v > len(seq):
            return False
        for t in range(v):
            seq[t] -= 1
            if seq[t] < 0:
                return False
        tail = seq[remaining_clique:]
        tail.sort(reverse=True)
        seq[remaining_clique:] = tail
    return graphic_havel_hakimi(seq)


def hh_edges_reference(degrees) -> list[tuple[int, int]]:
    """Havel-Hakimi edges by a full re-sort of the residuals at every step.

    The vertex of highest residual (lowest position on ties) is wired to
    the next-highest residuals in (-residual, position) order.
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


def realizations_reference(d: DegreeSequence, forest: bool = False) -> list[Graph]:
    """Every labeled graph with degree(u_i) = d_i, by deciding each vertex
    pair in turn; a branch dies once a vertex has more degree left than
    partners still to decide."""
    n = d.n
    residual = list(d.entries)
    pairs = list(combinations(range(n), 2))
    edges: list[tuple[int, int]] = []
    out: list[Graph] = []

    def rec(t: int) -> None:
        if t == len(pairs):
            if not any(residual):
                g = Graph(n, edges)
                if not forest or g.is_forest():
                    out.append(g)
            return
        u, v = pairs[t]
        if residual[u] and residual[v]:
            residual[u] -= 1
            residual[v] -= 1
            edges.append((u, v))
            if residual[u] <= n - 1 - v:
                rec(t + 1)
            edges.pop()
            residual[u] += 1
            residual[v] += 1
        if residual[u] <= n - 1 - v:
            rec(t + 1)

    rec(0)
    return out


def oracle_extrema_reference(d: DegreeSequence, graph_class: GraphClass) -> OracleReport:
    """Oracle extrema by solving every realization of an independent
    enumeration from scratch."""
    graphs = realizations_reference(d, forest=graph_class is GraphClass.FOREST)
    values = [(domination_number(g)[0], independence_number(g)[0], clique_number(g))
              for g in graphs]
    lo = [min(column) for column in zip(*values)] or [None] * 3
    hi = [max(column) for column in zip(*values)] or [None] * 3
    return OracleReport(
        sequence=d,
        graph_class=graph_class,
        realization_count=len(graphs),
        gamma_min=lo[0],
        gamma_max=hi[0],
        alpha_min=lo[1],
        alpha_max=hi[1],
        omega_min=lo[2],
        omega_max=hi[2],
    )


def gamma_branch_bound_reference(masks: tuple[int, ...], n: int) -> tuple[int, set[int]]:
    """Minimum set cover over closed neighborhoods, in the mask format of
    ``solvers._gamma_branch_bound``: the greedy cover as the first upper
    bound, ceil(|U| / max gain) as the only lower bound, and every coverer
    of the branch vertex tried, with no packing bound or subset rule.
    """
    full = (1 << n) - 1
    cn = [masks[v] | (1 << v) for v in range(n)]
    uncovered = full
    greedy: list[int] = []
    while uncovered:
        v = max(range(n), key=lambda x: ((cn[x] & uncovered).bit_count(), -x))
        greedy.append(v)
        uncovered &= ~cn[v]
    best_size = len(greedy)
    best_set = list(greedy)

    def rec(uncovered: int, chosen: list[int]) -> None:
        nonlocal best_size, best_set
        if not uncovered:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_set = list(chosen)
            return
        max_cover = max((cn[v] & uncovered).bit_count() for v in range(n))
        lower = (uncovered.bit_count() + max_cover - 1) // max_cover
        if len(chosen) + lower >= best_size:
            return
        uncovered_list = [v for v in range(n) if uncovered >> v & 1]
        u = min(uncovered_list, key=lambda x: cn[x].bit_count())
        coverers = [v for v in range(n) if cn[u] >> v & 1]
        for v in sorted(coverers, key=lambda v: (-(cn[v] & uncovered).bit_count(), v)):
            chosen.append(v)
            rec(uncovered & ~cn[v], chosen)
            chosen.pop()

    rec(full, [])
    return best_size, set(best_set)


def search_tree_shape(engine, masks: tuple[int, ...]):
    """``engine(masks, n)`` and its search tree's node count per depth.

    The branch and bound engines recurse through a nested function named
    ``rec``, one call per node; the profiler hook counts those calls at each
    nesting depth, so entry 0 is the root and entry 1 its children.
    """
    depth = 0
    counts: list[int] = []

    def hook(frame, event, arg):
        nonlocal depth
        if frame.f_code.co_name != "rec":
            return
        if event == "call":
            if depth == len(counts):
                counts.append(0)
            counts[depth] += 1
            depth += 1
        elif event == "return":
            depth -= 1

    sys.setprofile(hook)
    try:
        result = engine(masks, len(masks))
    finally:
        sys.setprofile(None)
    return result, counts


def two_switch(g: Graph, xy: tuple[int, int], xpyp: tuple[int, int]) -> Graph:
    """Exchange disjoint edges xy, x'y' for the non-edges xx', yy'.

    Degrees are preserved vertex by vertex, and 2-switches connect all
    realizations of a sequence (R. Taylor 1981).  Raises
    PreconditionViolated naming the failing pair when the edges are not
    disjoint, not present, or the replacement pairs are already adjacent.
    """
    x, y = xy
    xp, yp = xpyp
    if not all(0 <= v < g.n for v in (x, y, xp, yp)):
        raise PreconditionViolated(f"vertex out of range in {xy}, {xpyp}")
    if len({x, y, xp, yp}) != 4:
        raise PreconditionViolated(f"edges {xy} and {xpyp} are not disjoint")
    if not has_edge(g, x, y):
        raise PreconditionViolated(f"{xy} is not an edge")
    if not has_edge(g, xp, yp):
        raise PreconditionViolated(f"{xpyp} is not an edge")
    if has_edge(g, x, xp):
        raise PreconditionViolated(f"({x}, {xp}) is already an edge")
    if has_edge(g, y, yp):
        raise PreconditionViolated(f"({y}, {yp}) is already an edge")
    removed = {(min(x, y), max(x, y)), (min(xp, yp), max(xp, yp))}
    added = {(min(x, xp), max(x, xp)), (min(y, yp), max(y, yp))}
    return Graph(g.n, sorted(set(g.edges()) - removed | added))


def all_graphs(n: int):
    """Every labeled graph on n vertices (use only for small n)."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


# ---------------------------------------------------------------------------
# random graph generators (seeded by the caller)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_connected_gnp(rng: random.Random, n: int, p: float) -> Graph:
    """G(n, p), then an edge from each later component to a random earlier vertex."""
    g = random_graph(rng, n, p)
    edges = g.edges()
    comps = g.connected_components()
    for i in range(1, len(comps)):
        u = rng.choice([v for comp in comps[:i] for v in comp])
        v = rng.choice(comps[i])
        edges.append((min(u, v), max(u, v)))
    return Graph(n, edges)


def random_tree(rng: random.Random, n: int) -> Graph:
    """Uniform labeled tree from a random Pruefer sequence."""
    if n <= 1:
        return Graph(n)
    if n == 2:
        return Graph(2, [(0, 1)])
    pruefer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in pruefer:
        degree[x] += 1
    edges = []
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    for x in pruefer:
        leaf = leaves.pop(0)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            import bisect

            bisect.insort(leaves, x)
    u, v = leaves[0], leaves[1]
    edges.append((min(u, v), max(u, v)))
    return Graph(n, edges)


def random_connected_graph(rng: random.Random, n: int, extra_edges: int) -> Graph:
    """Random tree plus ``extra_edges`` distinct chords."""
    tree = random_tree(rng, n)
    present = set(tree.edges())
    non_edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (i, j) not in present
    ]
    if extra_edges > len(non_edges):
        raise ValueError("not enough non-edges")
    chords = rng.sample(non_edges, extra_edges)
    return Graph(n, sorted(present | set(chords)))


# ---------------------------------------------------------------------------
# independent bipartite existence checks


def bipartite_exists_bruteforce(lower_left, upper_left, lower_right, upper_right) -> bool:
    """Exhaustive search for a bipartite graph within the degree bounds.

    Assigns left vertices one at a time; right vertices are tracked as a
    sorted multiset of (remaining need, remaining capacity) pairs, which
    makes identical right vertices interchangeable and the memo small.
    """
    m = len(lower_left)
    start = tuple(sorted(zip(lower_right, upper_right)))

    @lru_cache(maxsize=None)
    def exists(i: int, state: tuple) -> bool:
        if i == m:
            return all(need == 0 for need, _ in state)
        total_need = sum(need for need, _ in state)
        if total_need > sum(upper_left[i:]):
            return False
        classes = [(key, len(list(grp))) for key, grp in groupby(state)]
        a, b = lower_left[i], upper_left[i]

        def assign(ci: int, total: int, picks: list[int]) -> bool:
            if total > b:
                return False
            if ci == len(classes):
                if total < a:
                    return False
                new: list[tuple[int, int]] = []
                for ((need, cap), mult), t in zip(classes, picks):
                    new.extend([(need, cap)] * (mult - t))
                    new.extend([(max(0, need - 1), cap - 1)] * t)
                return exists(i + 1, tuple(sorted(new)))
            (need, cap), mult = classes[ci]
            top = min(mult, b - total) if cap > 0 else 0
            for t in range(top, -1, -1):
                picks.append(t)
                if assign(ci + 1, total + t, picks):
                    picks.pop()
                    return True
                picks.pop()
            return False

        return assign(0, 0, [])

    result = exists(0, start)
    exists.cache_clear()
    return result


def bipartite_exact_hh(left_degrees, right_degrees) -> bool:
    """Bipartite Havel-Hakimi style check for exact degrees on both sides."""
    if sum(left_degrees) != sum(right_degrees):
        return False
    rights = sorted(right_degrees, reverse=True)
    for d in sorted(left_degrees, reverse=True):
        if d > len(rights):
            return False
        if d > 0 and rights[d - 1] == 0:
            return False
        for i in range(d):
            rights[i] -= 1
        rights.sort(reverse=True)
    return all(r == 0 for r in rights)


def iter_bound_pairs(max_bound: int):
    """All (lower, upper) pairs with 0 <= lower <= upper <= max_bound."""
    return [
        (a, b) for a in range(max_bound + 1) for b in range(a, max_bound + 1)
    ]


def iter_bound_multisets(size: int, max_bound: int):
    """All multisets of (lower, upper) pairs of the given size."""
    return combinations_with_replacement_list(iter_bound_pairs(max_bound), size)


def combinations_with_replacement_list(items, size):
    from itertools import combinations_with_replacement

    return combinations_with_replacement(items, size)


# ---------------------------------------------------------------------------
# an independent refutation of small domination numbers: its own graphicality
# and Gale-Ryser tests, and nothing from the extremal or bipartite modules


def erdos_gallai(degrees) -> bool:
    """Is this list of non-negative integers graphic (Erdos-Gallai)?"""
    d = sorted(degrees, reverse=True)
    if sum(d) % 2:
        return False
    left = 0
    for k in range(1, len(d) + 1):
        left += d[k - 1]
        if left > k * (k - 1) + sum(min(x, k) for x in d[k:]):
            return False
    return True


def gale_ryser(left, right) -> bool:
    """Is there a simple bipartite graph with these side degrees (Gale-Ryser)?"""
    if sum(left) != sum(right):
        return False
    prefix = 0
    for k, x in enumerate(sorted(left, reverse=True), 1):
        prefix += x
        if prefix > sum(min(y, k) for y in right):
            return False
    return True


def _bounded_compositions(caps: list[int], total: int):
    """Every tuple c with 0 <= c[i] <= caps[i] and sum(c) == total."""
    if not caps:
        if total == 0:
            yield ()
        return
    for c in range(min(caps[0], total), -1, -1):
        for rest in _bounded_compositions(caps[1:], total - c):
            yield (c,) + rest


def _cross_profiles(degrees: list[int], low: int, cap: int, totals) -> dict[int, list[tuple]]:
    """One side's cross-edge counts that leave it a graphic remainder, by total.

    Each vertex sends low..min(degree, cap) edges across, and only totals in
    ``totals`` are kept.  Vertices of equal degree are interchangeable, so
    their counts are listed non-increasing; every other per-vertex profile
    is listed.
    """
    out: dict[int, list[tuple]] = {}
    prof: list[int] = []
    tops = [min(d, cap) for d in degrees]
    room = [sum(tops[i:]) for i in range(len(degrees) + 1)]  # most the rest can send
    least, most = min(totals, default=0), max(totals, default=-1)

    def rec(i: int, sent: int) -> None:
        if sent + room[i] < least or sent + low * (len(degrees) - i) > most:
            return
        if i == len(degrees):
            if sent in totals and erdos_gallai([d - x for d, x in zip(degrees, prof)]):
                out.setdefault(sent, []).append(tuple(prof))
            return
        hi = tops[i] if not i or degrees[i] != degrees[i - 1] else min(tops[i], prof[-1])
        for x in range(low, hi + 1):
            prof.append(x)
            rec(i + 1, sent + x)
            prof.pop()

    rec(0, 0)
    return out


def dominating_set_possible(entries, s: int) -> bool:
    """Does some realization of ``entries`` have a dominating set of size s?

    Let S take s of the entries and T the rest.  The S-S, T-T and S-T edges
    are disjoint, so a realization in which S dominates T exists iff cross
    counts x >= 0 on S and y >= 1 on T with equal sums leave graphic
    remainders on both sides and pass Gale-Ryser.  Every multiset of degrees
    for S and every per-vertex profile is tried, so nothing is assumed about
    which degrees a minimum dominating set takes, whether its vertices have
    private neighbours outside it, or how a class of equal degrees spreads
    its cross edges.  A False answer refutes every smaller s too, as adding
    a vertex keeps a set dominating.
    """
    values = sorted(set(entries), reverse=True)
    counts = [list(entries).count(v) for v in values]
    for take in _bounded_compositions(counts, s):
        head = [v for v, c in zip(values, take) for _ in range(c)]
        tail = [v for v, c, k in zip(values, counts, take) for _ in range(c - k)]
        # each T vertex takes from 1 to min(d, s) cross edges
        totals = range(len(tail), sum(min(v, s) for v in tail) + 1)
        lefts = _cross_profiles(head, 0, len(tail), totals)
        if not lefts:
            continue
        rights = _cross_profiles(tail, 1, s, lefts.keys())
        for total in rights:
            if any(gale_ryser(x, y) for x in lefts[total] for y in rights[total]):
                return True
    return False
