"""Exhaustive ground truth over small degree sequences.

Enumerates every positional realization of a sequence (every labeled
graph on u_1..u_n with degree(u_i) = d_i exactly), optionally restricted
to forests, and reports the exact extrema of the domination,
independence, and clique numbers over that class.  This is the oracle the
closed formulas and profile scans are validated against.

The extrema are built along the enumeration tree, not solved per
realization: once a vertex has chosen its later neighbors its row is
final, and its closed neighborhood, its edges and its non-edges are folded
into three 2^n-bit subset bitmaps (the solvers' table format) handed down
the recursion.  Each realization then reads its three numbers off those
bitmaps, which caps the oracle at n <= 14, the solvers' table range.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator

from .errors import TooLarge
from .graphs import Graph
from .sequences import DegreeSequence, _graphic_erdos_gallai, is_forest_sequence, is_graphic
from .solvers import _TABLE_MAX, _largest_member, _smallest_member, _subsets_avoiding, _tables

__all__ = [
    "GraphClass",
    "OracleReport",
    "DEFAULT_ORACLE_LIMITS",
    "enumerate_realizations",
    "oracle_extrema",
    "iter_degree_sequences",
]


class GraphClass(enum.Enum):
    GENERAL = "general"
    FOREST = "forest"


DEFAULT_ORACLE_LIMITS = {GraphClass.GENERAL: 8, GraphClass.FOREST: 9}


@dataclass(frozen=True)
class OracleReport:
    """Exact extrema over an enumerated realization class.

    Extrema are None exactly when the class is empty
    (``realization_count == 0``).
    """

    sequence: DegreeSequence
    graph_class: GraphClass
    realization_count: int
    gamma_min: int | None
    gamma_max: int | None
    alpha_min: int | None
    alpha_max: int | None
    omega_min: int | None
    omega_max: int | None


def _resolve_limit(graph_class: GraphClass, limit: int | None) -> int:
    return DEFAULT_ORACLE_LIMITS[graph_class] if limit is None else limit


def enumerate_realizations(
    d: DegreeSequence,
    graph_class: GraphClass = GraphClass.GENERAL,
    visitor: Callable[[Graph], None] | None = None,
    limit: int | None = None,
) -> int:
    """Visit every positional realization of ``d`` exactly once.

    Backtracks over vertices in the sorted (non-increasing) order,
    choosing each vertex's neighbors among the later vertices.  Branches
    are pruned by a graphicality test on the leftover degrees (forest
    test plus incremental acyclicity for the forest class).  Returns the
    number of realizations visited; the visit order and count are
    deterministic.
    """
    visit = None
    if visitor is not None:
        n = d.n

        def visit(masks: list[int], state) -> None:
            visitor(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                              if masks[u] >> v & 1]))

    return _enumerate_masks(d, graph_class, limit, visit)


def _enumerate_masks(
    d: DegreeSequence,
    graph_class: GraphClass,
    limit: int | None,
    visit: Callable[[list[int], object], None] | None = None,
    fold: Callable[[int, int, object], object] | None = None,
    state: object = None,
) -> int:
    """The enumeration behind :func:`enumerate_realizations`.

    ``visit(masks, state)`` receives each realization as per-vertex
    neighbor bitmasks (a live list: read it before returning).  When vertex
    i's row is final (it has chosen its later neighbors),
    ``fold(i, masks[i], state)`` returns the state handed to depth i+1, so
    a caller can accumulate per-row data along the tree instead of
    recomputing it at each leaf.
    """
    limit = _resolve_limit(graph_class, limit)
    if d.n > limit:
        raise TooLarge(f"n={d.n} exceeds oracle limit {limit}")
    if graph_class is GraphClass.GENERAL:
        if not is_graphic(d):
            return 0
    else:
        if not is_forest_sequence(d):
            return 0

    n = d.n
    forest = graph_class is GraphClass.FOREST
    residual = list(d.entries)
    masks = [0] * n
    parent = list(range(n))  # union-find, no path compression (rollback)
    feasible: dict[tuple[int, ...], bool] = {}  # suffix test, by leftover degrees
    count = 0

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def suffix_ok(i: int) -> bool:
        rest = tuple(residual[i + 1 :])
        ok = feasible.get(rest)
        if ok is None:
            if forest:
                s = sum(rest)
                ok = s == 0 or s <= 2 * sum(1 for x in rest if x > 0) - 2
            else:
                ok = _graphic_erdos_gallai(sorted(rest, reverse=True))
            feasible[rest] = ok
        return ok

    def rec(i: int, state) -> None:
        nonlocal count
        if i == n:
            count += 1
            if visit is not None:
                visit(masks, state)
            return
        r = residual[i]
        if r == 0:
            rec(i + 1, state if fold is None else fold(i, masks[i], state))
            return
        candidates = [j for j in range(i + 1, n) if residual[j] > 0]
        if r > len(candidates):
            return
        for chosen in combinations(candidates, r):
            if forest:
                roots = [find(x) for x in (i, *chosen)]
                if len(set(roots)) <= r:  # an edge would close a cycle
                    continue
            for j in chosen:
                residual[j] -= 1
            residual[i] = 0
            if suffix_ok(i):
                for j in chosen:
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
                if forest:
                    for rj in roots[1:]:
                        parent[rj] = roots[0]
                rec(i + 1, state if fold is None else fold(i, masks[i], state))
                for j in chosen:
                    masks[i] &= ~(1 << j)
                    masks[j] &= ~(1 << i)
                if forest:
                    for rj in roots[1:]:
                        parent[rj] = rj
            residual[i] = r
            for j in chosen:
                residual[j] += 1

    rec(0, state)
    return count


def oracle_extrema(
    d: DegreeSequence,
    graph_class: GraphClass = GraphClass.GENERAL,
    limit: int | None = None,
) -> OracleReport:
    """Exact extrema of gamma, alpha, omega over the enumerated class.

    Three subset bitmaps over the 2^n vertex subsets travel down the
    enumeration tree.  When vertex i's row is final, its closed
    neighborhood N[i] and its pairs (i, j), j > i, are folded in:
    ``dom`` keeps the subsets meeting N[i] (after every row: the
    dominating sets), ``nonind`` gains the subsets holding i and a new
    neighbor j, and ``noncl`` the subsets holding i and a later non-neighbor
    j.  Each realization then reads gamma off the smallest size class of
    ``dom``, and alpha and omega off the largest size class of the
    complements of ``nonind`` and ``noncl``; no solver runs per
    realization.  The tables need n <= 14 (``solvers._TABLE_MAX``), so a
    longer sequence raises ``TooLarge`` before any enumeration, whatever
    ``limit`` says.
    """
    n = d.n
    limit = _resolve_limit(graph_class, limit)
    if n > limit:
        raise TooLarge(f"n={n} exceeds oracle limit {limit}")
    if n > _TABLE_MAX:
        raise TooLarge(f"n={n} exceeds the oracle's subset-table limit {_TABLE_MAX}")
    allow, _, full = _tables(n)
    meeting: dict[int, int] = {}  # vertex mask -> bitmap of the subsets meeting it

    def meets(bits: int) -> int:
        out = meeting.get(bits)
        if out is None:
            out = meeting[bits] = full ^ _subsets_avoiding(bits, allow, full)
        return out

    own = [meets(1 << i) for i in range(n)]  # own[i]: the subsets containing i
    later = [(1 << n) - (1 << (i + 1)) for i in range(n)]  # later[i]: vertices after i

    def fold(i: int, row: int, state: tuple[int, int, int]) -> tuple[int, int, int]:
        # own[i] & meets(S) is the union over j in S of the pair bitmaps
        # "holds i and j"
        dom, nonind, noncl = state
        chosen = row & later[i]
        return (
            dom & meets(row | 1 << i),
            nonind | own[i] & meets(chosen),
            noncl | own[i] & meets(later[i] ^ chosen),
        )

    seen: set[tuple[int, int, int]] = set()  # distinct (gamma, alpha, omega)

    def visit(masks: list[int], state: tuple[int, int, int]) -> None:
        dom, nonind, noncl = state
        seen.add((
            _smallest_member(dom, n)[0],
            _largest_member(full ^ nonind, n)[0],
            _largest_member(full ^ noncl, n)[0],
        ))

    count = _enumerate_masks(d, graph_class, limit, visit, fold, (full, 0, 0))
    columns = list(zip(*seen))
    lo = [min(c) for c in columns] or [None] * 3  # all None: no realization
    hi = [max(c) for c in columns] or [None] * 3
    return OracleReport(
        sequence=d,
        graph_class=graph_class,
        realization_count=count,
        gamma_min=lo[0],
        gamma_max=hi[0],
        alpha_min=lo[1],
        alpha_max=hi[1],
        omega_min=lo[2],
        omega_max=hi[2],
    )


def iter_degree_sequences(
    n: int, max_entry: int | None = None, positive_only: bool = False
) -> Iterator[tuple[int, ...]]:
    """All non-increasing sequences of length n with entries <= max_entry.

    The default cap n-1 covers every graphic sequence; with
    ``positive_only`` entries start at 1 instead of 0.
    """
    cap = n - 1 if max_entry is None else max_entry
    floor = 1 if positive_only else 0
    seq: list[int] = []

    def rec(remaining: int, hi: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(seq)
            return
        for v in range(min(hi, cap), floor - 1, -1):
            seq.append(v)
            yield from rec(remaining - 1, v)
            seq.pop()

    yield from rec(n, cap)
