"""Exhaustive ground truth over small degree sequences.

Counts every positional realization of a sequence (every labeled graph
on u_1..u_n with degree(u_i) = d_i exactly), optionally restricted to
forests, and reports the exact extrema of the domination, independence,
and clique numbers over that class.  This is the oracle the closed
formulas and profile scans are validated against.

The enumeration visits one representative per class of interchangeable
vertices.  When vertex i picks its later neighbors, two candidates with
the same degree and the same row so far can be swapped without changing
any degree or any earlier row, so their subtrees hold isomorphic graphs.
The search decides only how many members of each class to take and
weights the subtree by the product of binomials C(|class|, k); the count
is the sum of the leaf weights, and the extrema of the three
(isomorphism-invariant) numbers are those of the representatives.  One
table per (class sizes, r) of those picks serves every enumeration.

The extrema are built along the enumeration tree, not solved per
realization: once a vertex has chosen its later neighbors its row is
final, and its closed neighborhood, its edges and its non-edges are folded
into three 2^n-bit subset bitmaps handed down the recursion.  Each
realization then reads its three numbers off those bitmaps, which caps
the oracle at n <= 14.  The subset tables are this module's own: the
exact solvers in ``solvers`` run branch and bound instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, product
from math import comb, prod
from typing import Callable, Iterator

from .errors import TooLarge
from .sequences import DegreeSequence, _graphic_erdos_gallai, is_forest_sequence, is_graphic

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
_TABLE_MAX = 14  # subset tables are 2^n-bit integers: 2^14 bits at most


@lru_cache(maxsize=None)
def _tables(n: int):
    """Shared bitmap helpers for subset tables of width 2^n.

    Bit s of a table stands for the vertex subset with index s.  OWN[b]
    marks the subset indices whose bit b is set (the subsets holding b);
    BY_SIZE[c] marks the indices of popcount c; FULL is the all-ones bitmap.
    """
    width = 1 << n
    own = []
    for b in range(n):
        m = ((1 << (1 << b)) - 1) << (1 << b)  # indices 2^b .. 2^(b+1) - 1
        span = 1 << (b + 1)
        while span < width:
            m |= m << span
            span <<= 1
        own.append(m)
    by_size = [1]
    for v in range(n):
        shift = 1 << v
        new = [0] * (v + 2)
        for c in range(v + 1):
            new[c] |= by_size[c]
            new[c + 1] |= by_size[c] << shift
        by_size = new
    full = (1 << width) - 1
    return own, tuple(by_size), full


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


@lru_cache(maxsize=None)
def _class_picks(sizes: tuple[int, ...], r: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every way to take ``r`` members from classes of the given sizes.

    The classes lie side by side in one list, in order.  Each way takes
    the first k_c members of class c and is returned as (positions taken
    in that list, prod C(sizes[c], k_c)), in descending lexicographic
    order of (k_c), so singleton classes give the order of
    ``combinations(range(len(sizes)), r)``.  A tuple, cached for the process:
    ``sweep --n-max 8`` plus every forest with n <= 14 leave 1 400 tables, 1.3 MB.
    """
    starts = list(accumulate(sizes, initial=0))
    return tuple(
        (tuple(p for c, k in enumerate(takes) for p in range(starts[c], starts[c] + k)),
         prod(map(comb, sizes, takes)))
        for takes in product(*(range(s, -1, -1) for s in sizes))
        if sum(takes) == r
    )


def enumerate_realizations(
    d: DegreeSequence,
    graph_class: GraphClass = GraphClass.GENERAL,
    limit: int | None = None,
    *,
    visit: Callable[[list[int], object], None] | None = None,
    fold: Callable[[int, int, object], object] | None = None,
    state: object = None,
) -> int:
    """Count the positional realizations of ``d``, weighted over classes.

    Backtracks over vertices in the sorted (non-increasing) order,
    choosing each vertex's neighbors among the later vertices.  Branches
    are pruned by a graphicality test on the leftover degrees (forest
    test plus incremental acyclicity for the forest class).  The visit
    order and the count are deterministic.

    When vertex i picks its later neighbors, the candidates j > i are
    grouped into classes: j and j' share a class when d_j = d_j' and
    their rows so far agree (``masks[j] == masks[j']``; those rows hold
    only vertices below i).  Swapping j and j' keeps every degree and
    rows 0..i-1, so it maps the completions after one choice one-to-one
    onto the completions after the swapped choice, each to an isomorphic
    graph (a forest exactly when the other is).  The loop therefore
    takes, per class, only how many members to pick (always the first
    ones), and weights the subtree by prod C(|class|, k); the returned
    count sums the leaf weights, which is the number of labeled
    realizations.  Every extremum of an isomorphism invariant is
    unchanged.

    ``visit``, ``fold`` and ``state`` are keyword-only hooks over
    per-vertex neighbor bitmasks.  ``visit(masks, state)`` receives each
    reached representative (a live list: read it before returning).  When
    vertex i's row is final (it has chosen its later neighbors),
    ``fold(i, masks[i], state)`` returns the state handed to depth i+1,
    starting from ``state``, so a caller can accumulate per-row data
    along the tree instead of recomputing it at each leaf; on every path
    it sees i = 0..n-1 once each, in order.  Rows already final (residual
    0) are folded in a loop, with no recursion level of their own.
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
    entries = d.entries
    forest = graph_class is GraphClass.FOREST
    residual = list(entries)
    masks = [0] * n
    parent = list(range(n))  # union-find, no path compression (rollback)
    feasible: dict[tuple[int, ...], bool] = {}  # suffix test, by leftover degrees
    bit = [1 << j for j in range(n)]
    count = 0

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def realizable(rest: tuple[int, ...]) -> bool:
        if forest:
            s = sum(rest)
            return s == 0 or s <= 2 * sum(1 for x in rest if x > 0) - 2
        return _graphic_erdos_gallai(sorted(rest, reverse=True))

    def rec(i: int, state, weight: int) -> None:
        nonlocal count
        while i < n and residual[i] == 0:  # a final row: fold it in, in this frame
            if fold is not None:
                state = fold(i, masks[i], state)
            i += 1
        if i == n:
            count += weight
            if visit is not None:
                visit(masks, state)
            return
        r = residual[i]
        classes: dict[tuple[int, int], list[int]] = {}
        for j in range(i + 1, n):
            if residual[j] > 0:
                classes.setdefault((entries[j], masks[j]), []).append(j)
        candidates = [j for members in classes.values() for j in members]
        earlier = masks[i]
        bit_i = bit[i]
        residual[i] = 0
        for taken, w in _class_picks(tuple(map(len, classes.values())), r):
            chosen = [candidates[p] for p in taken]
            if forest:
                roots = [find(x) for x in (i, *chosen)]
                if len(set(roots)) <= r:  # an edge would close a cycle
                    continue
            for j in chosen:
                residual[j] -= 1
            rest = tuple(residual[i + 1 :])
            ok = feasible.get(rest)
            if ok is None:
                ok = feasible[rest] = realizable(rest)
            if ok:
                row = earlier
                for j in chosen:
                    row |= bit[j]
                    masks[j] |= bit_i
                masks[i] = row
                if forest:
                    for rj in roots[1:]:
                        parent[rj] = roots[0]
                rec(i + 1, state if fold is None else fold(i, row, state), weight * w)
                for j in chosen:
                    masks[j] ^= bit_i
                if forest:
                    for rj in roots[1:]:
                        parent[rj] = rj
            for j in chosen:
                residual[j] += 1
        masks[i] = earlier
        residual[i] = r

    rec(0, state, 1)
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
    realization.  The subsets meeting a vertex set S are memoized per call
    (2 KiB per S at n = 14); a new S costs one OR.  Only one realization
    per class of interchangeable vertices is reached (see
    :func:`enumerate_realizations`): its three numbers are those of every
    graph it stands for, and ``realization_count`` is the weighted count,
    equal to the number of labeled realizations.  The tables need n <= 14
    (``_TABLE_MAX``), so a longer sequence raises ``TooLarge`` before any
    enumeration, whatever ``limit`` says.
    """
    n = d.n
    limit = _resolve_limit(graph_class, limit)
    if n > limit:
        raise TooLarge(f"n={n} exceeds oracle limit {limit}")
    if n > _TABLE_MAX:
        raise TooLarge(f"n={n} exceeds the oracle's subset-table limit {_TABLE_MAX}")
    own, by_size, full = _tables(n)  # own[i]: the subsets holding i
    meeting = {0: 0}  # vertex mask -> bitmap of the subsets meeting it

    def meets(bits: int) -> int:
        out = meeting.get(bits)
        if out is None:  # a subset meets bits iff it meets bits - low or holds low
            low = bits & -bits
            out = meeting[bits] = meets(bits ^ low) | own[low.bit_length() - 1]
        return out

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
        # the smallest dominating set, the largest independent set and clique
        dom, nonind, noncl = state
        ind, cl = full ^ nonind, full ^ noncl
        gamma, alpha, omega = 0, n, n
        while not dom & by_size[gamma]:
            gamma += 1
        while not ind & by_size[alpha]:
            alpha -= 1
        while not cl & by_size[omega]:
            omega -= 1
        seen.add((gamma, alpha, omega))

    count = enumerate_realizations(d, graph_class, limit, visit=visit, fold=fold,
                                   state=(full, 0, 0))
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
    ``positive_only`` entries start at 1 instead of 0.  The order is
    descending lexicographic.
    """
    cap = n - 1 if max_entry is None else max_entry
    yield from _sequences_within(n, cap, 1 if positive_only else 0, n * cap)


def _forest_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """The positive forest sequences of length n, in the order of
    ``iter_degree_sequences(n, positive_only=True)``: entries >= 1 with an
    even sum of at most 2n - 2, generated without listing the rest."""
    return (seq for seq in _sequences_within(n, n - 1, 1, 2 * n - 2) if sum(seq) % 2 == 0)


def _sequences_within(n: int, cap: int, floor: int, total: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing sequences of length n, entries in floor..cap, sum <= total."""
    seq: list[int] = []

    def rec(remaining: int, hi: int, room: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(seq)
            return
        # the remaining - 1 later entries take at least floor each
        for v in range(min(hi, room - (remaining - 1) * floor), floor - 1, -1):
            seq.append(v)
            yield from rec(remaining - 1, v, room - v)
            seq.pop()

    yield from rec(n, cap, total)
