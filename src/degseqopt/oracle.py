"""Exhaustive ground truth over small degree sequences.

Counts every positional realization of a sequence (every labeled graph
on u_1..u_n with degree(u_i) = d_i exactly), optionally restricted to
forests, and reports the exact extrema of the domination, independence,
and clique numbers over that class.  This is the oracle the closed
formulas and profile scans are validated against.

The enumeration visits one representative per class of interchangeable
vertices.  Two open vertices (some degree still unplaced) with the same
degree and the same row so far can be swapped without changing any degree
or any decided row, so their subtrees hold isomorphic graphs.  At each
node one open vertex picks all of its remaining neighbors; the search
decides only how many members of each class to take and weights the
subtree by the product of binomials C(|class|, k); the count is the sum
of the leaf weights, and the extrema of the three (isomorphism-invariant)
numbers are those of the representatives.  One table per (class sizes, r)
of those picks serves every enumeration.  The vertex that picks is the
first member of the smallest class, the most constrained choice, as in
isomorph-rejecting enumeration (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998): large classes then stay whole for
longer.

The extrema are not solved per realization: at each representative the
n final rows are folded, one after another, into three 2^n-bit bitmaps
over the vertex subsets (closed neighborhoods, edges, non-edges), and the
three numbers are read off those, which caps the oracle at n <= 14.  The
subset tables are this module's own: the exact solvers in ``solvers`` run
branch and bound instead.
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


# Measured ladder, general class (2-vCPU VM, one process, 1-3 runs each):
#   sweep --n-max 8                          0.8-0.9 s in-process, 0.4-0.5 s of it oracle
#   sweep --n-max 9 --limit 9                10 s; the oracle on n = 9 alone 7.1-8.5 s
#   sweep --n-max 10 --limit 10              4 min 46 s, 22 083 sequences
#   oracle 6,6,6,5,5,5,5,5,4,3 --limit 10    0.4-0.5 s, 21 522 representatives
#   oracle 7,6,5,5,5,5,4,4,4,3 --limit 10    0.9-1.2 s, 53 231 representatives
#   oracle 8,7,6,6,5,5,4,4,4,4,3 --limit 11  33-35 s, 1 700 803 representatives
# The forest class takes 1.0-1.1 s for all 525 positive sequences with n <= 14.
# Raising a default turns exit 2 into an answer for the sizes it adds, so the
# defaults stay where they were set until a stated budget picks new ones.
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
    ``sweep --n-max 8`` plus every forest with n <= 14 leave 1 194 tables,
    0.8 MB by ``tracemalloc``.
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
    visit: Callable[[list[int]], None] | None = None,
) -> int:
    """Count the positional realizations of ``d``, weighted over classes.

    Backtracks over the vertices of the sorted (non-increasing) sequence.
    At each node one open vertex p (residual degree > 0) picks all of its
    remaining neighbors among the other open vertices, which makes its row
    final.  Branches are pruned by a graphicality test on the leftover
    degrees (forest test plus incremental acyclicity for the forest
    class), memoized per call by their multiset: all n residuals sorted
    non-increasing (a final row adds a zero), handed to Erdos-Gallai as
    they are, so equal multisets at different positions and depths share
    one test.  The visit order and the count are deterministic.

    The open vertices are grouped into classes: j and j' share a class
    when d_j = d_j' and their rows so far agree (``masks[j] ==
    masks[j']``).  Those rows hold only vertices whose rows are decided,
    since an edge is placed only by a vertex that closes its row as it
    picks; the decided rows need not be a prefix.  Swapping j and j'
    keeps every degree and every decided row (such a row holds both or
    neither), so it maps the completions after one choice one-to-one onto
    the completions after the swapped choice, each to an isomorphic graph
    (a forest exactly when the other is).  The picker p is the first
    member of the smallest class (ties: the larger residual, then the
    lower index); the loop takes, per class of the remaining candidates,
    only how many members to pick (always the first ones), and weights
    the subtree by prod C(|class|, k); the returned count sums the leaf
    weights, which is the number of labeled realizations.  Every extremum
    of an isomorphism invariant is unchanged.

    ``visit(masks)``, a keyword-only hook, receives each reached
    representative as per-vertex neighbor bitmasks, every row final (a
    live list: read it before returning).
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

    def realizable(rest: tuple[int, ...]) -> bool:  # rest: non-increasing
        if forest:
            s = sum(rest)
            return s == 0 or s <= 2 * sum(1 for x in rest if x > 0) - 2
        return _graphic_erdos_gallai(rest)

    def rec(i: int, weight: int) -> None:
        nonlocal count
        while i < n and residual[i] == 0:  # skip the final rows
            i += 1
        if i == n:
            count += weight
            if visit is not None:
                visit(masks)
            return
        classes: dict[tuple[int, int], list[int]] = {}
        for j in range(i, n):
            if residual[j] > 0:
                classes.setdefault((entries[j], masks[j]), []).append(j)
        # the picker: the first member of the smallest class; ties go to the larger
        # residual, then to the lower index
        p = min(classes.values(), key=lambda c: (len(c), -residual[c[0]])).pop(0)
        groups = [members for members in classes.values() if members]
        candidates = [j for members in groups for j in members]
        r = residual[p]
        earlier = masks[p]
        bit_p = bit[p]
        residual[p] = 0
        for taken, w in _class_picks(tuple(map(len, groups)), r):
            chosen = [candidates[q] for q in taken]
            if forest:
                roots = [find(x) for x in (p, *chosen)]
                if len(set(roots)) <= r:  # an edge would close a cycle
                    continue
            for j in chosen:
                residual[j] -= 1
            rest = tuple(sorted(residual, reverse=True))
            ok = feasible.get(rest)
            if ok is None:
                ok = feasible[rest] = realizable(rest)
            if ok:
                row = earlier
                for j in chosen:
                    row |= bit[j]
                    masks[j] |= bit_p
                masks[p] = row
                if forest:
                    for rj in roots[1:]:
                        parent[rj] = roots[0]
                rec(i, weight * w)
                for j in chosen:
                    masks[j] ^= bit_p
                if forest:
                    for rj in roots[1:]:
                        parent[rj] = rj
            for j in chosen:
                residual[j] += 1
        masks[p] = earlier
        residual[p] = r

    rec(0, 1)
    return count


def oracle_extrema(
    d: DegreeSequence,
    graph_class: GraphClass = GraphClass.GENERAL,
    limit: int | None = None,
) -> OracleReport:
    """Exact extrema of gamma, alpha, omega over the enumerated class.

    Each reached realization folds its n final rows into three subset
    bitmaps over the 2^n vertex subsets.  Row i contributes its closed
    neighborhood N[i] and its pairs (i, j), j > i: ``dom`` keeps the
    subsets meeting N[i] (after every row: the dominating sets),
    ``nonind`` gains the subsets holding i and a neighbor j, and ``noncl``
    the subsets holding i and a non-neighbor j.  Gamma is the smallest size
    class of ``dom``, and alpha and omega the largest size class of the
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
    seen: set[tuple[int, int, int]] = set()  # distinct (gamma, alpha, omega)

    def visit(masks: list[int]) -> None:
        dom, nonind, noncl = full, 0, 0
        for i, row in enumerate(masks):
            # own[i] & meets(S) is the union over j in S of the pair bitmaps
            # "holds i and j"
            chosen = row & later[i]
            dom &= meets(row | 1 << i)
            nonind |= own[i] & meets(chosen)
            noncl |= own[i] & meets(later[i] ^ chosen)
        # the smallest dominating set, the largest independent set and clique
        ind, cl = full ^ nonind, full ^ noncl
        gamma, alpha, omega = 0, n, n
        while not dom & by_size[gamma]:
            gamma += 1
        while not ind & by_size[alpha]:
            alpha -= 1
        while not cl & by_size[omega]:
            omega -= 1
        seen.add((gamma, alpha, omega))

    count = enumerate_realizations(d, graph_class, limit, visit=visit)
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
