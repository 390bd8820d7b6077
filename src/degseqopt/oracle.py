"""Exhaustive ground truth over small degree sequences.

Enumerates every positional realization of a sequence (every labeled
graph on u_1..u_n with degree(u_i) = d_i exactly), optionally restricted
to forests, and reports the exact extrema of the domination,
independence, and clique numbers over that class.  This is the oracle the
closed formulas and profile scans are validated against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator

from .errors import TooLarge
from .graphs import Graph
from .sequences import DegreeSequence, _graphic_erdos_gallai, is_forest_sequence, is_graphic
from .solvers import DEFAULT_SOLVER_LIMIT, _alpha, _check_limit, _gamma, _omega

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

        def visit(masks: tuple[int, ...]) -> None:
            visitor(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                              if masks[u] >> v & 1]))

    return _enumerate_masks(d, graph_class, visit, limit)


def _enumerate_masks(
    d: DegreeSequence,
    graph_class: GraphClass,
    visit: Callable[[tuple[int, ...]], None] | None,
    limit: int | None,
) -> int:
    """The enumeration behind :func:`enumerate_realizations`; ``visit``
    receives each realization as per-vertex neighbor bitmasks."""
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
    count = 0

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def suffix_ok(i: int) -> bool:
        rest = residual[i + 1 :]
        if forest:
            s = sum(rest)
            if s == 0:
                return True
            positive = sum(1 for x in rest if x > 0)
            return s <= 2 * positive - 2
        return _graphic_erdos_gallai(sorted(rest, reverse=True))

    def rec(i: int) -> None:
        nonlocal count
        if i == n:
            count += 1
            if visit is not None:
                visit(tuple(masks))
            return
        r = residual[i]
        if r == 0:
            rec(i + 1)
            return
        candidates = [j for j in range(i + 1, n) if residual[j] > 0]
        if r > len(candidates):
            return
        for chosen in combinations(candidates, r):
            if forest:
                roots = {find(i)}
                ok = True
                for j in chosen:
                    rj = find(j)
                    if rj in roots:
                        ok = False
                        break
                    roots.add(rj)
                if not ok:
                    continue
            for j in chosen:
                residual[j] -= 1
            residual[i] = 0
            if suffix_ok(i):
                undo = []
                ri = find(i)
                for j in chosen:
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
                    if forest:
                        rj = find(j)
                        undo.append(rj)
                        parent[rj] = ri
                rec(i + 1)
                for j in chosen:
                    masks[i] &= ~(1 << j)
                    masks[j] &= ~(1 << i)
                for rj in reversed(undo):
                    parent[rj] = rj
            residual[i] = r
            for j in chosen:
                residual[j] += 1

    rec(0)
    return count


def oracle_extrema(
    d: DegreeSequence,
    graph_class: GraphClass = GraphClass.GENERAL,
    limit: int | None = None,
) -> OracleReport:
    """Exact extrema of gamma, alpha, omega over the enumerated class."""
    lo = {"gamma": None, "alpha": None, "omega": None}
    hi = {"gamma": None, "alpha": None, "omega": None}

    def visit(masks: tuple[int, ...]) -> None:
        # the solvers' own size limit, raised at the first realization
        _check_limit(d.n, DEFAULT_SOLVER_LIMIT)
        values = {
            "gamma": _gamma(masks)[0],
            "alpha": _alpha(masks)[0],
            "omega": _omega(masks),
        }
        for key, val in values.items():
            if lo[key] is None or val < lo[key]:
                lo[key] = val
            if hi[key] is None or val > hi[key]:
                hi[key] = val

    count = _enumerate_masks(d, graph_class, visit, limit)
    return OracleReport(
        sequence=d,
        graph_class=graph_class,
        realization_count=count,
        gamma_min=lo["gamma"],
        gamma_max=hi["gamma"],
        alpha_min=lo["alpha"],
        alpha_max=hi["alpha"],
        omega_min=lo["omega"],
        omega_max=hi["omega"],
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
