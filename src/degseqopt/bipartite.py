"""Bipartite degree feasibility with per-vertex lower and upper bounds.

A bipartite graph with left degrees in [a_i, b_i] and right degrees in
[a'_j, b'_j] exists iff one pair of exact degree vectors is realizable:
the flattest vectors within the bounds at the least edge total the
bounds allow (Hoffman's cut bound).  Feasibility is the Gale-Ryser prefix test
on that pair, and construction is Ryser's greedy on it, so a feasible
spec always yields a concrete, deterministic realization.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import gt

from .errors import Infeasible, InvalidSequence
from .graphs import Graph
from .sequences import _integers

__all__ = [
    "BipartiteDegreeSpec",
    "gale_ryser_feasible",
    "build_bounded_bipartite",
]


@dataclass(frozen=True)
class BipartiteDegreeSpec:
    """Degree bounds for the two classes of a bipartite graph.

    Lower-bound sequences are stored non-increasing (the order Gale-Ryser
    style prefix conditions require); upper bounds travel with their
    vertices, and the permutations back to input order are recorded.
    """

    lower_left: tuple[int, ...]
    upper_left: tuple[int, ...]
    lower_right: tuple[int, ...]
    upper_right: tuple[int, ...]
    left_order: tuple[int, ...]
    right_order: tuple[int, ...]

    @classmethod
    def create(cls, lower_left, upper_left, lower_right, upper_right) -> "BipartiteDegreeSpec":
        ll, ul, lo = _sort_side(lower_left, upper_left, "left")
        lr, ur, ro = _sort_side(lower_right, upper_right, "right")
        return cls(ll, ul, lr, ur, lo, ro)

    @property
    def m(self) -> int:
        return len(self.lower_left)

    @property
    def n(self) -> int:
        return len(self.lower_right)

    @cached_property
    def _exact(self):
        # computed once per spec: feasibility and construction both need it
        return _exact_degrees(self)


def _sort_side(lower, upper, side):
    """One side's bounds sorted by lower bound descending, ties in input order."""
    lower = _integers(lower, f"{side} bound")
    upper = _integers(upper, f"{side} bound")
    if len(lower) != len(upper):
        raise InvalidSequence(f"{side} lower/upper lengths differ")
    if min(lower, default=0) < 0 or min(upper, default=0) < 0:
        raise InvalidSequence(f"{side} bounds must be non-negative")
    if any(map(gt, lower, upper)):
        raise InvalidSequence(f"{side} has a lower bound above its upper bound")
    order = sorted(range(len(lower)), key=lower.__getitem__, reverse=True)  # stable
    return (
        tuple(map(lower.__getitem__, order)),
        tuple(map(upper.__getitem__, order)),
        tuple(order),
    )


def gale_ryser_feasible(spec: BipartiteDegreeSpec) -> bool:
    """True iff some bipartite graph meets all four bound families."""
    return spec._exact is not None


def build_bounded_bipartite(spec: BipartiteDegreeSpec) -> Graph:
    """Construct a bipartite graph meeting all four bound families.

    Vertices 0..m-1 are the left class (in the spec's sorted order),
    m..m+n-1 the right class.  The exact degrees come from
    ``_exact_degrees``, computed once per spec, and Ryser's greedy realizes
    them.  Raises Infeasible on an infeasible spec.
    """
    degrees = spec._exact
    if degrees is None:
        raise Infeasible("degree-bound spec admits no bipartite graph")
    m = spec.m
    return Graph(m + spec.n, [(i, m + j) for i, j in _greedy_edges(*degrees)])


def _exact_degrees(spec: BipartiteDegreeSpec):
    """Exact degrees (left, right) within the bounds that some graph has, or None.

    The edge total is the least that any graph within the bounds can have,
    Hoffman's cut bound: the s left vertices with the largest lower bounds
    meet each right vertex at most s times.  At that total each side takes
    its flattest vector, the least in dominance order; conjugation reverses
    dominance, so if any pair of that total passes Gale-Ryser, this does.
    """
    m, n = spec.m, spec.n
    # sum_j max(b_j - s, 0) = sum_j b_j - sum_j min(b_j, s) for the right lower bounds b
    total = sum(spec.lower_right) + _overflow(spec.lower_left, spec.lower_right)
    left = _water_fill(spec.lower_left, [min(b, n) for b in spec.upper_left], total)
    right = _water_fill(spec.lower_right, [min(b, m) for b in spec.upper_right], total)
    if left is None or right is None or _overflow(sorted(left, reverse=True), right):
        return None
    return tuple(left), tuple(right)


def _water_fill(lower, upper, total):
    """Flattest vector with entries in [lower_i, upper_i] summing to total, or None.

    Raises a common level, each entry clamped into its bounds, as far as
    the total allows; the first entries free to rise take the remainder.
    The total must be at least sum(lower).
    """
    top = max(upper, default=0)
    starts = [0] * (top + 1)  # entries free to rise at each level, by differences
    for a, b in zip(lower, upper):
        if a > b:
            return None
        starts[a] += 1
        starts[b] -= 1
    level, rest, free = 0, total - sum(lower), starts[0]
    while level < top and free <= rest:
        rest -= free
        level += 1
        free += starts[level]
    if rest > free:
        return None
    out = []
    for a, b in zip(lower, upper):
        x = min(max(level, a), b)
        if rest and a <= level < b:
            x += 1
            rest -= 1
        out.append(x)
    return out


def _overflow(demands, caps) -> int:
    """Largest excess of a prefix of ``demands`` over what ``caps`` can meet.

    The maximum over k >= 0 of (sum of the first k demands) - sum_j
    min(caps_j, k); the steps #{j : caps_j >= k} of the second sum come
    from a histogram of the caps.  For non-increasing demands of the same
    sum as the caps, 0 is the Gale-Ryser condition: some bipartite graph
    has exactly these degrees on its two sides.
    """
    size = len(demands)
    count = [0] * (size + 1)
    for c in caps:
        count[min(c, size)] += 1
    reach = len(caps)  # caps >= k + 1
    excess = worst = 0
    for k, d in enumerate(demands):
        reach -= count[k]
        excess += d - reach
        if excess > worst:
            worst = excess
    return worst


def _greedy_edges(left, right) -> list[tuple[int, int]]:
    """Ryser's greedy: edges (i, j) realizing exact degrees that pass Gale-Ryser.

    Left vertices go in non-increasing degree order, each joining the right
    vertices of largest remaining need.  The right side stays in one list
    sorted by need: where the chosen prefix cuts a run of equal need, the
    run's last members are taken, so the decremented list stays sorted.
    """
    ids = sorted(range(len(right)), key=lambda j: -right[j])
    neg = [-right[j] for j in ids]  # negated needs, non-decreasing
    edges = []
    for i in sorted(range(len(left)), key=lambda i: -left[i]):
        d = left[i]
        if not d:
            break
        lo = bisect_left(neg, neg[d - 1])
        hi = bisect_right(neg, neg[d - 1])
        for p in chain(range(lo), range(hi - d + lo, hi)):
            neg[p] += 1
            edges.append((i, ids[p]))
    return edges

