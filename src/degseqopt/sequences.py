"""Degree-sequence data model, graphicality tests, and sequence-level bounds.

A degree sequence is stored sorted non-increasing together with the
permutation back to the caller's order.  Normalizing is one stable C-level
sort, and validation re-checks the order with one pairwise ``map`` over the
entries, so reading a sequence costs about as much as the sort.  On top of
the data model this
module provides the two classical realizability predicates (simple graph,
forest) and the two sequence-level bounds used throughout the package:
the Slater number (a lower bound on the domination number of every
realization) and the annihilation number (an upper bound on the
independence number of every realization).  Both are found by bisection
over the cached prefix sums, in O(log n) once those exist.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, islice
from operator import ge, neg
from typing import Iterable, Sequence

from .errors import InvalidSequence

__all__ = [
    "DegreeSequence",
    "normalize",
    "parse_sequence_text",
    "is_graphic",
    "is_forest_sequence",
    "slater",
    "annihilation",
]


@dataclass(frozen=True)
class DegreeSequence:
    """A validated non-increasing sequence of vertex degrees.

    ``entries`` is sorted non-increasing; ``original_order[i]`` is the
    position that ``entries[i]`` occupied in the raw input, so the raw
    input can always be reconstructed.  Instances are immutable and safe
    to share across threads.
    """

    entries: tuple[int, ...]
    original_order: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = self.entries
        if not entries:
            raise InvalidSequence("degree sequence must be non-empty")
        if not all(map(ge, entries, islice(entries, 1, None))):
            raise InvalidSequence("entries must be non-increasing")
        if entries[-1] < 0:
            raise InvalidSequence("entries must be non-negative")
        if sorted(self.original_order) != list(range(len(entries))):
            raise InvalidSequence("original_order must be a permutation")

    @property
    def n(self) -> int:
        return len(self.entries)

    @cached_property
    def total(self) -> int:
        return sum(self.entries)

    @cached_property
    def _prefix(self) -> tuple[int, ...]:
        # _prefix[k] = sum of the k largest entries; _prefix[0] = 0
        return tuple(accumulate(self.entries, initial=0))

    def prefix(self, k: int) -> int:
        """Sum of the ``k`` largest entries."""
        return self._prefix[k]

    def suffix(self, k: int) -> int:
        """Sum of the entries after the ``k`` largest ones."""
        return self.total - self._prefix[k]

    def count_ge(self, value: int) -> int:
        """Number of entries that are at least ``value``."""
        return bisect_right(self.entries, -value, key=neg)

    def count_eq(self, value: int) -> int:
        """Number of entries equal to ``value``."""
        return self.count_ge(value) - self.count_ge(value + 1)

    @property
    def n0(self) -> int:
        """Number of zero entries."""
        return self.count_eq(0)

    @property
    def positive_count(self) -> int:
        return self.n - self.n0

    @property
    def max_entry(self) -> int:
        return self.entries[0]

    def positive_part(self) -> "DegreeSequence | None":
        """The sub-sequence of positive entries, or None if all are zero."""
        p = self.positive_count
        if p == 0:
            return None
        return DegreeSequence(self.entries[:p], tuple(range(p)))


def normalize(raw: Iterable[int]) -> DegreeSequence:
    """Sort a raw list of degrees non-increasing, recording the permutation.

    Entries only need to be non-negative integers here; upper-bound checks
    (entry <= n-1) belong to graphicality, not to normalization.  Idempotent
    on already-sorted input.  Equal entries keep their input order: a
    reverse sort is stable in Python, so the order is the ascending sort by
    (-value, position).
    """
    values = list(map(int, raw))
    if not values:
        raise InvalidSequence("degree sequence must be non-empty")
    if min(values) < 0:
        raise InvalidSequence(f"negative entry in {values}")
    order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
    return DegreeSequence(
        entries=tuple(map(values.__getitem__, order)),
        original_order=tuple(order),
    )


def parse_sequence_text(text: str) -> DegreeSequence:
    """Parse a comma- or whitespace-separated degree sequence, e.g. "3,2,2,1"."""
    parts = [p for p in re.split(r"[,\s]+", text.strip()) if p]
    if not parts:
        raise InvalidSequence("empty sequence text")
    try:
        values = list(map(int, parts))
    except ValueError as exc:
        raise InvalidSequence(f"not an integer sequence: {text!r}") from exc
    return normalize(values)


def _graphic_erdos_gallai(d: Sequence[int]) -> bool:
    """Erdos-Gallai test on a non-increasing list.  Linear after the sort.

    Accepts the empty list (trivially graphic).  Entries >= len(d) are
    rejected here rather than at construction time.
    """
    n = len(d)
    if n == 0 or d[0] == 0:
        return True
    if d[0] >= n or d[-1] < 0:
        return False
    total = 0
    pref = [0] * (n + 1)
    for i, x in enumerate(d):
        total += x
        pref[i + 1] = total
    if total & 1:
        return False
    m = n  # entries >= k, maintained by a two-pointer as k grows
    for k in range(1, n + 1):
        while m > 0 and d[m - 1] < k:
            m -= 1
        t = max(k, m)
        rhs = k * (k - 1) + k * max(0, m - k) + (total - pref[t])
        if pref[k] > rhs:
            return False
        if m <= k:
            # beyond the Durfee index the inequalities cannot fail
            break
    return True


def is_graphic(d: DegreeSequence) -> bool:
    """True iff some simple graph realizes ``d`` (Erdos-Gallai)."""
    return _graphic_erdos_gallai(d.entries)


def is_forest_sequence(d: DegreeSequence) -> bool:
    """True iff some forest realizes ``d``.

    For sequences with a positive entry this is exactly: even degree sum of
    at most ``2 * (#positive entries) - 2``.  The all-zero sequence is
    special-cased to True (the empty forest realizes it even though the
    sum formula, which presumes an edge, would reject it).
    """
    if d.total == 0:
        return True
    if d.total & 1:
        return False
    return d.total <= 2 * (d.n - d.n0) - 2


def slater(d: DegreeSequence) -> int:
    """Smallest k such that the k largest degrees sum to at least n - k.

    Lower bound on the domination number of every realization of ``d``.
    Always in 1..n since k = n makes the right side non-positive.  The
    inequality reads prefix(k) + k >= n, and prefix(k) + k grows by
    d_k + 1 >= 1 with each k, so it holds from the answer on and fails
    before it: bisecting over k = 1..n-1 for the first k where it holds
    (n if none does) finds the same k as the definition's upward scan, in
    O(log n) steps.
    """
    n = d.n
    pre = d._prefix
    return 1 + bisect_left(range(1, n), n, key=lambda k: pre[k] + k)


def annihilation(d: DegreeSequence) -> int:
    """Largest a such that the a smallest degrees sum to at most the rest.

    Upper bound on the independence number of every realization of ``d``.
    With k = n - a the condition reads suffix(k) <= prefix(k), that is
    prefix(k) >= ceil(total / 2), which holds from some k on since the
    prefix sums never decrease.  The largest a is therefore n minus the
    first such k: the first index of the prefix sums that reaches
    ceil(total / 2), found by bisection with k = 0 included.  That keeps
    the all-zero case right: there ceil(0 / 2) = 0 = prefix(0), so a = n.
    Appending a zero entry repeats the last prefix sum, after the first one
    that reaches the bound, so a(d + (0,)) = a(d) + 1 as the definition
    requires.  (A minimum over splits k >= 1 would give n - 1 on all-zero
    sequences.)
    """
    return d.n - bisect_left(d._prefix, (d.total + 1) // 2)
