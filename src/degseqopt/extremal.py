"""Extremal graph parameters over all realizations of a degree sequence.

Computes, for a graphic sequence d:

* omega_max(d), alpha_max(d): the largest clique/independence number of
  any realization, by Rao's clique peel on a degree histogram, searched
  over k by galloping down from the top and bisecting (feasibility is
  monotone in k);
* gamma_min(d): the smallest domination number of any realization, by
  scanning split sizes k upward from the Slater number to p // 2, p the
  number of positive entries (Ore: gamma <= n/2 without isolated
  vertices), and, for each k, the cross-edge totals upward: for each
  total, the cross-degree profiles (bounded by the maximum degree) with
  that sum are enumerated and tested for whether the head part, tail
  part, and connecting bipartite graph all exist;
* gamma_min_forest(d), alpha_max_forest(d): closed formulas over forest
  realizations, with constructive witnesses attached;
* the domination bound check gamma(G) <= 3*slater + 2*(cycle excess) - 2
  for connected graphs.

Zero entries are always split off first: each isolated vertex adds one to
any minimum dominating set and one to any maximum independent set.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from operator import sub

from .bipartite import _greedy_edges, _overflow
from .errors import NotConnected, NotForestSequence, NotGraphic, PreconditionViolated
from .graphs import Graph, RealizationWitness, WitnessClaim, degree_sequence
from .realize import (
    _hh_edges,
    _independent_tail_edges,
    independent_dominating_head_forest,
    independent_tail_forest,
)
from .sequences import (
    DegreeSequence,
    _graphic_erdos_gallai,
    annihilation,
    is_forest_sequence,
    is_graphic,
    slater,
)
from .solvers import DEFAULT_SOLVER_LIMIT, domination_number

__all__ = [
    "ExtremalParameter",
    "BoundChain",
    "ExtremalResult",
    "SlaterBoundReport",
    "bound_chain",
    "omega_max",
    "alpha_max",
    "gamma_min_bounded",
    "gamma_min_forest",
    "alpha_max_forest",
    "check_slater_bound",
]


class ExtremalParameter(enum.Enum):
    OMEGA_MAX = "omega_max"
    ALPHA_MAX = "alpha_max"
    GAMMA_MIN = "gamma_min"
    GAMMA_MIN_FOREST = "gamma_min_forest"
    ALPHA_MAX_FOREST = "alpha_max_forest"


@dataclass(frozen=True)
class BoundChain:
    """Sequence-level bounds carried along for cross-checks.

    ``forest_gamma_low``/``forest_gamma_high`` bracket the smallest forest
    domination number whenever the sequence is a forest sequence.
    """

    slater: int
    annihilation: int
    n0: int
    forest_gamma_low: int
    forest_gamma_high: int


def bound_chain(d: DegreeSequence) -> BoundChain:
    sl = slater(d)
    a = annihilation(d)
    return BoundChain(
        slater=sl,
        annihilation=a,
        n0=d.n0,
        forest_gamma_low=sl,
        forest_gamma_high=d.n - a + d.n0,
    )


@dataclass(frozen=True)
class ExtremalResult:
    """A computed extremal value with optional witness and bound chain.

    When zero entries are present, gamma witnesses cover the positive part
    only (isolated vertices would have to join the dominating set but sit
    at the tail of the sorted order); ``value`` always refers to the full
    sequence.
    """

    parameter: ExtremalParameter
    value: int
    bound_chain: BoundChain
    achieving_k: int | None = None
    witness: RealizationWitness | None = None

    def __post_init__(self) -> None:
        if self.parameter in (ExtremalParameter.GAMMA_MIN, ExtremalParameter.GAMMA_MIN_FOREST):
            assert self.value >= self.bound_chain.slater
            if self.witness is not None:
                assert self.witness.split_k == self.achieving_k
                assert WitnessClaim.HEAD_DOMINATING in self.witness.claims
                assert self.value == self.achieving_k + self.bound_chain.n0
        if self.parameter in (ExtremalParameter.ALPHA_MAX, ExtremalParameter.ALPHA_MAX_FOREST):
            assert self.value <= self.bound_chain.annihilation
            if self.witness is not None:
                assert WitnessClaim.TAIL_INDEPENDENT in self.witness.claims
                assert self.witness.graph.n - self.witness.split_k == self.value


# ---------------------------------------------------------------------------
# largest clique / independence number over realizations


def _rao_clique_feasible(entries: tuple[int, ...], k: int) -> bool:
    """Can some realization contain a clique on the k largest-degree vertices?

    Peels the clique vertices one at a time.  Clique vertex j enters its
    step with residual ``entries[j] - j``; it joins the k - j - 1 clique
    vertices still to come and the w = entries[j] - k + 1 largest tail
    values, each of which drops by one.  The tail is a value -> count
    histogram, so a step walks only the values from the top down to the
    lowest one it lowers: no list shifts and no re-sort.
    Feasible iff every step finds w positive tail values and the final
    tail is graphic (Erdos-Gallai).  Needs ``entries`` non-increasing.
    """
    if entries and entries[0] >= len(entries):
        return False  # no vertex has n neighbours; keeps the histogram O(n)
    if k and entries[k - 1] < k - 1:
        return False  # some clique vertex cannot reach the other k - 1
    tail = entries[k:]
    top = tail[0] if tail else 0
    count = [0] * (top + 1)
    for x in tail:
        count[x] += 1
    for j in range(k):
        w = entries[j] - k + 1
        if w > len(tail) - count[0]:
            return False
        x, moved = top, 0
        while w:
            take = min(count[x], w)
            count[x] += moved - take
            moved, w, x = take, w - take, x - 1
        count[x] += moved
        while top and not count[top]:
            top -= 1
    out: list[int] = []
    for x in range(top, -1, -1):
        out += [x] * count[x]
    return _graphic_erdos_gallai(out)


def _largest_clique(entries: tuple[int, ...]) -> int:
    """Largest k with a k-clique in some realization of graphic ``entries``.

    By Rao's theorem a k-clique exists in some realization iff one exists
    on the k largest-degree vertices, which ``_rao_clique_feasible`` tests;
    and since a k-clique contains a (k-1)-clique, feasibility is monotone
    in k.  The search gallops down from the top candidate hi (the largest
    k with d_k >= k - 1), trying hi, hi-1, hi-3, hi-7, ... until a k is
    feasible, then bisects the gap above it: O(log n) peels, and one or
    two on dense inputs, whose answer sits near the top.  Needs
    ``entries`` non-increasing.
    """
    good = max(k for k in range(1, len(entries) + 1) if entries[k - 1] >= k - 1)
    bad, step = good + 1, 1
    while not _rao_clique_feasible(entries, good):
        if good == 1:
            raise AssertionError("k = 1 is always feasible for a graphic sequence")
        bad, good, step = good, max(1, good - step), 2 * step
    while bad - good > 1:
        mid = (good + bad) // 2
        if _rao_clique_feasible(entries, mid):
            good = mid
        else:
            bad = mid
    return good


def omega_max(d: DegreeSequence) -> ExtremalResult:
    """Largest clique number among all realizations of ``d``."""
    if not is_graphic(d):
        raise NotGraphic(f"{d.entries} is not graphic")
    return ExtremalResult(ExtremalParameter.OMEGA_MAX, _largest_clique(d.entries), bound_chain(d))


def alpha_max(d: DegreeSequence) -> ExtremalResult:
    """Largest independence number among all realizations of ``d``.

    Equals the largest clique number over realizations of the complement
    sequence (n-1-d_n, ..., n-1-d_1), which is graphic with ``d`` and
    already non-increasing.
    """
    if not is_graphic(d):
        raise NotGraphic(f"{d.entries} is not graphic")
    value = _largest_clique(tuple(d.n - 1 - x for x in reversed(d.entries)))
    return ExtremalResult(ExtremalParameter.ALPHA_MAX, value, bound_chain(d))


# ---------------------------------------------------------------------------
# smallest domination number over realizations (bounded maximum degree)


@lru_cache(maxsize=65536)
def _graphic_cached(entries: tuple[int, ...]) -> bool:
    return _graphic_erdos_gallai(entries)


def _profile_room(caps: list[int]) -> list[list[int]]:
    """room[v][i]: the sum of min(v, pm[j]) over j >= i, for v = 0..pm[0].

    pm is the prefix minimum of ``caps``.  One suffix-sum list per value,
    each from C-level passes; built once per side and split, and shared by
    every total the scan asks ``_profiles_with_sum`` for.  Needs at least
    one cap.
    """
    pm = list(accumulate(caps, min))
    room = []
    for v in range(pm[0] + 1):
        row = list(accumulate(map(min, repeat(v), reversed(pm)), initial=0))
        row.reverse()
        room.append(row)
    return room


def _profiles_with_sum(caps: list[int], room: list[list[int]], total: int):
    """Non-increasing positive sequences with v_i <= caps[i] summing to ``total``.

    Yields them in lexicographically descending order.  Entry i is at most
    pm[i], the prefix minimum of ``caps``; a value v for it is tried only
    while the positions after it can still take the rest of the sum: at
    least one each, and at most room[v][i + 1], the sum of min(v, pm[j])
    over j > i, from ``room = _profile_room(caps)``.  Every branch entered
    therefore yields a profile.  Needs at least one cap.
    """
    n = len(caps)
    top = len(room) - 1  # pm[0]
    if not n <= total <= room[top][0]:
        return
    seq: list[int] = []
    rest, v = total, min(top, total - n + 1)
    while True:
        i = len(seq)
        if v >= 1 and v + room[v][i + 1] >= rest:
            if i + 1 == n:
                yield (*seq, v)
                v -= 1
                continue
            seq.append(v)
            rest -= v
            v = min(v, caps[i + 1], rest - (n - i - 2))
            continue
        if not seq:
            return
        v = seq.pop()
        rest += v
        v -= 1


def _split_feasible(pos: DegreeSequence, k: int):
    """First cross-degree profile (head, tail) making split size k feasible.

    A profile fixes how many edges each vertex sends across the split.
    Feasibility needs graphic leftovers on both sides plus an exact-degree
    bipartite graph between them; the two profile sums must agree since
    both count the cross edges.  Each side's reachable sums form the
    interval [len, sum of prefix-minimum caps] (lowering the last entry
    above 1 steps down by one), so the scan walks the common totals in
    increasing order and enumerates only the profiles of the current one.
    Needs 1 <= k <= p/2, so both sides are non-empty and the tail, of
    length p - k, is the longer.
    """
    p = pos.n
    head, tail = pos.entries[:k], pos.entries[k:]
    head_caps = [min(x, p - k) for x in head]
    tail_caps = [min(x, k) for x in tail]
    head_room, tail_room = _profile_room(head_caps), _profile_room(tail_caps)

    def workable(side, caps, room, total):
        # the side's profiles of this total that leave a graphic remainder
        return [
            P
            for P in _profiles_with_sum(caps, room, total)
            if _graphic_cached(tuple(sorted(map(sub, side, P), reverse=True)))
        ]

    top = min(head_room[-1][0], tail_room[-1][0])  # the sums of prefix-minimum caps
    for total in range(p - k, top + 1):
        lefts = workable(head, head_caps, head_room, total)
        if not lefts:
            continue
        rights = workable(tail, tail_caps, tail_room, total)
        for L in lefts:
            for R in rights:
                if not _overflow(R, L):
                    return L, R
    return None


def _assemble_split_witness(pos, k, head_profile, tail_profile) -> RealizationWitness:
    p = pos.n
    edges = _hh_edges([pos.entries[i] - head_profile[i] for i in range(k)])
    tail = _hh_edges([pos.entries[k + j] - tail_profile[j] for j in range(p - k)])
    edges += [(k + a, k + b) for a, b in tail]
    edges += [(i, k + j) for i, j in _greedy_edges(head_profile, tail_profile)]
    claims = {WitnessClaim.HEAD_DOMINATING, WitnessClaim.TAIL_DOMINATING}
    return RealizationWitness.checked(Graph(p, sorted(edges)), pos, k, claims)


def gamma_min_bounded(d: DegreeSequence, delta_cap: int | None = None) -> ExtremalResult:
    """Smallest domination number among all realizations of ``d``.

    Scans split sizes k upward from the Slater number to p // 2, p the
    number of positive entries: by Ore's theorem every graph without
    isolated vertices has gamma <= n/2, so the first feasible k comes by
    then.  For each k it walks the cross-edge totals upward and
    enumerates only the head and tail profiles of the current total, so a
    feasible split stops at its first workable total.  Only an infeasible
    split visits every total, and with it every profile of both sides,
    whose number grows quickly with the maximum degree; passing
    ``delta_cap`` rejects sequences whose maximum entry exceeds it.
    """
    if not is_graphic(d):
        raise NotGraphic(f"{d.entries} is not graphic")
    if delta_cap is not None and d.max_entry > delta_cap:
        raise PreconditionViolated(
            f"maximum entry {d.max_entry} exceeds delta cap {delta_cap}"
        )
    chain = bound_chain(d)
    pos = d.positive_part()
    if pos is None:
        return ExtremalResult(ExtremalParameter.GAMMA_MIN, d.n, chain)
    for k in range(slater(pos), pos.n // 2 + 1):
        found = _split_feasible(pos, k)
        if found is not None:
            return ExtremalResult(
                ExtremalParameter.GAMMA_MIN,
                k + d.n0,
                chain,
                achieving_k=k,
                witness=_assemble_split_witness(pos, k, *found),
            )
    raise AssertionError("Ore's bound: some k <= p/2 is always feasible")


# ---------------------------------------------------------------------------
# forest-restricted parameters: closed formulas with witnesses


def gamma_min_forest(d: DegreeSequence) -> ExtremalResult:
    """Smallest domination number among all forest realizations of ``d``.

    On the positive part the value is min(k1, k2) where k1 is the first
    split whose head degree sum reaches the tail degree sum (p minus the
    annihilation number, as the total is positive) and k2 the first split
    admitting an independent dominating head; each isolated vertex then
    adds one.  Both come from bisections over the prefix sums, so the
    value costs O(log n) after the sort; the witness is linear.
    """
    if not is_forest_sequence(d):
        raise NotForestSequence(f"{d.entries} is not a forest sequence")
    chain = bound_chain(d)
    pos = d.positive_part()
    if pos is None:
        return ExtremalResult(ExtremalParameter.GAMMA_MIN_FOREST, d.n, chain)
    p = pos.n
    k1 = p - annihilation(pos)
    # k2 matters only below k1, where the surplus total - 2 * prefix(k) is
    # positive; there the cap test reads prefix(k) - k >= total/2 - c + 1
    # (c entries >= 2, total even), and prefix(k) - k never decreases as
    # the entries are positive.  Below slater(pos) the head cannot dominate.
    low = slater(pos)
    need = pos.total // 2 - pos.count_ge(2) + 1
    k2 = low + bisect_left(range(low, k1), need, key=lambda k: pos.prefix(k) - k)
    if k2 < k1:
        witness = independent_dominating_head_forest(pos, k2)
        best = k2
    else:
        witness = independent_tail_forest(pos, k1)
        best = k1
    return ExtremalResult(
        ExtremalParameter.GAMMA_MIN_FOREST,
        best + d.n0,
        chain,
        achieving_k=best,
        witness=witness,
    )


def alpha_max_forest(d: DegreeSequence) -> ExtremalResult:
    """Largest independence number among all forest realizations of ``d``.

    Equals the annihilation number.  The witness realizes the positive
    part with an independent tail of that size and appends the isolated
    vertices to the independent side.
    """
    if not is_forest_sequence(d):
        raise NotForestSequence(f"{d.entries} is not a forest sequence")
    chain = bound_chain(d)
    a = annihilation(d)
    pos = d.positive_part()
    if pos is None:
        witness = RealizationWitness.checked(
            Graph(d.n), d, 0, {WitnessClaim.IS_FOREST, WitnessClaim.TAIL_INDEPENDENT}
        )
        return ExtremalResult(
            ExtremalParameter.ALPHA_MAX_FOREST, d.n, chain, achieving_k=0, witness=witness
        )
    k = pos.n - annihilation(pos)
    edges = _independent_tail_edges(pos.entries, k)
    claims = {WitnessClaim.IS_FOREST, WitnessClaim.TAIL_INDEPENDENT}
    if d.n0 == 0:
        claims.add(WitnessClaim.HEAD_DOMINATING)  # isolated vertices break this
    witness = RealizationWitness.checked(Graph(d.n, edges), d, k, claims)
    return ExtremalResult(
        ExtremalParameter.ALPHA_MAX_FOREST, a, chain, achieving_k=k, witness=witness
    )


# ---------------------------------------------------------------------------
# domination vs Slater number on concrete connected graphs


@dataclass(frozen=True)
class SlaterBoundReport:
    """Outcome of the connected-graph bound gamma <= 3*slater + 2k - 2.

    ``cycle_excess`` is k = m - (n - 1).  A failing report would be a
    counterexample to the bound and must never occur.
    """

    holds: bool
    gamma: int
    slater: int
    cycle_excess: int
    bound: int


def check_slater_bound(g: Graph, limit: int = DEFAULT_SOLVER_LIMIT) -> SlaterBoundReport:
    if g.n < 1:
        raise PreconditionViolated("graph must have at least one vertex")
    if not g.is_connected():
        raise NotConnected("bound applies to connected graphs only")
    gamma, _ = domination_number(g, limit=limit)
    sl = slater(degree_sequence(g))
    k = g.m - (g.n - 1)
    bound = 3 * sl + 2 * k - 2
    return SlaterBoundReport(
        holds=gamma <= bound, gamma=gamma, slater=sl, cycle_excess=k, bound=bound
    )
