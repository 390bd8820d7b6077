"""Extremal graph parameters over all realizations of a degree sequence.

Computes, for a graphic sequence d:

* omega_max(d), alpha_max(d): the largest clique/independence number of
  any realization, by one Rao peel on d's degree histogram, tried at a
  start bound and otherwise bisected over k (feasibility is monotone in
  k);
* gamma_min(d): the smallest domination number of any realization, by
  scanning split sizes k upward from the Slater number to p // 2, p the
  number of positive entries (Ore: gamma <= n/2 without isolated
  vertices), and, for each k, the cross-edge totals upward: for each
  total, the cross-degree profiles spreading each run of equal degrees
  evenly are enumerated and tested for whether the head part, tail part,
  and connecting bipartite graph all exist (majorization makes it exact);
* gamma_min_forest(d), alpha_max_forest(d): closed formulas over forest
  realizations, with constructive witnesses attached;
* the domination bound check gamma(G) <= 3*slater + 2*(cycle excess) - 2
  for connected graphs.

Zero entries are always split off first: each isolated vertex adds one to
any minimum dominating set and one to any maximum independent set.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import groupby
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
from .solvers import domination_number

__all__ = [
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


@dataclass(frozen=True)
class BoundChain:
    """Sequence-level bounds: the CLI's ``bounds`` report and ``bound_chain`` field.

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
    """An extremal value, the split k that attains it, and a witness.

    ``omega_max``, ``alpha_max`` and all-zero sequences give the value
    only.  With zero entries, gamma witnesses cover the positive part only
    (isolated vertices would have to join the dominating set but sit at the
    tail of the sorted order); ``value`` always refers to the full sequence.
    """

    value: int
    achieving_k: int | None = None
    witness: RealizationWitness | None = None


# ---------------------------------------------------------------------------
# largest clique / independence number over realizations


def _lay_off(rest: tuple[int, ...], demands) -> bool:
    """Rao's peel: can each demand w take one edge from w vertices of ``rest``?

    Demand w takes one edge from each of the w largest residuals of
    ``rest``, which drop by one.  The residuals are a value -> count
    histogram, so a demand walks only the values from the top down to the
    lowest one it lowers: no list shifts and no re-sort.  Feasible iff
    every demand finds w positive residuals and the final residuals are
    graphic (Erdos-Gallai).  Needs ``rest`` non-increasing and every
    demand non-negative.
    """
    top = rest[0] if rest else 0
    count = [0] * (top + 1)
    for x in rest:
        count[x] += 1
    for w in demands:
        if w > len(rest) - count[0]:
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


def _rao_clique_feasible(entries: tuple[int, ...], k: int) -> bool:
    """Can some realization contain a clique on the k largest-degree vertices?

    Clique vertex j joins the other k - 1 and lays off its remaining
    entries[j] - k + 1 edges onto the tail ``entries[k:]``, largest first.
    Needs ``entries`` non-increasing.
    """
    if k and entries[k - 1] < k - 1:
        return False  # some clique vertex cannot reach the other k - 1
    return _lay_off(entries[k:], [x - k + 1 for x in entries[:k]])


def _largest_feasible(hi: int, feasible) -> int:
    """Largest k in 1..hi with ``feasible(k)``, for feasibility monotone in k.

    Tries the start bound hi first, as it is often met, else bisects below.
    """
    if feasible(hi):
        return hi
    best = bisect_left(range(1, hi), True, key=lambda k: not feasible(k))
    if not best:
        raise AssertionError("k = 1 is always feasible for a graphic sequence")
    return best


def omega_max(d: DegreeSequence) -> ExtremalResult:
    """Largest clique number among all realizations of ``d``.

    By Rao's theorem some realization has a k-clique iff one has it on the
    k largest-degree vertices.  The search starts at the largest k with
    d_k >= k - 1.
    """
    if not is_graphic(d):
        raise NotGraphic(f"{d.entries} is not graphic")
    entries = d.entries
    hi = bisect_left(range(d.n), True, key=lambda i: entries[i] < i)
    value = _largest_feasible(hi, lambda k: _rao_clique_feasible(entries, k))
    return ExtremalResult(value)


def alpha_max(d: DegreeSequence) -> ExtremalResult:
    """Largest independence number among all realizations of ``d``.

    The k smallest-degree vertices lay off their d_j edges, smallest
    first, onto the other n - k: the complement's clique peel read on
    ``d``.  The search starts at the annihilation number (Pepper), capped
    by the largest k whose k smallest entries fit into the other n - k.
    """
    if not is_graphic(d):
        raise NotGraphic(f"{d.entries} is not graphic")
    entries, n = d.entries, d.n
    fits = n - bisect_left(range(n), True, key=lambda i: entries[i] <= i)
    value = _largest_feasible(
        min(annihilation(d), fits),
        lambda k: _lay_off(entries[: n - k], reversed(entries[n - k :])),
    )
    return ExtremalResult(value)


# ---------------------------------------------------------------------------
# smallest domination number over realizations (bounded maximum degree)


def _even_profiles(runs: list[tuple[int, int]], total: int):
    """Profiles of sum ``total`` that spread each run evenly, largest first.

    ``runs`` lists (size, cap) for the runs of equal entries of one side,
    caps non-increasing.  A run of size s takes a total t in [s, s * cap]:
    its first t mod s members get t // s + 1 and the rest t // s.  Its
    largest entry may not exceed the previous run's smallest, q, so each
    profile is non-increasing.  Run totals are tried largest first, run by
    run, so profiles come in lexicographically descending order.  A total
    is kept only while the later runs can take the rest: at least one per
    vertex, at most size * min(cap, q) per run.  Needs at least one run.
    """
    n = len(runs)
    after = [0] * (n + 1)  # vertices in runs i on
    for i in range(n - 1, -1, -1):
        after[i] = after[i + 1] + runs[i][0]
    s, c = runs[0]
    prof, kept, rest, t = [], [], total, min(s * c, total - after[1])
    while True:
        i = len(kept)
        s = runs[i][0]
        q, r = divmod(t, s)
        if i + 1 == n:
            if s <= t == rest:
                yield prof + [q + 1] * r + [q] * (s - r)
        elif t >= s and rest - t <= sum(z * min(x, q) for z, x in runs[i + 1 :]):
            kept.append(t)
            prof += [q + 1] * r + [q] * (s - r)
            rest -= t
            z, x = runs[i + 1]
            t = min(z * min(x, q), rest - after[i + 2])
            continue
        if not kept:
            return
        t = kept.pop()  # lower the last kept total by one
        del prof[len(prof) - runs[i - 1][0] :]
        rest += t
        t -= 1


def _split_feasible(pos: DegreeSequence, k: int):
    """First cross-degree profile (head, tail) making split size k feasible.

    A profile fixes how many edges each vertex sends across the split.
    Feasibility needs graphic leftovers on both sides plus an exact-degree
    bipartite graph between them; the two profile sums must agree since
    both count the cross edges.  The scan walks the common totals upward
    and lists only the profiles spreading each run of equal entries
    evenly, with caps min(x, p - k) on the head and min(x, k) on the tail.

    This is exact.  Take two vertices of one run whose cross counts differ
    by 2 or more, and move one cross edge from the larger to the smaller.
    That flattens both the profile and that side's leftover, and the
    profile keeps its caps and its floor of 1.  Erdos-Gallai (Ruch-Gutman
    1979) and Gale-Ryser both hold for anything majorized by a passing
    vector, and conjugation reverses dominance.  So whenever some profile
    of a total works, an evenly spread one works too.  Needs 1 <= k <= p/2,
    so both sides are non-empty and the tail, of length p - k, is the longer.
    """
    p = pos.n
    head, tail = pos.entries[:k], pos.entries[k:]
    head_runs = [(len(list(g)), min(x, p - k)) for x, g in groupby(head)]
    tail_runs = [(len(list(g)), min(x, k)) for x, g in groupby(tail)]

    def workable(side, runs, total):
        # the side's profiles of this total that leave a graphic remainder
        return [
            P
            for P in _even_profiles(runs, total)
            if _graphic_erdos_gallai(sorted(map(sub, side, P), reverse=True))
        ]

    top = min(sum(s * c for s, c in head_runs), sum(s * c for s, c in tail_runs))
    for total in range(p - k, top + 1):
        lefts = workable(head, head_runs, total)
        if not lefts:
            continue
        rights = workable(tail, tail_runs, total)
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
    return RealizationWitness.checked(Graph(p, edges), pos, k, claims)


def gamma_min_bounded(d: DegreeSequence, delta_cap: int | None = None) -> ExtremalResult:
    """Smallest domination number among all realizations of ``d``.

    Scans split sizes k upward from the Slater number to p // 2, p the
    number of positive entries: by Ore's theorem every graph without
    isolated vertices has gamma <= n/2, so the first feasible k comes by
    then.  For each k it walks the cross-edge totals upward and
    enumerates only the head and tail profiles of the current total, so a
    feasible split stops at its first workable total.  Only an infeasible
    split visits every vector of run totals of both sides, a number
    exponential in the count of distinct entries (a run of s adds a
    factor of at most s * cap).  That count is at most the maximum entry,
    which ``delta_cap`` bounds: it rejects a larger maximum entry.
    """
    if not is_graphic(d):
        raise NotGraphic(f"{d.entries} is not graphic")
    if delta_cap is not None and d.max_entry > delta_cap:
        raise PreconditionViolated(
            f"maximum entry {d.max_entry} exceeds delta cap {delta_cap}"
        )
    pos = d.positive_part()
    if pos is None:
        return ExtremalResult(d.n)
    for k in range(slater(pos), pos.n // 2 + 1):
        found = _split_feasible(pos, k)
        if found is not None:
            return ExtremalResult(k + d.n0, k, _assemble_split_witness(pos, k, *found))
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
    pos = d.positive_part()
    if pos is None:
        return ExtremalResult(d.n)
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
    return ExtremalResult(best + d.n0, best, witness)


def alpha_max_forest(d: DegreeSequence) -> ExtremalResult:
    """Largest independence number among all forest realizations of ``d``.

    Equals the annihilation number a.  Each zero entry adds exactly one to
    a, so the split k = n - a is also the positive part's.  The witness
    realizes the positive part with an independent tail and leaves the
    isolated vertices at the end of the independent side.
    """
    if not is_forest_sequence(d):
        raise NotForestSequence(f"{d.entries} is not a forest sequence")
    k = d.n - annihilation(d)
    edges = _independent_tail_edges(d.entries[: d.positive_count], k)
    claims = {WitnessClaim.IS_FOREST, WitnessClaim.TAIL_INDEPENDENT}
    if d.n0 == 0:
        claims.add(WitnessClaim.HEAD_DOMINATING)  # isolated vertices break this
    witness = RealizationWitness.checked(Graph(d.n, edges), d, k, claims)
    return ExtremalResult(d.n - k, k, witness)


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


def check_slater_bound(g: Graph) -> SlaterBoundReport:
    if g.n < 1:
        raise PreconditionViolated("graph must have at least one vertex")
    if not g.is_connected():
        raise NotConnected("bound applies to connected graphs only")
    gamma, _ = domination_number(g)
    sl = slater(degree_sequence(g))
    k = g.m - (g.n - 1)
    bound = 3 * sl + 2 * k - 2
    return SlaterBoundReport(
        holds=gamma <= bound, gamma=gamma, slater=sl, cycle_excess=k, bound=bound
    )
