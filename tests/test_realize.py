import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degseqopt import (
    Graph,
    NotForestSequence,
    NotGraphic,
    PreconditionViolated,
    WitnessClaim,
    degree_sequence,
    forest_realize,
    havel_hakimi_realize,
    independent_dominating_head_forest,
    independent_tail_forest,
    is_forest_sequence,
    is_graphic,
    normalize,
    validate_witness,
)
from degseqopt.oracle import iter_degree_sequences
from degseqopt.realize import _independent_tail_edges, _peel_components

from conftest import components_reference, has_edge, neighbours


def forest_sequences(n_max, positive_only=True):
    start = 2 if positive_only else 1
    for n in range(start, n_max + 1):
        for seq in iter_degree_sequences(n, positive_only=positive_only):
            d = normalize(list(seq))
            if is_forest_sequence(d):
                yield d


# ---------------------------------------------------------------------------
# Havel-Hakimi


@pytest.mark.parametrize(
    "seq, edges",
    [
        ([2, 2, 2], [(0, 1), (0, 2), (1, 2)]),
        ([3, 1, 1, 1], [(0, 1), (0, 2), (0, 3)]),
        ([2, 2, 1, 1], [(0, 1), (0, 2), (1, 3)]),
    ],
)
def test_havel_hakimi_golden(seq, edges):
    assert havel_hakimi_realize(normalize(seq)).edges() == edges


def test_havel_hakimi_rejects_non_graphic():
    with pytest.raises(NotGraphic):
        havel_hakimi_realize(normalize([3, 3, 1, 1]))


def test_havel_hakimi_realizes_positionally_for_all_small_graphic_sequences():
    for n in range(1, 8):
        for seq in iter_degree_sequences(n):
            d = normalize(list(seq))
            if not is_graphic(d):
                continue
            g = havel_hakimi_realize(d)
            assert g.degrees == d.entries
            assert degree_sequence(g).entries == d.entries


def test_havel_hakimi_heap_matches_the_resorting_reference():
    from conftest import hh_edges_reference

    from degseqopt.realize import _hh_edges

    small = [normalize(list(seq)) for n in range(1, 9) for seq in iter_degree_sequences(n)]
    graphic = [d for d in small if is_graphic(d)]
    assert len(graphic) == 1706  # every graphic sequence with n <= 8
    rng = random.Random(20150716)
    while len(graphic) < 2006:  # and 300 random ones with n <= 400
        n = rng.randint(2, 400)
        d = normalize([rng.randint(0, rng.randint(1, min(n - 1, 40))) for _ in range(n)])
        if is_graphic(d):
            graphic.append(d)
    for d in graphic:
        assert _hh_edges(d.entries) == hh_edges_reference(d.entries), d.entries
        # any input order: ties go by the stable (-degree, position) rank,
        # so the edges are the reference's on that order, mapped back
        u = list(d.entries)
        rng.shuffle(u)
        order = sorted(range(len(u)), key=lambda i: (-u[i], i))
        expected = [(order[a], order[b]) for a, b in hh_edges_reference([u[i] for i in order])]
        assert _hh_edges(u) == expected, u


def test_havel_hakimi_realizes_a_hundred_thousand_vertices_quickly():
    rng = random.Random(20150716)
    entries = [rng.randint(1, 5) for _ in range(99_999)]
    entries.append(2 - sum(entries) % 2)  # an even sum
    d = normalize(entries)
    start = time.perf_counter()
    g = havel_hakimi_realize(d)
    elapsed = time.perf_counter() - start
    assert g.degrees == d.entries
    assert elapsed < 10, f"{elapsed:.1f} s"


# ---------------------------------------------------------------------------
# generic forest construction


@pytest.mark.parametrize(
    "seq, expected_edges",
    [
        ([1, 1], [(0, 1)]),
        ([0, 0, 0], []),
    ],
)
def test_forest_realize_trivial(seq, expected_edges):
    assert forest_realize(normalize(seq)).edges() == expected_edges


def test_forest_realize_rejects_non_forest():
    with pytest.raises(NotForestSequence):
        forest_realize(normalize([2, 2, 2]))


def test_forest_realize_all_small_sequences():
    for d in forest_sequences(8, positive_only=False):
        g = forest_realize(d)
        assert g.is_forest()
        assert g.degrees == d.entries


# ---------------------------------------------------------------------------
# independent tail


def test_independent_tail_base_case():
    w = independent_tail_forest(normalize([1, 1]), 1)
    assert w.graph.edges() == [(0, 1)]


def test_independent_tail_three_stars_golden():
    w = independent_tail_forest(normalize([2, 2, 2, 1, 1, 1, 1, 1, 1]), 3)
    assert w.graph.edges() == [(0, 5), (0, 6), (1, 4), (1, 7), (2, 3), (2, 8)]
    # three stars with the degree-2 vertices as centers
    assert all(w.graph.degree(i) == 2 for i in range(3))


def test_independent_tail_small_example():
    w = independent_tail_forest(normalize([2, 1, 1, 1, 1]), 2)
    report = validate_witness(w)
    assert report.ok
    assert WitnessClaim.TAIL_INDEPENDENT in w.claims


def test_independent_tail_rejects_bad_input():
    with pytest.raises(PreconditionViolated):
        independent_tail_forest(normalize([2, 1, 1, 0]), 2)  # zero entry
    with pytest.raises(PreconditionViolated):
        independent_tail_forest(normalize([2, 2, 2]), 2)  # not a forest sum
    with pytest.raises(PreconditionViolated):
        independent_tail_forest(normalize([2, 1, 1, 1, 1]), 1)  # head sum too small
    with pytest.raises(PreconditionViolated):
        independent_tail_forest(normalize([1, 1]), 5)  # k out of range


def _assert_independent_tail_forest(degrees, k, edges):
    g = Graph(len(degrees), edges)
    assert g.degrees == tuple(degrees)
    assert g.is_forest()
    assert all(u < k for u, v in edges), "an edge joins two tail vertices"


def test_leaf_peel_every_split_up_to_n10():
    splits = 0
    for d in forest_sequences(10):
        for k in range(1, d.n + 1):
            if d.prefix(k) >= d.suffix(k):
                _assert_independent_tail_forest(
                    d.entries, k, _independent_tail_edges(d.entries, k)
                )
                splits += 1
    assert splits == 774


def test_leaf_peel_on_unsorted_splits():
    rng = random.Random(20150716)
    checked = 0
    while checked < 3000:
        n = rng.randint(2, 40)
        degrees = [1] * n  # c trees: sum 2n - 2c, every entry positive
        for _ in range(n - 2 * rng.randint(1, n // 2)):
            degrees[rng.randrange(n)] += 1
        k = rng.randint(1, n)
        if sum(degrees[:k]) < sum(degrees[k:]):
            continue
        _assert_independent_tail_forest(degrees, k, _independent_tail_edges(degrees, k))
        checked += 1


def test_independent_tail_sweep_all_valid_splits_up_to_n9():
    for d in forest_sequences(9):
        for k in range(1, d.n + 1):
            if d.prefix(k) < d.suffix(k):
                continue
            w = independent_tail_forest(d, k)
            assert validate_witness(w).ok
            tail = range(k, d.n)
            assert all(not has_edge(w.graph, u, v) for u in tail for v in tail if u < v)
            assert w.graph.m == d.total // 2


# ---------------------------------------------------------------------------
# independent dominating head


def test_independent_dominating_head_examples():
    w = independent_dominating_head_forest(normalize([3, 2, 2, 2, 1, 1, 1]), 2)
    assert validate_witness(w).ok
    assert not has_edge(w.graph, 0, 1)

    w = independent_dominating_head_forest(normalize([1, 1]), 1)
    assert w.graph.edges() == [(0, 1)]

    w = independent_dominating_head_forest(normalize([2, 1, 1, 1, 1]), 2)
    assert validate_witness(w).ok


def test_independent_dominating_head_errors_name_the_failing_condition():
    with pytest.raises(PreconditionViolated, match="dominate"):
        independent_dominating_head_forest(normalize([1, 1, 1, 1, 1, 1]), 1)
    with pytest.raises(PreconditionViolated, match="surplus"):
        independent_dominating_head_forest(normalize([2, 2, 1, 1]), 3)


def test_independent_dominating_head_sweep_all_valid_splits_up_to_n9():
    for d in forest_sequences(9):
        n = d.n
        for k in range(1, n + 1):
            if d.prefix(k) < n - k:
                continue
            surplus = d.suffix(k) - d.prefix(k)
            if not 0 <= surplus <= max(0, 2 * (d.count_ge(2) - k) - 2):
                continue
            w = independent_dominating_head_forest(d, k)
            assert validate_witness(w).ok
            nbrs = neighbours(w.graph)
            assert all(v >= k for u in range(k) for v in nbrs[u])
            assert all(any(u < k for u in nbrs[v]) for v in range(k, n))
            assert w.graph.m == d.total // 2


def _tree_degrees(internal):
    """Degrees of a tree whose non-leaf vertices have the degrees ``internal``."""
    return list(internal) + [1] * (sum(d - 2 for d in internal) + 2)


def _caterpillar(rng, n):
    spine = rng.randint(1, n // 2)
    degrees = [0 if spine == 1 else 2] * spine
    if spine > 1:
        degrees[0] = degrees[-1] = 1
    for _ in range(n - spine):
        degrees[rng.randrange(spine)] += 1
    return degrees + [1] * (n - spine)


def _spider(rng, n):
    legs = rng.randint(3, max(3, n // 4))
    return _tree_degrees([legs] + [2] * (n - 1 - legs))


def _prufer(rng, n):
    degrees = [1] * n
    for _ in range(n - 2):
        degrees[rng.randrange(n)] += 1
    return degrees


def _high_tail(rng, n):
    # internal degrees 3..6 leave small splits' tails spare room above two
    # per vertex; a few K2 components make it a forest, not a tree
    internal = [rng.randint(3, 6)]
    while len(_tree_degrees(internal)) < n:
        internal.append(rng.randint(3, 6))
    return _tree_degrees(internal) + [1, 1] * rng.randint(0, 3)


def test_independent_dominating_head_random_families_beyond_n9():
    rng = random.Random(20240611)
    families = {
        "path": lambda rng, n: [2] * (n - 2) + [1, 1],
        "caterpillar": _caterpillar,
        "spider": _spider,
        "prufer": _prufer,
        "high_tail": _high_tail,
    }
    branches = []
    accepted = 0
    for name, make in families.items():
        draws = 30 if name == "high_tail" else 10
        for n in [10, 300] + [rng.randint(11, 299) for _ in range(draws)]:
            d = normalize(make(rng, n))
            assert is_forest_sequence(d) and d.n0 == 0, name
            for k in range(1, d.n + 1):
                surplus = d.suffix(k) - d.prefix(k)
                cap = max(0, 2 * (d.count_ge(2) - k) - 2)
                if d.prefix(k) < d.n - k or not 0 <= surplus <= cap:
                    continue
                accepted += 1
                if surplus > 0:
                    branches.append(d.count_ge(2) - k >= surplus)
                w = independent_dominating_head_forest(d, k)
                g = w.graph
                assert validate_witness(w).ok
                nbrs = neighbours(g)
                assert all(v >= k for u in range(k) for v in nbrs[u])
                assert all(any(u < k for u in nbrs[v]) for v in range(k, d.n))
                assert g.m == d.total // 2
    assert accepted > 500
    # both ways of choosing the tail-internal degrees ran, many times
    assert min(branches.count(True), branches.count(False)) > 50


def test_bipartite_forest_meets_every_feasible_degree_pair():
    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    for total in range(1, 7):
        for a in range(1, total + 1):
            for b in range(1, total + 1):
                if total > a + b - 1:
                    continue
                for left in compositions(total, a):
                    for right in compositions(total, b):
                        edges = _independent_tail_edges(left + right, a)
                        _assert_independent_tail_forest(left + right, a, edges)
                        assert all(u < a <= v for u, v in edges)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_constructions_are_deterministic(seed):
    import random

    rng = random.Random(seed)
    pool = [d for d in forest_sequences(8)]
    d = rng.choice(pool)
    ks = [k for k in range(1, d.n + 1) if d.prefix(k) >= d.suffix(k)]
    k = rng.choice(ks)
    first = independent_tail_forest(d, k).graph.edges()
    assert independent_tail_forest(d, k).graph.edges() == first


@given(st.lists(st.integers(min_value=2, max_value=7), min_size=1, max_size=5),
       st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=300)
def test_peel_components_match_the_graph_components(sizes, pad, seed):
    # f: the degrees of a few trees, shuffled, as the peel takes any order
    rng = random.Random(seed)
    f = [x for size in sizes for x in _prufer(rng, size)]
    rng.shuffle(f)
    edges = _independent_tail_edges(f, len(f))
    size = len(f) + pad
    assert _peel_components(edges, size) == components_reference(Graph(size, edges))


def test_peel_components_on_every_positive_forest_sequence_up_to_n9():
    for d in forest_sequences(9):
        edges = _independent_tail_edges(d.entries, d.n)
        for size in (d.n, d.n + 2):
            assert _peel_components(edges, size) == components_reference(Graph(size, edges))
