import random

import pytest

from degseqopt import Graph, TooLarge, clique_number, domination_number, independence_number
from degseqopt.solvers import _alpha_branch_bound, _gamma_branch_bound

from conftest import (
    gamma_branch_bound_reference,
    has_edge,
    naive_clique,
    naive_domination,
    naive_independence,
    neighbour_masks,
    neighbours,
    random_connected_graph,
    random_connected_gnp,
    random_graph,
    search_tree_shape,
    subset_table_reference,
)


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(n):
    return Graph(n, [(0, i) for i in range(1, n)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


@pytest.mark.parametrize(
    "graph, gamma",
    [
        (cycle(6), 2),
        (star(5), 1),
        # disjoint K_3 and three K_2 (the r=2 star/clique family graph)
        (Graph(9, [(0, 1), (0, 2), (1, 2), (3, 4), (5, 6), (7, 8)]), 4),
        (Graph(1), 1),
        (Graph(3), 3),
    ],
)
def test_domination_examples(graph, gamma):
    value, dset = domination_number(graph)
    assert value == gamma
    nbrs = neighbours(graph)
    closed = set()
    for v in dset:
        closed |= nbrs[v] | {v}
    assert closed == set(range(graph.n))
    assert len(dset) == value


@pytest.mark.parametrize(
    "graph, alpha",
    [
        (path(4), 2),
        (Graph(5), 5),
        (Graph(9, [(0, 3), (0, 4), (1, 5), (1, 6), (2, 7), (2, 8)]), 6),
    ],
)
def test_independence_examples(graph, alpha):
    value, iset = independence_number(graph)
    assert value == alpha
    assert all(not has_edge(graph, u, v) for u in iset for v in iset if u < v)
    assert len(iset) == value


@pytest.mark.parametrize(
    "graph, omega",
    [
        (complete(4), 4),
        (cycle(5), 2),
        (Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]), 3),
        (Graph(3), 1),
    ],
)
def test_clique_examples(graph, omega):
    assert clique_number(graph) == omega


def test_solver_limit():
    g = Graph(40)
    with pytest.raises(TooLarge):
        domination_number(g, limit=32)
    with pytest.raises(TooLarge):
        independence_number(g, limit=32)
    with pytest.raises(TooLarge):
        clique_number(g, limit=32)
    assert domination_number(g, limit=64)[0] == 40


def test_agreement_with_naive_solver_on_random_sample():
    # production solvers vs plain subset enumeration
    rng = random.Random(20240601)
    for _ in range(10_000):
        n = rng.randint(1, 6)
        g = random_graph(rng, n, rng.random())
        assert domination_number(g)[0] == naive_domination(g)
        assert independence_number(g)[0] == naive_independence(g)


def test_clique_agreement_with_naive_on_random_sample():
    rng = random.Random(42)
    for _ in range(1500):
        g = random_graph(rng, rng.randint(1, 6), rng.random())
        assert clique_number(g) == naive_clique(g)


def test_branch_and_bound_agrees_with_tables():
    rng = random.Random(9)
    for _ in range(150):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        masks = neighbour_masks(g)
        gamma, alpha, omega = subset_table_reference(masks, n)
        assert _gamma_branch_bound(masks, n)[0] == gamma == domination_number(g)[0]
        assert _alpha_branch_bound(masks, n)[0] == alpha == independence_number(g)[0]
        assert clique_number(g) == omega


@pytest.mark.parametrize(
    "graph, gamma, alpha",
    [
        (path(20), 7, 10),
        (cycle(18), 6, 9),
        (star(19), 1, 18),
        (complete(17), 1, 1),
    ],
)
def test_large_structured_graphs_use_branch_and_bound(graph, gamma, alpha):
    # one component of 17..20 vertices: goes straight to the search engines
    assert domination_number(graph)[0] == gamma
    assert independence_number(graph)[0] == alpha


def test_disjoint_components_are_solved_additively():
    # K_5 plus ten K_2: 25 vertices, gamma = 1 + 10
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges += [(5 + 2 * t, 6 + 2 * t) for t in range(10)]
    g = Graph(25, edges)
    assert domination_number(g)[0] == 11
    assert independence_number(g)[0] == 1 + 10
    assert clique_number(g) == 5


def test_clique_number_beyond_64_vertices():
    # K_5 plus a 65-vertex path, with limit raised past 64
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges += [(i, i + 1) for i in range(5, 69)]
    g = Graph(70, edges)
    assert clique_number(g, limit=80) == 5
    assert clique_number(path(70), limit=80) == 2


# ---------------------------------------------------------------------------
# the domination branch and bound: packing bound and dominated coverers


def dominates(masks, chosen):
    covered = 0
    for v in chosen:
        covered |= masks[v] | (1 << v)
    return covered == (1 << len(masks)) - 1


def grown_graph(rng, n):
    """A G(n', p) core grown to n vertices by pendant vertices, true twins
    (equal closed neighborhoods) and isolated vertices, then relabelled."""
    core = rng.randint(1, n)
    edges = random_graph(rng, core, rng.choice([0.1, 0.2, 0.35, 0.6])).edges()
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    for x in range(core, n):
        kind = rng.choice(("pendant", "twin", "isolated"))
        v = rng.randrange(x)
        if kind == "pendant":
            nbrs[x] = {v}
        elif kind == "twin":
            nbrs[x] = nbrs[v] | {v}
        for w in nbrs[x]:
            nbrs[w].add(x)
    label = list(range(n))
    rng.shuffle(label)
    return Graph(n, [(label[u], label[w]) for u in range(n) for w in nbrs[u] if u < w])


def test_gamma_branch_bound_matches_tables():
    rng = random.Random(20110501)
    for _ in range(2000):
        n = rng.randint(1, 14)
        masks = neighbour_masks(grown_graph(rng, n))
        size, chosen = _gamma_branch_bound(masks, n)
        assert size == subset_table_reference(masks, n)[0]
        assert len(chosen) == size and dominates(masks, chosen)


@pytest.mark.parametrize("n", range(15, 41))
def test_paths_and_cycles_past_the_tables(n):
    for g in (path(n), cycle(n)):
        size, chosen = domination_number(g, limit=40)
        assert size == -(-n // 3)
        assert len(chosen) == size and dominates(neighbour_masks(g), chosen)


def corona(g):
    """g with a pendant vertex hung on every vertex; leaves take the low labels."""
    m = g.n
    return Graph(2 * m, [(u + m, v + m) for u, v in g.edges()] + [(v, v + m) for v in range(m)])


@pytest.mark.parametrize("m", range(8, 17))
def test_corona_is_settled_at_the_root(m):
    # the m leaves are pairwise at distance >= 3 and the greedy cover takes
    # m vertices, so the packing bound meets it before any branching
    rng = random.Random(m)
    for g in (path(m), random_connected_graph(rng, m, m // 2), complete(m)):
        masks = neighbour_masks(corona(g))
        (size, chosen), shape = search_tree_shape(_gamma_branch_bound, masks)
        assert size == m and len(chosen) == m and dominates(masks, chosen)
        assert shape == [1]
        assert domination_number(corona(g))[0] == m


def maximal_coverer_gains(masks):
    """Distinct gains of the root branch vertex's coverers that lie in no
    other one: the children the dominated-coverer rule allows at the root."""
    n = len(masks)
    cn = [masks[v] | (1 << v) for v in range(n)]
    u = min(range(n), key=lambda v: (cn[v].bit_count(), v))
    gains = {cn[v] for v in range(n) if cn[u] >> v & 1}
    return sum(not any(g != h and g & ~h == 0 for h in gains) for g in gains)


def test_root_branches_only_on_undominated_coverers():
    # a pendant vertex (closed neighborhood of 2) is the branch vertex, and
    # its own gain lies inside its neighbor's; twins give equal gains
    rng = random.Random(2011)
    branched = 0
    for _ in range(300):
        n = rng.randint(15, 24)
        masks = neighbour_masks(grown_graph(rng, n))
        (size, chosen), shape = search_tree_shape(_gamma_branch_bound, masks)
        assert dominates(masks, chosen) and len(chosen) == size
        if len(shape) > 1:
            branched += 1
            assert shape[1] <= maximal_coverer_gains(masks)
    assert branched >= 50


def test_gamma_branch_bound_agrees_with_reference_on_connected_gnp():
    rng = random.Random(16205)
    for n in range(15, 33):
        for p in (0.1, 0.2, 0.4):
            masks = neighbour_masks(random_connected_gnp(rng, n, p))
            size, chosen = _gamma_branch_bound(masks, n)
            assert size == gamma_branch_bound_reference(masks, n)[0]
            assert len(chosen) == size and dominates(masks, chosen)
