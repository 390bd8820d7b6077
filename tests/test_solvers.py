import random

import pytest

from degseqopt import Graph, TooLarge, clique_number, domination_number, independence_number
from degseqopt.solvers import _alpha_branch_bound, _gamma_branch_bound, _masks

from conftest import naive_clique, naive_domination, naive_independence, random_graph


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
    closed = set()
    for v in dset:
        closed |= set(graph.adjacency_sets[v]) | {v}
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
    assert all(not graph.has_edge(u, v) for u in iset for v in iset if u < v)
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
        masks = _masks(g)
        assert _gamma_branch_bound(masks, n)[0] == domination_number(g)[0]
        assert _alpha_branch_bound(masks, n)[0] == independence_number(g)[0]


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
    # n > table threshold, single component: exercises the search engines
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
