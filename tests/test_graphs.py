import importlib
import pkgutil
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degseqopt
from degseqopt import (
    Graph,
    InvalidWitness,
    PreconditionViolated,
    RealizationWitness,
    WitnessClaim,
    annihilation,
    degree_sequence,
    domination_number,
    independence_number,
    normalize,
    slater,
    validate_witness,
)
from degseqopt.graphs import (
    _edge_list_parts,
    _head_dominates,
    _head_independent,
    _json_graph_parts,
    _tail_dominates,
    _tail_independent,
)
from degseqopt.solvers import _component_masks

from conftest import (
    components_reference,
    has_edge,
    neighbours,
    random_graph,
    random_tree,
    same_graph,
    two_switch,
)


def triangle():
    return Graph(3, [(0, 1), (0, 2), (1, 2)])


def test_graph_construction_validation():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 5)])


def test_graph_accessors():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.degrees == (1, 2, 2, 1)
    assert g.m == 3
    assert neighbours(g)[1] == {0, 2}
    assert has_edge(g, 2, 1) and not has_edge(g, 0, 3)
    assert g.is_forest() and g.is_connected()
    assert g.connected_components() == [[0, 1, 2, 3]]


def test_masks_agree_with_sets():
    # bit i of a component's mask stands for the component's i-th vertex
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 12), rng.random())
        nbrs = neighbours(g)
        split = _component_masks(g)
        assert [comp for comp, _ in split] == components_reference(g)
        for comp, masks in split:
            for v, mask in zip(comp, masks):
                assert {w for i, w in enumerate(comp) if mask >> i & 1} == nbrs[v]


def test_components_connectivity_and_forests_match_the_bfs_reference():
    # sparse G(n, p) and forests cut from a random tree leave isolated vertices
    rng = random.Random(1972)
    for n in [0, 1, 2] * 5 + [rng.randint(3, 40) for _ in range(200)]:
        tree = random_tree(rng, n)
        forest = Graph(n, rng.sample(tree.edges(), rng.randint(0, tree.m)))
        for g in (random_graph(rng, n, rng.choice([0.02, 0.05, 0.1, 0.3])), tree, forest):
            comps = components_reference(g)
            assert g.connected_components() == comps
            assert g.is_connected() == (len(comps) <= 1)
            assert g.is_forest() == (g.m == n - len(comps))
        assert tree.is_connected() and tree.is_forest() and forest.is_forest()


@pytest.mark.parametrize(
    "graph, expected",
    [
        (triangle(), (2, 2, 2)),
        (Graph(4, [(0, 1), (0, 2), (0, 3)]), (3, 1, 1, 1)),
        (Graph(2), (0, 0)),
    ],
)
def test_degree_sequence_examples(graph, expected):
    assert degree_sequence(graph).entries == expected


def test_two_switch_p4_example():
    # a-b-c-d with edges ab, cd switched to ac, bd
    g = Graph(4, [(0, 1), (2, 3), (1, 2)])
    switched = two_switch(g, (0, 1), (2, 3))
    assert switched.edges() == [(0, 2), (1, 2), (1, 3)]
    assert sorted(switched.degrees, reverse=True) == [2, 2, 1, 1]


def test_two_switch_preserves_degrees_positionally():
    g = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    switched = two_switch(g, (0, 1), (3, 4))
    assert switched.degrees == g.degrees


def test_two_switch_rejects_bad_requests():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(PreconditionViolated):
        two_switch(g, (0, 1), (1, 2))  # shared endpoint
    with pytest.raises(PreconditionViolated):
        two_switch(g, (0, 2), (1, 3))  # not edges
    g2 = Graph(4, [(0, 1), (2, 3), (0, 2)])
    with pytest.raises(PreconditionViolated):
        two_switch(g2, (0, 1), (2, 3))  # replacement edge exists


def test_public_surface_is_pinned():
    # no test-only helpers among the exports, and the oracle works on
    # bitmasks without the graph model
    assert sorted(degseqopt.__all__) == [
        "BipartiteDegreeSpec", "BoundChain", "DEFAULT_ORACLE_LIMITS", "DEFAULT_SOLVER_LIMIT",
        "DegSeqOptError", "DegreeSequence", "ExtremalResult", "Graph",
        "GraphClass", "Infeasible", "InvalidSequence", "InvalidWitness", "NotConnected",
        "NotForestSequence", "NotGraphic", "OracleReport", "PreconditionViolated",
        "RealizationWitness", "SlaterBoundReport", "TooLarge", "WitnessClaim", "WitnessReport",
        "alpha_max", "alpha_max_forest", "annihilation", "bound_chain",
        "build_bounded_bipartite", "check_slater_bound", "clique_number", "degree_sequence",
        "domination_number", "enumerate_realizations", "forest_realize", "gale_ryser_feasible",
        "gamma_min_bounded", "gamma_min_forest", "havel_hakimi_realize", "independence_number",
        "independent_dominating_head_forest", "independent_tail_forest", "is_forest_sequence",
        "is_graphic", "iter_degree_sequences", "normalize", "omega_max", "oracle_extrema",
        "parse_sequence_text", "slater", "validate_witness", "witness_to_json_obj",
    ]
    for name in degseqopt.__all__:
        assert getattr(degseqopt, name) is not None
    assert not hasattr(degseqopt.oracle, "Graph")
    # the subset tables are the oracle's own: it takes nothing from the
    # solvers, and the solvers keep no table engine
    assert not [name for name, value in vars(degseqopt.oracle).items()
                if getattr(value, "__module__", None) == "degseqopt.solvers"]
    assert not hasattr(degseqopt.solvers, "_tables")
    assert not hasattr(degseqopt.solvers, "_TABLE_MAX")
    # the graph is its edge list: the views tests need live in conftest
    assert not {"has_edge", "__eq__", "__hash__", "adjacency_sets"} & set(Graph.__dict__)


def test_public_surface_is_declared_once_by_the_modules():
    # each module's __all__ says what it exports; the package re-exports
    # exactly their union, each name bound to the module's own object
    modules = [importlib.import_module(f"degseqopt.{info.name}")
               for info in pkgutil.iter_modules(degseqopt.__path__)
               if info.name not in ("cli", "__main__")]
    assert not [module.__name__ for module in modules if not hasattr(module, "__all__")]
    declared = [name for module in modules for name in module.__all__]
    assert len(set(declared)) == len(declared)
    assert sorted(degseqopt.__all__) == sorted(declared)
    assert len(set(degseqopt.__all__)) == len(degseqopt.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(degseqopt, name) is getattr(module, name), (module, name)
            owner = getattr(getattr(module, name), "__module__", module.__name__)
            assert owner == module.__name__, (module, name)


# ---------------------------------------------------------------------------
# witnesses


def spec_example_witness():
    # star K_{1,2} union K_2 realizing (2,1,1,1,1) with split k=2
    g = Graph(5, [(0, 2), (0, 3), (1, 4)])
    seq = normalize([2, 1, 1, 1, 1])
    return g, seq


def test_validate_witness_spec_examples():
    g, seq = spec_example_witness()
    w = RealizationWitness(
        g, seq, 2,
        frozenset({WitnessClaim.HEAD_DOMINATING, WitnessClaim.TAIL_INDEPENDENT,
                   WitnessClaim.IS_FOREST}),
    )
    assert validate_witness(w).ok

    w2 = RealizationWitness(g, seq, 2, frozenset({WitnessClaim.HEAD_INDEPENDENT}))
    assert validate_witness(w2).ok  # u1 and u2 are non-adjacent

    w3 = RealizationWitness(triangle(), normalize([2, 2, 2]), 1,
                            frozenset({WitnessClaim.IS_FOREST}))
    report = validate_witness(w3)
    assert not report.ok
    assert report.claim_results[WitnessClaim.IS_FOREST] is False


def test_validate_witness_catches_degree_mismatch():
    g, _ = spec_example_witness()
    wrong = normalize([2, 2, 1, 1, 0])
    report = validate_witness(RealizationWitness(g, wrong, 2, frozenset()))
    assert not report.degrees_match and not report.ok


def test_validate_witness_rejects_adjacent_head_beyond_64_vertices():
    # 70-vertex paths with ends 68 and 69, so degrees are non-increasing
    def path(order):
        return Graph(70, list(zip(order, order[1:])))

    claims = frozenset({WitnessClaim.HEAD_INDEPENDENT})
    adjacent = path([68, *range(68), 69])
    report = validate_witness(RealizationWitness(adjacent, degree_sequence(adjacent), 2, claims))
    assert report.degrees_match and not report.ok
    apart = path([68, 0, 2, 1, *range(3, 68), 69])
    assert validate_witness(RealizationWitness(apart, degree_sequence(apart), 2, claims)).ok


def test_checked_constructor_fails_fast():
    with pytest.raises(InvalidWitness):
        RealizationWitness.checked(
            triangle(), normalize([2, 2, 2]), 1, {WitnessClaim.IS_FOREST}
        )


def test_witness_report_lists_each_claim():
    g, seq = spec_example_witness()
    claims = {WitnessClaim.HEAD_DOMINATING, WitnessClaim.HEAD_INDEPENDENT,
              WitnessClaim.TAIL_INDEPENDENT, WitnessClaim.IS_FOREST}
    report = validate_witness(RealizationWitness(g, seq, 2, frozenset(claims)))
    assert set(report.claim_results) == claims
    assert all(report.claim_results.values())


# ---------------------------------------------------------------------------
# sequence-level bounds hold on concrete graphs


@given(st.integers(min_value=1, max_value=10), st.floats(min_value=0, max_value=1),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150, deadline=None)
def test_slater_pepper_bounds_on_random_graphs(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    d = degree_sequence(g)
    assert domination_number(g)[0] >= slater(d)
    assert independence_number(g)[0] <= annihilation(d)


def test_complement_of_minimum_dominating_set_dominates():
    rng = random.Random(11)
    tried = 0
    while tried < 200:
        g = random_graph(rng, rng.randint(2, 10), rng.uniform(0.2, 0.9))
        if any(d == 0 for d in g.degrees):
            continue
        tried += 1
        _, dset = domination_number(g)
        rest = set(range(g.n)) - dset
        assert all(
            any(w in rest for w in neighbours(g)[v]) for v in set(range(g.n)) - rest
        )


# ---------------------------------------------------------------------------
# serialization


def test_edge_list_roundtrip():
    g = Graph(*_edge_list_parts("4 3\n1 2\n2 3\n3 4\n"))
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    with pytest.raises(ValueError):
        Graph(*_edge_list_parts("4 2\n1 2\n"))
    with pytest.raises(ValueError):
        Graph(*_edge_list_parts(""))


def test_graph_json_roundtrip():
    g = Graph(4, [(0, 1), (2, 3)])
    obj = {"n": 4, "edges": [[1, 2], [3, 4]]}
    assert {"n": g.n, "edges": [[u + 1, v + 1] for u, v in g.edges()]} == obj
    assert same_graph(Graph(*_json_graph_parts(obj)), g)


# ---------------------------------------------------------------------------
# the C-level construction and claim checks against the loops they replaced


def graph_error_reference(n, edges):
    """The ValueError text the per-edge set-based constructor raised, or None."""
    sets = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u}, {v}) out of range for n={n}"
        if u == v:
            return f"self-loop at vertex {u}"
        if v in sets[u]:
            return f"duplicate edge ({u}, {v})"
        sets[u].add(v)
        sets[v].add(u)
    return None


@pytest.mark.parametrize("edges, message", [
    ([(0, 3)], "edge (0, 3) out of range for n=3"),
    ([(-1, 0)], "edge (-1, 0) out of range for n=3"),
    ([(2, 2)], "self-loop at vertex 2"),
    ([(0, 1), (1, 0)], "duplicate edge (1, 0)"),
    ([(0, 1), (1, 2), (1, 0), (0, 7)], "duplicate edge (1, 0)"),
    ([(0, 1), (0, 7), (1, 0)], "edge (0, 7) out of range for n=3"),
    ([(0, 1), (2, 2), (1, 0)], "self-loop at vertex 2"),
    ([(0, 1), (0, 1), (2, 2)], "duplicate edge (0, 1)"),
])
def test_graph_errors_name_the_first_bad_edge(edges, message):
    assert graph_error_reference(3, edges) == message
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Graph(3, edges)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Graph(3, iter(edges))  # a one-shot iterable is rescanned as well


@pytest.mark.parametrize("n, edges, message", [
    (3, [(0, 1.0)], "vertex 1.0 is not an integer"),
    (3, [("0", "1")], "vertex '0' is not an integer"),
    (2.0, [(0, 1)], "vertex count 2.0 is not an integer"),
    (3, [(0, None)], "vertex None is not an integer"),
])
def test_graph_refuses_vertex_ids_and_counts_that_are_not_integers(n, edges, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Graph(n, edges)


@pytest.mark.parametrize("edges, message", [
    ([5], "edge 5 is not a pair of vertices"),
    ([None], "edge None is not a pair of vertices"),
    ([(0, 1, 2)], "edge (0, 1, 2) is not a pair of vertices"),
    ([(0,)], "edge (0,) is not a pair of vertices"),
    # the first bad edge in input order is named, whatever is wrong with it
    ([(0, 1), 5, (0, 7)], "edge 5 is not a pair of vertices"),
    ([(0, 1), (0, 7), (1, 2, 0)], "edge (0, 7) out of range for n=3"),
])
def test_graph_names_an_edge_that_is_not_a_pair(edges, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Graph(3, edges)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Graph(3, iter(edges))


def test_graph_takes_bools_as_vertex_ids_and_counts():
    # the operator.index rule of normalize: bools are integers
    assert Graph(True).n == 1
    assert Graph(2, [(False, True)]).degrees == (1, 1)


@given(st.integers(min_value=0, max_value=6),
       st.lists(st.tuples(st.integers(min_value=-1, max_value=6),
                          st.integers(min_value=-1, max_value=6)), max_size=12))
@settings(max_examples=400)
def test_graph_rejects_what_the_per_edge_checks_rejected(n, edges):
    expected = graph_error_reference(n, edges)
    if expected is None:
        g = Graph(n, edges)
        assert sorted(g.edges()) == sorted({(min(e), max(e)) for e in edges})
        assert g.degrees == tuple(map(len, neighbours(g)))
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            Graph(n, edges)


def dominates_reference(g, inside, outside):
    nbrs = neighbours(g)
    return all(any(w in inside for w in nbrs[v]) for v in outside)


def independent_reference(g, vertices):
    nbrs = neighbours(g)
    return not any(w in vertices for v in vertices for w in nbrs[v])


@given(st.integers(min_value=0, max_value=9), st.floats(min_value=0, max_value=1),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_claim_checks_match_the_membership_loops_at_every_split(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    for k in range(n + 1):
        head, tail = range(0, k), range(k, n)
        assert _head_dominates(g, k) == dominates_reference(g, head, tail)
        assert _tail_dominates(g, k) == dominates_reference(g, tail, head)
        assert _head_independent(g, k) == independent_reference(g, head)
        assert _tail_independent(g, k) == independent_reference(g, tail)
