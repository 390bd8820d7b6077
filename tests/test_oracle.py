import hashlib
from collections import Counter
from itertools import combinations

import pytest
from conftest import oracle_extrema_reference, realizations_reference

from degseqopt import (
    Graph,
    GraphClass,
    TooLarge,
    alpha_max,
    annihilation,
    enumerate_realizations,
    gamma_min_bounded,
    is_forest_sequence,
    is_graphic,
    iter_degree_sequences,
    normalize,
    omega_max,
    oracle_extrema,
    slater,
)
from degseqopt.oracle import _class_picks, _forest_sequences


@pytest.mark.parametrize(
    "seq, graph_class, count",
    [
        ([1, 1, 1, 1], GraphClass.GENERAL, 3),
        ([2, 2, 2], GraphClass.GENERAL, 1),
        ([2, 2, 2], GraphClass.FOREST, 0),
        ([3, 3, 1, 1], GraphClass.GENERAL, 0),
        ([0, 0, 0], GraphClass.GENERAL, 1),
    ],
)
def test_realization_counts(seq, graph_class, count):
    assert enumerate_realizations(normalize(seq), graph_class) == count


def test_perfect_matching_count_against_edge_subset_filter():
    # independent derivation: filter all subsets of the six possible edges
    # on four vertices for those giving every vertex degree exactly one
    from itertools import combinations

    pairs = list(combinations(range(4), 2))
    matchings = 0
    for mask in range(1 << len(pairs)):
        deg = [0] * 4
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                deg[u] += 1
                deg[v] += 1
        if deg == [1, 1, 1, 1]:
            matchings += 1
    assert matchings == 3
    assert enumerate_realizations(normalize([1, 1, 1, 1])) == matchings


def test_oracle_limit():
    with pytest.raises(TooLarge):
        enumerate_realizations(normalize([1] * 10), GraphClass.GENERAL)
    with pytest.raises(TooLarge):
        enumerate_realizations(normalize([1] * 10), GraphClass.FOREST)
    # limits are configuration, not constants
    assert enumerate_realizations(normalize([1] * 10), GraphClass.GENERAL, limit=10) > 0


def test_forest_count_never_exceeds_general_count():
    for n in range(2, 7):
        for seq in iter_degree_sequences(n):
            d = normalize(list(seq))
            general = enumerate_realizations(d, GraphClass.GENERAL)
            forest = enumerate_realizations(d, GraphClass.FOREST)
            assert forest <= general
            assert general == len(realizations_reference(d))
            assert forest == len(realizations_reference(d, forest=True))
            assert (general == 0) == (not is_graphic(d))
            assert (forest == 0) == (not is_forest_sequence(d))


def test_oracle_extrema_nine_vertex_family():
    rep = oracle_extrema(normalize([2, 2, 2, 1, 1, 1, 1, 1, 1]),
                         GraphClass.GENERAL, limit=9)
    assert rep.gamma_min == 3  # three stars
    assert rep.gamma_max == 4  # triangle plus three disjoint edges
    assert rep.alpha_max == 6
    assert rep.omega_max == 3


def test_oracle_extrema_forest_seven_vertex_fixture():
    rep = oracle_extrema(normalize([3, 2, 2, 2, 1, 1, 1]), GraphClass.FOREST)
    assert rep.realization_count == 60
    assert rep.gamma_min == 2
    assert rep.alpha_max == 4


def test_oracle_extrema_single_edge():
    rep = oracle_extrema(normalize([1, 1]), GraphClass.GENERAL)
    assert rep.realization_count == 1
    assert (rep.gamma_min, rep.gamma_max) == (1, 1)
    assert (rep.alpha_min, rep.alpha_max) == (1, 1)
    assert (rep.omega_min, rep.omega_max) == (2, 2)


def test_oracle_extrema_empty_class_is_all_none():
    rep = oracle_extrema(normalize([3, 3, 1, 1]), GraphClass.GENERAL)
    assert rep.realization_count == 0
    assert rep.gamma_min is None and rep.omega_max is None


def test_enumerated_extrema_respect_sequence_bounds():
    for n in range(2, 7):
        for seq in iter_degree_sequences(n):
            d = normalize(list(seq))
            rep = oracle_extrema(d, GraphClass.GENERAL)
            if rep.realization_count == 0:
                continue
            assert rep.gamma_min >= slater(d)
            assert rep.alpha_max <= annihilation(d)
            assert rep.gamma_min <= rep.gamma_max
            assert rep.alpha_min <= rep.alpha_max
            assert rep.omega_min <= rep.omega_max


def test_iter_degree_sequences_shape():
    seqs = list(iter_degree_sequences(3))
    assert len(seqs) == 10  # multisets of size 3 over {0,1,2}
    assert all(s[0] >= s[1] >= s[2] for s in seqs)
    positives = list(iter_degree_sequences(3, positive_only=True))
    assert all(s[-1] >= 1 for s in positives)
    assert len(positives) == 4  # multisets of size 3 over {1,2}


def _assert_matches_reference(seq, graph_class):
    d = normalize(list(seq))
    assert oracle_extrema(d, graph_class) == oracle_extrema_reference(d, graph_class), seq


@pytest.mark.parametrize("graph_class", list(GraphClass))
def test_oracle_extrema_match_the_leaf_solving_reference_up_to_n7(graph_class):
    for n in range(1, 8):
        for seq in iter_degree_sequences(n):
            _assert_matches_reference(seq, graph_class)


def test_forest_oracle_extrema_match_the_reference_at_n8():
    for seq in iter_degree_sequences(8):
        if is_forest_sequence(normalize(list(seq))):
            _assert_matches_reference(seq, GraphClass.FOREST)


def test_general_oracle_extrema_at_n8_are_pinned():
    # every graphic sequence with n = 8, pinned by the digest the oracle
    # gave when the leaf-solving reference still checked it (above, n <= 7)
    digest = hashlib.sha256()
    graphic = 0
    for seq in iter_degree_sequences(8):
        d = normalize(list(seq))
        if not is_graphic(d):
            continue
        graphic += 1
        rep = oracle_extrema(d, GraphClass.GENERAL)
        row = (tuple(seq), rep.realization_count, rep.gamma_min, rep.gamma_max,
               rep.alpha_min, rep.alpha_max, rep.omega_min, rep.omega_max)
        digest.update(repr(row).encode() + b"\n")
    assert graphic == 1213
    assert digest.hexdigest() == (
        "cd9da31802ee4403f072ca411d9a2906fa9e44b653d7f19e45f1962c1526aeaa")


@pytest.mark.parametrize("seq", [(4,) * 8, (3,) * 8])
def test_regular_n8_oracle_extrema_match_the_reference(seq):
    # 19 355 realizations each
    _assert_matches_reference(seq, GraphClass.GENERAL)


@pytest.mark.parametrize("r, count", [(3, 11_180_820), (4, 66_462_606)])
def test_regular_n10_counts_match_the_published_values(r, count):
    # labeled r-regular graphs on 10 vertices: OEIS A002829 (r = 3), A005815 (r = 4)
    assert oracle_extrema(normalize([r] * 10), limit=10).realization_count == count


WORST_N10 = [  # count, then gamma, alpha, omega min and max
    ((6, 6, 6, 5, 5, 5, 5, 5, 4, 3), 13_088_170, (2, 3, 3, 5, 3, 5)),
    ((7, 6, 5, 5, 5, 5, 4, 4, 4, 3), 6_842_952, (2, 3, 2, 5, 3, 6)),
]


@pytest.mark.parametrize("seq, count, extrema", WORST_N10)
def test_slowest_n10_sequences_are_pinned_and_match_the_formulas(seq, count, extrema):
    d = normalize(list(seq))
    rep = oracle_extrema(d, limit=10)
    assert rep.realization_count == count
    assert (rep.gamma_min, rep.gamma_max, rep.alpha_min, rep.alpha_max,
            rep.omega_min, rep.omega_max) == extrema
    assert gamma_min_bounded(d).value == rep.gamma_min
    assert alpha_max(d).value == rep.alpha_max
    assert omega_max(d).value == rep.omega_max


def test_branching_on_the_smallest_class_keeps_the_n10_search_small():
    # letting the lowest open vertex pick reaches 169 323 representatives here
    leaves = 0

    def visit(masks):
        nonlocal leaves
        leaves += 1

    seq, count, _ = WORST_N10[0]
    assert enumerate_realizations(normalize(list(seq)), limit=10, visit=visit) == count
    assert leaves <= 25_000


def test_oracle_extrema_rejects_sequences_beyond_the_subset_tables():
    d = normalize([1, 1] + [0] * 13)
    with pytest.raises(TooLarge, match="subset-table limit 14"):
        oracle_extrema(d, GraphClass.GENERAL, limit=20)
    with pytest.raises(TooLarge, match="subset-table limit 14"):
        oracle_extrema(d, GraphClass.FOREST, limit=20)
    # the enumeration alone keeps its own limit
    assert enumerate_realizations(d, GraphClass.GENERAL, limit=20) == 1



def test_forest_sequences_are_the_filtered_positive_sequences_in_order():
    for n in range(1, 10):
        filtered = [seq for seq in iter_degree_sequences(n, positive_only=True)
                    if is_forest_sequence(normalize(list(seq)))]
        assert list(_forest_sequences(n)) == filtered, n


# ---------------------------------------------------------------------------
# the enumeration's per-node machinery: class picks and the final rows


def class_picks_reference(sizes, r):
    """_class_picks by brute force: every r-subset of the side-by-side
    classes, grouped by how many members it takes from each class."""
    owner = [c for c, s in enumerate(sizes) for _ in range(s)]
    start = [owner.index(c) for c in range(len(sizes))]
    weight = Counter()
    firsts = {}
    for combo in combinations(range(len(owner)), r):
        takes = tuple(sum(owner[p] == c for p in combo) for c in range(len(sizes)))
        weight[takes] += 1
        if all(p - start[owner[p]] < takes[owner[p]] for p in combo):
            firsts[takes] = combo
    return tuple((firsts[takes], weight[takes]) for takes in sorted(weight, reverse=True))


def test_class_picks_match_the_brute_force_reference():
    for total in range(9):
        for cuts in range(1 << max(total - 1, 0)):
            # each composition of total into positive class sizes once
            sizes, run = [], 1
            for b in range(total - 1):
                if cuts >> b & 1:
                    sizes.append(run)
                    run = 0
                run += 1
            sizes = tuple(sizes + [run]) if total else ()
            for r in range(total + 2):
                assert _class_picks(sizes, r) == class_picks_reference(sizes, r), (sizes, r)


@pytest.mark.parametrize("seq", [
    [2, 2, 2, 0, 0], [1, 1, 0], [0, 0, 0], [1, 1, 1, 1], [2, 2, 1, 1],
    [3, 3, 2, 1, 1], [3, 2, 2, 2, 1], [4, 3, 3, 2, 2, 1, 1], [3, 3, 3, 3, 2, 2, 0],
    [2, 1, 1, 0], [3, 2, 1, 1, 1],  # forests too
    [2, 2, 2, 1, 1, 1, 1],  # a forest sequence with a cyclic realization
])
@pytest.mark.parametrize("graph_class", list(GraphClass))
def test_visit_sees_final_rows_on_every_path(seq, graph_class):
    d = normalize(seq)
    n = d.n
    leaves = []

    def visit(masks):
        rows = list(masks)
        assert all(not rows[i] >> i & 1 for i in range(n))
        assert all((rows[j] >> i & 1) == (rows[i] >> j & 1) for i in range(n) for j in range(n))
        assert [bin(row).count("1") for row in rows] == list(d.entries)
        if graph_class is GraphClass.FOREST:  # m = n - components
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rows[i] >> j & 1]
            assert len(edges) == n - len(Graph(n, edges).connected_components())
        leaves.append(tuple(rows))

    count = enumerate_realizations(d, graph_class, visit=visit)
    assert (count > 0) == bool(leaves)
    assert len(set(leaves)) == len(leaves)
