import random
import time
import warnings

import pytest

from degseqopt import (
    Graph,
    NotConnected,
    NotForestSequence,
    NotGraphic,
    PreconditionViolated,
    WitnessClaim,
    alpha_max,
    alpha_max_forest,
    annihilation,
    bound_chain,
    check_slater_bound,
    clique_number,
    domination_number,
    forest_realize,
    gamma_min_bounded,
    gamma_min_forest,
    havel_hakimi_realize,
    independence_number,
    is_forest_sequence,
    is_graphic,
    iter_degree_sequences,
    normalize,
    omega_max,
    slater,
    validate_witness,
)

from conftest import (
    gamma_min_forest_fastpath,
    has_edge,
    profiles_by_sum,
    rao_clique_feasible_positional,
    random_graph,
    random_tree,
    two_switch,
)


# ---------------------------------------------------------------------------
# largest clique / independence number


@pytest.mark.parametrize(
    "seq, expected",
    [
        ([3, 3, 3, 3], 4),
        ([2, 2, 2, 2, 2, 2], 3),
        ([1, 1], 2),
        ([0], 1),
    ],
)
def test_omega_max_examples(seq, expected):
    assert omega_max(normalize(seq)).value == expected


@pytest.mark.parametrize(
    "seq, expected",
    [
        ([1, 1, 1, 1], 2),
        ([0, 0, 0], 3),
        ([2, 2, 2, 1, 1, 1, 1, 1, 1], 6),
    ],
)
def test_alpha_max_examples(seq, expected):
    assert alpha_max(normalize(seq)).value == expected


def test_omega_alpha_reject_non_graphic():
    with pytest.raises(NotGraphic):
        omega_max(normalize([3, 3, 1, 1]))
    with pytest.raises(NotGraphic):
        alpha_max(normalize([3, 3, 1, 1]))


def _random_sequences(rng, count, max_n):
    """Seeded non-increasing sequences: graph degree sequences and raw draws."""
    from degseqopt import degree_sequence

    out = []
    for i in range(count):
        n = rng.randint(1, max_n)
        if i % 2:
            out.append(degree_sequence(random_graph(rng, n, rng.random())).entries)
        else:
            out.append(tuple(sorted((rng.randint(0, n) for _ in range(n)), reverse=True)))
    return out


def test_clique_peel_matches_positional_reference():
    from degseqopt import iter_degree_sequences
    from degseqopt.extremal import _rao_clique_feasible

    cases = [
        seq
        for n in range(1, 9)
        for seq in iter_degree_sequences(n, max_entry=n)
        if sum(seq) % 2 == 0
    ]
    cases += _random_sequences(random.Random(11), 300, 70)
    for entries in cases:
        for k in range(len(entries) + 1):
            assert _rao_clique_feasible(entries, k) == rao_clique_feasible_positional(
                entries, k
            ), (entries, k)


def _linear_omega(entries):
    from degseqopt.extremal import _rao_clique_feasible

    return next(k for k in range(len(entries), 0, -1) if _rao_clique_feasible(entries, k))


def test_omega_alpha_match_linear_scan():
    from degseqopt import degree_sequence

    rng = random.Random(12)
    for n, p in [(300, 0.01), (300, 0.6), (200, 0.03), (120, 0.9)] + [
        (rng.randint(1, 60), rng.random()) for _ in range(60)
    ]:
        d = degree_sequence(random_graph(rng, n, p))
        comp = normalize([d.n - 1 - x for x in d.entries])
        assert omega_max(d).value == _linear_omega(d.entries)
        assert alpha_max(d).value == _linear_omega(comp.entries)


def test_independent_lay_off_matches_the_complement_clique_peel():
    from degseqopt.extremal import _lay_off, _rao_clique_feasible

    cases = [
        seq
        for n in range(1, 9)
        for seq in iter_degree_sequences(n)
        if sum(seq) % 2 == 0
    ]
    cases += [s for s in _random_sequences(random.Random(11), 300, 70) if s[0] < len(s)]
    for entries in cases:
        n = len(entries)
        complement = tuple(n - 1 - x for x in reversed(entries))
        for k in range(n + 1):
            independent = _lay_off(entries[: n - k], reversed(entries[n - k :]))
            assert independent == _rao_clique_feasible(complement, k), (entries, k)


def _sparse_10000():
    rng = random.Random(13)
    entries = [rng.randint(1, 5) for _ in range(10000)]
    entries[0] += sum(entries) % 2
    return normalize(entries)


def test_alpha_max_sparse_10000():
    d = _sparse_10000()
    assert alpha_max(d).value == annihilation(d) == 6757


def test_alpha_and_omega_settle_in_one_peel_at_their_start_bounds(monkeypatch):
    from degseqopt import degree_sequence, extremal

    calls = []
    lay_off = extremal._lay_off
    monkeypatch.setattr(
        extremal, "_lay_off", lambda rest, demands: calls.append(1) or lay_off(rest, demands)
    )
    alpha_max(_sparse_10000())
    assert len(calls) == 1
    calls.clear()
    omega_max(degree_sequence(random_graph(random.Random(14), 400, 0.5)))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# smallest domination number


@pytest.mark.parametrize(
    "seq, expected",
    [
        ([2, 2, 2, 1, 1, 1, 1, 1, 1], 3),
        ([1, 1], 1),
        ([2, 2, 2, 2, 2, 2], 2),
        ([0, 0], 2),
        ([2, 1, 1, 0], 2),
    ],
)
def test_gamma_min_examples(seq, expected):
    assert gamma_min_bounded(normalize(seq)).value == expected


def test_gamma_min_rejects_non_graphic():
    with pytest.raises(NotGraphic):
        gamma_min_bounded(normalize([3, 3, 1, 1]))


def test_gamma_min_delta_cap_guard():
    with pytest.raises(PreconditionViolated):
        gamma_min_bounded(normalize([3, 1, 1, 1]), delta_cap=2)


def test_gamma_min_runtime_warning_for_large_degree_and_order():
    # a large degree at n >= 40 answers at once and warns about nothing
    seq = [5] + [1] * 39
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = gamma_min_bounded(normalize(seq))
    assert result.value == slater(normalize(seq)) == 18


def test_gamma_min_delta_cap_above_every_entry_raises_no_warning():
    # the slow-scan warning reads the largest entry, not a looser cap
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = gamma_min_bounded(normalize([2] * 40), delta_cap=9)
    assert result.value == 14


def test_gamma_min_witness_dominates():
    res = gamma_min_bounded(normalize([3, 2, 2, 2, 1, 1, 1]))
    assert res.witness is not None
    assert validate_witness(res.witness).ok
    assert WitnessClaim.HEAD_DOMINATING in res.witness.claims
    assert res.witness.split_k == res.achieving_k


def test_gamma_min_scan_returns_first_feasible_split():
    from degseqopt.extremal import _split_feasible

    for seq in (
        [2, 2, 2, 1, 1, 1, 1, 1, 1],
        [3, 2, 2, 2, 1, 1, 1],
        [2, 2, 2, 2, 2, 2],
        [3, 3, 3, 1, 1, 1],  # k = slater is infeasible
        [3] * 11 + [1] * 29,  # likewise, at n = 40
    ):
        d = normalize(seq)
        res = gamma_min_bounded(d)
        pos = d.positive_part()
        assert _split_feasible(pos, res.achieving_k) is not None
        for k in range(slater(pos), res.achieving_k):
            assert _split_feasible(pos, k) is None


def test_profiles_with_sum_matches_eager_reference():
    from degseqopt.extremal import _profile_room, _profiles_with_sum

    rng = random.Random(14)
    for _ in range(400):
        caps = [rng.randint(0, 5) for _ in range(rng.randint(1, 9))]
        groups = profiles_by_sum(caps)
        room = _profile_room(caps)
        for total in range(sum(caps) + 3):
            got = list(_profiles_with_sum(caps, room, total))
            assert got == groups.get(total, []), (caps, total)


def test_gamma_min_bounded_near_uniform_delta5_n100():
    from degseqopt.extremal import _split_feasible

    rng = random.Random(15)
    entries = [1 + i % 5 for i in range(100)]
    for _ in range(6):
        i, j = rng.randrange(100), rng.randrange(100)
        if entries[i] < 5 and entries[j] > 1:
            entries[i] += 1
            entries[j] -= 1
    d = normalize(entries)
    res = gamma_min_bounded(d)
    assert validate_witness(res.witness).ok
    pos = d.positive_part()
    assert _split_feasible(pos, res.achieving_k) is not None
    for k in range(slater(pos), res.achieving_k):
        assert _split_feasible(pos, k) is None


def test_gamma_min_split_never_passes_half_the_positive_entries():
    # Ore: a graph without isolated vertices has gamma <= n/2, so the scan
    # stops by p // 2
    cases = [
        normalize(seq)
        for n in range(1, 9)
        for seq in iter_degree_sequences(n)
        if is_graphic(normalize(seq))
    ]
    rng = random.Random(16)
    drawn = 0
    while drawn < 1000:
        d = normalize([rng.randint(0, 6) for _ in range(rng.randint(10, 60))])
        if is_graphic(d):
            cases.append(d)
            drawn += 1
    for d in cases:
        res = gamma_min_bounded(d)
        p = d.positive_count
        if p:
            assert res.achieving_k <= p // 2, d.entries


def test_gamma_min_bounded_on_3000_vertices_with_degrees_1_to_3():
    res = gamma_min_bounded(normalize([1 + i % 3 for i in range(3000)]))
    assert res.value == res.achieving_k == 750
    assert validate_witness(res.witness).ok


def test_gamma_min_result_never_below_slater():
    rng = random.Random(3)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 6), rng.random())
        from degseqopt import degree_sequence

        d = degree_sequence(g)
        assert gamma_min_bounded(d).value >= slater(d)


# ---------------------------------------------------------------------------
# forest formulas


@pytest.mark.parametrize(
    "seq, expected, k",
    [
        ([3, 2, 2, 2, 1, 1, 1], 2, 2),
        ([2, 1, 1, 1, 1], 2, 2),
        ([1, 1], 1, 1),
    ],
)
def test_gamma_min_forest_examples(seq, expected, k):
    res = gamma_min_forest(normalize(seq))
    assert res.value == expected
    assert res.achieving_k == k
    assert res.witness is not None and validate_witness(res.witness).ok


def test_gamma_min_forest_witness_on_a_20000_vertex_path():
    n = 20000
    res = gamma_min_forest(normalize([2] * (n - 2) + [1, 1]))
    assert res.value == res.achieving_k == (n + 2) // 3
    assert WitnessClaim.HEAD_INDEPENDENT in res.witness.claims
    assert validate_witness(res.witness).ok


def test_gamma_min_forest_zero_entries_add_isolated_vertices():
    base = gamma_min_forest(normalize([2, 2, 1, 1])).value
    assert gamma_min_forest(normalize([2, 2, 1, 1, 0, 0])).value == base + 2
    assert gamma_min_forest(normalize([0, 0, 0])).value == 3


def test_gamma_min_forest_rejects_non_forest():
    with pytest.raises(NotForestSequence):
        gamma_min_forest(normalize([2, 2, 2]))


@pytest.mark.parametrize(
    "seq, expected",
    [
        ([2, 1, 1, 1, 1], 2),
        ([2, 2, 2, 1, 1, 1, 1, 1, 1], 3),
        ([1, 1, 1, 1], 2),
    ],
)
def test_gamma_min_forest_fastpath_examples(seq, expected):
    d = normalize(seq)
    value = gamma_min_forest_fastpath(d)
    assert value == expected
    assert value == gamma_min_forest(d).value
    assert value == slater(d) == d.n - annihilation(d)


def test_fastpath_rejects_hypothesis_failure():
    with pytest.raises(PreconditionViolated):
        gamma_min_forest_fastpath(normalize([2, 2, 2, 1, 1, 1]))  # 3 leaves < 6
    with pytest.raises(PreconditionViolated):
        gamma_min_forest_fastpath(normalize([1, 1, 0]))


@pytest.mark.parametrize(
    "seq, expected",
    [
        ([2, 2, 1, 1], 2),
        ([2, 2, 2, 1, 1, 1, 1, 1, 1], 6),
        ([1, 1], 1),
        ([1, 1, 0], 2),
        ([0, 0, 0], 3),
    ],
)
def test_alpha_max_forest_examples(seq, expected):
    res = alpha_max_forest(normalize(seq))
    assert res.value == expected
    assert res.witness is not None
    assert validate_witness(res.witness).ok
    assert res.witness.graph.n - res.witness.split_k == expected


def test_alpha_max_forest_rejects_non_forest():
    with pytest.raises(NotForestSequence):
        alpha_max_forest(normalize([2, 2, 2]))


# ---------------------------------------------------------------------------
# bound chain and the connected-graph bound


@pytest.mark.parametrize(
    "seq, low, high",
    [
        ([3, 2, 2, 2, 1, 1, 1], 2, 3),
        ([1, 1], 1, 1),
        ([2, 1, 1, 1, 1], 2, 2),
    ],
)
def test_bound_chain_examples(seq, low, high):
    chain = bound_chain(normalize(seq))
    assert chain.forest_gamma_low == low == chain.slater
    assert chain.forest_gamma_high == high
    value = gamma_min_forest(normalize(seq)).value
    assert low <= value <= high


def test_forest_extrema_bracketed_by_general_extrema():
    # forests are realizations, so restricting can only worsen each optimum
    from degseqopt import is_forest_sequence, iter_degree_sequences

    for n in range(2, 8):
        for seq in iter_degree_sequences(n, positive_only=True):
            d = normalize(list(seq))
            if not is_forest_sequence(d):
                continue
            assert gamma_min_bounded(d).value <= gamma_min_forest(d).value
            assert alpha_max(d).value >= alpha_max_forest(d).value


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


@pytest.mark.parametrize(
    "graph, gamma, sl, k, bound",
    [
        (Graph(6, [(0, i) for i in range(1, 6)]), 1, 1, 0, 1),
        (path(7), 3, 3, 0, 7),
        (Graph(6, [(i, (i + 1) % 6) for i in range(6)]), 2, 2, 1, 6),
    ],
)
def test_check_slater_bound_examples(graph, gamma, sl, k, bound):
    rep = check_slater_bound(graph)
    assert rep.holds
    assert (rep.gamma, rep.slater, rep.cycle_excess, rep.bound) == (gamma, sl, k, bound)


def test_check_slater_bound_requires_connected():
    with pytest.raises(NotConnected):
        check_slater_bound(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(PreconditionViolated):
        check_slater_bound(Graph(0))


# ---------------------------------------------------------------------------
# checks past the oracle range: realizations sampled by 2-switch walks


def _two_switch_walk(rng, g, steps, keep=lambda g: True):
    """Yield ``g`` and then the graph after each of ``steps`` random 2-switches.

    2-switches preserve every vertex degree and connect all realizations
    of a sequence (R. Taylor 1981); ``keep`` rejects switches whose result
    leaves the class being walked.
    """
    yield g
    for _ in range(steps):
        (x, y), (xp, yp) = rng.sample(g.edges(), 2)
        if rng.random() < 0.5:
            xp, yp = yp, xp
        if len({x, y, xp, yp}) < 4 or has_edge(g, x, xp) or has_edge(g, y, yp):
            continue
        switched = two_switch(g, (x, y), (xp, yp))
        if keep(switched):
            g = switched
        yield g


def test_two_switch_walks_never_beat_the_general_extrema():
    rng = random.Random(1981)
    sequences, visited = 0, 0
    while sequences < 20:
        n = rng.randint(10, 30)
        d = normalize([rng.randint(1, rng.randint(2, 6)) for _ in range(n)])
        if not is_graphic(d):
            continue
        sequences += 1
        gamma = gamma_min_bounded(d)
        alpha, omega = alpha_max(d).value, omega_max(d).value
        witness = gamma.witness.graph
        assert domination_number(witness)[0] == gamma.achieving_k
        seen = set()
        for g in _two_switch_walk(rng, havel_hakimi_realize(d), 60):
            seen.add(tuple(g.edges()))  # the vertex set is fixed
            assert g.degrees == d.entries
            assert domination_number(g)[0] >= gamma.value
            assert independence_number(g)[0] <= alpha
            assert clique_number(g) <= omega
        visited += len(seen)
    assert visited > 500  # the walks move: 20 walks of 61 samples


def test_two_switch_walks_never_beat_the_forest_formulas():
    rng = random.Random(1981)
    visited = 0
    for _ in range(20):
        n = rng.randint(10, 30)
        tree = random_tree(rng, n)
        d = normalize(tree.degrees)
        gamma, alpha = gamma_min_forest(d), alpha_max_forest(d)
        assert domination_number(gamma.witness.graph)[0] == gamma.achieving_k
        assert independence_number(alpha.witness.graph)[0] == alpha.value
        seen = set()
        for g in _two_switch_walk(rng, forest_realize(d), 60, keep=Graph.is_forest):
            seen.add(tuple(g.edges()))  # the vertex set is fixed
            assert g.is_forest() and sorted(g.degrees, reverse=True) == list(d.entries)
            assert domination_number(g)[0] >= gamma.value
            assert independence_number(g)[0] <= alpha.value
        visited += len(seen)
    assert visited > 400  # the walks move: 20 walks of 61 samples


# ---------------------------------------------------------------------------
# past the default oracle limits (8 general, 9 forest)


def test_general_formulas_match_the_oracle_at_n10():
    from degseqopt import degree_sequence, oracle_extrema

    rng = random.Random(1981)
    for _ in range(20):  # most answer in milliseconds, mid-density ones in seconds
        d = degree_sequence(random_graph(rng, 10, rng.random()))
        rep = oracle_extrema(d, limit=10)
        assert gamma_min_bounded(d).value == rep.gamma_min, d.entries
        assert alpha_max(d).value == rep.alpha_max, d.entries
        assert omega_max(d).value == rep.omega_max, d.entries


def test_forest_formulas_match_the_forest_oracle_at_n10_to_12():
    from degseqopt import GraphClass, oracle_extrema

    rng = random.Random(1981)
    for _ in range(40):
        d = normalize(random_tree(rng, rng.randint(10, 12)).degrees)  # a Pruefer tree
        rep = oracle_extrema(d, GraphClass.FOREST, limit=12)
        assert gamma_min_forest(d).value == rep.gamma_min, d.entries
        assert alpha_max_forest(d).value == rep.alpha_max, d.entries


def test_forest_formulas_match_the_forest_oracle_on_every_positive_sequence_to_n14():
    from degseqopt import GraphClass, oracle_extrema
    from degseqopt.oracle import _forest_sequences

    checked = 0
    for n in range(2, 15):
        for seq in _forest_sequences(n):
            d = normalize(list(seq))
            rep = oracle_extrema(d, GraphClass.FOREST, limit=14)
            assert gamma_min_forest(d).value == rep.gamma_min, seq
            assert alpha_max_forest(d).value == rep.alpha_max, seq
            checked += 1
    assert checked == 525


# ---------------------------------------------------------------------------
# forest formulas: bisections against the scans they replaced, and n = 10^5


def gamma_min_forest_split_reference(pos):
    """(value, k2 < k1) of the positive part by the per-k scan of both splits."""
    p = pos.n
    k1 = next(k for k in range(p + 1) if pos.prefix(k) >= pos.suffix(k))
    k2 = None
    for k in range(1, p + 1):
        if pos.prefix(k) < p - k:
            continue
        surplus = pos.suffix(k) - pos.prefix(k)
        if 0 <= surplus <= max(0, 2 * (pos.count_ge(2) - k) - 2):
            k2 = k
            break
    return (k2, True) if k2 is not None and k2 < k1 else (k1, False)


def test_gamma_min_forest_bisection_matches_the_split_scan():
    rng = random.Random(1507)
    samples = [normalize(list(s)) for n in range(2, 11)
               for s in iter_degree_sequences(n, positive_only=True)]
    for _ in range(500):
        n = rng.randint(12, 300)
        degrees = [1] * n
        for _ in range(n - 2 - 2 * rng.randint(0, n // 10)):  # trees and forests
            degrees[rng.randrange(n)] += 1
        samples.append(normalize(degrees))
    branches = []
    for d in samples:
        if not is_forest_sequence(d):
            continue
        res = gamma_min_forest(d)
        k, head_independent = gamma_min_forest_split_reference(d)
        assert (res.value, res.achieving_k) == (k, k), d.entries
        assert (WitnessClaim.HEAD_INDEPENDENT in res.witness.claims) == head_independent
        branches.append(head_independent)
    assert len(branches) > 600 and set(branches) == {True, False}


@pytest.mark.parametrize("family", ["path", "prufer"])
def test_forest_formulas_and_witnesses_at_a_hundred_thousand_vertices(family):
    # seeded; a step that turns quadratic (say, a union-find without path
    # compression in a witness check) takes minutes here, not seconds
    n = 100_000
    rng = random.Random(20150716)
    if family == "path":
        degrees = [2] * (n - 2) + [1, 1]
    else:
        degrees = [1] * n
        for _ in range(n - 2):
            degrees[rng.randrange(n)] += 1
    rng.shuffle(degrees)
    start = time.perf_counter()
    d = normalize(degrees)
    gamma, alpha, g = gamma_min_forest(d), alpha_max_forest(d), forest_realize(d)
    for res in (gamma, alpha):
        assert validate_witness(res.witness).ok
        assert res.witness.graph.m == n - 1
    assert g.is_forest() and g.degrees == d.entries
    elapsed = time.perf_counter() - start
    assert elapsed < 10, f"{elapsed:.1f} s"
    assert alpha.value == annihilation(d)
    assert slater(d) <= gamma.value <= n - annihilation(d)
    if family == "path":  # the only forest with these degrees is the path
        assert (gamma.value, alpha.value) == ((n + 2) // 3, n // 2)
