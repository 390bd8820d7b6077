"""Acceptance suite: one test per criterion, exact tolerances, printed verdicts.

Covers oracle equivalence for the general and forest extremal parameters,
witness soundness, the star/clique regression family, closed-formula
coherence, the bound bracket, the connected-graph domination bound, the
degree-bounded bipartite feasibility grid, and the Slater/Pepper bounds
on random graphs.  Runs in a few minutes; the bipartite grid dominates.
"""

import random
from itertools import combinations_with_replacement

from degseqopt import (
    Graph,
    GraphClass,
    BipartiteDegreeSpec,
    alpha_max,
    alpha_max_forest,
    annihilation,
    build_bounded_bipartite,
    degree_sequence,
    check_slater_bound,
    domination_number,
    gale_ryser_feasible,
    gamma_min_bounded,
    gamma_min_forest,
    independence_number,
    is_forest_sequence,
    is_graphic,
    iter_degree_sequences,
    normalize,
    omega_max,
    oracle_extrema,
    slater,
    validate_witness,
)
from degseqopt.graphs import WitnessClaim

from conftest import (
    bipartite_exists_bruteforce,
    gamma_min_forest_fastpath,
    iter_bound_pairs,
    random_connected_graph,
    random_graph,
)


def _verdict(cid: str, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {cid} {description}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {cid} failed: {description}"


def graphic_sequences(n_max):
    for n in range(1, n_max + 1):
        for seq in iter_degree_sequences(n):
            d = normalize(list(seq))
            if is_graphic(d):
                yield d


def forest_sequences_positive(n_max):
    for n in range(2, n_max + 1):
        for seq in iter_degree_sequences(n, positive_only=True):
            d = normalize(list(seq))
            if is_forest_sequence(d):
                yield d


def test_c1_general_oracle_equivalence():
    mismatches = []
    for d in graphic_sequences(7):
        rep = oracle_extrema(d, GraphClass.GENERAL)
        assert rep.realization_count > 0
        if gamma_min_bounded(d).value != rep.gamma_min:
            mismatches.append(("gamma_min", d.entries))
        if alpha_max(d).value != rep.alpha_max:
            mismatches.append(("alpha_max", d.entries))
        if omega_max(d).value != rep.omega_max:
            mismatches.append(("omega_max", d.entries))
    _verdict("1", "general oracle equivalence n<=7", not mismatches)


def test_c2_forest_oracle_equivalence():
    mismatches = []
    for d in forest_sequences_positive(9):
        rep = oracle_extrema(d, GraphClass.FOREST)
        assert rep.realization_count > 0
        if gamma_min_forest(d).value != rep.gamma_min:
            mismatches.append(("gamma_min_forest", d.entries))
        if alpha_max_forest(d).value != rep.alpha_max:
            mismatches.append(("alpha_max_forest", d.entries))
    _verdict("2", "forest oracle equivalence n<=9", not mismatches)


def test_c3_witness_soundness():
    bad = []
    for d in forest_sequences_positive(9):
        gres = gamma_min_forest(d)
        if (
            gres.witness is None
            or not validate_witness(gres.witness).ok
            or gres.witness.split_k != gres.value
            or WitnessClaim.HEAD_DOMINATING not in gres.witness.claims
        ):
            bad.append(("gamma", d.entries))
        ares = alpha_max_forest(d)
        if (
            ares.witness is None
            or not validate_witness(ares.witness).ok
            or ares.witness.graph.n - ares.witness.split_k != ares.value
            or WitnessClaim.TAIL_INDEPENDENT not in ares.witness.claims
        ):
            bad.append(("alpha", d.entries))
    _verdict("3", "forest witnesses re-validate at reported sizes", not bad)


def test_c4_star_clique_family():
    ok = True
    for r in (2, 3, 4):
        seq = [r] * (r + 1) + [1] * (r * (r + 1))
        d = normalize(seq)
        ok &= slater(d) == r + 1
        ok &= gamma_min_bounded(d).value == r + 1
        # explicit high-domination realization: K_{r+1} plus r(r+1)/2 disjoint edges
        edges = [(i, j) for i in range(r + 1) for j in range(i + 1, r + 1)]
        base = r + 1
        for t in range(r * (r + 1) // 2):
            edges.append((base + 2 * t, base + 2 * t + 1))
        g2 = Graph(base + r * (r + 1), edges)
        assert degree_sequence(g2).entries == d.entries
        ok &= domination_number(g2)[0] == 1 + r * (r + 1) // 2
    _verdict("4", "star/clique family r in {2,3,4}", ok)


def test_c5_fastpath_coherence():
    bad = []
    for d in forest_sequences_positive(9):
        heavy = d.count_ge(2)
        if d.count_eq(1) < d.prefix(heavy):
            continue
        values = {
            gamma_min_forest_fastpath(d),
            gamma_min_forest(d).value,
            slater(d),
            d.n - annihilation(d),
        }
        if len(values) != 1:
            bad.append(d.entries)
    _verdict("5", "fastpath == gamma_min_forest == slater == n-a", not bad)


def test_c6_forest_gamma_bracket():
    bad = []
    for n in range(1, 10):
        for seq in iter_degree_sequences(n):
            d = normalize(list(seq))
            if not is_forest_sequence(d):
                continue
            value = gamma_min_forest(d).value
            if not slater(d) <= value <= d.n - annihilation(d) + d.n0:
                bad.append(d.entries)
    _verdict("6", "slater <= gamma_min_forest <= n-a+n0, zeros allowed", not bad)


def test_c7_slater_domination_bound_random_connected():
    rng = random.Random(20240607)
    violations = []
    for i in range(1000):
        excess = i % 5
        n = rng.randint(3, 12)
        while n * (n - 1) // 2 - (n - 1) < excess:
            n = rng.randint(3, 12)
        g = random_connected_graph(rng, n, excess)
        rep = check_slater_bound(g)
        assert rep.cycle_excess == excess
        if not rep.holds:
            violations.append(g.edges())
    _verdict("7", "gamma <= 3*slater + 2k - 2 on 1000 random connected graphs", not violations)


def test_c8_gale_ryser_grid():
    pairs = iter_bound_pairs(3)
    mismatches = []
    audit_failures = []
    for m in range(1, 7):
        for n in range(1, 8 - m):
            for left in combinations_with_replacement(pairs, m):
                for right in combinations_with_replacement(pairs, n):
                    spec = BipartiteDegreeSpec.create(
                        [a for a, _ in left],
                        [b for _, b in left],
                        [a for a, _ in right],
                        [b for _, b in right],
                    )
                    expected = bipartite_exists_bruteforce(
                        spec.lower_left, spec.upper_left,
                        spec.lower_right, spec.upper_right,
                    )
                    if gale_ryser_feasible(spec) != expected:
                        mismatches.append((left, right))
                        continue
                    if expected:
                        g = build_bounded_bipartite(spec)
                        for i in range(spec.m):
                            if not spec.lower_left[i] <= g.degree(i) <= spec.upper_left[i]:
                                audit_failures.append((left, right))
                        for j in range(spec.n):
                            if not (
                                spec.lower_right[j]
                                <= g.degree(spec.m + j)
                                <= spec.upper_right[j]
                            ):
                                audit_failures.append((left, right))
    _verdict(
        "8",
        "bounded bipartite feasibility matches brute force, builds pass audit",
        not mismatches and not audit_failures,
    )


def test_c9_slater_pepper_on_random_graphs():
    rng = random.Random(1234)
    violations = []
    for _ in range(10_000):
        n = rng.randint(1, 16)
        g = random_graph(rng, n, rng.random())
        d = degree_sequence(g)
        if domination_number(g)[0] < slater(d):
            violations.append(("gamma", g.edges()))
        if independence_number(g)[0] > annihilation(d):
            violations.append(("alpha", g.edges()))
    _verdict("9", "gamma >= slater and alpha <= annihilation on 10^4 graphs", not violations)
