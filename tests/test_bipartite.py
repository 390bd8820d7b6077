import random

import pytest

from degseqopt import (
    BipartiteDegreeSpec,
    Infeasible,
    InvalidSequence,
    build_bounded_bipartite,
    gale_ryser_feasible,
)

from conftest import bipartite_exact_hh, bipartite_exists_bruteforce, iter_bound_multisets


def audit(spec, g):
    for i in range(spec.m):
        assert spec.lower_left[i] <= g.degree(i) <= spec.upper_left[i]
    for j in range(spec.n):
        assert spec.lower_right[j] <= g.degree(spec.m + j) <= spec.upper_right[j]


def test_perfect_matching_spec_feasible():
    spec = BipartiteDegreeSpec.create([1, 1], [1, 1], [1, 1], [1, 1])
    assert gale_ryser_feasible(spec)
    g = build_bounded_bipartite(spec)
    assert g.m == 2
    audit(spec, g)


def test_overloaded_spec_infeasible():
    # k=2 on the left: 4 > min(2,1) + min(2,1)
    spec = BipartiteDegreeSpec.create([2, 2], [2, 2], [1, 1], [1, 1])
    assert not gale_ryser_feasible(spec)
    with pytest.raises(Infeasible):
        build_bounded_bipartite(spec)


def test_complete_bipartite_spec():
    spec = BipartiteDegreeSpec.create([3, 3], [3, 3], [2, 2, 2], [2, 2, 2])
    assert gale_ryser_feasible(spec)
    g = build_bounded_bipartite(spec)
    assert g.m == 6
    audit(spec, g)


def test_all_zero_spec_builds_empty_graph():
    spec = BipartiteDegreeSpec.create([0, 0], [0, 0], [0, 0, 0], [0, 0, 0])
    assert gale_ryser_feasible(spec)
    assert build_bounded_bipartite(spec).m == 0


def test_spec_validation():
    with pytest.raises(InvalidSequence):
        BipartiteDegreeSpec.create([2], [1], [1], [1])  # lower > upper
    with pytest.raises(InvalidSequence):
        BipartiteDegreeSpec.create([1], [1, 2], [1], [1])
    with pytest.raises(InvalidSequence):
        BipartiteDegreeSpec.create([-1], [1], [1], [1])


@pytest.mark.parametrize("bounds, message", [
    (([1.5], [2], [1], [1]), "left bound 1.5 is not an integer"),
    (([1], [2.0], [1], [1]), "left bound 2.0 is not an integer"),
    (([1], [2], ["1"], [1]), "right bound '1' is not an integer"),
    (([1], [2], [1], [1, "x"]), "right bound 'x' is not an integer"),
])
def test_spec_rejects_non_integer_bounds(bounds, message):
    # no truncation: a lower bound of 1.5 once became 1
    with pytest.raises(InvalidSequence, match=f"^{message}$"):
        BipartiteDegreeSpec.create(*bounds)


def test_lower_bounds_sorted_with_uppers_attached():
    spec = BipartiteDegreeSpec.create([1, 3], [2, 3], [0, 2], [1, 2])
    assert spec.lower_left == (3, 1)
    assert spec.upper_left == (3, 2)
    assert spec.lower_right == (2, 0)
    assert spec.upper_right == (2, 1)
    assert spec.left_order == (1, 0)


def test_split_profile_spec_for_seven_vertex_sequence():
    # head degrees (3,2) exactly; five tail vertices, two capped at degree-1
    # below their own degree, realizing a surplus of 2 over the split
    spec = BipartiteDegreeSpec.create(
        [3, 2], [3, 2], [1, 1, 1, 1, 1], [1, 1, 1, 1, 1]
    )
    assert gale_ryser_feasible(spec)
    g = build_bounded_bipartite(spec)
    assert g.degree(0) == 3 and g.degree(1) == 2
    assert all(g.degree(2 + j) == 1 for j in range(5))


def test_construction_is_deterministic():
    spec = BipartiteDegreeSpec.create([2, 1], [3, 2], [1, 1], [2, 2])
    first = build_bounded_bipartite(spec).edges()
    for _ in range(3):
        assert build_bounded_bipartite(spec).edges() == first


def test_agreement_with_bruteforce_on_small_specs():
    # module-scale sweep; the acceptance suite runs the full m+n <= 7 grid
    for m in (1, 2):
        for n in (1, 2, 3):
            for left in iter_bound_multisets(m, 2):
                for right in iter_bound_multisets(n, 2):
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
                    assert gale_ryser_feasible(spec) == expected, spec
                    if expected:
                        audit(spec, build_bounded_bipartite(spec))


def test_exact_specs_cross_checked_against_bipartite_havel_hakimi():
    rng = random.Random(5)
    for _ in range(400):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        left = sorted((rng.randint(0, n) for _ in range(m)), reverse=True)
        right = sorted((rng.randint(0, m) for _ in range(n)), reverse=True)
        spec = BipartiteDegreeSpec.create(left, left, right, right)
        expected = bipartite_exact_hh(left, right)
        assert gale_ryser_feasible(spec) == expected, (left, right)
        if expected:
            g = build_bounded_bipartite(spec)
            audit(spec, g)


def test_exact_specs_up_to_60_vertices_match_bipartite_havel_hakimi():
    # degrees of random bipartite graphs, and of Ferrers diagrams (every
    # Gale-Ryser prefix tight) with one unit moved between left vertices
    rng = random.Random(60)
    for trial in range(160):
        m, n = rng.randint(1, 60), rng.randint(1, 60)
        if trial % 2:
            left = [rng.randint(0, n) for _ in range(m)]
            right = [sum(x > j for x in left) for j in range(n)]
            i, j = rng.randrange(m), rng.randrange(m)
            if left[j] > 0:
                left[i] += 1
                left[j] -= 1
        else:
            p = rng.random()
            left, right = [0] * m, [0] * n
            for i in range(m):
                for j in range(n):
                    if rng.random() < p:
                        left[i] += 1
                        right[j] += 1
        spec = BipartiteDegreeSpec.create(left, left, right, right)
        expected = bipartite_exact_hh(left, right)
        assert gale_ryser_feasible(spec) == expected, (left, right)
        if expected:
            audit(spec, build_bounded_bipartite(spec))


def test_random_interval_specs_match_bruteforce_and_build_within_bounds():
    rng = random.Random(8)
    for _ in range(600):
        sides = []
        for size in (rng.randint(1, 8), rng.randint(1, 8)):
            lower = [rng.randint(0, 5) for _ in range(size)]
            sides += [lower, [rng.randint(a, 5) for a in lower]]
        spec = BipartiteDegreeSpec.create(*sides)
        expected = bipartite_exists_bruteforce(
            spec.lower_left, spec.upper_left, spec.lower_right, spec.upper_right
        )
        assert gale_ryser_feasible(spec) == expected, sides
        if expected:
            audit(spec, build_bounded_bipartite(spec))


def sort_side_reference(lower, upper, side):
    """The element-wise conversion, checks and (-lower, position) sort."""
    lower = [int(x) for x in lower]
    upper = [int(x) for x in upper]
    if len(lower) != len(upper):
        raise InvalidSequence(f"{side} lower/upper lengths differ")
    if any(x < 0 for x in lower) or any(x < 0 for x in upper):
        raise InvalidSequence(f"{side} bounds must be non-negative")
    if any(a > b for a, b in zip(lower, upper)):
        raise InvalidSequence(f"{side} has a lower bound above its upper bound")
    order = sorted(range(len(lower)), key=lambda i: (-lower[i], i))
    return tuple(lower[i] for i in order), tuple(upper[i] for i in order), tuple(order)


def test_sort_side_matches_the_elementwise_reference():
    from degseqopt.bipartite import _sort_side

    rng = random.Random(1962)
    for _ in range(3000):
        size = rng.randint(0, 6)
        lower = [rng.randint(-1, 3) for _ in range(size)]
        upper = [rng.randint(-1, 4) for _ in range(size + (rng.random() < 0.1))]
        try:
            expected = sort_side_reference(lower, upper, "left")
        except InvalidSequence as exc:
            with pytest.raises(InvalidSequence, match=f"^{exc}$"):
                _sort_side(lower, upper, "left")
        else:
            assert _sort_side(lower, upper, "left") == expected


def test_exact_degrees_are_computed_once_per_spec(monkeypatch):
    from degseqopt import bipartite

    calls = []
    original = bipartite._exact_degrees
    monkeypatch.setattr(bipartite, "_exact_degrees",
                        lambda spec: calls.append(spec) or original(spec))
    spec = BipartiteDegreeSpec.create([1, 0, 2], [2, 1, 2], [1, 1], [2, 2])
    assert gale_ryser_feasible(spec)
    audit(spec, build_bounded_bipartite(spec))
    assert gale_ryser_feasible(spec)
    assert calls == [spec]
