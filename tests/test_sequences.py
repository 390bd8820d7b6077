import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degseqopt import (
    DegreeSequence,
    InvalidSequence,
    annihilation,
    is_forest_sequence,
    is_graphic,
    normalize,
    parse_sequence_text,
    slater,
)
from degseqopt.sequences import _graphic_erdos_gallai
from degseqopt.oracle import iter_degree_sequences

from conftest import all_graphs, graphic_havel_hakimi

raw_sequences = st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=12)


@pytest.mark.parametrize(
    "raw, expected",
    [
        ([1, 2, 1], (2, 1, 1)),
        ([0, 0], (0, 0)),
        ([1, 1, 1, 1, 2, 2, 2, 1, 1], (2, 2, 2, 1, 1, 1, 1, 1, 1)),
    ],
)
def test_normalize_sorts(raw, expected):
    assert normalize(raw).entries == expected


def test_normalize_rejects_empty():
    with pytest.raises(InvalidSequence):
        normalize([])


def test_normalize_rejects_negative():
    with pytest.raises(InvalidSequence):
        normalize([2, -1])


@pytest.mark.parametrize("raw, bad", [
    ([1.7, 1.2], "1.7"),
    ([2.0, 2, 2], "2.0"),
    ([2, "2", 2], "'2'"),
    (["2", "2", "2"], "'2'"),
    ([1, 1, None], "None"),
])
def test_normalize_rejects_non_integer_entries(raw, bad):
    # no truncation: [1.7, 1.2] once became the graphic (1, 1)
    with pytest.raises(InvalidSequence, match=f"^entry {re.escape(bad)} is not an integer$"):
        normalize(raw)


def test_normalize_accepts_bools_as_integers():
    assert normalize([True, True, False]).entries == (1, 1, 0)
    assert normalize(iter([2, 1, 1])).entries == (2, 1, 1)


def test_normalize_accepts_entries_at_least_n():
    # upper-bound rejection is graphicality's job, not normalization's
    d = normalize([5, 1])
    assert d.entries == (5, 1)
    assert not is_graphic(d)


@given(raw_sequences)
def test_normalize_idempotent_and_sum_preserving(raw):
    d = normalize(raw)
    again = normalize(list(d.entries))
    assert again.entries == d.entries
    assert sum(d.entries) == sum(raw)
    # entries[i] came from position original_order[i] of the raw input
    rebuilt = [0] * d.n
    for entry, pos in zip(d.entries, d.original_order):
        rebuilt[pos] = entry
    assert rebuilt == raw


@given(raw_sequences)
def test_cached_statistics_agree_with_recount(raw):
    d = normalize(raw)
    assert d.total == sum(raw)
    for k in range(d.n + 1):
        assert d.prefix(k) == sum(d.entries[:k])
    for v in range(max(raw) + 2):
        assert d.count_eq(v) == sum(1 for x in raw if x == v)
        assert d.count_ge(v) == sum(1 for x in raw if x >= v)


def test_parse_sequence_text_formats():
    assert parse_sequence_text("3,2,2,1").entries == (3, 2, 2, 1)
    assert parse_sequence_text("3 2 2 1").entries == (3, 2, 2, 1)
    assert parse_sequence_text(" 1, 2  1 ").entries == (2, 1, 1)
    with pytest.raises(InvalidSequence):
        parse_sequence_text("3,x")
    with pytest.raises(InvalidSequence):
        parse_sequence_text("  ")


@pytest.mark.parametrize(
    "seq, expected",
    [
        ([3, 3, 3, 3], True),
        ([3, 3, 1, 1], False),
        ([0, 0], True),
        ([2, 2, 2], True),
        ([1], False),
    ],
)
def test_is_graphic_examples(seq, expected):
    assert is_graphic(normalize(seq)) is expected


def test_is_graphic_3311_against_exhaustive_search():
    # no 4-vertex graph has degree multiset {3, 3, 1, 1}
    target = (3, 3, 1, 1)
    found = any(
        tuple(sorted(g.degrees, reverse=True)) == target for g in all_graphs(4)
    )
    assert not found
    assert not is_graphic(normalize(list(target)))


def test_graphicality_tests_agree_exhaustively_up_to_n8():
    for n in range(1, 9):
        for seq in iter_degree_sequences(n, max_entry=n - 1):
            assert _graphic_erdos_gallai(seq) == graphic_havel_hakimi(seq), seq


@given(raw_sequences)
def test_graphicality_tests_agree_on_random_input(raw):
    d = normalize(raw)
    assert _graphic_erdos_gallai(d.entries) == graphic_havel_hakimi(d.entries)


@pytest.mark.parametrize(
    "seq, expected",
    [
        ([2, 2, 2], False),
        ([2, 2, 1, 1], True),
        ([0, 0, 0], True),
        ([1, 1], True),
        ([3, 1, 1, 1, 0, 0], True),
    ],
)
def test_is_forest_sequence_examples(seq, expected):
    assert is_forest_sequence(normalize(seq)) is expected


def test_forest_222_against_exhaustive_search():
    # the triangle is the only realization of (2,2,2) and it has a cycle
    realizations = [
        g for g in all_graphs(3) if tuple(sorted(g.degrees, reverse=True)) == (2, 2, 2)
    ]
    assert len(realizations) == 1
    assert not realizations[0].is_forest()


@pytest.mark.parametrize(
    "seq, expected",
    [
        ([2, 2, 2, 1, 1, 1, 1, 1, 1], 3),
        ([3, 3, 3, 3], 1),
        ([2, 2, 2, 2, 2, 1, 1], 3),
        ([0, 0], 2),
    ],
)
def test_slater_examples(seq, expected):
    assert slater(normalize(seq)) == expected


@pytest.mark.parametrize(
    "seq, expected",
    [
        ([2, 2, 1, 1], 2),
        ([1, 1, 1, 1], 2),
        ([2, 2, 2, 1, 1, 1, 1, 1, 1], 6),
        ([0, 0], 2),
        ([3], 0),
    ],
)
def test_annihilation_examples(seq, expected):
    assert annihilation(normalize(seq)) == expected


@given(raw_sequences)
def test_slater_and_annihilation_ranges(raw):
    d = normalize(raw)
    assert 1 <= slater(d) <= d.n
    assert 0 <= annihilation(d) <= d.n


@given(raw_sequences)
@settings(max_examples=200)
def test_annihilation_appending_zero_adds_one(raw):
    d = normalize(raw)
    extended = normalize(raw + [0])
    assert annihilation(extended) == annihilation(d) + 1


def test_degree_sequence_invariants_enforced():
    with pytest.raises(InvalidSequence):
        DegreeSequence((1, 2), (0, 1))  # not non-increasing
    with pytest.raises(InvalidSequence):
        DegreeSequence((2, 1), (0, 0))  # bad permutation


@pytest.mark.parametrize("entries, order, message", [
    ((1.7, 1.2), (0, 1), "entry 1.7 is not an integer"),  # once taken, then a TypeError
    (("2", "1"), (0, 1), "entry '2' is not an integer"),
    ((2, 1), (0.0, 1), "original_order entry 0.0 is not an integer"),
    ((2, 1), (0, None), "original_order entry None is not an integer"),
])
def test_degree_sequence_rejects_non_integer_entries_and_orders(entries, order, message):
    with pytest.raises(InvalidSequence, match=f"^{re.escape(message)}$"):
        DegreeSequence(entries, order)


def test_degree_sequence_converts_bools_to_ints():
    d = DegreeSequence((True, False), (False, True))
    assert d.entries == (1, 0) and d.original_order == (0, 1)
    assert all(type(x) is int for x in d.entries + d.original_order)


def test_positive_part():
    d = normalize([2, 1, 0, 0])
    pos = d.positive_part()
    assert pos.entries == (2, 1)
    assert normalize([0, 0]).positive_part() is None


# ---------------------------------------------------------------------------
# the C-level fast paths against the loops they replaced

padded_sequences = st.tuples(
    st.lists(st.integers(min_value=0, max_value=12), max_size=12),
    st.integers(min_value=0, max_value=4),
).map(lambda t: t[0] + [0] * t[1]).filter(bool)


def slater_reference(d):
    for k in range(1, d.n + 1):
        if d.prefix(k) >= d.n - k:
            return k
    raise AssertionError("k = n always satisfies the inequality")


def annihilation_reference(d):
    n = d.n
    for a in range(n, -1, -1):
        if d.suffix(n - a) <= d.prefix(n - a):
            return a
    return 0


@given(padded_sequences)
def test_normalize_order_is_the_minus_value_position_sort(raw):
    d = normalize(raw)
    order = sorted(range(len(raw)), key=lambda i: (-raw[i], i))
    assert d.original_order == tuple(order)
    assert d.entries == tuple(raw[i] for i in order)


@given(padded_sequences)
@settings(max_examples=300)
def test_slater_and_annihilation_match_their_definitions(raw):
    d = normalize(raw)
    assert slater(d) == slater_reference(d)
    assert annihilation(d) == annihilation_reference(d)
    assert d._prefix == tuple(sum(d.entries[:k]) for k in range(d.n + 1))


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_slater_and_annihilation_on_all_zero_sequences(n):
    d = normalize([0] * n)
    assert slater(d) == slater_reference(d) == n
    assert annihilation(d) == annihilation_reference(d) == n


def degree_sequence_reference_error(entries, order):
    """The message the element-wise checks of DegreeSequence gave, or None."""
    if not entries:
        return "degree sequence must be non-empty"
    if any(entries[i] < entries[i + 1] for i in range(len(entries) - 1)):
        return "entries must be non-increasing"
    if entries[-1] < 0:
        return "entries must be non-negative"
    if sorted(order) != list(range(len(entries))):
        return "original_order must be a permutation"
    return None


@given(st.lists(st.integers(min_value=-2, max_value=4), max_size=6),
       st.lists(st.integers(min_value=0, max_value=6), max_size=6))
@settings(max_examples=300)
def test_degree_sequence_rejects_what_the_elementwise_checks_rejected(entries, order):
    for order_ in (order, list(range(len(entries)))):
        expected = degree_sequence_reference_error(entries, order_)
        if expected is None:
            DegreeSequence(tuple(entries), tuple(order_))
        else:
            with pytest.raises(InvalidSequence, match=f"^{expected}$"):
                DegreeSequence(tuple(entries), tuple(order_))
