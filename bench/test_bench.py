"""Tests of the benchmark itself: inputs, checker, span arithmetic, names."""

import json
import re
from pathlib import Path

import checker
import execute
import tracer
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _inputs(workload, seed) -> bytes:
    return json.dumps([[q.kind, q.seq, q.graph, q.cli] for q in workloads.batch(workload, seed)]
                      ).encode()


def test_one_seed_gives_byte_identical_inputs():
    for workload in workloads.WORKLOADS:
        assert _inputs(workload, 11) == _inputs(workload, 11)
        assert _inputs(workload, 11) != _inputs(workload, 12)
        assert len(workloads.batch(workload, 11)) >= 100


# the path u0 - u1 - u3 plus the leaf u2 on u0: head {u0, u1} dominates,
# tail {u2, u3} is independent
PATH_DEGREES = [2, 2, 1, 1]
PATH_EDGES = [(0, 1), (0, 2), (1, 3)]


def test_checker_accepts_a_true_witness():
    claims = ["head_dominating", "tail_independent", "is_forest"]
    assert checker.witness_problems(4, PATH_EDGES, PATH_DEGREES, 2, claims) == []


def test_checker_rejects_a_tampered_witness():
    claims = ["head_dominating", "tail_independent", "is_forest"]
    moved = [(0, 1), (0, 2), (2, 3)]  # u3 hangs off the tail now
    assert "degrees differ" in checker.witness_problems(4, moved, PATH_DEGREES, 2, claims)
    assert checker.witness_problems(4, moved, [2, 1, 2, 1], 2, claims) == [
        "claim head_dominating fails", "claim tail_independent fails"]
    assert checker.witness_problems(4, PATH_EDGES, PATH_DEGREES, 2, ["head_independent"]) == [
        "claim head_independent fails"]
    cycle = [(0, 1), (1, 2), (2, 0)]
    assert checker.witness_problems(3, cycle, [2, 2, 2], 1, ["is_forest"]) == [
        "claim is_forest fails"]


def test_checker_rejects_a_wrong_value():
    witness = {"sequence": PATH_DEGREES, "k": 2,
               "claims": ["head_dominating", "is_forest", "tail_independent"],
               "edges": PATH_EDGES}
    q = workloads.Query("forest alpha-max", seq=(1, 2, 1, 2))
    right = {"value": 2, "k": 2, "witness": witness}
    assert execute.verify(q, right, {}) == []
    assert execute.verify(q, dict(right, value=3), {})
    q = workloads.Query("forest gamma-min", seq=(1, 2, 1, 2))
    assert execute.verify(q, right, {q.key(): 2}) == []
    assert execute.verify(q, right, {q.key(): 1})
    assert execute.verify(q, right, {}) == ["no recorded reference"]


def test_checker_references_agree_with_definitions():
    assert checker.erdos_gallai([3, 3, 1, 1]) is False
    assert checker.erdos_gallai([2, 2, 2]) is True
    assert checker.erdos_gallai([1000000, 1, 1]) is False
    assert checker.bound_chain([2, 2, 2, 1, 1, 1, 1, 1, 1]) == (3, 6, 0, 3, 3)
    assert checker.bound_chain([1, 1, 0]) == (2, 2, 1, 2, 2)
    assert checker.count_realizations([1, 1, 1, 1], 10) == 3
    assert checker.count_realizations([2, 2, 2, 2], 10) == 3
    assert checker.count_realizations([3, 1, 1], 10) == 0
    assert checker.count_realizations([3] * 8, 50) == 50


def test_self_time_on_a_synthetic_span_tree():
    names = ["extremal.a", "bipartite.b", "extremal.c", "sequences.d", "sequences.e"]
    parent = [-1, 0, 0, 2, 3]
    start = [0.0, 1.0, 5.0, 6.0, 6.5]
    end = [10.0, 4.0, 9.0, 8.0, 7.0]
    # a loses b (other layer) and, through its same-layer child c, d;
    # d keeps its same-layer child e
    assert tracer.self_times(names, parent, start, end) == [5.0, 3.0, 2.0, 2.0, 0.5]


def test_metric_names_and_units():
    end_to_end = BENCHMARK["end_to_end"]
    per_layer = BENCHMARK["per_layer"]
    names = [m["name"] for m in end_to_end + per_layer]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert {m["name"]: m["unit"] for m in per_layer} == tracer.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
