import json
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from degseqopt.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    main,
    run,
)

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "cli_schema.json").read_text()
)


def run_argv(argv):
    from degseqopt import cli

    return run(cli._build_parser().parse_args(argv))


def run_json(argv):
    code, out = run_argv(argv + ["--json"])
    obj = json.loads(out)
    jsonschema.validate(obj, SCHEMA)
    return code, obj


def run_cli_process(args, env=None, stdin_text=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "degseqopt", *args],
        capture_output=True,
        text=True,
        env=full_env,
        input=stdin_text,
    )


# ---------------------------------------------------------------------------
# text goldens and exit codes


def test_check_golden_text():
    code, out = run_argv(["check", "3,3,1,1"])
    assert (code, out) == (EXIT_OK, "graphic=false forest=false")


def test_bounds_golden_text():
    code, out = run_argv(["bounds", "2,2,2,1,1,1,1,1,1"])
    assert code == EXIT_OK
    assert out.startswith("slater=3 annihilation=6")


def test_parse_error_exit_code():
    code, _ = run_argv(["check", "not-a-sequence"])
    assert code == EXIT_PARSE


def test_precondition_exit_code():
    code, _ = run_argv(["gamma-min", "3,3,1,1"])
    assert code == EXIT_PRECONDITION


def test_internal_error_exit_code(monkeypatch):
    from degseqopt import cli
    from degseqopt.errors import InvalidWitness

    # a package error that signals a bug, and any other exception
    for error in (InvalidWitness, RuntimeError):
        def boom(args):
            raise error("planted")

        monkeypatch.setattr(cli, "_handle_check", boom)  # the parser binds it per run
        code, out = run_argv(["check", "1,1"])
        assert code == EXIT_INTERNAL and "planted" in out
        code, obj = run_json(["check", "1,1"])
        assert code == EXIT_INTERNAL
        assert obj["error"] == {"type": error.__name__, "message": "planted"}


def test_check_huge_entry_uses_little_memory():
    # memory must not grow with the value of an entry
    import tracemalloc

    tracemalloc.start()
    try:
        code, out = run_argv(["check", "1000000000,1,1", "--json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK and peak < 10**7
    obj = json.loads(out)
    assert (obj["graphic"], obj["forest"]) == (False, False)


def test_usage_error_is_parse_error():
    assert main(["no-such-command"]) == EXIT_PARSE
    assert main(["realize", "indep-tail", "1,1"]) == EXIT_PARSE  # missing --k


def test_witness_flag_only_on_constructive_commands():
    assert main(["check", "1,1", "--witness"]) == EXIT_PARSE


_README_EXAMPLES = [
    (["check", "3,3,1,1"], "graphic=false forest=false\n"),
    (["bounds", "2,2,2,1,1,1,1,1,1"],
     "slater=3 annihilation=6 n0=0 gamma_forest_low=3 gamma_forest_high=3\n"),
    (["gamma-min", "2,2,2,1,1,1,1,1,1"], "gamma_min=3 k=3\n"),
    (["omega-max", "2,2,2,2,2,2"], "omega_max=3\n"),
    (["forest", "gamma-min", "3,2,2,2,1,1,1", "--witness", "--json"],
     '{"achieving_k": 2, "bound_chain": {"annihilation": 4, "gamma_forest_high": 3, '
     '"gamma_forest_low": 2, "n0": 0, "slater": 2}, "command": "forest gamma-min", '
     '"parameter": "gamma_min_forest", "schema_version": 1, "sequence": {"canonical": '
     '"3,2,2,2,1,1,1", "input_order": [0, 1, 2, 3, 4, 5, 6], "sorted": [3, 2, 2, 2, 1, 1, 1]}, '
     '"value": 2, "witness": {"claims": ["head_dominating", "head_independent", "is_forest"], '
     '"edges": [[1, 4], [1, 5], [1, 6], [2, 3], [2, 7], [3, 4]], "k": 2, '
     '"sequence": [3, 2, 2, 2, 1, 1, 1]}}\n'),
    (["forest", "alpha-max", "2,2,1,1"], "alpha_max_forest=2 k=2\n"),
    (["realize", "hh", "3,1,1,1"], "n=4 edges=1-2,1-3,1-4\n"),
    (["realize", "forest", "2,2,1,1"], "n=4 edges=1-2,1-3,2-4\n"),
    (["realize", "indep-tail", "2,1,1,1,1", "--k", "2"],
     "n=5 k=2 edges=1-4,1-5,2-3 claims=head_dominating,is_forest,tail_independent\n"),
    (["realize", "indep-dom", "3,2,2,2,1,1,1", "--k", "2"],
     "n=7 k=2 edges=1-4,1-5,1-6,2-3,2-7,3-4 claims=head_dominating,head_independent,is_forest\n"),
    (["oracle", "2,2,1,1", "--forest"],
     "count=2 gamma_min=2 gamma_max=2 alpha_min=2 alpha_max=2 omega_min=2 omega_max=2\n"),
    (["slater-bound", "--graph", "graph.txt"],
     "holds=true gamma=2 slater=2 cycle_excess=1 bound=6\n"),
    (["bip-check", "--spec", '{"a":[1,1],"b":[1,1],"ap":[1,1],"bp":[1,1]}'],
     "feasible=true edges=1-2,2-1\n"),
    (["sweep", "--n-max", "6"],
     "param=alpha_max checked=151 mismatches=0\nparam=gamma_min checked=151 mismatches=0\n"
     "param=omega_max checked=151 mismatches=0\nok=true\n"),
    (["sweep", "--n-max", "8", "--forest"],
     "param=alpha_max_forest checked=47 mismatches=0\n"
     "param=gamma_min_forest checked=47 mismatches=0\nok=true\n"),
]


@pytest.mark.parametrize("argv, stdout", _README_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in _README_EXAMPLES])
def test_readme_examples_print_their_golden_output(argv, stdout, tmp_path, monkeypatch, capsys):
    # the README's command-line examples, byte for byte; graph.txt is a 5-cycle
    (tmp_path / "graph.txt").write_text("5 5\n1 2\n2 3\n3 4\n4 5\n5 1\n")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == stdout


# ---------------------------------------------------------------------------
# JSON outputs validate against the shipped schema


def test_json_outputs_conform_to_schema(tmp_path):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("6 5\n1 2\n1 3\n1 4\n1 5\n1 6\n")
    spec_file = tmp_path / "spec.json"
    spec_file.write_text('{"a": [1, 1], "b": [1, 1], "ap": [1, 1], "bp": [1, 1]}')

    cases = [
        ["check", "3,2,2,1"],
        ["bounds", "3,2,2,2,1,1,1"],
        ["omega-max", "3,3,3,3"],
        ["alpha-max", "1,1,1,1"],
        ["gamma-min", "2,2,2,1,1,1,1,1,1", "--witness"],
        ["forest", "gamma-min", "3,2,2,2,1,1,1", "--witness"],
        ["forest", "alpha-max", "2,2,1,1"],
        ["realize", "hh", "3,1,1,1"],
        ["realize", "forest", "2,2,1,1"],
        ["realize", "indep-tail", "2,1,1,1,1", "--k", "2"],
        ["realize", "indep-dom", "3,2,2,2,1,1,1", "--k", "2"],
        ["oracle", "2,2,1,1"],
        ["oracle", "2,2,1,1", "--forest"],
        ["slater-bound", "--graph", str(graph_file)],
        ["bip-check", "--spec", str(spec_file)],
        ["sweep", "--n-max", "4"],
        ["sweep", "--n-max", "5", "--forest"],
    ]
    for argv in cases:
        code, obj = run_json(argv)
        assert code == EXIT_OK, argv
        assert obj["schema_version"] == 1


def test_json_error_conforms_to_schema():
    code, obj = run_json(["gamma-min", "3,3,1,1"])
    assert code == EXIT_PRECONDITION
    assert obj["error"]["type"] == "NotGraphic"


def test_witness_payload_values():
    _, obj = run_json(["forest", "gamma-min", "3,2,2,2,1,1,1", "--witness"])
    assert obj["value"] == 2
    assert obj["achieving_k"] == 2
    w = obj["witness"]
    assert w["k"] == 2
    assert len(w["edges"]) == 6
    assert "head_dominating" in w["claims"]


def test_sequence_echoes_input_permutation():
    _, obj = run_json(["check", "1,2,1"])
    assert obj["sequence"]["sorted"] == [2, 1, 1]
    assert obj["sequence"]["input_order"] == [1, 0, 2]
    assert obj["sequence"]["canonical"] == "2,1,1"


# ---------------------------------------------------------------------------
# determinism and process-level behavior


def test_output_is_byte_deterministic():
    for argv in (
        ["gamma-min", "2,2,2,1,1,1,1,1,1", "--witness", "--json"],
        ["realize", "indep-dom", "3,2,2,2,1,1,1", "--k", "2", "--json"],
        ["oracle", "2,2,2,1,1,1", "--json"],
    ):
        first = run_argv(argv)
        second = run_argv(argv)
        assert first == second


def test_extremal_commands_name_their_parameter_under_wrapped_functions(monkeypatch):
    # a tracer replaces the extremal functions with pass-through wrappers,
    # all named "traced", before the parser binds them: the reports must not
    # take the parameter name from the function
    from degseqopt import cli, extremal

    commands = [
        ["gamma-min", "3,2,2,2,1,1,1,0", "--witness", "--json"],
        ["omega-max", "3,2,2,2,1,1,1,0"],
        ["alpha-max", "3,2,2,2,1,1,1,0", "--json"],
        ["forest", "gamma-min", "3,2,2,2,1,1,1,0", "--witness", "--json"],
        ["forest", "alpha-max", "3,2,2,2,1,1,1,0", "--witness", "--json"],
    ]
    plain = [run_argv(argv) for argv in commands]
    calls = []

    def wrap(func):
        def traced(*args, **kwargs):
            calls.append(func)
            return func(*args, **kwargs)
        return traced

    for name in ("gamma_min_bounded", "omega_max", "alpha_max", "gamma_min_forest",
                 "alpha_max_forest"):
        monkeypatch.setattr(extremal, name, wrap(getattr(extremal, name)))
    assert [run(cli._build_parser().parse_args(argv)) for argv in commands] == plain
    assert len(set(calls)) == 5


def test_cli_subprocess_smoke():
    proc = run_cli_process(["bounds", "2,2,2,1,1,1,1,1,1"])
    assert proc.returncode == 0
    assert proc.stdout.startswith("slater=3 annihilation=6")

    proc = run_cli_process(["check", "3 3 1 1"])
    assert proc.returncode == 0
    assert proc.stdout.strip() == "graphic=false forest=false"


def test_cli_subprocess_identical_bytes():
    argv = ["forest", "gamma-min", "3,2,2,2,1,1,1", "--witness", "--json"]
    first = run_cli_process(argv)
    second = run_cli_process(argv)
    assert first.stdout == second.stdout


def test_gamma_min_on_a_fast_large_degree_input_writes_nothing_to_stderr():
    proc = run_cli_process(["gamma-min", ",".join(["5"] + ["1"] * 39)])
    assert proc.returncode == EXIT_OK
    assert proc.stdout == "gamma_min=18 k=18\n"
    assert proc.stderr == ""


def test_sweep_reports_progress_on_stderr_only():
    proc = run_cli_process(["sweep", "--n-max", "5"])
    assert proc.returncode == EXIT_OK
    assert proc.stdout == ("param=alpha_max checked=49 mismatches=0\n"
                           "param=gamma_min checked=49 mismatches=0\n"
                           "param=omega_max checked=49 mismatches=0\nok=true\n")
    lines = proc.stderr.splitlines()
    # one line per order n: sequences checked and mismatches so far, elapsed seconds
    pattern = r"sweep: n=(\d+) sequences=(\d+) mismatches=0 elapsed=\d+\.\d\ds"
    progress = [re.fullmatch(pattern, line) for line in lines]
    assert all(progress), lines
    assert [(int(m[1]), int(m[2])) for m in progress] == [(1, 1), (2, 3), (3, 7), (4, 18), (5, 49)]
    # --json leaves stdout the same report as before, in JSON
    proc_json = run_cli_process(["sweep", "--n-max", "5", "--json"])
    assert proc_json.stdout == run_argv(["sweep", "--n-max", "5", "--json"])[1] + "\n"
    assert len(proc_json.stderr.splitlines()) == 5


def test_oracle_limit_env_var():
    proc = run_cli_process(["sweep", "--n-max", "6", "--limit", "5"])
    assert proc.returncode == EXIT_PARSE

    proc = run_cli_process(["oracle", "1,1,1,1,1,1", "--limit", "5"])
    assert proc.returncode == EXIT_PRECONDITION


def test_oracle_limit_ignores_the_environment():
    # --limit is the only source of the limit; the environment is not read
    proc = run_cli_process(["oracle", "1,1,1,1,1,1"], env={"DEGSEQOPT_ORACLE_LIMIT": "5"})
    assert proc.returncode == EXIT_OK, proc.stdout + proc.stderr


def test_oracle_beyond_the_subset_tables_exits_2_whatever_the_limit():
    seq = ",".join(["1"] * 2 + ["0"] * 13)
    proc = run_cli_process(["oracle", seq, "--limit", "20"])
    assert proc.returncode == EXIT_PRECONDITION
    assert proc.stdout == "error: n=15 exceeds the oracle's subset-table limit 14\n"


@pytest.mark.parametrize("command", [["oracle", "1,1"], ["sweep", "--n-max", "3"]])
# the ids keep the names these cases have always had
@pytest.mark.parametrize("value", ["0", "-5"], ids=["0-option", "-5-option"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_oracle_limit_below_one_is_a_usage_error(command, value, json_flag, capsys):
    assert main(command + json_flag + ["--limit", value]) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and value in err


def test_closed_stdout_keeps_the_exit_code_and_prints_no_traceback():
    for args, code in ((["sweep", "--n-max", "5"], EXIT_OK),
                       (["gamma-min", "3,3,1,1"], EXIT_PRECONDITION)):
        proc = subprocess.Popen([sys.executable, "-m", "degseqopt", *args],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()  # the reader is gone before the report is written
        _, err = proc.communicate(timeout=60)
        assert b"Traceback" not in err and b"BrokenPipeError" not in err, err
        assert proc.returncode == code


def test_sweep_respects_oracle_limit():
    code, _ = run_argv(["sweep", "--n-max", "12"])
    assert code == EXIT_PARSE


@pytest.mark.parametrize(
    "argv",
    [["--n-max", "0"], ["--n-max", "-2", "--forest"], ["--n-max", "1", "--forest"]],
)
def test_sweep_refuses_an_n_max_that_checks_nothing(argv, monkeypatch):
    from degseqopt import cli

    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("sweep enumerated sequences")

    monkeypatch.setattr(cli, "iter_degree_sequences", enumerate_nothing)
    monkeypatch.setattr(cli, "_forest_sequences", enumerate_nothing)
    code, out = run_argv(["sweep", *argv])
    assert code == EXIT_PARSE and out.startswith(f"error: --n-max {argv[1]} is below ")
    code, obj = run_json(["sweep", *argv])
    assert code == EXIT_PARSE and obj["error"]["type"] == "CliParseError"


def test_sweep_unknown_parameter():
    code, _ = run_argv(["sweep", "--n-max", "3", "--params", "nonsense"])
    assert code == EXIT_PARSE


def test_sweep_checks_a_repeated_parameter_once():
    single = run_argv(["sweep", "--n-max", "4", "--params", "gamma_min"])
    assert single == (EXIT_OK, "param=gamma_min checked=18 mismatches=0\nok=true")
    assert run_argv(["sweep", "--n-max", "4", "--params", "gamma_min,gamma_min"]) == single
    code, obj = run_json(["sweep", "--n-max", "4", "--params", "gamma_min,omega_max,gamma_min"])
    assert code == EXIT_OK
    assert [(r["parameter"], r["checked"]) for r in obj["results"]] == [
        ("gamma_min", 18), ("omega_max", 18)
    ]


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_negative_delta_cap_is_a_usage_error(json_flag, capsys):
    assert main(["gamma-min", "2,2,1,1", "--delta-cap", "-1", *json_flag]) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: argument --delta-cap: must be at least 0, got -1\n"


def test_delta_cap_zero_is_still_a_cap():
    assert run_argv(["gamma-min", "0,0", "--delta-cap", "0"]) == (EXIT_OK, "gamma_min=2")
    code, out = run_argv(["gamma-min", "2,2,1,1", "--delta-cap", "0"])
    assert (code, out) == (EXIT_PRECONDITION, "error: maximum entry 2 exceeds delta cap 0")


def test_sweep_small_grid_matches():
    code, obj = run_json(["sweep", "--n-max", "5"])
    assert code == EXIT_OK
    assert obj["ok"] is True
    assert {r["parameter"] for r in obj["results"]} == {
        "alpha_max", "gamma_min", "omega_max"
    }
    assert all(r["mismatches"] == [] for r in obj["results"])


def test_slater_bound_accepts_json_graph(tmp_path):
    f = tmp_path / "g.json"
    f.write_text('{"n": 3, "edges": [[1, 2], [2, 3]]}')
    code, obj = run_json(["slater-bound", "--graph", str(f)])
    assert code == EXIT_OK
    assert obj["holds"] is True and obj["gamma"] == 1


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 3, "edges": [[1]]}',
        '{"n": 3, "edges": [[1, 2.7], [2, 3]]}',
        '{"n": true, "edges": []}',
        '{"edges": [[1, 2]]}',
    ],
)
def test_slater_bound_rejects_malformed_json_graphs(tmp_path, text):
    f = tmp_path / "g.json"
    f.write_text(text)
    code, out = run_argv(["slater-bound", "--graph", str(f)])
    assert code == EXIT_PARSE and out.startswith("error: graph JSON ")


@pytest.mark.parametrize("text, message", [
    ("3 2\n0 1\n2 3\n", "edge (0, 1) out of range for n=3"),
    ("3 1\n1 4\n", "edge (1, 4) out of range for n=3"),
    ("1 1\n1 1\n", "self-loop at vertex 1"),
    ("3 2\n1 2\n2 1\n", "duplicate edge (2, 1)"),
    ('{"n": 3, "edges": [[2, 4]]}', "edge (2, 4) out of range for n=3"),
    ('{"n": 3, "edges": [[0, 1]]}', "edge (0, 1) out of range for n=3"),
    ('{"n": 3, "edges": [[1, 2], [3, 3]]}', "self-loop at vertex 3"),
    ('{"n": 3, "edges": [[1, 2], [2, 3], [2, 1]]}', "duplicate edge (2, 1)"),
])
def test_slater_bound_names_a_bad_edge_as_the_file_writes_it(tmp_path, text, message):
    # graph files number vertices from 1, and so do their error messages
    f = tmp_path / "g"
    f.write_text(text)
    assert run_argv(["slater-bound", "--graph", str(f)]) == (EXIT_PARSE, f"error: {message}")
    code, obj = run_json(["slater-bound", "--graph", str(f)])
    assert code == EXIT_PARSE
    assert obj["error"] == {"type": "ValueError", "message": message}


@pytest.mark.parametrize("text", ['{"n": 1000000, "edges": []}', "1000000 0\n"])
def test_slater_bound_refuses_a_huge_declared_n_in_little_memory(tmp_path, text):
    import tracemalloc

    f = tmp_path / "g"
    f.write_text(text)
    tracemalloc.start()
    try:
        code, out = run_argv(["slater-bound", "--graph", str(f)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_PRECONDITION and peak < 10**7
    assert out == "error: graph has 1000000 vertices, solver limit is 32"


def test_slater_bound_rejects_disconnected(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("4 2\n1 2\n3 4\n")
    code, obj = run_json(["slater-bound", "--graph", str(f)])
    assert code == EXIT_PRECONDITION
    assert obj["error"]["type"] == "NotConnected"


def test_zero_entry_sequences_through_the_cli():
    code, obj = run_json(["forest", "gamma-min", "0,0,0", "--witness"])
    assert code == EXIT_OK
    assert obj["value"] == 3 and obj["witness"] is None

    code, obj = run_json(["forest", "alpha-max", "1,1,0", "--witness"])
    assert code == EXIT_OK
    assert obj["value"] == 2
    assert obj["witness"]["k"] == 1 and obj["witness"]["edges"] == [[1, 2]]

    code, out = run_argv(["realize", "hh", "0,0"])
    assert (code, out) == (EXIT_OK, "n=2 edges=-")


def _assert_cli_forest_witnesses(seq):
    from degseqopt import (Graph, RealizationWitness, WitnessClaim, normalize,
                           parse_sequence_text, validate_witness)
    from degseqopt.graphs import _json_graph_parts

    code, obj = run_json(["realize", "forest", seq])
    assert code == EXIT_OK
    g = Graph(*_json_graph_parts(obj))
    assert g.is_forest() and g.degrees == parse_sequence_text(seq).entries

    code, obj = run_json(["forest", "alpha-max", seq, "--witness"])
    assert code == EXIT_OK
    w = obj["witness"]
    witness = RealizationWitness(
        Graph(*_json_graph_parts({"n": g.n, "edges": w["edges"]})),
        normalize(w["sequence"]),
        w["k"],
        frozenset(WitnessClaim(c) for c in w["claims"]),
    )
    assert validate_witness(witness).ok
    return obj["value"]


def test_forest_witnesses_on_a_5000_vertex_path():
    # the forest builder once recursed per vertex and hit the recursion limit
    assert _assert_cli_forest_witnesses(",".join(["2"] * 4998 + ["1", "1"])) == 2500


def test_forest_witnesses_on_a_20000_vertex_prufer_tree():
    import random

    rng = random.Random(20150716)
    degrees = [1] * 20000
    for _ in range(20000 - 2):
        degrees[rng.randrange(20000)] += 1
    _assert_cli_forest_witnesses(",".join(map(str, degrees)))


def test_bip_check_inline_spec():
    code, obj = run_json(["bip-check", "--spec", '{"a":[2,2],"b":[2,2],"ap":[1,1],"bp":[1,1]}'])
    assert code == EXIT_OK
    assert obj["feasible"] is False and obj["edges"] is None


def test_bip_check_labels_edges_by_input_vertex():
    # left vertex 1 is pinned to degree 0, so the one edge joins the second vertices
    spec = '{"a":[0,1],"b":[0,1],"ap":[0,1],"bp":[0,1]}'
    assert run_argv(["bip-check", "--spec", spec]) == (EXIT_OK, "feasible=true edges=2-2")
    code, obj = run_json(["bip-check", "--spec", spec])
    assert (code, obj["edges"]) == (EXIT_OK, [[2, 2]])


@pytest.mark.parametrize(
    "spec",
    [
        '{"a":1,"b":[1],"ap":[1],"bp":[1]}',
        '{"a":[1.5],"b":[2],"ap":[1],"bp":[1]}',
        '{"a":[true],"b":[1],"ap":[1],"bp":[1]}',
        '{"a":["1"],"b":[1],"ap":[1],"bp":[1]}',
        "[1]",  # inline JSON, not a file path
    ],
)
def test_bip_check_rejects_malformed_specs(spec):
    code, out = run_argv(["bip-check", "--spec", spec])
    assert code == EXIT_PARSE and out.startswith("error: spec must be a JSON object")


def test_sweep_beyond_the_subset_tables_is_refused_before_enumerating(monkeypatch):
    from degseqopt import cli

    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("sweep enumerated sequences")

    monkeypatch.setattr(cli, "iter_degree_sequences", enumerate_nothing)
    code, out = run_argv(["sweep", "--n-max", "15", "--limit", "20"])
    assert (code, out) == (EXIT_PARSE, "error: --n-max 15 exceeds oracle limit 14")


# ---------------------------------------------------------------------------
# the sequence from standard input


@pytest.mark.parametrize("stdin_text, argv_text", [
    ("3,2,2,1\n", "3,2,2,1"), ("3 2\n2\t1", "3,2,2,1"), ("1,2,2,3", "1,2,2,3"),
])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_sequence_from_stdin_gives_the_same_bytes(stdin_text, argv_text, json_flag):
    from_stdin = run_cli_process(["bounds", "-", *json_flag], stdin_text=stdin_text)
    from_argv = run_cli_process(["bounds", argv_text, *json_flag])
    assert from_stdin.returncode == from_argv.returncode == EXIT_OK
    assert from_stdin.stdout == from_argv.stdout
    assert from_stdin.stderr == ""


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_empty_stdin_is_a_parse_error(json_flag):
    proc = run_cli_process(["check", "-", *json_flag], stdin_text="")
    assert proc.returncode == EXIT_PARSE
    if json_flag:
        obj = json.loads(proc.stdout)
        jsonschema.validate(obj, SCHEMA)
        assert obj["error"]["message"] == "empty sequence on standard input"
    else:
        assert proc.stdout == "error: empty sequence on standard input\n"
    assert run_cli_process(["check", "-"], stdin_text=" \n\n").returncode == EXIT_PARSE
    assert run_cli_process(["check", "-"], stdin_text="3,x").returncode == EXIT_PARSE


def test_closed_stdin_is_a_parse_error():
    import os

    proc = subprocess.run([sys.executable, "-m", "degseqopt", "check", "-"],
                          capture_output=True, text=True, preexec_fn=lambda: os.close(0))
    assert proc.returncode == EXIT_PARSE
    assert proc.stdout == "error: no standard input to read the sequence from\n"


def test_realize_hh_reads_a_hundred_thousand_vertices_from_stdin():
    # one argument holds at most 128 KiB on Linux; this sequence is larger
    import random

    rng = random.Random(20150716)
    entries = [rng.randint(1, 5) for _ in range(99_999)]
    entries.append(2 - sum(entries) % 2)  # an even sum
    text = ",".join(map(str, entries))
    assert len(text) > 128 * 1024
    proc = run_cli_process(["realize", "hh", "-", "--json"], stdin_text=text)
    assert proc.returncode == EXIT_OK, proc.stdout[-300:]
    assert proc.stdout == run_argv(["realize", "hh", text, "--json"])[1] + "\n"
    obj = json.loads(proc.stdout)
    degrees = [0] * len(entries)
    for u, v in obj["edges"]:
        degrees[u - 1] += 1
        degrees[v - 1] += 1
    assert degrees == obj["sequence"]["sorted"] == sorted(entries, reverse=True)


# ---------------------------------------------------------------------------
# byte-identity on large inputs: SHA-256 of stdout, recorded before the graph
# model moved from per-vertex neighbour sets to one sorted edge list; the
# alpha-max, omega-max and zero-entry cases were recorded before both searches
# moved onto one lay-off peel of the sequence itself


def _random_graphic_text(seed, top):
    import random

    rng = random.Random(seed)
    entries = [rng.randint(1, top) for _ in range(1999)]
    entries.append(2 - sum(entries) % 2)  # an even sum; small entries on 2000 vertices are graphic
    return ",".join(map(str, entries))


def _dense_graphic_text(seed):
    import random

    rng = random.Random(seed)
    entries = [rng.randint(500, 1500) for _ in range(1999)]
    entries.append(1000 + sum(entries) % 2)  # an even sum; these middling entries are graphic
    return ",".join(map(str, entries))


def _prufer_tree_text(seed):
    import random

    rng = random.Random(seed)
    degrees = [1] * 2000
    for _ in range(2000 - 2):
        degrees[rng.randrange(2000)] += 1
    return ",".join(map(str, degrees))


def _bipartite_spec_text(seed):
    import random

    rng = random.Random(seed)
    a = [rng.randint(0, 3) for _ in range(1000)]
    b = [x + rng.randint(0, 3) for x in a]
    ap = [rng.randint(0, 3) for _ in range(1000)]
    bp = [x + rng.randint(0, 3) for x in ap]
    return json.dumps({"a": a, "b": b, "ap": ap, "bp": bp})


_TREE = _prufer_tree_text(20150716)
_LARGE_GOLDENS = [
    ("realize-hh", ["realize", "hh", _random_graphic_text(1, 5)],
     "23c815a7aeaec465735a112a179bc1071a52fecad5c4cc50ea52bf1e894e038b"),
    ("realize-forest", ["realize", "forest", _TREE],
     "673fa6ab8333058a0359e0ad8bcbce154df23e5142c070aa89cd9220f26feca7"),
    ("realize-indep-dom", ["realize", "indep-dom", _TREE, "--k", "447"],
     "c13ea0f0d74d93bc1cc20ddef23a881bd605da9cc3dc5e2f702b088027f02db2"),
    ("gamma-min", ["gamma-min", _random_graphic_text(2, 6), "--witness"],
     "b4da0076b2adc3b5ed6d8d75e23265dad7b99f70391d10540777b9d433ee5a57"),
    ("forest-gamma-min", ["forest", "gamma-min", _TREE, "--witness"],
     "b10836656f170b366f4f09521913f7b68659a83ec5f864604ea3375b811c283b"),
    ("forest-alpha-max", ["forest", "alpha-max", _TREE, "--witness"],
     "91a6f83c918edee62fc6ba4514c75979445c5d1199765091ce599a9290d53873"),
    ("bip-check", ["bip-check", "--spec", _bipartite_spec_text(7)],
     "a0a68b1daa2b50d46cd777051adea07699b6da05878f83ad2d731ec1ca5f6a21"),
    ("alpha-max", ["alpha-max", _random_graphic_text(1, 5)],
     "bff9790d8949daa35322017d9002dd29715499c384f35c441df5003a0c5fb803"),
    ("omega-max", ["omega-max", _random_graphic_text(1, 5)],
     "a6bb12e6e6423a3f88e78b3911b5ec73c3334474366bf8d3bf0dfd0db24e5339"),
    ("alpha-max-dense", ["alpha-max", _dense_graphic_text(3)],
     "91e1fa53a455851fddc8f1a73ade1031f7c5e4695adcedafbf39198742704b7b"),
    ("omega-max-dense", ["omega-max", _dense_graphic_text(3)],
     "1bf9d34a567a2224476a3d5dee6b82fdc3614661db42e29385caed9d4e03a13d"),
    ("forest-alpha-max-zeros", ["forest", "alpha-max", _TREE + ",0,0,0", "--witness"],
     "c494ecd27e2d9c760244ae9aed2764f5d6b37ddaf65d098489762aed07c4e707"),
    ("realize-forest-zeros", ["realize", "forest", _TREE + ",0,0,0"],
     "acbf809c6a0892961b47ac1156d6dc21e789eb0dc628911e11ff534a0055f49b"),
]


@pytest.mark.parametrize("argv, digest", [case[1:] for case in _LARGE_GOLDENS],
                         ids=[case[0] for case in _LARGE_GOLDENS])
def test_large_json_outputs_keep_their_recorded_bytes(argv, digest):
    import hashlib

    code, out = run_argv(argv + ["--json"])
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_oracle_outputs_on_every_small_sequence_keep_their_recorded_bytes(capsys):
    # every graphic sequence with n <= 7, and every positive forest sequence
    # with n <= 10 in the forest class: counts and all six extrema, text and JSON
    import hashlib

    from degseqopt import is_graphic, iter_degree_sequences, normalize
    from degseqopt.oracle import _forest_sequences

    runs = []
    for seq in (s for n in range(1, 8) for s in iter_degree_sequences(n)):
        if is_graphic(normalize(list(seq))):
            text = ",".join(map(str, seq))
            runs += [["oracle", text], ["oracle", text, "--json"]]
    for seq in (s for n in range(1, 11) for s in _forest_sequences(n)):
        text = ",".join(map(str, seq))
        runs += [["oracle", text, "--forest", "--limit", "10"],
                 ["oracle", text, "--forest", "--limit", "10", "--json"]]
    assert len(runs) == 1214
    digest = hashlib.sha256()
    for argv in runs:
        code = main(argv)
        assert code == EXIT_OK, argv
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == (
        "f8f6df4f16f5833b38213c117f73aef7cb9ce9b0021fe7f9a878488daf6564a2")


def test_text_and_json_reports_on_every_small_sequence_keep_their_recorded_bytes(
        tmp_path, monkeypatch):
    # every sequence with n <= 6, graphic or not, under each sequence
    # command but the oracle, plus slater-bound and bip-check: text and JSON
    import hashlib

    from degseqopt import cli, iter_degree_sequences

    commands = [
        ["check"], ["bounds"], ["gamma-min", "--witness"], ["omega-max"], ["alpha-max"],
        ["forest", "gamma-min", "--witness"], ["forest", "alpha-max", "--witness"],
        ["realize", "hh"], ["realize", "forest"],
        ["realize", "indep-tail", "--k", "2"], ["realize", "indep-dom", "--k", "2"],
    ]
    runs = []
    for seq in (s for n in range(1, 7) for s in iter_degree_sequences(n)):
        text = ",".join(map(str, seq))
        runs += [command + [text] for command in commands]
    monkeypatch.chdir(tmp_path)  # graph files by relative name: argv is digested
    for name, graph in [("connected", "4 4\n1 2\n2 3\n3 1\n3 4\n"),
                        ("disconnected", "4 2\n1 2\n3 4\n"), ("self-loop", "2 1\n1 1\n")]:
        Path(name).write_text(graph)
        runs.append(["slater-bound", "--graph", name])
    for spec in ('{"a":[1,1],"b":[1,1],"ap":[1,1],"bp":[1,1]}',
                 '{"a":[2,2],"b":[2,2],"ap":[1,1],"bp":[1,1]}',
                 '{"a":[],"b":[],"ap":[],"bp":[]}'):
        runs.append(["bip-check", "--spec", spec])
    runs = [argv + flag for argv in runs for flag in ([], ["--json"])]
    assert len(runs) == 14026
    parser = cli._build_parser()
    digest = hashlib.sha256()
    for argv in runs:
        code, out = cli.run(parser.parse_args(argv))
        digest.update(f"{argv!r}\n{code}\n{out}\n".encode())
    assert digest.hexdigest() == (
        "efe918d19749c80842e5b2c2eeb360dc8563f46df5377d0c46dd0dd776270b86")
