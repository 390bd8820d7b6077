"""Command-line front end.

Every subcommand takes a degree sequence (comma- or whitespace-separated;
``-`` reads it from standard input, for sequences too long for one
command-line argument) or a graph/spec file, prints a one-line
human-readable report by default, and mirrors it as versioned JSON under
``--json``.  Output is deterministic byte-for-byte for a fixed input and
flag set.  An empty or missing standard input exits 1.

Each subparser binds its handler and the JSON ``command`` name with
``set_defaults``; ``run`` calls the handler on the parsed arguments and
maps its exceptions to exit codes.  The oracle size limit of ``oracle``
and ``sweep`` is ``--limit`` if given, else 8 (general) / 9 (forest), and
never reaches past 14 vertices; a ``--limit`` below 1 or a negative
``--delta-cap`` exits 1 with a message on stderr.
A name repeated in ``sweep --params`` is checked and reported once.

Exit codes: 0 success, 1 parse/usage errors, 2 domain precondition
violations (non-graphic input, infeasible spec, ...), 3 internal errors:
invariant breaches (sweep mismatches, failed witness validation) and any
other exception, reported like the others, never as a traceback.  A
reader that closes stdout early leaves the exit code unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import extremal, oracle
from .bipartite import BipartiteDegreeSpec, build_bounded_bipartite, gale_ryser_feasible
from .errors import (
    Infeasible,
    InvalidSequence,
    NotConnected,
    NotForestSequence,
    NotGraphic,
    PreconditionViolated,
    TooLarge,
)
from .graphs import (
    Graph,
    _edge_list_parts,
    _first_bad_edge,
    _json_graph_parts,
    _one_based_edges,
    witness_to_json_obj,
)
from .oracle import (DEFAULT_ORACLE_LIMITS, GraphClass, _TABLE_MAX, _forest_sequences,
                     iter_degree_sequences, oracle_extrema)
from .realize import (
    forest_realize,
    havel_hakimi_realize,
    independent_dominating_head_forest,
    independent_tail_forest,
)
from .sequences import DegreeSequence, is_forest_sequence, is_graphic, normalize, parse_sequence_text
from .solvers import DEFAULT_SOLVER_LIMIT, _check_limit

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_INTERNAL = 3

_PARSE_ERRORS = (InvalidSequence, ValueError, KeyError, OSError, json.JSONDecodeError)
_PRECONDITION_ERRORS = (
    NotGraphic,
    NotForestSequence,
    PreconditionViolated,
    TooLarge,
    Infeasible,
    NotConnected,
)


class CliParseError(Exception):
    """Raised for malformed command lines and inputs; maps to exit 1."""


def _sequence_obj(d: DegreeSequence) -> dict:
    return {
        "sorted": list(d.entries),
        "input_order": list(d.original_order),
        "canonical": ",".join(str(x) for x in d.entries),
    }


def _chain_obj(chain: extremal.BoundChain) -> dict:
    return {
        "slater": chain.slater,
        "annihilation": chain.annihilation,
        "n0": chain.n0,
        "gamma_forest_low": chain.forest_gamma_low,
        "gamma_forest_high": chain.forest_gamma_high,
    }


def _result_payload(d: DegreeSequence, res: extremal.ExtremalResult, with_witness: bool) -> dict:
    payload = {
        "parameter": res.parameter.value,
        "value": res.value,
        "achieving_k": res.achieving_k,
        "bound_chain": _chain_obj(res.bound_chain),
        "sequence": _sequence_obj(d),
        "witness": None,
    }
    if with_witness and res.witness is not None:
        payload["witness"] = witness_to_json_obj(res.witness)
    return payload


def _edges_text(edges: list[list[int]]) -> str:
    return ",".join(f"{u}-{v}" for u, v in edges) if edges else "-"


def _bool(x: bool) -> str:
    return "true" if x else "false"


def _read_sequence(text: str) -> DegreeSequence:
    """Parse the ``sequence`` argument; ``-`` reads the sequence from stdin."""
    if text == "-":
        if sys.stdin is None:
            raise CliParseError("no standard input to read the sequence from")
        text = sys.stdin.read()
        if not text.strip():
            raise CliParseError("empty sequence on standard input")
    return parse_sequence_text(text)


# --------------------------------------------------------------------------
# handlers: parsed arguments -> (payload, text, exit_code)


def _handle_check(args: argparse.Namespace):
    d = _read_sequence(args.sequence)
    graphic = is_graphic(d)
    forest = is_forest_sequence(d)
    payload = {"graphic": graphic, "forest": forest, "sequence": _sequence_obj(d)}
    return payload, f"graphic={_bool(graphic)} forest={_bool(forest)}", EXIT_OK


def _handle_bounds(args: argparse.Namespace):
    d = _read_sequence(args.sequence)
    chain = extremal.bound_chain(d)
    payload = dict(_chain_obj(chain))
    payload["sequence"] = _sequence_obj(d)
    text = (
        f"slater={chain.slater} annihilation={chain.annihilation} n0={chain.n0} "
        f"gamma_forest_low={chain.forest_gamma_low} gamma_forest_high={chain.forest_gamma_high}"
    )
    return payload, text, EXIT_OK


def _extremal_handler(func):
    def handle(args: argparse.Namespace):
        d = _read_sequence(args.sequence)
        res = func(d, delta_cap=args.delta_cap) if "delta_cap" in args else func(d)
        payload = _result_payload(d, res, getattr(args, "witness", False))
        text = f"{res.parameter.value}={res.value}"
        if res.achieving_k is not None:
            text += f" k={res.achieving_k}"
        if payload["witness"] is not None:
            text += f" witness_edges={_edges_text(payload['witness']['edges'])}"
        return payload, text, EXIT_OK

    return handle


def _handle_realize(args: argparse.Namespace):
    d = _read_sequence(args.sequence)
    variant = args.realize_command
    if variant in ("indep-tail", "indep-dom"):
        builder = (
            independent_tail_forest if variant == "indep-tail"
            else independent_dominating_head_forest
        )
        witness = builder(d, args.k)
        payload = {"variant": variant, "witness": witness_to_json_obj(witness)}
        text = (
            f"n={d.n} k={args.k} edges={_edges_text(payload['witness']['edges'])} "
            f"claims={','.join(payload['witness']['claims'])}"
        )
        return payload, text, EXIT_OK
    graph = havel_hakimi_realize(d) if variant == "hh" else forest_realize(d)
    edges = _one_based_edges(graph)
    payload = {
        "variant": variant,
        "n": graph.n,
        "edges": edges,
        "sequence": _sequence_obj(d),
    }
    return payload, f"n={graph.n} edges={_edges_text(edges)}", EXIT_OK


def _handle_oracle(args: argparse.Namespace):
    d = _read_sequence(args.sequence)
    graph_class = GraphClass.FOREST if args.forest else GraphClass.GENERAL
    rep = oracle_extrema(d, graph_class, limit=args.limit)
    payload = {
        "graph_class": graph_class.value,
        "count": rep.realization_count,
        "gamma_min": rep.gamma_min,
        "gamma_max": rep.gamma_max,
        "alpha_min": rep.alpha_min,
        "alpha_max": rep.alpha_max,
        "omega_min": rep.omega_min,
        "omega_max": rep.omega_max,
        "sequence": _sequence_obj(d),
    }
    text = (
        f"count={rep.realization_count} "
        f"gamma_min={rep.gamma_min} gamma_max={rep.gamma_max} "
        f"alpha_min={rep.alpha_min} alpha_max={rep.alpha_max} "
        f"omega_min={rep.omega_min} omega_max={rep.omega_max}"
    )
    return payload, text, EXIT_OK


def _load_graph(path: str) -> Graph:
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        n, edges = _json_graph_parts(json.loads(text))
    else:
        n, edges = _edge_list_parts(text)
    # refuse before allocating: a graph costs memory in its declared n
    _check_limit(n, DEFAULT_SOLVER_LIMIT)
    try:
        return Graph(n, edges)
    except ValueError:
        if n < 0:
            raise
        raise _first_bad_edge(n, edges, base=1) from None  # as the file numbers it


def _handle_slater_bound(args: argparse.Namespace):
    g = _load_graph(args.graph)
    rep = extremal.check_slater_bound(g)
    payload = {
        "holds": rep.holds,
        "gamma": rep.gamma,
        "slater": rep.slater,
        "cycle_excess": rep.cycle_excess,
        "bound": rep.bound,
        "n": g.n,
        "m": g.m,
    }
    text = (
        f"holds={_bool(rep.holds)} gamma={rep.gamma} slater={rep.slater} "
        f"cycle_excess={rep.cycle_excess} bound={rep.bound}"
    )
    code = EXIT_OK if rep.holds else EXIT_INTERNAL
    return payload, text, code


def _handle_bip_check(args: argparse.Namespace):
    raw = args.spec
    if not raw.lstrip().startswith(("{", "[")):
        raw = Path(raw).read_text(encoding="utf-8")
    obj = json.loads(raw)
    bounds = [obj.get(key) if isinstance(obj, dict) else None for key in ("a", "b", "ap", "bp")]
    if not all(isinstance(b, list) and all(type(x) is int for x in b) for b in bounds):
        raise CliParseError(
            'spec must be a JSON object {"a":[..],"b":[..],"ap":[..],"bp":[..]} of integer lists'
        )
    spec = BipartiteDegreeSpec.create(*bounds)
    feasible = gale_ryser_feasible(spec)
    edges = None
    if feasible:
        g = build_bounded_bipartite(spec)
        edges = sorted(
            [spec.left_order[u] + 1, spec.right_order[v - spec.m] + 1] for u, v in g.edges()
        )
    payload = {"feasible": feasible, "edges": edges}
    text = f"feasible={_bool(feasible)}"
    if edges is not None:
        text += f" edges={_edges_text(edges)}"
    return payload, text, EXIT_OK


_SWEEP_CHECKS = {
    GraphClass.GENERAL: {
        "gamma_min": lambda d, rep: extremal.gamma_min_bounded(d).value == rep.gamma_min,
        "alpha_max": lambda d, rep: extremal.alpha_max(d).value == rep.alpha_max,
        "omega_max": lambda d, rep: extremal.omega_max(d).value == rep.omega_max,
    },
    GraphClass.FOREST: {
        "gamma_min_forest": lambda d, rep: extremal.gamma_min_forest(d).value == rep.gamma_min,
        "alpha_max_forest": lambda d, rep: extremal.alpha_max_forest(d).value == rep.alpha_max,
    },
}


def _handle_sweep(args: argparse.Namespace):
    n_max = args.n_max
    forest = args.forest
    graph_class = GraphClass.FOREST if forest else GraphClass.GENERAL
    limit = DEFAULT_ORACLE_LIMITS[graph_class] if args.limit is None else args.limit
    limit = min(limit, _TABLE_MAX)
    if n_max > limit:
        raise CliParseError(f"--n-max {n_max} exceeds oracle limit {limit}")
    first = 2 if forest else 1  # smallest order with a sequence of the class
    if n_max < first:
        raise CliParseError(f"--n-max {n_max} is below {first}: no {graph_class.value} "
                            "sequence would be checked")
    checks = _SWEEP_CHECKS[graph_class]
    named = dict.fromkeys(p.strip() for p in (args.params or "").split(","))
    params = [p for p in named if p] or sorted(checks)
    unknown = [p for p in params if p not in checks]
    if unknown:
        raise CliParseError(f"unknown parameters for {graph_class.value} sweep: {unknown}")

    checked = {p: 0 for p in params}
    mismatches = {p: [] for p in params}
    for n in range(first, n_max + 1):
        for seq in _forest_sequences(n) if forest else iter_degree_sequences(n):
            d = normalize(list(seq))
            if not (forest or is_graphic(d)):
                continue
            rep = oracle_extrema(d, graph_class, limit=limit)
            for p in params:
                checked[p] += 1
                if not checks[p](d, rep):
                    mismatches[p].append(list(seq))
    ok = all(not m for m in mismatches.values())
    payload = {
        "graph_class": graph_class.value,
        "n_max": n_max,
        "results": [
            {"parameter": p, "checked": checked[p], "mismatches": mismatches[p]}
            for p in params
        ],
        "ok": ok,
    }
    lines = [
        f"param={p} checked={checked[p]} mismatches={len(mismatches[p])}" for p in params
    ]
    for p in params:
        for seq in mismatches[p]:
            lines.append(f"MISMATCH {p} {','.join(str(x) for x in seq)}")
    lines.append(f"ok={_bool(ok)}")
    return payload, "\n".join(lines), EXIT_OK if ok else EXIT_INTERNAL


def run(args: argparse.Namespace) -> tuple[int, str]:
    """Run the handler the parser bound; returns (exit code, emitted report)."""

    def emit(obj: dict, text: str) -> str:
        if args.json:
            envelope = {"schema_version": SCHEMA_VERSION, "command": args.command}
            envelope.update(obj)
            return json.dumps(envelope, sort_keys=True)
        return text

    try:
        payload, text, code = args.handler(args)
    except CliParseError as exc:
        return EXIT_PARSE, emit(_error_obj(exc), f"error: {exc}")
    except _PRECONDITION_ERRORS as exc:
        return EXIT_PRECONDITION, emit(_error_obj(exc), f"error: {exc}")
    except _PARSE_ERRORS as exc:
        return EXIT_PARSE, emit(_error_obj(exc), f"error: {exc}")
    except Exception as exc:  # a bug, whatever its type: report it, never crash
        return EXIT_INTERNAL, emit(_error_obj(exc), f"internal error: {exc}")
    return code, emit(payload, text)


def _error_obj(exc: BaseException) -> dict:
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


# --------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are parse errors: exit 1
        raise CliParseError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="degseqopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p, command, handler):  # last call on every leaf subparser
        p.add_argument("--json", action="store_true", help="emit structured JSON")
        p.set_defaults(command=command, handler=handler)

    def add_seq(p):
        p.add_argument("sequence",
                       help="degree sequence, e.g. 3,2,2,1 or '3 2 2 1'; - reads it from stdin")

    p = sub.add_parser("check", help="graphicality and forest realizability")
    add_seq(p), add_json(p, "check", _handle_check)

    p = sub.add_parser("bounds", help="Slater number, annihilation number, and the forest bracket")
    add_seq(p), add_json(p, "bounds", _handle_bounds)

    for name, func, helptext in (
        ("omega-max", extremal.omega_max, "largest clique number over realizations"),
        ("alpha-max", extremal.alpha_max, "largest independence number over realizations"),
    ):
        p = sub.add_parser(name, help=helptext)
        add_seq(p), add_json(p, name, _extremal_handler(func))

    p = sub.add_parser("gamma-min", help="smallest domination number over realizations")
    add_seq(p)
    p.add_argument("--delta-cap", type=int, default=None, metavar="D",
                   help="reject sequences with maximum entry above D")
    p.add_argument("--witness", action="store_true", help="attach a witness realization")
    add_json(p, "gamma-min", _extremal_handler(extremal.gamma_min_bounded))

    p = sub.add_parser("forest", help="forest-restricted extremal parameters")
    fsub = p.add_subparsers(dest="forest_command", required=True)
    for name, func, helptext in (
        ("gamma-min", extremal.gamma_min_forest,
         "smallest domination number over forest realizations"),
        ("alpha-max", extremal.alpha_max_forest,
         "largest independence number over forest realizations"),
    ):
        fp = fsub.add_parser(name, help=helptext)
        add_seq(fp)
        fp.add_argument("--witness", action="store_true")
        add_json(fp, f"forest {name}", _extremal_handler(func))

    p = sub.add_parser("realize", help="construct a concrete realization")
    rsub = p.add_subparsers(dest="realize_command", required=True)
    for name, helptext in (
        ("hh", "Havel-Hakimi realization of a graphic sequence"),
        ("forest", "some forest realization"),
        ("indep-tail", "forest with independent tail below split --k"),
        ("indep-dom", "forest whose head of size --k is independent dominating"),
    ):
        rp = rsub.add_parser(name, help=helptext)
        add_seq(rp)
        if name in ("indep-tail", "indep-dom"):
            rp.add_argument("--k", type=int, required=True, help="split index")
        add_json(rp, "realize", _handle_realize)

    p = sub.add_parser("oracle", help="exhaustive extrema over all realizations")
    add_seq(p)
    p.add_argument("--forest", action="store_true", help="restrict to forest realizations")
    p.add_argument("--limit", type=int, default=None, help="oracle size limit")
    add_json(p, "oracle", _handle_oracle)

    p = sub.add_parser("slater-bound",
                       help="check gamma <= 3*slater + 2*(cycle excess) - 2 on a connected graph")
    p.add_argument("--graph", required=True, metavar="FILE",
                   help="edge-list file ('n m' header) or JSON {\"n\":..,\"edges\":[[i,j],..]}")
    add_json(p, "slater-bound", _handle_slater_bound)

    p = sub.add_parser("bip-check", help="bounded-degree bipartite feasibility (debug)")
    p.add_argument("--spec", required=True,
                   help='JSON {"a":[..],"b":[..],"ap":[..],"bp":[..]} inline or a file path')
    add_json(p, "bip-check", _handle_bip_check)

    p = sub.add_parser("sweep", help="compare formulas against the oracle over all sequences")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--forest", action="store_true")
    p.add_argument("--params", default=None,
                   help="comma-separated parameter names (default: all for the class)")
    p.add_argument("--limit", type=int, default=None, help="oracle size limit")
    add_json(p, "sweep", _handle_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "limit", None) is not None and args.limit < 1:
            raise CliParseError(f"argument --limit: must be at least 1, got {args.limit}")
        if getattr(args, "delta_cap", None) is not None and args.delta_cap < 0:
            raise CliParseError(
                f"argument --delta-cap: must be at least 0, got {args.delta_cap}"
            )
    except CliParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    code, report = run(args)
    try:
        print(report, flush=True)
    except BrokenPipeError:
        # the reader left early (e.g. ``| head``): keep the command's code,
        # and give the interpreter's final flush somewhere harmless to go
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
