"""Running one query in-process or through the CLI, and judging the answer.

Library calls go through module attributes looked up at call time (for
example ``mods.extremal.gamma_min_bounded``), so the tracer can wrap them.
Both paths reduce an answer to the same plain data, which ``verify``
compares with the recorded reference and the checks in checker.py.
"""

from __future__ import annotations

import checker

# kinds whose value is recorded from the seed commit in reference.json; the
# others are checked only against the reference computations in checker.py
RECORDED_KINDS = {"gamma-min", "omega-max", "alpha-max", "forest gamma-min",
                  "oracle", "oracle --forest", "slater-bound"}


def call(mods, q):
    """The library call a CLI user's query maps to; returns raw results."""
    kind = q.kind
    if kind == "slater-bound":
        n, edges = q.graph
        return mods.extremal.check_slater_bound(mods.graphs.Graph(n, edges))
    d = mods.sequences.normalize(q.seq)
    if kind == "check":
        return mods.sequences.is_graphic(d), mods.sequences.is_forest_sequence(d)
    if kind == "bounds":
        return mods.extremal.bound_chain(d)
    if kind == "gamma-min":
        return mods.extremal.gamma_min_bounded(d)
    if kind == "omega-max":
        return mods.extremal.omega_max(d)
    if kind == "alpha-max":
        return mods.extremal.alpha_max(d)
    if kind == "forest gamma-min":
        return mods.extremal.gamma_min_forest(d)
    if kind == "forest alpha-max":
        return mods.extremal.alpha_max_forest(d)
    if kind == "realize hh":
        return mods.realize.havel_hakimi_realize(d)
    if kind == "realize forest":
        return mods.realize.forest_realize(d)
    if kind == "oracle":
        rep = mods.oracle.oracle_extrema(d, mods.oracle.GraphClass.GENERAL)
        # the formulas the sweep subcommand checks against the oracle
        formulas = (mods.extremal.gamma_min_bounded(d).value,
                    mods.extremal.alpha_max(d).value, mods.extremal.omega_max(d).value)
        return rep, formulas
    if kind == "oracle --forest":
        rep = mods.oracle.oracle_extrema(d, mods.oracle.GraphClass.FOREST)
        formulas = (mods.extremal.gamma_min_forest(d).value,
                    mods.extremal.alpha_max_forest(d).value)
        return rep, formulas
    raise ValueError(f"unknown query kind {kind!r}")


def _witness(w):
    if w is None:
        return None
    return {"sequence": list(w.sequence.entries), "k": w.split_k,
            "claims": sorted(c.value for c in w.claims), "edges": w.graph.edges()}


def _oracle_values(rep):
    return [rep.realization_count, rep.gamma_min, rep.gamma_max, rep.alpha_min,
            rep.alpha_max, rep.omega_min, rep.omega_max]


def extract(kind, raw) -> dict:
    """Plain data from an in-process result."""
    if kind == "check":
        return {"graphic": raw[0], "forest": raw[1]}
    if kind == "bounds":
        return {"chain": [raw.slater, raw.annihilation, raw.n0,
                          raw.forest_gamma_low, raw.forest_gamma_high]}
    if kind in ("realize hh", "realize forest"):
        return {"n": raw.n, "edges": raw.edges()}
    if kind == "slater-bound":
        return {"holds": raw.holds, "gamma": raw.gamma, "slater": raw.slater,
                "cycle_excess": raw.cycle_excess, "bound": raw.bound}
    if kind.startswith("oracle"):
        return {"oracle": _oracle_values(raw[0]), "formulas": list(raw[1])}
    return {"value": raw.value, "k": raw.achieving_k, "witness": _witness(raw.witness)}


def extract_cli(kind, obj) -> dict:
    """Plain data from a ``--json`` CLI report."""
    if "error" in obj:
        return {"raises": obj["error"]["type"]}
    if kind == "check":
        return {"graphic": obj["graphic"], "forest": obj["forest"]}
    if kind == "bounds":
        return {"chain": [obj[f] for f in ("slater", "annihilation", "n0",
                                           "gamma_forest_low", "gamma_forest_high")]}
    if kind in ("realize hh", "realize forest"):
        return {"n": obj["n"], "edges": [(u - 1, v - 1) for u, v in obj["edges"]]}
    if kind == "slater-bound":
        return {f: obj[f] for f in ("holds", "gamma", "slater", "cycle_excess", "bound")}
    if kind.startswith("oracle"):
        return {"oracle": [obj[f] for f in ("count", "gamma_min", "gamma_max", "alpha_min",
                                            "alpha_max", "omega_min", "omega_max")]}
    w = obj["witness"]
    if w is not None:
        w = dict(w, edges=[(u - 1, v - 1) for u, v in w["edges"]])
    return {"value": obj["value"], "k": obj["achieving_k"], "witness": w}


def recorded_value(kind, data):
    """The part of an answer that ``reference.json`` stores."""
    if kind == "slater-bound":
        return data["gamma"]
    if kind.startswith("oracle"):
        return data["oracle"]
    return data["value"]


def _expected_error(q):
    if q.kind == "realize hh" and not checker.erdos_gallai(q.seq):
        return "NotGraphic"
    return None


def verify(q, data, reference) -> list[str]:
    """Every problem with ``data`` as the answer to ``q``; empty when right."""
    expected_error = _expected_error(q)
    if "raises" in data or expected_error:
        got = data.get("raises")
        if got == expected_error:
            return []
        return [f"raised {got}" if expected_error is None
                else f"answered instead of raising {expected_error}" if got is None
                else f"raised {got} instead of {expected_error}"]
    problems = []
    if q.kind in RECORDED_KINDS:
        ref = reference.get(q.key())
        if ref is None:
            return ["no recorded reference"]
        if recorded_value(q.kind, data) != ref:
            problems.append(f"value {recorded_value(q.kind, data)} != reference {ref}")
    seq = list(q.seq)
    desc = checker.sorted_desc(seq)
    kind = q.kind
    if kind == "check":
        if (data["graphic"], data["forest"]) != (checker.erdos_gallai(seq),
                                                 checker.is_forest_sequence(seq)):
            problems.append("graphic/forest flags wrong")
    elif kind == "bounds":
        if list(data["chain"]) != list(checker.bound_chain(seq)):
            problems.append(f"bound chain {data['chain']} != {checker.bound_chain(seq)}")
    elif kind in ("realize hh", "realize forest"):
        claims = ["is_forest"] if kind == "realize forest" else []
        problems += checker.witness_problems(data["n"], data["edges"], desc, 0, claims)
    elif kind == "slater-bound":
        n, edges = q.graph
        deg = [0] * n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        sl = checker.slater(deg)
        excess = len(edges) - (n - 1)
        want = {"holds": True, "slater": sl, "cycle_excess": excess,
                "bound": 3 * sl + 2 * excess - 2}
        if any(data[f] != v for f, v in want.items()) or data["gamma"] > want["bound"]:
            problems.append(f"slater-bound report {data} disagrees with {want}")
    elif kind == "oracle":
        ref = data["oracle"]
        if "formulas" in data and data["formulas"] != [ref[1], ref[4], ref[6]]:
            problems.append(f"formulas {data['formulas']} disagree with the oracle")
    elif kind == "oracle --forest":
        ref = data["oracle"]
        if ref[4] != checker.annihilation(seq):
            problems.append("forest oracle alpha_max != annihilation")
        if "formulas" in data and data["formulas"] != [ref[1], ref[4]]:
            problems.append(f"formulas {data['formulas']} disagree with the oracle")
    else:
        problems += _verify_extremal(kind, data, seq, desc)
    return problems


def _verify_extremal(kind, data, seq, desc) -> list[str]:
    value = data["value"]
    sl, a, n0, low, high = checker.bound_chain(seq)
    problems = []
    if kind == "forest alpha-max" and value != a:
        problems.append(f"alpha_max_forest {value} != annihilation {a}")
    if kind == "forest gamma-min" and not low <= value <= high:
        problems.append(f"gamma_min_forest {value} outside [{low}, {high}]")
    if kind == "gamma-min" and value < sl:
        problems.append(f"gamma_min {value} below slater {sl}")
    if kind in ("omega-max", "alpha-max"):
        return problems
    w = data["witness"]
    if w is None:
        return problems + ["no witness"]
    if kind == "forest alpha-max":
        need = {"is_forest", "tail_independent"}
        if w["sequence"] != desc or len(desc) - w["k"] != value:
            problems.append("witness does not realize the sequence at the value")
    else:
        need = {"head_dominating"} | ({"is_forest"} if kind.startswith("forest") else set())
        positive = [x for x in desc if x > 0]
        if w["sequence"] != positive or w["k"] + n0 != value:
            problems.append("witness does not realize the positive part at the value")
    if not need <= set(w["claims"]):
        problems.append(f"witness claims {w['claims']} lack {sorted(need)}")
    problems += checker.witness_problems(len(w["sequence"]), w["edges"], w["sequence"],
                                         w["k"], w["claims"])
    return problems
