"""Spans around the calls between degseqopt's modules, and the per-layer
metrics derived from them.

Each traced function is wrapped at every module attribute through which
another layer (or the benchmark) reaches it, e.g. ``extremal.gale_ryser_feasible``
and ``oracle.domination_number``; classes are wrapped on the class.  A span
is (name, start, end, parent, query id, raised); spans live in flat arrays
while the run lasts and are written out once at the end.
"""

from __future__ import annotations

import array
import gzip
import importlib
import time

import checker

MODULES = ("sequences", "bipartite", "realize", "graphs", "solvers", "oracle",
           "extremal", "cli")
IMPORTED = ("__init__", "errors", "sequences", "graphs", "bipartite", "realize",
            "solvers", "oracle", "extremal", "cli")

# span name -> modules whose attribute of that name is wrapped
FUNCTIONS = {
    "sequences.is_graphic": ("sequences", "extremal", "realize", "oracle", "cli"),
    "sequences._graphic_erdos_gallai": ("extremal", "oracle"),
    "sequences.normalize": ("sequences", "extremal", "graphs", "cli"),
    "bipartite.gale_ryser_feasible": ("extremal", "cli"),
    "bipartite.build_bounded_bipartite": ("extremal", "realize", "cli"),
    "realize._independent_tail_edges": ("realize", "extremal"),
    "realize.independent_dominating_head_forest": ("realize", "extremal", "cli"),
    "realize.forest_realize": ("realize", "cli"),
    "realize._hh_edges": ("realize", "extremal"),
    "solvers.domination_number": ("solvers", "oracle", "extremal"),
    "solvers.independence_number": ("solvers", "oracle"),
    "solvers.clique_number": ("solvers", "oracle"),
    "oracle.enumerate_realizations": ("oracle",),
    "extremal.gamma_min_bounded": ("extremal",),
    "extremal.alpha_max": ("extremal",),
    "extremal.omega_max": ("extremal",),
    "extremal.gamma_min_forest": ("extremal",),
    "extremal.alpha_max_forest": ("extremal",),
    "extremal.check_slater_bound": ("extremal",),
}
CLASSMETHODS = ("bipartite.BipartiteDegreeSpec.create", "graphs.RealizationWitness.checked")

_SPAN_METRICS = [
    ("sequences.is_graphic", ("calls", "busy_s")),
    ("sequences._graphic_erdos_gallai", ("calls", "busy_s", "true_ratio")),
    ("sequences.normalize", ("busy_s",)),
    ("bipartite.gale_ryser_feasible", ("calls", "busy_s", "true_ratio")),
    ("bipartite.build_bounded_bipartite", ("calls", "busy_s")),
    ("bipartite.BipartiteDegreeSpec.create", ("calls", "busy_s")),
    ("realize._independent_tail_edges", ("calls", "busy_s", "errors")),
    ("realize.independent_dominating_head_forest", ("calls", "self_s")),
    ("realize.forest_realize", ("busy_s", "errors")),
    ("realize._hh_edges", ("busy_s",)),
    ("graphs.Graph", ("calls", "busy_s")),
    ("graphs.RealizationWitness.checked", ("calls", "busy_s")),
    ("solvers.domination_number", ("calls", "busy_s")),
    ("solvers.independence_number", ("busy_s",)),
    ("solvers.clique_number", ("busy_s",)),
    ("oracle.enumerate_realizations", ("calls", "busy_s", "self_s")),
    ("extremal.gamma_min_bounded", ("calls", "busy_s", "self_s")),
    ("extremal.alpha_max", ("busy_s",)),
    ("extremal.omega_max", ("busy_s",)),
    ("extremal.gamma_min_forest", ("busy_s",)),
    ("extremal.alpha_max_forest", ("busy_s",)),
    ("extremal.check_slater_bound", ("busy_s",)),
    ("cli.main", ("busy_s", "self_s")),
]
_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "errors": "count",
          "true_ratio": "ratio"}
# counters recorded by hooks at the span boundaries, or by the runner
COUNTERS = {
    "bipartite.build_bounded_bipartite.unit_arcs": "count",
    "graphs.Graph.edges_total": "count",
    "solvers.bnb_calls": "count",
    "oracle.realizations": "count",
    "extremal.gamma_min_bounded.splits_tried": "count",
    "extremal.gamma_min_bounded.warnings": "count",
    "extremal.graphic_cache.hit_ratio": "ratio",
    "trace.overhead_qps": "1/s",
}

PER_LAYER = {f"{name}.{stat}": _UNITS[stat] for name, stats in _SPAN_METRICS for stat in stats}
PER_LAYER.update(COUNTERS)
PER_LAYER.update({f"import.degseqopt.{m}.self_ms": "ms" for m in IMPORTED})

_SOLVER_TABLE_MAX = 14  # larger components go to branch and bound


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array.array("i")
        self.parent = array.array("i")
        self.qid = array.array("i")
        self.error = array.array("b")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack: list[int] = []
        self.query = -1
        self.counters = {name: 0 for name in COUNTERS}
        self.true_counts: dict[str, int] = {}
        self.origin = time.perf_counter()

    def wrap(self, name, fn, hook=None):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        tr = self

        def traced(*args, **kwargs):
            idx = len(tr.start)
            tr.name_of.append(name_id)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.qid.append(tr.query)
            tr.error.append(0)
            tr.end.append(0.0)
            tr.stack.append(idx)
            tr.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tr.error[idx] = 1
                raise
            finally:
                tr.end[idx] = time.perf_counter()
                tr.stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # -- hooks ----------------------------------------------------------
    def _count_true(self, name):
        self.true_counts[name] = 0

        def hook(args, result):
            self.true_counts[name] += bool(result)
        return hook

    def _bnb(self, args, result):
        g = args[0]
        if g.n > _SOLVER_TABLE_MAX and max(map(len, g.connected_components())) > _SOLVER_TABLE_MAX:
            self.counters["solvers.bnb_calls"] += 1

    def _unit_arcs(self, args, result):
        spec = args[0]
        self.counters["bipartite.build_bounded_bipartite.unit_arcs"] += spec.m * spec.n

    def _realizations(self, args, result):
        self.counters["oracle.realizations"] += result

    def _splits(self, args, result):
        positive = [x for x in args[0].entries if x > 0]
        if positive and result.achieving_k is not None:
            self.counters["extremal.gamma_min_bounded.splits_tried"] += (
                result.achieving_k - checker.slater(positive) + 1)

    _HOOKS = {
        "sequences._graphic_erdos_gallai": "true",
        "bipartite.gale_ryser_feasible": "true",
        "bipartite.build_bounded_bipartite": "_unit_arcs",
        "solvers.domination_number": "_bnb",
        "solvers.independence_number": "_bnb",
        "oracle.enumerate_realizations": "_realizations",
        "extremal.gamma_min_bounded": "_splits",
    }

    def _hook(self, name):
        how = self._HOOKS.get(name)
        if how is None:
            return None
        return self._count_true(name) if how == "true" else getattr(self, how)

    # -- installation -----------------------------------------------------
    def install(self, mods):
        """Wrap every traced function; names a later version lacks are skipped."""
        for_cli = []
        for name, holders in FUNCTIONS.items():
            home, attr = name.split(".", 1)
            original = getattr(getattr(mods, home), attr, None)
            if original is None:
                continue
            wrapped = self.wrap(name, original, self._hook(name))
            for holder in holders:
                module = getattr(mods, holder)
                if holder != "cli" and getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)
            if "cli" in holders:
                for_cli.append((attr, original, wrapped))
        for name in CLASSMETHODS:
            home, cls_name, attr = name.split(".")
            cls = getattr(getattr(mods, home), cls_name, None)
            method = cls.__dict__.get(attr) if cls is not None else None
            if isinstance(method, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, method.__func__)))
        self._wrap_graph_init(mods.graphs.Graph)
        # cli binds its handlers to extremal's functions when it is executed:
        # execute it again so they bind to the wrappers, then wrap the names
        # it imported from modules whose own attribute stays unwrapped
        mods.cli = importlib.reload(mods.cli)
        for attr, original, wrapped in for_cli:
            if getattr(mods.cli, attr, None) is original:
                setattr(mods.cli, attr, wrapped)
        mods.cli.main = self.wrap("cli.main", mods.cli.main)

    def _wrap_graph_init(self, graph_cls):
        original = graph_cls.__init__
        counters = self.counters

        def init(g, n, edges=()):
            edges = list(edges)
            counters["graphs.Graph.edges_total"] += len(edges)
            original(g, n, edges)

        graph_cls.__init__ = self.wrap("graphs.Graph", init)

    # -- results ----------------------------------------------------------
    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("name\tstart_s\tend_s\tparent\tquery\traised\n")
            for i in range(len(self.start)):
                out.write(f"{self.names[self.name_of[i]]}\t{self.start[i] - self.origin:.9f}\t"
                          f"{self.end[i] - self.origin:.9f}\t{self.parent[i]}\t"
                          f"{self.qid[i]}\t{self.error[i]}\n")

    def span_stats(self) -> dict[str, float]:
        names = [self.names[i] for i in self.name_of]
        selfs = self_times(names, self.parent, self.start, self.end)
        stats: dict[str, float] = {}
        for i, name in enumerate(names):
            stats[f"{name}.calls"] = stats.get(f"{name}.calls", 0) + 1
            stats[f"{name}.busy_s"] = stats.get(f"{name}.busy_s", 0.0) + self.end[i] - self.start[i]
            stats[f"{name}.self_s"] = stats.get(f"{name}.self_s", 0.0) + selfs[i]
            stats[f"{name}.errors"] = stats.get(f"{name}.errors", 0) + self.error[i]
        for name, trues in self.true_counts.items():
            calls = stats.get(f"{name}.calls", 0)
            stats[f"{name}.true_ratio"] = trues / calls if calls else 0.0
        return stats


def self_times(names, parent, start, end) -> list[float]:
    """Each span's duration minus the time its child spans in other layers took.

    A child in the same layer passes on the other-layer time below it, so
    nested calls within one layer all count toward that layer's self time.
    Parents are always recorded before their children.
    """
    layer = [name.split(".", 1)[0] for name in names]
    covered = [0.0] * len(names)
    for c in range(len(names) - 1, -1, -1):
        p = parent[c]
        if p >= 0:
            covered[p] += end[c] - start[c] if layer[c] != layer[p] else covered[c]
    return [end[i] - start[i] - covered[i] for i in range(len(names))]


def parse_importtime(stderr: str) -> dict[str, float]:
    """Self import time in ms per degseqopt module from ``-X importtime``."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = [f.strip() for f in line[len("import time:"):].split("|")]
        name = fields[2]
        if name == "degseqopt":
            name = "degseqopt.__init__"
        if name.startswith("degseqopt.") and fields[0].isdigit():
            out[name.split(".", 1)[1]] = int(fields[0]) / 1000.0
    return out
