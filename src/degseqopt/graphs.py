"""Labeled simple-graph model and re-checkable witnesses.

Vertices are 0-based internally (``u_1`` in reports corresponds to vertex 0).
Graphs are immutable after construction.  A graph is its vertex count, its
edge list and its degrees: each edge is stored once as (u, v) with u < v,
and the list is sorted, so memory grows with the edge count.  Construction
orients and sorts the edges, then checks them in a few C-level passes (the
range, u < v for a self-loop, and equal neighbours after the sort for a
repeated edge); only on failure are the input edges rescanned, so the
error names the first bad one.  The exact solvers derive their own
bitmasks from the edge list.

The head is the vertex range 0..k-1, so the edges with an end in the head
are the sorted prefix that ``bisect_left(edges, (k,))`` cuts off.  Witness
claims read that prefix: the head is independent when every prefix edge
ends at k or later, the tail when the prefix is the whole list; the head
dominates when the far ends of the prefix cover k..n-1, and the tail when
the head ends of prefix edges that reach the tail cover 0..k-1.  One
union-find pass over the edges, made on first use and kept, answers
``is_forest``, ``is_connected`` and ``connected_components``.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import compress, islice
from operator import eq, itemgetter, lt
from typing import Iterable

from .errors import InvalidWitness
from .sequences import DegreeSequence, normalize

__all__ = [
    "Graph",
    "WitnessClaim",
    "RealizationWitness",
    "WitnessReport",
    "degree_sequence",
    "validate_witness",
    "witness_to_json_obj",
]

_first = itemgetter(0)
_second = itemgetter(1)


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``edges()`` lists each edge once as (u, v) with u < v, sorted, and
    ``degrees[v]`` is the degree of ``v``.
    """

    __slots__ = ("n", "_edges", "degrees", "_parent")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        edges = list(edges)
        ordered = sorted([(u, v) if u < v else (v, u) for u, v in edges])
        if ordered:
            heads = list(map(_first, ordered))
            ends = list(map(_second, ordered))
            # a self-loop keeps u == v; a repeated edge sits next to its copy
            if (
                heads[0] < 0
                or max(ends) >= n
                or not all(map(lt, heads, ends))
                or any(map(eq, ordered, islice(ordered, 1, None)))
            ):
                raise _first_bad_edge(n, edges)
        degrees = [0] * n
        for u, v in ordered:
            degrees[u] += 1
            degrees[v] += 1
        self.n = n
        self._edges = ordered
        self.degrees = tuple(degrees)
        self._parent: list[int] | None = None  # union-find, filled on first use

    def degree(self, v: int) -> int:
        return self.degrees[v]

    @property
    def m(self) -> int:
        return len(self._edges)

    def edges(self) -> list[tuple[int, int]]:
        """Edge list with u < v, sorted lexicographically (a copy)."""
        return list(self._edges)

    def _parents(self) -> list[int]:
        """Union-find parents after one pass over the edges, with path halving.

        Each union hangs the larger root under the smaller, so every parent
        is at most its child and each component's root is its least vertex.
        The pass runs once: later calls get the same list (callers only shorten paths).
        """
        parent = self._parent
        if parent is None:
            self._parent = parent = list(range(self.n))
            for u, v in self._edges:
                while u != parent[u]:
                    parent[u] = u = parent[parent[u]]
                while v != parent[v]:
                    parent[v] = v = parent[parent[v]]
                if u < v:
                    parent[v] = u
                elif v < u:
                    parent[u] = v
        return parent

    def connected_components(self) -> list[list[int]]:
        """Components as sorted vertex lists, ordered by smallest vertex."""
        parent = self._parents()
        components: dict[int, list[int]] = {}
        for v in range(self.n):
            # parents below v already point at their roots
            parent[v] = root = parent[parent[v]]
            components.setdefault(root, []).append(v)
        return list(components.values())

    def _component_count(self) -> int:
        return sum(map(eq, self._parents(), range(self.n)))

    def is_connected(self) -> bool:
        return self._component_count() <= 1

    def is_forest(self) -> bool:
        return self.m == self.n - self._component_count()

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self._edges})"


def _first_bad_edge(n: int, edges: list[tuple[int, int]], base: int = 0) -> ValueError:
    """The error for the first edge that is out of range, a loop or a repeat.

    The message numbers vertices from ``base``: 0 as the graph does, 1 as
    the graph files do.
    """
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return ValueError(f"edge ({u + base}, {v + base}) out of range for n={n}")
        if u == v:
            return ValueError(f"self-loop at vertex {u + base}")
        if (min(u, v), max(u, v)) in seen:
            return ValueError(f"duplicate edge ({u + base}, {v + base})")
        seen.add((min(u, v), max(u, v)))
    raise AssertionError("no bad edge in an edge list that was rejected")


def degree_sequence(g: Graph) -> DegreeSequence:
    """Sorted degree sequence of ``g``."""
    return normalize(g.degrees)


class WitnessClaim(enum.Enum):
    """Structural claims a realization witness can carry.

    The head is the vertex prefix u_1..u_k of the sorted sequence, the tail
    is the rest.  A set "dominates" when every vertex outside it has a
    neighbor inside it.
    """

    HEAD_DOMINATING = "head_dominating"
    TAIL_DOMINATING = "tail_dominating"
    HEAD_INDEPENDENT = "head_independent"
    TAIL_INDEPENDENT = "tail_independent"
    IS_FOREST = "is_forest"


@dataclass(frozen=True)
class WitnessReport:
    """Per-claim outcome of a witness validation."""

    degrees_match: bool
    claim_results: dict
    ok: bool


@dataclass(frozen=True)
class RealizationWitness:
    """A graph together with the structural claims it certifies.

    ``split_k`` partitions the vertices into head {0..k-1} and tail
    {k..n-1}.  Degrees must realize the sequence positionally: the vertex
    at position i has degree ``sequence.entries[i]``.  Claims are stored,
    never trusted; build through :meth:`checked` to fail fast.
    """

    graph: Graph
    sequence: DegreeSequence
    split_k: int
    claims: frozenset = field(default_factory=frozenset)

    @classmethod
    def checked(cls, graph, sequence, split_k, claims) -> "RealizationWitness":
        w = cls(graph, sequence, split_k, frozenset(claims))
        report = validate_witness(w)
        if not report.ok:
            failing = [c.value for c, ok in report.claim_results.items() if not ok]
            raise InvalidWitness(
                f"witness for {sequence.entries} at k={split_k} failed: "
                f"degrees_match={report.degrees_match}, failing claims={failing}"
            )
        return w


def _head_edges(g: Graph, k: int) -> list[tuple[int, int]]:
    """The edges with an end in the head 0..k-1: a prefix of the sorted list."""
    return g._edges[:bisect_left(g._edges, (k,))]


def _head_dominates(g: Graph, k: int) -> bool:
    return len(set(filter(k.__le__, map(_second, _head_edges(g, k))))) == g.n - k


def _tail_dominates(g: Graph, k: int) -> bool:
    head = _head_edges(g, k)
    return len(set(compress(map(_first, head), map(k.__le__, map(_second, head))))) == k


def _head_independent(g: Graph, k: int) -> bool:
    return min(map(_second, _head_edges(g, k)), default=k) >= k


def _tail_independent(g: Graph, k: int) -> bool:
    return bisect_left(g._edges, (k,)) == len(g._edges)


def validate_witness(w: RealizationWitness) -> WitnessReport:
    """Re-check every stored claim; returns a per-claim pass/fail report."""
    g = w.graph
    k = w.split_k
    degrees_match = g.degrees == w.sequence.entries and 0 <= k <= g.n
    checks = {
        WitnessClaim.HEAD_DOMINATING: _head_dominates,
        WitnessClaim.TAIL_DOMINATING: _tail_dominates,
        WitnessClaim.HEAD_INDEPENDENT: _head_independent,
        WitnessClaim.TAIL_INDEPENDENT: _tail_independent,
        WitnessClaim.IS_FOREST: lambda g, k: g.is_forest(),
    }
    results = {claim: checks[claim](g, k) for claim in sorted(w.claims, key=lambda c: c.value)}
    ok = degrees_match and all(results.values())
    return WitnessReport(degrees_match=degrees_match, claim_results=results, ok=ok)


def _edge_list_parts(text: str) -> tuple[int, list[tuple[int, int]]]:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"expected header 'n m', got {lines[0]!r}")
    n, m = int(header[0]), int(header[1])
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        i, j = int(parts[0]), int(parts[1])
        edges.append((i - 1, j - 1))
    return n, edges


def _json_graph_parts(obj) -> tuple[int, list[tuple[int, int]]]:
    n = obj.get("n") if isinstance(obj, dict) else None
    if type(n) is not int:  # bool is an int subclass, and not a vertex count
        raise ValueError('graph JSON must be an object with an integer "n"')
    edges = obj.get("edges", [])
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e) for e in edges
    ):
        raise ValueError('graph JSON "edges" must be a list of [i, j] integer pairs')
    return n, [(i - 1, j - 1) for i, j in edges]


def _one_based_edges(g: Graph) -> list[list[int]]:
    """The edge list as the CLI prints it: [u + 1, v + 1] pairs."""
    return [[u + 1, v + 1] for u, v in g._edges]


def witness_to_json_obj(w: RealizationWitness) -> dict:
    return {
        "sequence": list(w.sequence.entries),
        "k": w.split_k,
        "claims": sorted(c.value for c in w.claims),
        "edges": _one_based_edges(w.graph),
    }
