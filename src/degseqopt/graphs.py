"""Labeled simple-graph model and re-checkable witnesses.

Vertices are 0-based internally (``u_1`` in reports corresponds to vertex 0).
Graphs are immutable after construction.  Adjacency is one frozenset of
neighbors per vertex, so memory grows with the edge count; the exact
solvers derive their own bitmasks from it.  Construction range-checks each
edge while it fills neighbour lists, then freezes them with C-level
``map`` calls; a self-loop or a repeated edge shows as a set shorter than
its list, and only then are the edges rescanned so the error names the
first bad one.  Witness claims are re-checked with one ``min`` or ``max``
per adjacency set, as the head and the tail are vertex ranges.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
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


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``adjacency_sets[v]`` is the frozenset of neighbors of ``v`` and
    ``degrees[v]`` its size.
    """

    __slots__ = ("n", "adjacency_sets", "degrees")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        edges = list(edges)
        lists: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise _first_bad_edge(n, edges)
            lists[u].append(v)
            lists[v].append(u)
        self.adjacency_sets = tuple(map(frozenset, lists))
        self.degrees = tuple(map(len, lists))
        # a self-loop or a repeated edge lists a neighbour twice
        if self.degrees != tuple(map(len, self.adjacency_sets)):
            raise _first_bad_edge(n, edges)

    def degree(self, v: int) -> int:
        return self.degrees[v]

    @property
    def m(self) -> int:
        return sum(self.degrees) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency_sets[u]

    def edges(self) -> list[tuple[int, int]]:
        """Edge list with u < v, sorted lexicographically."""
        out = []
        for u in range(self.n):
            out.extend((u, v) for v in sorted(self.adjacency_sets[u]) if v > u)
        return out

    def connected_components(self) -> list[list[int]]:
        """Components as sorted vertex lists, ordered by smallest vertex."""
        seen = [False] * self.n
        comps = []
        for start in range(self.n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                u = stack.pop()
                comp.append(u)
                for v in self.adjacency_sets[u]:
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
            comps.append(sorted(comp))
        return comps

    def _component_count(self) -> int:
        """Number of connected components, by one DFS over a ``bytearray``."""
        seen = bytearray(self.n)
        count = 0
        for start in range(self.n):
            if seen[start]:
                continue
            count += 1
            seen[start] = 1
            stack = [start]
            while stack:
                for v in self.adjacency_sets[stack.pop()]:
                    if not seen[v]:
                        seen[v] = 1
                        stack.append(v)
        return count

    def is_connected(self) -> bool:
        return self._component_count() <= 1

    def is_forest(self) -> bool:
        return self.m == self.n - self._component_count()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges() == other.edges()

    def __hash__(self):
        return hash((self.n, tuple(self.edges())))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


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


# The head is range(0, k) and the tail range(k, n), so a vertex has a head
# neighbour iff its least neighbour is below k, and a tail neighbour iff its
# greatest one is at least k: one C-level min or max per adjacency set.


def _head_dominates(g: Graph, k: int) -> bool:
    tail = g.adjacency_sets[k:]
    return all(tail) and max(map(min, tail), default=-1) < k


def _tail_dominates(g: Graph, k: int) -> bool:
    head = g.adjacency_sets[:k]
    return all(head) and min(map(max, head), default=k) >= k


def _head_independent(g: Graph, k: int) -> bool:
    return min(map(min, filter(None, g.adjacency_sets[:k])), default=k) >= k


def _tail_independent(g: Graph, k: int) -> bool:
    return max(map(max, filter(None, g.adjacency_sets[k:])), default=-1) < k


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


def witness_to_json_obj(w: RealizationWitness) -> dict:
    return {
        "sequence": list(w.sequence.entries),
        "k": w.split_k,
        "claims": sorted(c.value for c in w.claims),
        "edges": [[u + 1, v + 1] for u, v in w.graph.edges()],
    }
