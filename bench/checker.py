"""Reference computations and witness checks that do not use degseqopt.

Everything here is written from the definitions, so a defect in the code
under test cannot also hide in its own check.  Sequences are plain lists
or tuples of ints; graphs are an ``n`` plus a list of 0-based edges.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations


def sorted_desc(seq) -> list[int]:
    return sorted((int(x) for x in seq), reverse=True)


def erdos_gallai(seq) -> bool:
    """Graphicality from the Erdos-Gallai inequalities, O(n log n)."""
    d = sorted_desc(seq)
    n = len(d)
    if sum(d) % 2:
        return False
    if not d or d[0] == 0:
        return True
    if d[0] >= n:
        return False
    asc = d[::-1]
    prefix_asc = [0]
    for x in asc:
        prefix_asc.append(prefix_asc[-1] + x)
    lhs = 0
    for k in range(1, n + 1):
        lhs += d[k - 1]
        # sum over i > k of min(d_i, k): the tail d[k:] is asc[:n-k]
        tail = n - k
        cut = bisect_left(asc, k, 0, tail)  # asc[:cut] < k
        rhs = k * (k - 1) + prefix_asc[cut] + k * (tail - cut)
        if lhs > rhs:
            return False
    return True


def count_realizations(seq, cap) -> int:
    """Labelled graphs with degree ``seq[i]`` at vertex i, counted up to ``cap``.

    Each vertex in turn takes its remaining degree from the later
    vertices; plain backtracking, meant for n <= 9.
    """
    residual = [int(x) for x in seq]
    n = len(residual)
    count = 0

    def rec(i):
        nonlocal count
        while i < n and residual[i] == 0:
            i += 1
        if i == n:
            count += 1
            return
        need = residual[i]
        later = [j for j in range(i + 1, n) if residual[j] > 0]
        if need > len(later):
            return
        residual[i] = 0
        for chosen in combinations(later, need):
            for j in chosen:
                residual[j] -= 1
            rec(i + 1)
            for j in chosen:
                residual[j] += 1
            if count >= cap:
                break
        residual[i] = need

    rec(0)
    return min(count, cap)


def is_forest_sequence(seq) -> bool:
    total = sum(seq)
    if total == 0:
        return True
    positive = sum(1 for x in seq if x > 0)
    return total % 2 == 0 and total <= 2 * positive - 2


def slater(seq) -> int:
    """Smallest k whose k largest degrees sum to at least n - k."""
    d = sorted_desc(seq)
    n = len(d)
    acc = 0
    for k in range(1, n + 1):
        acc += d[k - 1]
        if acc >= n - k:
            return k
    return n


def annihilation(seq) -> int:
    """Largest a whose a smallest degrees sum to at most the other n - a."""
    asc = sorted(int(x) for x in seq)
    total = sum(asc)
    low = 0
    best = 0
    for a in range(1, len(asc) + 1):
        low += asc[a - 1]
        if low <= total - low:
            best = a
    return best


def bound_chain(seq) -> tuple[int, int, int, int, int]:
    """(slater, annihilation, n0, forest gamma low, forest gamma high)."""
    n0 = sum(1 for x in seq if x == 0)
    sl, a = slater(seq), annihilation(seq)
    return sl, a, n0, sl, len(seq) - a + n0


def witness_problems(n, edges, degrees, k, claims) -> list[str]:
    """Every way the graph fails the positional degrees or a stated claim.

    ``degrees[i]`` is the required degree of vertex i; the head is
    {0..k-1} and the tail {k..n-1}; ``claims`` names the properties the
    witness asserts (head/tail dominating or independent, is_forest).
    """
    problems = []
    if len(degrees) != n:
        return [f"{n} vertices for {len(degrees)} degrees"]
    if not 0 <= k <= n:
        return [f"split k={k} outside 0..{n}"]
    adj = [[] for _ in range(n)]
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            return [f"bad edge ({u}, {v})"]
        key = (min(u, v), max(u, v))
        if key in seen:
            return [f"duplicate edge {key}"]
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    if any(len(adj[i]) != degrees[i] for i in range(n)):
        problems.append("degrees differ")
    in_head = [i < k for i in range(n)]
    for claim in claims:
        if claim == "head_dominating":
            ok = all(any(in_head[w] for w in adj[v]) for v in range(k, n))
        elif claim == "tail_dominating":
            ok = all(any(not in_head[w] for w in adj[v]) for v in range(k))
        elif claim == "head_independent":
            ok = not any(in_head[u] and in_head[v] for u, v in seen)
        elif claim == "tail_independent":
            ok = not any(not in_head[u] and not in_head[v] for u, v in seen)
        elif claim == "is_forest":
            ok = is_forest(n, seen)
        else:
            ok = False
        if not ok:
            problems.append(f"claim {claim} fails")
    return problems


def is_forest(n, edges) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True
