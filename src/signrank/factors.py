"""{1,2}-factors: enumeration, counting, and the invariants built on them.

A {1,2}-factor is a spanning subgraph that is a disjoint union of single
edges (K2 components) and cycles of length >= 3.  Each factor is produced
exactly once in a canonical form: every cycle starts at its smallest vertex
and is traversed toward its smaller neighbor; the factor's cycle list and
K2 list are index-sorted.

Where only a number is needed (t(g) and the nonzero-transversal count),
it comes from a subset DP over vertex sets that never lists a factor
(_factor_sum).  Enumeration is kept for what needs the factors themselves:
listings, the determinant polynomial, edge membership, and the early-exit
has_factor / count_factors_at_most.

Conventions: the empty graph on 0 vertices has exactly one (empty) factor;
an edgeless graph on n >= 1 vertices has none.  perrank is the order of the
largest vertex subset whose induced subgraph has a spanning {1,2}-factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .graph_core import Graph, induced_subgraph


@dataclass(frozen=True)
class Factor:
    """One {1,2}-factor: K2 edges by index, cycles as edge-index tuples in
    canonical traversal order, and the covered vertex set."""

    k2_edges: tuple[int, ...]
    cycles: tuple[tuple[int, ...], ...]
    covered: frozenset[int]

    @property
    def k2_count(self) -> int:
        return len(self.k2_edges)

    @property
    def cycle_count(self) -> int:
        return len(self.cycles)

    def edge_indices(self) -> frozenset[int]:
        out = set(self.k2_edges)
        for cyc in self.cycles:
            out.update(cyc)
        return frozenset(out)


def iter_factors(g: Graph) -> Iterator[Factor]:
    """Generate every spanning {1,2}-factor exactly once.

    Backtracks over the lowest-index uncovered vertex v: either match v to
    an uncovered neighbor (a K2 component), or grow a path from v that must
    close into a cycle of length >= 3.  Since v is the lowest uncovered
    vertex it is the minimum of its component, and cycles are closed only
    when the second vertex is smaller than the last, so each cycle appears
    in exactly one orientation.
    """
    n = g.n
    if n == 0:
        yield Factor((), (), frozenset())
        return
    covered = [False] * n
    k2: list[int] = []
    cycles: list[tuple[int, ...]] = []
    adj = g._adjacency

    def next_uncovered(start: int) -> int:
        i = start
        while i < n and covered[i]:
            i += 1
        return i

    def rec(v: int) -> Iterator[Factor]:
        if v == n:
            yield Factor(tuple(sorted(k2)), tuple(cycles), frozenset(range(n)))
            return
        covered[v] = True
        for u in adj[v]:
            if covered[u]:
                continue
            covered[u] = True
            k2.append(g.edge_index(v, u))
            yield from rec(next_uncovered(v + 1))
            k2.pop()
            covered[u] = False
        path = [v]

        def grow() -> Iterator[Factor]:
            current = path[-1]
            for u in adj[current]:
                if u == v and len(path) >= 3 and path[1] < path[-1]:
                    cyc = tuple(
                        [g.edge_index(path[i], path[i + 1]) for i in range(len(path) - 1)]
                        + [g.edge_index(path[-1], v)]
                    )
                    cycles.append(cyc)
                    yield from rec(next_uncovered(v + 1))
                    cycles.pop()
                elif not covered[u]:
                    covered[u] = True
                    path.append(u)
                    yield from grow()
                    path.pop()
                    covered[u] = False

        yield from grow()
        covered[v] = False

    yield from rec(next_uncovered(0))


def enumerate_factors(g: Graph) -> list[Factor]:
    """All {1,2}-factors, canonically sorted."""
    return sorted(iter_factors(g), key=lambda f: (f.k2_edges, f.cycles))


def count_factors(g: Graph) -> int:
    """t(g): the number of {1,2}-factors, counted without listing them by
    the subset DP of _factor_sum, in O(3^n) steps."""
    return _factor_sum(g, 1)


def count_factors_at_most(g: Graph, limit: int) -> int:
    """min(t(g), limit): stop enumerating once `limit` factors are seen."""
    c = 0
    for _ in iter_factors(g):
        c += 1
        if c >= limit:
            break
    return c


def has_factor(g: Graph) -> bool:
    return next(iter_factors(g), None) is not None


def count_nonzero_transversals(g: Graph) -> int:
    """Number of nonzero transversals of the 0/1 adjacency matrix: each
    factor contributes 2 to the power of its cycle count (one transversal
    per orientation of each cycle).  Equals the permanent of A(g)."""
    return _factor_sum(g, 2)


def _factor_sum(g: Graph, cycle_weight: int) -> int:
    """Sum over all {1,2}-factors of cycle_weight ** (number of cycles).

    A subset DP over the bitmask S of uncovered vertices (the set-partition
    route of Bjorklund, Husfeldt, Kaski and Koivisto).  The lowest vertex v
    of S is covered either by a K2 with a neighbor u in S or by a cycle on a
    vertex set T with min T = v:

        f(S) = sum_u f(S - {u, v}) + w * sum_T cyc(T) * f(S - T),  f({}) = 1

    where cyc(T) counts the cycles spanning T (see _cycles_from).  Each step
    removes at least two vertices, so the recursion is at most n/2 deep.
    """
    n = g.n
    nbr = [0] * n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    cycles: list[dict[int, int] | None] = [None] * n
    memo = {0: 1}

    def f(s: int) -> int:
        total = memo.get(s)
        if total is not None:
            return total
        low = s & -s
        v = low.bit_length() - 1
        rest = s ^ low
        total = 0
        pair = nbr[v] & rest
        while pair:
            b = pair & -pair
            total += f(rest ^ b)
            pair ^= b
        cyc = cycles[v]
        if cyc is None:
            cyc = cycles[v] = _cycles_from(nbr, v)
        # walk whichever is shorter: the cycle sets at v, or the subsets of
        # rest; the latter bounds the whole DP by O(3^n) steps
        acc = 0
        if len(cyc) < 1 << rest.bit_count():
            for t, c in cyc.items():
                if t & rest == t:
                    acc += c * f(rest ^ t)
        else:
            t = rest
            while t:
                c = cyc.get(t)
                if c:
                    acc += c * f(rest ^ t)
                t = (t - 1) & rest
        total += cycle_weight * acc
        memo[s] = total
        return total

    return f((1 << n) - 1)


def _cycles_from(nbr: list[int], s: int) -> dict[int, int]:
    """Cycle counts cyc(T) for vertex sets T with min T = s, keyed by the
    bitmask of T - {s}; sets spanned by no cycle are absent.

    A layered path DP over (visited mask, end vertex): paths start at s and
    use only vertices above s.  A path on at least two further vertices whose
    end is adjacent to s closes a cycle; each cycle is seen once per
    orientation, so the sums are halved.  Each layer is dropped once the next
    one is built.
    """
    above = -1 << (s + 1)
    home = 1 << s
    layer = {(0, s): 1}          # the path (s), with s left out of the mask
    closed: dict[int, int] = {}
    while layer:
        nxt: dict[tuple[int, int], int] = {}
        for (mask, end), c in layer.items():
            if nbr[end] & home and mask & (mask - 1):
                closed[mask] = closed.get(mask, 0) + c
            ext = nbr[end] & above & ~mask
            while ext:
                b = ext & -ext
                key = (mask | b, b.bit_length() - 1)
                nxt[key] = nxt.get(key, 0) + c
                ext ^= b
        layer = nxt
    return {t: c // 2 for t, c in closed.items()}


def perrank_bruteforce(g: Graph) -> int:
    """perrank by direct search over vertex subsets, largest first.

    Independent of perrank_fast: subset feasibility is decided by actually
    finding a factor of the induced subgraph.  Intended for n <= ~12.
    """
    for size in range(g.n, 0, -1):
        for subset in combinations(range(g.n), size):
            sub, _, _ = induced_subgraph(g, subset)
            if has_factor(sub):
                return size
    return 0


def perrank_fast(g: Graph) -> int:
    """perrank via a maximum matching of the bipartite double cover.

    The double cover has two copies of V with edges u1-v2 and v1-u2 for each
    edge uv; its maximum matching size equals the largest number of vertices
    coverable by disjoint K2s and cycles.  This identity is validated against
    perrank_bruteforce exhaustively in the test suite (all n <= 7).
    """
    n = g.n
    adj = g._adjacency
    match_right: list[int] = [-1] * n
    match_left: list[int] = [-1] * n

    def augment(root: int) -> bool:
        """Depth-first search for an augmenting path from the free left
        vertex root, with an explicit stack so long paths cannot hit the
        recursion limit.  A stack entry is [left vertex, position of its
        next neighbor to try]; the path is flipped through match_left."""
        visited = [False] * n
        stack = [[root, 0]]
        while stack:
            frame = stack[-1]
            u, pos = frame
            nbrs = adj[u]
            while pos < len(nbrs) and visited[nbrs[pos]]:
                pos += 1
            if pos == len(nbrs):
                stack.pop()
                continue
            v = nbrs[pos]
            frame[1] = pos + 1
            visited[v] = True
            if match_right[v] != -1:
                stack.append([match_right[v], 0])
                continue
            # free right vertex: flip the path root -> ... -> u -> v
            while stack:
                u = stack.pop()[0]
                match_right[v] = u
                v_prev = match_left[u]
                match_left[u] = v
                v = v_prev
            return True
        return False

    # a greedy matching first leaves the augmenting searches few free
    # vertices; on a long path it is already maximum
    size = 0
    for u in range(n):
        v = next((v for v in adj[u] if match_right[v] == -1), -1)
        if v != -1:
            match_right[v], match_left[u] = u, v
            size += 1
    for u in range(n):
        if match_left[u] == -1 and adj[u] and augment(u):
            size += 1
    return size


@dataclass(frozen=True)
class EdgeMembership:
    """Per-edge membership across all factors: whether the edge is ever a K2
    component, ever on a cycle, present in every factor, and the factor
    total.  With no factors all flags are false."""

    factor_total: int
    in_k2: tuple[bool, ...]
    in_cycle: tuple[bool, ...]
    in_all: tuple[bool, ...]

    def present(self, i: int) -> bool:
        return self.in_k2[i] or self.in_cycle[i]


def edge_membership(g: Graph) -> EdgeMembership:
    m = g.m
    in_k2 = [False] * m
    in_cycle = [False] * m
    presence = [0] * m
    total = 0
    for f in iter_factors(g):
        total += 1
        for i in f.k2_edges:
            in_k2[i] = True
            presence[i] += 1
        for cyc in f.cycles:
            for i in cyc:
                in_cycle[i] = True
                presence[i] += 1
    in_all = [total > 0 and presence[i] == total for i in range(m)]
    return EdgeMembership(total, tuple(in_k2), tuple(in_cycle), tuple(in_all))
