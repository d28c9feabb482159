"""{1,2}-factors: enumeration, counting, and the invariants built on them.

A {1,2}-factor is a spanning subgraph that is a disjoint union of single
edges (K2 components) and cycles of length >= 3.  Each factor is produced
exactly once in a canonical form: every cycle starts at its smallest vertex
and is traversed toward its smaller neighbor; the factor's cycle list and
K2 list are index-sorted.

One subset DP over vertex sets (_FactorTable), built once per graph and
kept with it until release_table, answers every count and listing: t(g),
the nonzero-transversal count and count_factors_at_most read its counts
without listing a factor; perrank_bruteforce reads it on induced
subgraphs; and iter_factors lists the factors (for listings, the
determinant polynomial and edge membership) by walking the same table,
taking only steps that lead to a factor.

The table's time and memory grow exponentially with n whatever is asked of
it: up to 3^n DP steps, plus a path table per vertex that holds every
simple path from it.  Every function here but perrank_fast and has_factor
(one matching of the bipartite double cover, in polynomial time) is meant
for n <= about 12, the harness's factor_n cap.

Conventions: the empty graph on 0 vertices has exactly one (empty) factor;
an edgeless graph on n >= 1 vertices has none.  perrank is the order of the
largest vertex subset whose induced subgraph has a spanning {1,2}-factor.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .graph_core import Graph


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
    """Generate every spanning {1,2}-factor exactly once, by walking the
    subset DP of _FactorTable.

    At the set S of uncovered vertices, its least vertex v is covered first
    by a K2 with each neighbor u in S (in vertex order), then by each cycle
    through v in lexicographic order of its vertex sequence; a choice is
    taken only when the vertices it leaves still have a factor, so every
    step leads to output.  The order is that of a backtracking search over
    the lowest uncovered vertex.

    Before the first factor the walk fills the table: f over every set it
    can reach and the path table of every vertex (the cost the module
    docstring gives), so even next(iter_factors(g)) costs exponential
    time and memory in n.  After that, the steps are linear in the number
    of factors yielded.  The choices at each set S, and the cycles on each
    vertex set, are listed once per graph and kept in its table, so a
    caller that stops early has still paid for every choice at the sets on
    its way.
    """
    n = g.n
    covered = frozenset(range(n))
    if n == 0:
        yield Factor((), (), covered)
        return
    table = _table(g)
    full = (1 << n) - 1
    if not table.f(full):
        return
    # picks[d] is the choice taken at depth d; stack[d] iterates the
    # choices at depth d
    picks: list[tuple[int | None, tuple[int, ...] | None, int]] = []
    stack = [iter(table.choices(full))]
    while stack:
        for pick in stack[-1]:
            del picks[len(stack) - 1:]
            picks.append(pick)
            if pick[2]:
                stack.append(iter(table.choices(pick[2])))
                break
            yield Factor(
                tuple(sorted([k2 for k2, cyc, _ in picks if cyc is None])),
                tuple([cyc for _, cyc, _ in picks if cyc is not None]),
                covered,
            )
        else:
            stack.pop()


def enumerate_factors(g: Graph) -> list[Factor]:
    """All {1,2}-factors, canonically sorted."""
    return sorted(iter_factors(g), key=lambda f: (f.k2_edges, f.cycles))


def count_factors(g: Graph) -> int:
    """t(g): the number of {1,2}-factors, counted without listing them by
    the subset DP of _FactorTable, in O(3^n) steps."""
    return _table(g).f((1 << g.n) - 1)


def count_factors_at_most(g: Graph, limit: int) -> int:
    """min(t(g), limit), from the same table as count_factors."""
    return min(_table(g).f((1 << g.n) - 1), limit)


def has_factor(g: Graph) -> bool:
    """Whether g has a {1,2}-factor: a perfect matching of the bipartite
    double cover (see perrank_fast), found without the factor table."""
    return perrank_fast(g) == g.n


def count_nonzero_transversals(g: Graph) -> int:
    """Number of nonzero transversals of the 0/1 adjacency matrix: each
    factor contributes 2 to the power of its cycle count (one transversal
    per orientation of each cycle).  Equals the permanent of A(g)."""
    return _table(g).f((1 << g.n) - 1, cycle_weight=2)


def release_table(g: Graph) -> None:
    """Free the graph's factor table now rather than with the graph; the
    next count or listing on g builds it again.  A caller that holds many
    graphs (a corpus run) calls it when it is done with each."""
    vars(g).pop("_factor_table", None)


def _table(g: Graph) -> _FactorTable:
    """The graph's factor table, built on first use.  It is kept in the
    graph's instance dict, as the graph's cached properties are, so every
    count and listing on one graph shares it, until release_table or the
    graph is freed."""
    table = vars(g).get("_factor_table")
    if table is None:
        table = vars(g)["_factor_table"] = _FactorTable(g)
    return table


class _FactorTable:
    """The subset DP over the bitmask S of uncovered vertices (the
    set-partition route of Bjorklund, Husfeldt, Kaski and Koivisto).

    f(S) sums cycle_weight ** (number of cycles) over the {1,2}-factors of
    the subgraph induced by S.  Its least vertex v is covered either by a K2
    with a neighbor u in S or by a cycle on a vertex set T with min T = v:

        f(S) = sum_u f(S - {u, v}) + w * sum_T cyc(T) * f(S - T),  f({}) = 1

    where cyc(T) counts the cycles spanning T (see _paths_from).  Each step
    removes at least two vertices, so the recursion is at most n/2 deep.

    Everything is filled on demand and kept: f per cycle weight, the path
    table of each vertex (shared by the counts and the listing), and for
    the listing the choices at each set and the cycles on each vertex set.
    """

    def __init__(self, g: Graph):
        self.nbr = [0] * g.n
        for u, v in g.edges:
            self.nbr[u] |= 1 << v
            self.nbr[v] |= 1 << u
        self.paths: list[list[dict[int, int]] | None] = [None] * g.n
        self.cycles: list[dict[int, int] | None] = [None] * g.n
        self.memo: dict[int, dict[int, int]] = {}
        self.choice_lists: dict[int, list] = {}
        self.cycle_lists: dict[int, list] = {}
        self.edge_index = g._edge_index

    def cycles_at(self, v: int) -> dict[int, int]:
        cyc = self.cycles[v]
        if cyc is None:
            self.paths[v], cyc = _paths_from(self.nbr, v)
            self.cycles[v] = cyc
        return cyc

    def f(self, s: int, cycle_weight: int = 1) -> int:
        memo = self.memo.get(cycle_weight)
        if memo is None:
            memo = self.memo[cycle_weight] = {0: 1}
        total = memo.get(s)
        if total is not None:
            return total
        nbr = self.nbr
        cycles = self.cycles
        cycles_at = self.cycles_at

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
                cyc = cycles_at(v)
            # walk whichever is shorter: the cycle sets at v, or the subsets
            # of rest; the latter bounds the whole DP by O(3^n) steps
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

        total = f(s)
        f = None        # the recursive closure refers to itself: free it now
        return total

    def choices(self, s: int) -> list[tuple[int | None, tuple[int, ...] | None, int]]:
        """The ways to cover the least vertex v of S that leave a set with a
        factor, in listing order, as (K2 edge, None, set left) or (None,
        cycle edges, set left): the K2 partners of v in vertex order,
        then the cycles through v merged in lexicographic order of their
        vertex sequences."""
        out = self.choice_lists.get(s)
        if out is not None:
            return out
        f = self.f
        low = s & -s
        v = low.bit_length() - 1
        rest = s ^ low
        edge_index = self.edge_index
        out = []
        pair = self.nbr[v] & rest
        while pair:
            b = pair & -pair
            if f(rest ^ b):
                out.append((edge_index[v, b.bit_length() - 1], None, rest ^ b))
            pair ^= b
        listed = [self.cycle_list(v, t) for t in self.cycles_at(v)
                  if t & rest == t and f(rest ^ t)]
        out.extend((None, edges, rest ^ t) for _, edges, t in heapq.merge(*listed))
        self.choice_lists[s] = out
        return out

    def cycle_list(self, v: int, t: int) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
        """The cycles spanning {v} + T, v = min, each once as (vertex
        sequence from v toward the smaller of its two neighbors on the
        cycle, edge indices along it, T), in lexicographic order.  A path
        is extended to u only when a path from v covers the vertices still
        left with u and ends at u: reversed, that is the rest of a cycle."""
        key = t | 1 << v
        out = self.cycle_lists.get(key)
        if out is not None:
            return out
        edge_index = self.edge_index
        nbr = self.nbr
        shift = _shift(nbr)
        self.cycles_at(v)           # fills self.paths[v]
        paths = self.paths[v]
        seq = [v]
        out = []

        def extend(end: int, left: int) -> None:
            if not left:
                if seq[1] < end:
                    edges = [edge_index[(a, b) if a < b else (b, a)]
                             for a, b in zip(seq, seq[1:])]
                    edges.append(edge_index[v, end])
                    out.append((tuple(seq), tuple(edges), t))
                return
            ends = paths[left.bit_count()]
            step = nbr[end] & left
            while step:
                b = step & -step
                u = b.bit_length() - 1
                if left << shift | u in ends:
                    seq.append(u)
                    extend(u, left ^ b)
                    seq.pop()
                step ^= b

        extend(v, t)
        extend = None   # as in f
        self.cycle_lists[key] = out
        return out


def _paths_from(nbr: list[int], s: int) -> tuple[list[dict[int, int]], dict[int, int]]:
    """The path table of s and the cycle counts it gives.

    A layered path DP over (visited mask, end vertex): paths start at s and
    use only vertices above s.  layers[k] maps mask << shift | end, for
    _shift(nbr) = shift, to the number of those paths through the k
    vertices of mask (s left out) that end at end; int keys keep the table
    small and out of the garbage collector's way.  A path on at least two
    further vertices whose end is adjacent to s closes a cycle; each cycle
    is seen once per orientation, so the sums are halved.  The cycle counts
    cyc(T), for vertex sets T with min T = s, are keyed by the bitmask of
    T - {s}; sets spanned by no cycle are absent.
    """
    above = -1 << (s + 1)
    home = 1 << s
    shift = _shift(nbr)
    ends = (1 << shift) - 1
    layer = {s: 1}               # the path (s), with s left out of the mask
    layers = []
    closed: dict[int, int] = {}
    while layer:
        layers.append(layer)
        nxt: dict[int, int] = {}
        for key, c in layer.items():
            mask = key >> shift
            end = key & ends
            if nbr[end] & home and mask & (mask - 1):
                closed[mask] = closed.get(mask, 0) + c
            ext = nbr[end] & above & ~mask
            while ext:
                b = ext & -ext
                key = (mask | b) << shift | (b.bit_length() - 1)
                nxt[key] = nxt.get(key, 0) + c
                ext ^= b
        layer = nxt
    return layers, {t: c // 2 for t, c in closed.items()}


def _shift(nbr: list[int]) -> int:
    """Bits that a vertex takes in the keys of _paths_from."""
    return len(nbr).bit_length()


def perrank_bruteforce(g: Graph) -> int:
    """perrank as the largest vertex set S with f(S) > 0 in the subset DP,
    sets tried largest first.

    Independent of perrank_fast's matching: a set counts only when its
    induced subgraph has a {1,2}-factor.  Intended for n <= ~12.
    """
    table = _table(g)
    for size in range(g.n, 0, -1):
        for subset in combinations(range(g.n), size):
            if table.f(sum(1 << v for v in subset)):
                return size
    return 0


def perrank_fast(g: Graph) -> int:
    """perrank via a maximum matching of the bipartite double cover.

    The double cover has two copies of V with edges u1-v2 and v1-u2 for each
    edge uv; its maximum matching size equals the largest number of vertices
    coverable by disjoint K2s and cycles.  This identity is validated against
    perrank_bruteforce exhaustively in the test suite (all n <= 7).  Kept
    with the graph, so has_factor and every caller on it share one matching.
    """
    cache = vars(g)
    if "_perrank" not in cache:
        cache["_perrank"] = _double_cover_matching(g)
    return cache["_perrank"]


def _double_cover_matching(g: Graph) -> int:
    """Size of a maximum matching of g's bipartite double cover."""
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
