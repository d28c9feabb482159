"""{1,2}-factors: enumeration, counting, and the invariants built on them.

A {1,2}-factor is a spanning subgraph that is a disjoint union of single
edges (K2 components) and cycles of length >= 3.  Each factor is produced
exactly once in a canonical form: every cycle starts at its smallest vertex
and is traversed toward its smaller neighbor; the factor's cycle list and
K2 list are index-sorted.

One subset DP over vertex sets (_FactorTable), built once per graph and
kept with it while the graph lives, answers every count and listing: t(g),
the nonzero-transversal count and count_factors_at_most read its counts
without listing a factor, and iter_factors lists the factors (for
listings, edge membership and the t = 1 certificate) by walking the same
table, taking only steps that lead to a factor.

The table's time and memory grow exponentially with n whatever is asked of
it: O(2^n * n^2) steps over at most 2^n sets and n * 2^n open paths, one f
memo and one p memo per cycle weight, and a recursion up to n calls deep.
Every function here but perrank_fast and has_factor (one matching of the
bipartite double cover, in polynomial time) is meant for n <= about 12,
the harness's factor_n cap.  Past the table, a listing costs in proportion
to what it lists; a full one checks t <= LISTING_CAP.

Conventions: the empty graph on 0 vertices has exactly one (empty) factor;
an edgeless graph on n >= 1 vertices has none.  perrank is the order of the
largest vertex subset whose induced subgraph has a spanning {1,2}-factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .errors import ResourceCapError
from .graph_core import Graph

LISTING_CAP = 500_000      # the most factors one full listing may hold


class Factor(NamedTuple):
    """One {1,2}-factor: K2 edges by index, and cycles as edge-index tuples
    in canonical traversal order."""

    k2_edges: tuple[int, ...]
    cycles: tuple[tuple[int, ...], ...]


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
    can reach and p over every open path on the way (the cost the module
    docstring gives), so even next(iter_factors(g)) costs exponential
    time and memory in n.  After that the work is in proportion to what
    is listed: the choices at each set S it enters, listed once per graph
    and kept in its table (a caller that stops early has still paid for
    every choice at the sets on its way), and a step per choice taken,
    each stack level carrying its prefixes.
    """
    n = g.n
    if n == 0:
        yield Factor((), ())
        return
    table = _table(g)
    full = (1 << n) - 1
    if not table.f(full):
        return
    # K2 edges come by least vertex, which rises with depth: by index if sorted
    in_order = list(g.edges) == sorted(g.edges)
    choices = table.choices
    # each level: the K2 edges and cycles taken above it, and its choices
    stack = [((), (), iter(choices(full)))]
    while stack:
        k2s, cycles, todo = stack[-1]
        for k2, cycle, left in todo:
            k2_edges = k2s + k2
            cycle_edges = cycles + cycle
            if left:
                stack.append((k2_edges, cycle_edges, iter(choices(left))))
                break
            yield Factor(k2_edges if in_order else tuple(sorted(k2_edges)), cycle_edges)
        else:
            stack.pop()


def enumerate_factors(g: Graph) -> list[Factor]:
    """All {1,2}-factors, canonically sorted; raises ResourceCapError, before
    listing any factor, if t > LISTING_CAP."""
    _listable(g)
    return sorted(iter_factors(g))


def _listable(g: Graph) -> int:
    """t(g); raises ResourceCapError if t > LISTING_CAP, before a full
    listing starts."""
    t = count_factors(g)
    if t > LISTING_CAP:
        raise ResourceCapError(f"t={t} factors exceed the listing cap {LISTING_CAP}")
    return t


def count_factors(g: Graph) -> int:
    """t(g): the number of {1,2}-factors, counted without listing them by
    the subset DP of _FactorTable, in O(2^n * n^2) steps."""
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


def _table(g: Graph) -> _FactorTable:
    """The graph's factor table, built on first use.  It is kept in the
    graph's instance dict, as the graph's cached properties are, so every
    count and listing on one graph shares it until the graph is freed."""
    table = vars(g).get("_factor_table")
    if table is None:
        table = vars(g)["_factor_table"] = _FactorTable(g)
    return table


class _FactorTable:
    """The subset DP over the bitmask S of uncovered vertices (the
    set-partition route of Bjorklund, Husfeldt, Kaski and Koivisto), with
    the cycles through its least vertex counted by the open-path DP of
    Bellman, Held and Karp.

    f(S) sums w ** (number of cycles) over the {1,2}-factors of the
    subgraph induced by S, for the cycle weight w.  Its least vertex v is
    covered by a K2 with a neighbor u in S, or by a cycle v, u, x, ...:

        f(S) = sum_u f(S - {v, u})
               + w/2 * sum_u sum_{x in N(u)} p_v(S - {v, u, x}, x),
        p_v(R, e) = [e ~ v] * f(R) + sum_{x in N(e) & R} p_v(R - {x}, x),

    with f({}) = 1 and u, x in S.  p_v(R, e) closes the open path from v
    that ends at e and leaves R uncovered, in every way that leaves a
    factor: each cycle is counted once per orientation, so the halving is
    exact.  A nested call has fewer uncovered vertices than its caller,
    counting p's path end as one, so the recursion is at most n calls
    deep.  f has at most 2^n states of O(n^2) steps and p at most n * 2^n
    of O(n) steps.

    Everything is filled on demand and kept: per cycle weight, the f memo
    and one p memo per start vertex; and the choices at each set.
    """

    def __init__(self, g: Graph):
        self.nbr = [0] * g.n
        self.edge_id = [[-1] * g.n for _ in range(g.n)]    # u, v -> index of edge uv
        for i, (u, v) in enumerate(g.edges):
            self.nbr[u] |= 1 << v
            self.nbr[v] |= 1 << u
            self.edge_id[u][v] = self.edge_id[v][u] = i
        self.f_memo: dict[int, dict[int, int]] = {}
        self.p_memo: dict[int, list[dict[int, int]]] = {}
        self.choice_lists: dict[int, list] = {}

    def f(self, s: int, cycle_weight: int = 1) -> int:
        memo = self.f_memo.get(cycle_weight)
        if memo is None:
            memo = self.f_memo[cycle_weight] = {0: 1}
            self.p_memo[cycle_weight] = [{} for _ in self.nbr]
        total = memo.get(s)
        if total is not None:
            return total
        nbr = self.nbr
        shift = len(nbr).bit_length()       # p keys: R << shift | e
        p_memo = self.p_memo[cycle_weight]

        def f(s: int) -> int:
            low = s & -s
            v = low.bit_length() - 1
            rest = s ^ low
            home = nbr[v]
            pv = p_memo[v]
            total = acc = 0
            pair = home & rest
            while pair:
                b = pair & -pair
                pair ^= b
                left = rest ^ b
                t = memo.get(left)
                total += f(left) if t is None else t
                step = nbr[b.bit_length() - 1] & left
                while step:
                    x = step & -step
                    step ^= x
                    r = left ^ x
                    e = x.bit_length() - 1
                    c = pv.get(r << shift | e)
                    acc += p(r, e, home, pv) if c is None else c
            total += cycle_weight * acc >> 1
            memo[s] = total
            return total

        def p(r: int, e: int, home: int, pv: dict[int, int]) -> int:
            total = 0
            if home >> e & 1:
                t = memo.get(r)
                total = f(r) if t is None else t
            step = nbr[e] & r
            while step:
                x = step & -step
                step ^= x
                left = r ^ x
                i = x.bit_length() - 1
                c = pv.get(left << shift | i)
                total += p(left, i, home, pv) if c is None else c
            pv[r << shift | e] = total
            return total

        try:
            return f(s)
        finally:
            f = p = None    # the closures refer to each other: free them now

    def choices(self, s: int) -> list[tuple[tuple, tuple, int]]:
        """The ways to cover the least vertex v of S that leave a set with a
        factor, in listing order, as ((K2 edge,), (), set left) or ((),
        (cycle edges,), set left): the K2 partners of v in vertex order,
        then the cycles through v in lexicographic order of their vertex
        sequences, each from v toward the smaller of its two neighbors on
        it.  Reads the memos that f(S) filled.

        The cycles come from a depth-first search over paths from v, in
        vertex order.  It steps to x only when p of the path to x is
        nonzero and some neighbor of v above the path's second vertex is
        still uncovered; it closes only at such a neighbor, and only when
        what the cycle leaves has a factor."""
        out = self.choice_lists.get(s)
        if out is not None:
            return out
        memo = self.f_memo[1]
        nbr = self.nbr
        shift = len(nbr).bit_length()
        low = s & -s
        v = low.bit_length() - 1
        rest = s ^ low
        home = nbr[v]
        pv = self.p_memo[1][v]
        edge_id = self.edge_id
        out = []
        pair = home & rest
        while pair:
            b = pair & -pair
            if memo[rest ^ b]:
                out.append(((edge_id[v][b.bit_length() - 1],), (), rest ^ b))
            pair ^= b
        path: list[int] = []    # the edges of the path from v

        def extend(end: int, left: int, close: int) -> None:
            # close: the neighbors of v above the path's second vertex (0
            # while the path is just v)
            if close >> end & 1 and memo[left]:
                out.append(((), ((*path, edge_id[end][v]),), left))
            step = nbr[end] & left
            while step:
                b = step & -step
                step ^= b
                above = close or home & -(b << 1)
                x = b.bit_length() - 1
                # f(S) filled p for every step but the first
                if above & left and pv.get((left ^ b) << shift | x, 1):
                    path.append(edge_id[end][x])
                    extend(x, left ^ b, above)
                    path.pop()

        try:
            extend(v, rest, 0)
        finally:
            extend = None   # as in f
        self.choice_lists[s] = out
        return out


def perrank_fast(g: Graph) -> int:
    """perrank via a maximum matching of the bipartite double cover.

    The double cover has two copies of V with edges u1-v2 and v1-u2 for each
    edge uv; its maximum matching size equals the largest number of vertices
    coverable by disjoint K2s and cycles.  The test suite validates this
    identity against the subset DP on induced subgraphs, exhaustively for
    n <= 7 and on seeded G(n, p) graphs for n = 8..12.  Kept with the graph,
    so has_factor and every caller on it share one matching.
    """
    cache = vars(g)
    if "_perrank" not in cache:
        cache["_perrank"] = _double_cover_matching(g)
    return cache["_perrank"]


def _double_cover_matching(g: Graph) -> int:
    """Size of a maximum matching of g's bipartite double cover, grown from
    each left vertex in turn by a breadth-first search over alternating
    paths, flipped at the first free right vertex it reaches (a left vertex
    with no such path then never gets one)."""
    adj = g._adjacency
    match_right = [-1] * g.n            # right vertex -> its left partner
    match_left = [-1] * g.n
    size = 0
    for root in range(g.n):
        via = {}                        # right vertex -> left vertex before it
        free = -1
        queue = [root]
        for u in queue:
            for v in adj[u]:
                if v not in via:
                    via[v] = u
                    if match_right[v] == -1:
                        free = v
                        break
                    queue.append(match_right[v])
            if free != -1:
                break
        if free != -1:
            size += 1
        while free != -1:               # flip the path root -> ... -> free
            u = via[free]
            match_right[free], match_left[u], free = u, free, match_left[u]
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
    """Read from the full factor listing; raises ResourceCapError, before
    listing any factor, if t > LISTING_CAP."""
    t = _listable(g)
    m = g.m
    in_k2 = [False] * m
    in_cycle = [False] * m
    presence = [0] * m
    for f in iter_factors(g):
        for i in f.k2_edges:
            in_k2[i] = True
            presence[i] += 1
        for cyc in f.cycles:
            for i in cyc:
                in_cycle[i] = True
                presence[i] += 1
    in_all = [t > 0 and presence[i] == t for i in range(m)]
    return EdgeMembership(t, tuple(in_k2), tuple(in_cycle), tuple(in_all))
