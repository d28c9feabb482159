"""{1,2}-factors: listing, counting, and the invariants built on them.

A {1,2}-factor is a spanning subgraph that is a disjoint union of single
edges (K2 components) and cycles of length >= 3.  The listing writes each
factor exactly once in a canonical form: every cycle starts at its smallest
vertex and is traversed toward its smaller neighbor; the factor's cycle
list and K2 list are index-sorted.

One subset DP over vertex sets (_FactorTable), built once per graph and
kept with it (graph_core.per_graph), answers every count and the listing:
t(g) and the nonzero-transversal count are two residues of one packed
value, read without listing a factor, and listing_json lists the factors
by walking the same table, taking only steps that lead to a factor, and
grouping them by K2 edges, each group already in canonical order.  It
writes them as the JSON text of a factors record's listing, each cycle's
text built once, when the table first finds the choice that takes it:
this module alone knows a factor's JSON shape.

The table's time and memory grow exponentially with n whatever is asked of
it: O(2^n * n^2) steps over at most 2^n sets and n * 2^n open paths, one f
memo and one p memo per start vertex, and a recursion up to n + 1 calls
deep (so no table has more than TABLE_N_LIMIT vertices): it is meant for
n <= about 12, the harness's factor_n cap.  Past the table, a listing costs
in proportion to what it lists; a full one checks t <= LISTING_CAP.
perrank_fast, has_factor, matching_cycles, factor_edges and
count_factors_at_most up to limit 2 take polynomial time at any n, on one
double-cover matching, kept with the graph as the table is.

Conventions: the empty graph on 0 vertices has exactly one (empty) factor;
an edgeless graph on n >= 1 vertices has none.  perrank is the order of the
largest vertex subset whose induced subgraph has a spanning {1,2}-factor.
"""

from __future__ import annotations

from collections import defaultdict
from math import factorial

from .errors import ResourceCapError
from .graph_core import Graph, per_graph

LISTING_CAP = 500_000      # the most factors one full listing may hold
TABLE_N_LIMIT = 900        # the most vertices a factor table may have (its depth)


def listing_json(g: Graph) -> tuple[int, str]:
    """t(g) and every {1,2}-factor as JSON text: the comma-separated objects
    {"cycles":[[...],...],"k2":[...]} of a factors record's listing, keys
    sorted and no whitespace, in canonical order.  Raises ResourceCapError,
    before listing any factor, if t > LISTING_CAP.

    The walk starts at the full vertex set.  At the set S of uncovered
    vertices it takes each choice of _FactorTable.choices(S) in turn, so
    every step leads to a factor, and lists a factor when no vertex is
    left.  Each level of its stack carries the K2 edges taken above it (the
    factor's group key) and the text of its cycles.  The order is that of
    a backtracking search over the lowest uncovered vertex, whose rise puts
    the K2 edges in index order.  Grouped by K2 edge tuple, the factors
    need only their group keys sorted.  Two factors with the same K2 edges
    first part at a set S whose least vertex v both cover by a cycle (a K2
    at v would be the same edge), taken in lexicographic order of vertex
    sequence.  As g.edges is sorted, that is the order of their edge
    tuples: after a common vertex a, a step to b < c takes the edge
    {a, b} < {a, c}, and closing takes {a, v}, below every other edge at a
    as v is least in S.  The cycles before S being the same, these are the
    first cycles in which the two differ.
    """
    t = count_factors(g)
    if t > LISTING_CAP:
        raise ResourceCapError(f"t={t} factors exceed the listing cap {LISTING_CAP}")
    choices = _table(g).choices
    groups = defaultdict(list)      # K2 edges -> its factors' cycle texts, in walk order
    # the root level's one choice takes nothing and leaves every vertex, so
    # the 0-vertex graph lists its one empty factor
    stack = [((), "", iter((((), "", (1 << g.n) - 1),)))]
    while stack:
        k2s, cycles, todo = stack[-1]
        for k2, cycle, left in todo:
            if left:
                stack.append((k2s + k2, cycles + cycle, iter(choices(left))))
                break
            groups[k2s + k2].append((cycles + cycle)[1:])
        else:
            stack.pop()
    text = []
    for k2s in sorted(groups):
        tail = '],"k2":[' + ",".join(map(str, k2s)) + "]}"
        text.append('{"cycles":[' + (tail + ',{"cycles":[').join(groups[k2s]) + tail)
    return t, ",".join(text)


def count_factors(g: Graph) -> int:
    """t(g): the number of {1,2}-factors, counted without listing them in
    O(2^n * n^2) steps: the packed value of _FactorTable mod u - 1."""
    table = _table(g)
    return table.f((1 << g.n) - 1) % (table.u - 1)


def count_factors_at_most(g: Graph, limit: int) -> int:
    """min(t(g), limit); for limit <= 2 with no table, in O(n + m) after
    the double-cover matching sigma.  With sigma not perfect, t = 0; else
    its cycles form a factor F, and t >= 2 iff F has an even cycle (two K2
    sets; K2s cannot cover an odd cycle) or some edge outside F lies in a
    factor (factor_edges)."""
    if limit > 2:
        return min(count_factors(g), limit)
    cycles = matching_cycles(g)
    if cycles is None:
        return min(0, limit)
    sigma = _sigma(g)
    second = any(len(c) > 2 and len(c) % 2 == 0 for c in cycles) or any(
        present and sigma[u] != v and sigma[v] != u
        for present, (u, v) in zip(factor_edges(g), g.edges))
    return min(1 + second, limit)


def matching_cycles(g: Graph) -> tuple[tuple[int, ...], ...] | None:
    """The cycles of the double-cover matching sigma as vertex tuples, each
    from its least vertex v along v, sigma(v), ..., in order of v (a 2-cycle
    is a K2); or None when sigma is not perfect, so g has no factor.  They
    form a factor F, the one factor when t = 1."""
    sigma = _sigma(g)
    if -1 in sigma:
        return None
    cycles, seen = [], set()
    for v in range(g.n):
        if v not in seen:
            walk = [v]
            while sigma[walk[-1]] != v:
                walk.append(sigma[walk[-1]])
            seen.update(walk)
            cycles.append(tuple(walk))
    return tuple(cycles)


@per_graph("_factor_edges")
def factor_edges(g: Graph) -> tuple[bool, ...]:
    """Per edge, whether some {1,2}-factor contains it (all False when g
    has none), in O(n + m) after the double-cover matching sigma.  A factor
    gives a perfect matching of the double cover for each orientation of
    its cycles, so the edge uv lies in one iff the arc u -> v' lies in a
    perfect matching.  With sigma perfect, that is iff the arc lies on a
    cycle that alternates with sigma: iff u and back(v), the vertex matched
    to v', share a strong component of the digraph D: w -> back(x), x in
    N(w), x != sigma(w).  (For an arc of sigma, back(v) = u.)  Kept with
    the graph, as sigma is, so the count up to 2 and the weight search
    share one pass."""
    sigma = _sigma(g)
    if -1 in sigma:
        return (False,) * g.m
    back = [0] * g.n
    for w, x in enumerate(sigma):
        back[x] = w
    comp = _strong_components(
        [[back[x] for x in adj if x != sigma[w]] for w, adj in enumerate(g._adjacency)])
    return tuple(comp[u] == comp[back[v]] for u, v in g.edges)


def _strong_components(succ: list[list[int]]) -> list[int]:
    """Per node of the digraph succ, a label shared exactly by the nodes
    of its strong component: Tarjan's algorithm, on an explicit stack of
    (node, its unvisited successors), so it never recurses."""
    order = [-1] * len(succ)        # visit number, -1 before the visit
    low = [0] * len(succ)
    comp = [-1] * len(succ)         # -1 while on the component stack
    stack: list[int] = []
    count = 0
    for root in range(len(succ)):
        if order[root] != -1:
            continue
        order[root] = low[root] = count
        count += 1
        stack.append(root)
        path = [(root, iter(succ[root]))]
        while path:
            v, todo = path[-1]
            for w in todo:
                if order[w] == -1:
                    order[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    path.append((w, iter(succ[w])))
                    break
                if comp[w] == -1:
                    low[v] = min(low[v], order[w])
            else:
                path.pop()
                if path:
                    u = path[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == order[v]:
                    w = -1
                    while w != v:
                        w = stack.pop()
                        comp[w] = v
    return comp


def has_factor(g: Graph) -> bool:
    """Whether g has a {1,2}-factor: a perfect matching of the bipartite
    double cover (see perrank_fast), found without the factor table."""
    return perrank_fast(g) == g.n


def count_nonzero_transversals(g: Graph) -> int:
    """Number of nonzero transversals of the 0/1 adjacency matrix: each
    factor contributes 2 to the power of its cycle count (one transversal
    per orientation of each cycle).  Equals the permanent of A(g).  The
    packed value of count_factors mod u - 2: the table runs no second pass."""
    table = _table(g)
    return table.f((1 << g.n) - 1) % (table.u - 2)


@per_graph("_factor_table")
def _table(g: Graph) -> _FactorTable:
    """The graph's factor table, kept with the graph, so every count and
    listing on one graph shares it until the graph is freed."""
    return _FactorTable(g)


class _FactorTable:
    """The subset DP over the bitmask S of uncovered vertices (the
    set-partition route of Bjorklund, Husfeldt, Kaski and Koivisto), with
    the cycles through its least vertex counted by the open-path DP of
    Bellman, Held and Karp.

    f(S) sums u ** (number of cycles) over the {1,2}-factors of the
    subgraph induced by S, for u = 2^B with B the bit length of n! plus 1.
    Its least vertex v is covered by a K2 with a neighbor a in S, or by a
    cycle v, a, x, ...:

        f(S) = sum_a f(S - {v, a})
               + u/2 * sum_a sum_{x in N(a)} p_v(S - {v, a, x}, x),
        p_v(R, e) = [e ~ v] * f(R) + sum_{x in N(e) & R} p_v(R - {x}, x),

    with f({}) = 1 and a, x in S.  p_v(R, e) closes the open path from v
    that ends at e and leaves R uncovered, in every way that leaves a
    factor: each cycle is counted once per orientation, so the halving is
    exact.  As u = 1 mod u - 1 and u = 2 mod u - 2, f(V) mod u - 1 is t
    and f(V) mod u - 2 the sum of 2^(cycles) over the factors, both exact
    as t <= perm A <= n! < u - 2.  A value is nonzero iff a factor exists.

    f has at most 2^n states of O(n^2) steps and p at most n * 2^n of O(n)
    steps, filled on demand and kept, as are the choices at each set.  A
    nested call has fewer uncovered vertices than its caller (p's path end
    counting as one), so f and p recurse at most n + 1 calls deep; the
    listing and its cycle search keep explicit stacks.  At n <=
    TABLE_N_LIMIT, checked before any recursion, that fits the default
    limit of 1,000 frames below the 10 to 33 frames of any caller (the
    CLI, a pool worker, pytest).
    """

    def __init__(self, g: Graph):
        if g.n > TABLE_N_LIMIT:
            raise ResourceCapError(f"n={g.n} exceeds the factor table's depth limit {TABLE_N_LIMIT}")
        self.nbr = [0] * g.n
        self.edge_id = [[-1] * g.n for _ in range(g.n)]    # u, v -> index of edge uv
        for i, (u, v) in enumerate(g.edges):
            self.nbr[u] |= 1 << v
            self.nbr[v] |= 1 << u
            self.edge_id[u][v] = self.edge_id[v][u] = i
        self.u = 2 << factorial(g.n).bit_length()      # the cycle weight 2^B
        self.f_memo = {0: 1}
        self.p_memo: list[dict[int, int]] = [{} for _ in self.nbr]
        self.choice_lists: dict[int, list] = {}

    def f(self, s: int) -> int:
        memo = self.f_memo
        if s in memo:
            return memo[s]
        nbr, p_memo = self.nbr, self.p_memo
        shift = len(nbr).bit_length()       # p keys: R << shift | e
        half = self.u.bit_length() - 2      # u/2 * acc = acc << half

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
            total += acc << half
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

    def choices(self, s: int) -> list[tuple[tuple[int, ...], str, int]]:
        """The ways to cover the least vertex v of S that leave a set with a
        factor, in listing order, as ((K2 edge,), "", set left) or ((),
        cycle text, set left), the text being "," and the JSON array of the
        cycle's edges: the K2 partners of v in vertex order, then the
        cycles through v in lexicographic order of their vertex sequences,
        each from v toward the smaller of its two neighbors on it.  Reads
        the memos that f(S) filled.

        The cycles come from a depth-first search over paths from v, in
        vertex order, on an explicit stack.  It steps to x only when p of
        the path to x is nonzero and some neighbor of v above the path's
        second vertex is still uncovered; it closes only at such a
        neighbor, and only when what the cycle leaves has a factor."""
        out = self.choice_lists.get(s)
        if out is not None:
            return out
        memo, nbr, edge_id = self.f_memo, self.nbr, self.edge_id
        shift = len(nbr).bit_length()
        low = s & -s
        v = low.bit_length() - 1
        rest = s ^ low
        home = nbr[v]
        pv = self.p_memo[v]
        out = []
        pair = home & rest
        while pair:
            b = pair & -pair
            if memo[rest ^ b]:
                out.append(((edge_id[v][b.bit_length() - 1],), "", rest ^ b))
            pair ^= b
        # each path: its end, the vertices it leaves, the neighbors of v
        # above its second vertex (0 while it is just v) and the text of its
        # edges.  Steps are pushed in falling vertex order, to come off rising
        paths = [(v, rest, 0, ",[")]
        while paths:
            end, left, close, text = paths.pop()
            ids = edge_id[end]
            if close >> end & 1 and memo[left]:
                out.append(((), f"{text}{ids[v]}]", left))
            step = nbr[end] & left
            while step:
                x = step.bit_length() - 1
                b = 1 << x
                step ^= b
                above = close or home & -(b << 1)
                # f(S) filled p for every step but the first
                if above & left and pv.get((left ^ b) << shift | x, 1):
                    paths.append((x, left ^ b, above, f"{text}{ids[x]},"))
        self.choice_lists[s] = out
        return out


def perrank_fast(g: Graph) -> int:
    """perrank: the size of a maximum matching of the bipartite double cover
    (edges u1-v2 and v1-u2 for each edge uv), which is the most vertices
    disjoint K2s and cycles can cover.  The tests check this identity
    against the subset DP on induced subgraphs up to n = 12."""
    return g.n - _sigma(g).count(-1)


@per_graph("_sigma")
def _sigma(g: Graph) -> list[int]:
    """The graph's double-cover matching, kept with the graph, so every
    caller on one graph shares one."""
    return _double_cover_matching(g)


def _double_cover_matching(g: Graph) -> list[int]:
    """A maximum matching of g's bipartite double cover, as sigma: u -> the
    vertex its left copy is matched to (-1 if none).  Grown from each left
    vertex in turn by a breadth-first search over alternating paths, flipped
    at the first free right vertex it reaches (a left vertex with no such
    path then never gets one)."""
    adj = g._adjacency
    match_right = [-1] * g.n            # right vertex -> its left partner
    match_left = [-1] * g.n
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
        while free != -1:               # flip the path root -> ... -> free
            u = via[free]
            match_right[free], match_left[u], free = u, free, match_left[u]
    return match_left
