"""Zero-sum flows: nowhere-zero integer edge values whose incident sums
vanish at every vertex.

Existence is decided exactly, with no search, in O(n + m).  A flow is a
nowhere-zero vector f with B f = 0, B the unsigned n x m vertex-edge
incidence matrix.  Every kernel vector of B vanishes on edge e exactly when
e is a coloop of B's column matroid; when no edge is one, a generic kernel
vector is nonzero on every edge and scales to an integer flow.  That
matroid is the frame matroid of the all-negative signed graph (Zaslavsky,
"Signed graphs", Discrete Appl. Math. 1982), and B has rank n minus the
number of bipartite components (van Nuffelen, IEEE Trans. Circuits Syst.
1976), so e is a coloop exactly when G - e has more bipartite components
than G: e is a bridge with a bipartite side, or e lies on every odd cycle
of a non-bipartite component.  `flow_obstruction` names the smallest-index
coloop with an integer vertex vector y and a d > 0 such that y[u] + y[v] is
d on e and 0 on every other edge uv.  Summing the vertex equations of any
zero-sum flow with weights y gives d f_e = 0, and `verify_obstruction`
re-checks y, d and e from the graph alone.  The coloops are read off the
graph's one walk (see graph_core): an edge outside its forest closes a
cycle through the lowest common ancestor of its ends, so one pass of sums
up the forest counts the odd and the even cycles over each forest edge.

A zero-sum k-flow uses values in {+-1, ..., +-(k-1)}.  The bounded solver is
a complete backtracking search with constraint propagation: whenever a
vertex has a single undecided incident edge, that edge's value is forced to
cancel the vertex's partial sum, and a vertex whose partial sum cannot be
cancelled by its remaining undecided edges prunes the branch.  Free choices
are therefore only needed outside a spanning forest, whose edges come last
in the search order.  It runs only on graphs that pass the exact test, so it
answers "none" only for a bound k too small.

A balance condition cuts branches that forcing cannot see.  Colour each
vertex by the parity of its forest depth, and call an edge between two
vertices of one colour tilted.  In a flow, the signed sum of the vertex sums
over a component is 0; an untilted edge adds x - x = 0 to it and a tilted
one 2x or -2x.  So the open tilted edges, each moving half that sum by 1 to
k-1 either way, must be able to bring it back to 0.  (Once none is open, the
edges left to search form a bipartite graph, which needs exactly this; the
parity that a non-bipartite rest would need always holds.)  Every flow meets
the condition, so it cuts only branches with no flow, and the branches kept
are tried in the same order: the first flow found is the same, in fewer
nodes.

Relaxations prove "none" at the two smallest bounds.  A k-flow taken mod k
is nonzero on every edge with every vertex sum 0 mod k.  Mod 2 that needs
every degree even, so k = 2 answers "none" at an odd degree with no search.
Mod 3 it is a nowhere-zero Z_3 flow of the all-negative bidirected graph
(Bouchet, "Nowhere-zero integral flows on a bidirected graph", J. Combin.
Theory Ser. B 1983), and k = 3 first runs the same search for one, with
+-1 standing for the residues 1 and 2 and every sum read mod 3.  When there
is none, k = 3 has no flow: over the graphs of order at most 7, the 141
with a flow but no 3-flow are refuted in 5,434 nodes, against 70,904 for
the integer search.  When there is one, the integer search runs as it would
alone, so the first flow is the same; both searches spend one budget.

Callers get their flows from one climb, `least_bound_flow`: the solver at
k = 2, 3, ... up to a bound, under one node budget, returning the first flow
of the smallest bound that has one.  Its progress is kept with the graph, so
an analyze record's weight search and flow block climb once between them.

`flow_bound` gives the observed bounds that callers use: 2-edge-connected
bipartite graphs admit zero-sum 6-flows, and any graph with a zero-sum flow
has a zero-sum 12-flow.
"""

from __future__ import annotations

from typing import NamedTuple

from .assignments import EdgeAssignment
from .errors import PreconditionError, ResourceCapError
from .graph_core import Graph, components, forest_parity, is_bipartite, spanning_forest

DEFAULT_FLOW_NODES = 2_000_000  # a weight search's flow climb, and the flow_nodes cap


class FlowObstruction(NamedTuple):
    """Proof that every zero-sum flow vanishes on one edge: y[u] + y[v] is
    d on edge `edge` and 0 on every other edge uv, with d != 0."""

    edge: int
    y: tuple[int, ...]
    d: int


def flow_obstruction(g: Graph) -> FlowObstruction | None:
    """None when g has a zero-sum flow (of some bound), else the obstruction
    at the smallest-index coloop of B, which proves it has none.  Kept in
    the graph's instance dict, so callers on one graph (frozen, so it cannot
    go stale) share one answer."""
    cache = vars(g)
    if "_flow_obstruction" not in cache:
        obstruction = _first_coloop(g)
        if obstruction is not None and not verify_obstruction(g, obstruction):
            raise AssertionError("flow obstruction failed re-verification")
        cache["_flow_obstruction"] = obstruction
    return cache["_flow_obstruction"]


def _first_coloop(g: Graph) -> FlowObstruction | None:
    """The obstruction at the smallest-index coloop of B, or None.

    Each edge ab outside the walk's forest, with b popped later, marks +1
    at a and at b and -2 at b's parent, their lowest common ancestor.
    Summed from the leaves up, the marks give per tree edge (kept at its
    lower end c) the odd cycles (a, b at depths of one parity) and the even
    ones that cover it; a 1 at the ancestor per odd cycle gives those within
    c's subtree.  Subtrees and components are runs of the walk's order.

    - A bridge with a bipartite side: y is +-1 by depth parity on that side
      (in a bipartite component, the side without its largest vertex), d = 1.
    - A tree edge covered by every odd cycle of its component and by no
      even one, or a component's only odd edge outside the forest: y is the
      +-1 colouring of the component without that edge, whose ends share a
      colour, d = 2.
    """
    n = g.n
    walk = g._walk
    depth, up, order = walk.depth, walk.up, walk.order
    pre, root = [0] * n, [0] * n
    for i, v in enumerate(order):
        pre[v], root[v] = i, v if up[v] < 0 else root[up[v]]
    odd_cover, even_cover, odd_inside = [0] * n, [0] * n, [0] * n
    for i, (a, b) in enumerate(g.edges):
        if i not in walk.forest:
            w = up[b if pre[a] < pre[b] else a]
            odd = (depth[a] - depth[b]) % 2 == 0
            cover = odd_cover if odd else even_cover
            cover[a] += 1
            cover[b] += 1
            cover[w] -= 2
            odd_inside[w] += odd
    size = [1] * n
    for v in reversed(order):
        if (p := up[v]) >= 0:
            size[p] += size[v]
            odd_cover[p] += odd_cover[v]
            even_cover[p] += even_cover[v]
            odd_inside[p] += odd_inside[v]

    y = [0] * n

    def colour(vertices: list[int], anchor: int) -> None:
        """+1 on the vertices at anchor's depth parity, -1 on the rest."""
        for v in vertices:
            y[v] = -1 if (depth[v] - depth[anchor]) % 2 else 1

    for i, (u, w) in enumerate(g.edges):
        r = root[u]
        odd_in_comp = odd_inside[r]
        start, stop = pre[r], pre[r] + size[r]     # r's component
        if up[u] != w and up[w] != u:
            if odd_in_comp == 1 and (depth[u] - depth[w]) % 2 == 0:
                colour(order[start:stop], u)
                return FlowObstruction(i, tuple(y), 2)
            continue
        c, p = (u, w) if up[u] == w else (w, u)
        lo, hi = pre[c], pre[c] + size[c]           # c's subtree
        if odd_cover[c] or even_cover[c]:
            if odd_in_comp and odd_cover[c] == odd_in_comp and not even_cover[c]:
                colour(order[start:stop], p)
                colour(order[lo:hi], c)
                return FlowObstruction(i, tuple(y), 2)
            continue
        # a bridge, with odd_inside[c] of the component's odd cycles below
        if odd_inside[c] == 0 and (odd_in_comp or not lo <= pre[max(order[start:stop])] < hi):
            colour(order[lo:hi], c)
        elif odd_inside[c] == odd_in_comp:
            colour(order[start:lo] + order[hi:stop], p)
        else:
            continue
        return FlowObstruction(i, tuple(y), 1)
    return None


def verify_obstruction(g: Graph, obs: FlowObstruction) -> bool:
    """True iff obs proves that every zero-sum flow of g is 0 on obs.edge."""
    if obs.d == 0 or len(obs.y) != g.n or not 0 <= obs.edge < g.m:
        return False
    return all(obs.y[u] + obs.y[v] == (obs.d if i == obs.edge else 0)
               for i, (u, v) in enumerate(g.edges))


def least_bound_flow(g: Graph, bound: int, node_budget: int) -> EdgeAssignment | None:
    """The first zero-sum flow with values in {+-1, ..., +-(k-1)} at the
    smallest k = 2, ..., bound that has one, or None after a complete search
    at bound, so absence is certified.  All bounds share node_budget; running
    out raises ResourceCapError.  The bounds searched in full are kept in the
    graph's instance dict: a later call resumes after them, with its own
    budget."""
    if bound < 2:
        raise PreconditionError("flow bound must be >= 2")
    cache = vars(g)
    # bounds below k have no flow; flow is k's, or None if k is not searched
    k, flow = cache.get("_flow_climb", (2, None))
    while flow is None and k <= bound:
        flow, node_budget = _search(g, k, node_budget)
        if flow is None:
            k += 1
        cache["_flow_climb"] = k, flow
    return flow if k <= bound else None


def _search(g: Graph, k: int, budget: int) -> tuple[EdgeAssignment | None, int]:
    """The first flow with values in {+-1, ..., +-(k-1)}, or None when
    flow_obstruction proves there is none, when k = 2 and some vertex has
    odd degree (no flow mod 2), when k = 3 and a complete search mod 3 finds
    no flow mod 3, or after a complete search; and what is left of budget.
    Past budget value assignments, those of the search mod 3 included, it
    raises ResourceCapError (never a false "none"); a budget below 0 never
    runs out.  Components are searched in turn, on g itself."""
    if k == 2 and any(g.degree(v) % 2 for v in range(g.n)):
        return None, budget
    if flow_obstruction(g) is not None:
        return None, budget
    if k == 3:
        residues, budget = _first_flow(g, 2, budget, modulus=3)
        if residues is None:
            return None, budget
    values, budget = _first_flow(g, k, budget)
    return (None if values is None else EdgeAssignment(values, "flow")), budget


def _first_flow(
    g: Graph, k: int, budget: int, modulus: int = 0
) -> tuple[tuple[int, ...] | None, int]:
    """The depth-first search behind _search: the first values in
    {+-1, ..., +-(k-1)}, edge by edge in _search_plan's order, whose vertex
    sums are 0, or with modulus 3 are 0 mod 3; or None after a complete
    search.  Returns what is left of budget too."""
    orders, tilt = _search_plan(g)
    values = [0] * g.m
    undecided = [g.degree(v) for v in range(g.n)]
    partial = [0] * g.n
    limit = k - 1
    vals = tuple(x for v in range(1, k) for x in (v, -v))
    # the parity test of the balance condition holds only for +-1 sums that
    # are not reduced mod 3
    parity = limit == 1 and not modulus
    # the balance of the component being searched (half its signed partial
    # sum; mod 3, finished components leave a multiple of 3 in it) and how
    # many of its tilted edges are still undecided
    balance = tilted = 0

    def assign(eidx: int, val: int, trail: list[int]) -> bool:
        """Set one edge and run forcing to a fixed point.  Records every set
        edge on the trail; returns False on contradiction.  The budget is
        decremented per assignment; one below 0 never runs out.  Mod 3 every
        check reads a sum as its residue in {-1, 0, 1}, and limit is 1."""
        nonlocal budget, balance, tilted
        queue = [(eidx, val)]
        while queue:
            e, x = queue.pop()
            if values[e] != 0:
                # a second entry for e was queued from its other end w,
                # whose only open edge was e; setting e from the first
                # entry left w feasible only if the two values agree
                continue
            if budget == 0:
                raise ResourceCapError("zero-sum flow search exceeded its node budget")
            budget -= 1
            values[e] = x
            trail.append(e)
            # update both endpoints and the balance before any check so undo
            # stays symmetric
            for v in g.edges[e]:
                partial[v] += x
                undecided[v] -= 1
            if tilt[e]:
                balance += tilt[e] * x
                tilted -= 1
                # each open tilted edge moves the balance by +-1..+-limit,
                # and together they must bring it back to 0
                r = abs((balance + 1) % 3 - 1 if modulus else balance)
                if r > limit * tilted or (tilted == 1 and r == 0) or (parity and (r + tilted) % 2):
                    return False
            for v in g.edges[e]:
                # the open edges at v must be able to cancel its sum s, and
                # when one is left, it takes the value -s
                s = (partial[v] + 1) % 3 - 1 if modulus else partial[v]
                if abs(s) > limit * undecided[v]:
                    return False
                if undecided[v] == 1:
                    if s == 0:
                        return False
                    for u, e2 in g.incidence[v]:
                        if values[e2] == 0:
                            queue.append((e2, -s))
                            break
        return True

    def undo(trail: list[int]) -> None:
        nonlocal balance, tilted
        for e in reversed(trail):
            x = values[e]
            values[e] = 0
            for v in g.edges[e]:
                partial[v] -= x
                undecided[v] += 1
            if tilt[e]:
                balance -= tilt[e] * x
                tilted += 1

    # depth-first search without recursion, one component at a time: one
    # frame per decided edge, (position in order, index of its value in vals,
    # its trail); values are tried in vals order, so the first flow found is
    # fixed
    for order in orders:
        tilted = sum(1 for e in order if tilt[e])
        frames: list[tuple[int, int, list[int]]] = []
        pos = vi = 0
        while True:
            while pos < len(order) and values[order[pos]] != 0:
                pos += 1
            if pos == len(order):
                break
            if vi == len(vals):
                if not frames:
                    return None, budget
                pos, vi, trail = frames.pop()
                undo(trail)
                vi += 1
                continue
            trail = []
            if assign(order[pos], vals[vi], trail):
                frames.append((pos, vi, trail))
                pos, vi = pos + 1, 0
            else:
                undo(trail)
                vi += 1
    return tuple(values), budget


def _search_plan(g: Graph) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Per component, its edges in search order (outside the spanning forest
    first, then the forest edges, each group in index order), and per edge,
    its tilt: the colour, +1 at even forest depth and -1 at odd, that its
    ends share, or 0.  Kept in the graph's instance dict, so every bound of
    a climb shares them."""
    cache = vars(g)
    if "_flow_plan" not in cache:
        forest = spanning_forest(g)
        comps = components(g)
        where = {v: c for c, comp in enumerate(comps) for v in comp}
        orders: list[list[int]] = [[] for _ in comps]
        for i in sorted(range(g.m), key=lambda i: i in forest):
            orders[where[g.edges[i][0]]].append(i)
        colour = [1 - 2 * p for p in forest_parity(g)]
        tilt = tuple(colour[u] if colour[u] == colour[v] else 0 for u, v in g.edges)
        cache["_flow_plan"] = tuple(map(tuple, orders)), tilt
    return cache["_flow_plan"]


def verify_flow(g: Graph, f: EdgeAssignment) -> bool:
    """True iff f is nowhere zero on E(g) and every vertex sum is zero."""
    f.check_domain(g)
    sums = [0] * g.n
    for idx, (u, v) in enumerate(g.edges):
        sums[u] += f.values[idx]
        sums[v] += f.values[idx]
    return all(s == 0 for s in sums)


def flow_bound(g: Graph) -> int:
    """Observed zero-sum k-flow bound: 6 when g is bipartite, else 12."""
    return 6 if is_bipartite(g) else 12
