"""Zero-sum flows: nowhere-zero integer edge values whose incident sums
vanish at every vertex.

Existence is decided exactly, with no search.  A flow is a nowhere-zero
vector f with B f = 0, where B is the unsigned n x m vertex-edge incidence
matrix.  The kernel of B is the orthogonal complement of its row space, so
some kernel vector is nonzero on edge i unless the unit vector e_i lies in
the row space; and when no e_i does, a generic combination of such kernel
vectors is nonzero on every edge, and a rational flow scales to an integer
one.  `flow_obstruction` runs one fraction-free Gauss-Jordan pass over
[B | I] and either finds no such e_i (a flow exists) or returns an integer
vertex vector y with y^T B = d e_i^T, d != 0.  Summing the vertex equations
of any zero-sum flow with weights y gives d f_i = 0, so y proves that every
flow vanishes on edge i; `verify_obstruction` re-checks it from y, d and
the graph alone.

A zero-sum k-flow uses values in {+-1, ..., +-(k-1)}.  The bounded solver is
a complete backtracking search with constraint propagation: whenever a
vertex has a single undecided incident edge, that edge's value is forced to
cancel the vertex's partial sum, and a vertex whose partial sum cannot be
cancelled by its remaining undecided edges prunes the branch.  Free choices
are therefore only needed outside a spanning forest, whose edges come last
in the search order.  It runs only on graphs that pass the exact test, so it
answers "none" only for a bound k too small; at k = 2 it answers "none" with
no search when a vertex has odd degree.

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

Callers get their flows from one climb, `least_bound_flow`: the solver at
k = 2, 3, ... up to a bound, under one node budget, returning the first flow
of the smallest bound that has one.  Its progress is kept with the graph, so
an analyze record's weight search and flow block climb once between them.

The structural test `flow_exists_nonbipartite_test` (a connected
non-bipartite graph has a flow iff removing any single edge leaves no
bipartite component) is kept as an independent oracle for the tests.
`flow_bound` gives the observed bounds that callers use: 2-edge-connected
bipartite graphs admit zero-sum 6-flows, and any graph with a zero-sum flow
has a zero-sum 12-flow.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .assignments import EdgeAssignment
from .errors import InvalidAssignmentError, PreconditionError, ResourceCapError
from .graph_core import (
    Graph, bipartition, components, forest_parity, is_bipartite, spanning_forest)

DEFAULT_FLOW_NODES = 2_000_000  # a weight search's flow climb, and the flow_nodes cap


class FlowObstruction(NamedTuple):
    """Proof that every zero-sum flow vanishes on one edge: y[u] + y[v] is
    d on edge `edge` and 0 on every other edge uv, with d != 0."""

    edge: int
    y: tuple[int, ...]
    d: int


def flow_obstruction(g: Graph) -> FlowObstruction | None:
    """None when g has a zero-sum flow (of some bound), else an obstruction
    that proves it has none.  Kept in the graph's instance dict, so callers
    on one graph (frozen, so it cannot go stale) share one elimination."""
    cache = vars(g)
    if "_flow_obstruction" not in cache:
        cache["_flow_obstruction"] = _eliminate(g)
    return cache["_flow_obstruction"]


def _eliminate(g: Graph) -> FlowObstruction | None:
    """Fraction-free Gauss-Jordan elimination over the integer rows [B | I]
    (each row is y^T B followed by y^T for its own y), every combined row
    divided by the gcd of its entries.  In the reduced form, e_i lies in the
    row space exactly when the row whose pivot is column i has no other
    nonzero entry in its B part; that row then carries y and d.
    """
    n, m = g.n, g.m
    rows = []
    for v in range(n):
        row = [0] * (m + n)
        for _, eidx in g.incidence[v]:
            row[eidx] = 1
        row[m + v] = 1
        rows.append(row)
    pivots: list[int] = []
    for col in range(m):
        r = len(pivots)
        p = next((i for i in range(r, n) if rows[i][col]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        a = prow[col]
        for i in range(n):
            b = rows[i][col]
            if i == r or not b:
                continue
            row = [a * x - b * z for x, z in zip(rows[i], prow)]
            div = gcd(*row)
            rows[i] = [x // div for x in row] if div > 1 else row
        pivots.append(col)
    for r, col in enumerate(pivots):
        row = rows[r]
        if any(row[j] for j in range(m) if j != col):
            continue
        sign = 1 if row[col] > 0 else -1
        obstruction = FlowObstruction(
            col, tuple(sign * x for x in row[m:]), sign * row[col])
        if not verify_obstruction(g, obstruction):
            raise AssertionError("flow obstruction failed re-verification")
        return obstruction
    return None


def verify_obstruction(g: Graph, obs: FlowObstruction) -> bool:
    """True iff obs proves that every zero-sum flow of g is 0 on obs.edge."""
    if obs.d == 0 or len(obs.y) != g.n or not 0 <= obs.edge < g.m:
        return False
    return all(obs.y[u] + obs.y[v] == (obs.d if i == obs.edge else 0)
               for i, (u, v) in enumerate(g.edges))


def flow_exists_nonbipartite_test(g: Graph) -> bool:
    """Existence test for connected non-bipartite graphs: a zero-sum flow
    exists iff no single edge removal leaves a bipartite component.

    A structural oracle for the tests; callers use flow_obstruction."""
    comps = components(g)
    if len(comps) != 1 or g.n == 0:
        raise PreconditionError("existence test requires a connected graph")
    if bipartition(g, comps[0]).valid:
        raise PreconditionError(
            "existence test requires a non-bipartite graph; use the bounded solver instead")
    for drop in range(g.m):
        edges = tuple(e for i, e in enumerate(g.edges) if i != drop)
        h = Graph(g.n, edges)
        for comp in components(h):
            if bipartition(h, comp).valid:
                return False
    return True


def find_zero_sum_flow(
    g: Graph, k: int, node_budget: int | None = None
) -> EdgeAssignment | None:
    """The first zero-sum flow with values in {+-1, ..., +-(k-1)}, or None
    when flow_obstruction proves there is none, when k = 2 and some vertex
    has odd degree, or after a complete search: absence is certified.  More
    than node_budget value assignments raise ResourceCapError (never a
    false "none").  Components are searched in turn, on g itself."""
    if k < 2:
        raise PreconditionError("flow bound k must be >= 2")
    return _search(g, k, -1 if node_budget is None else node_budget)[0]


def least_bound_flow(g: Graph, bound: int, node_budget: int) -> EdgeAssignment | None:
    """find_zero_sum_flow's flow at the smallest k = 2, ..., bound that has
    one, or None after a complete search at bound, so absence is certified.
    All bounds share node_budget; running out raises ResourceCapError.  The
    bounds searched in full are kept in the graph's instance dict: a later
    call resumes after them, with its own budget."""
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
    """find_zero_sum_flow's answer at k, and what is left of budget."""
    if k == 2 and any(g.degree(v) % 2 for v in range(g.n)):
        return None, budget
    if flow_obstruction(g) is not None:
        return None, budget
    orders, tilt = _search_plan(g)
    values = [0] * g.m
    undecided = [g.degree(v) for v in range(g.n)]
    partial = [0] * g.n
    limit = k - 1
    vals = tuple(x for v in range(1, k) for x in (v, -v))
    # the balance of the component being searched (half its signed partial
    # sum) and how many of its tilted edges are still undecided
    balance = tilted = 0

    def feasible(v: int) -> bool:
        if undecided[v] == 0:
            return partial[v] == 0
        return abs(partial[v]) <= limit * undecided[v]

    def assign(eidx: int, val: int, trail: list[int]) -> bool:
        """Set one edge and run forcing to a fixed point.  Records every set
        edge on the trail; returns False on contradiction.  The budget is
        decremented per assignment; one below 0 never runs out."""
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
                r = abs(balance)
                if (r > limit * tilted or (tilted == 1 and r == 0)
                        or (limit == 1 and (r + tilted) % 2)):
                    return False
            for v in g.edges[e]:
                if not feasible(v):
                    return False
                if undecided[v] == 1:
                    forced = -partial[v]
                    if forced == 0 or abs(forced) > limit:
                        return False
                    for u, e2 in g.incidence[v]:
                        if values[e2] == 0:
                            queue.append((e2, forced))
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
    return EdgeAssignment(tuple(values), "flow"), budget


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
    if any(v == 0 for v in f.values):
        raise InvalidAssignmentError("flow values must be nonzero")
    sums = [0] * g.n
    for idx, (u, v) in enumerate(g.edges):
        sums[u] += f.values[idx]
        sums[v] += f.values[idx]
    return all(s == 0 for s in sums)


def flow_bound(g: Graph) -> int:
    """Observed zero-sum k-flow bound: 6 when g is bipartite, else 12."""
    return 6 if is_bipartite(g) else 12
