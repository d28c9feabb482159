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
are therefore only needed outside a spanning forest.  It runs only on graphs
that pass the exact test, so it answers "none" only for a bound k too small.

The structural test `flow_exists_nonbipartite_test` (a connected
non-bipartite graph has a flow iff removing any single edge leaves no
bipartite component) is kept as an independent oracle for the tests.
Observed bounds used by callers: 2-edge-connected bipartite graphs admit
zero-sum 6-flows, and any graph with a zero-sum flow has a zero-sum 12-flow.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .assignments import EdgeAssignment
from .errors import InvalidAssignmentError, PreconditionError, ResourceCapError
from .graph_core import Graph, bipartition, components, induced_subgraph, spanning_forest


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
    """Find a zero-sum flow with values in {+-1, ..., +-(k-1)}, or prove
    there is none within that bound.

    Returns None at once when flow_obstruction proves that no flow exists,
    and otherwise only after a complete search, so absence is certified.  A
    node_budget caps the number of value assignments explored; exceeding it
    raises ResourceCapError (never a false "none").  Disconnected graphs are
    solved per component.
    """
    if k < 2:
        raise PreconditionError("flow bound k must be >= 2")
    if flow_obstruction(g) is not None:
        return None
    values = [0] * g.m
    budget = [node_budget if node_budget is not None else -1]
    for comp in components(g):
        sub, vmap, emap = induced_subgraph(g, comp)
        sol = _solve_component(sub, k, budget)
        if sol is None:
            return None
        for j, val in enumerate(sol):
            values[emap[j]] = val
    return EdgeAssignment(tuple(values), "flow")


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


def _value_order(k: int) -> tuple[int, ...]:
    out = []
    for v in range(1, k):
        out.append(v)
        out.append(-v)
    return tuple(out)


def _solve_component(g: Graph, k: int, budget: list[int]) -> list[int] | None:
    """Complete bounded search on one connected graph.  budget[0] < 0 means
    unlimited; otherwise it is decremented per assignment."""
    m = g.m
    if m == 0:
        return []
    # free choices happen only on edges outside a spanning forest; forest
    # edges are filled in by unit propagation once their subtree is decided
    forest = spanning_forest(g)
    order = [i for i in range(m) if i not in forest] + sorted(forest)
    values = [0] * m
    undecided = [g.degree(v) for v in range(g.n)]
    partial = [0] * g.n
    limit = k - 1
    vals = _value_order(k)

    def feasible(v: int) -> bool:
        if undecided[v] == 0:
            return partial[v] == 0
        return abs(partial[v]) <= limit * undecided[v]

    def assign(eidx: int, val: int, trail: list[int]) -> bool:
        """Set one edge and run forcing to a fixed point.  Records every set
        edge on the trail; returns False on contradiction."""
        queue = [(eidx, val)]
        while queue:
            e, x = queue.pop()
            if values[e] != 0:
                if values[e] != x:
                    return False
                continue
            if budget[0] == 0:
                raise ResourceCapError("zero-sum flow search exceeded its node budget")
            if budget[0] > 0:
                budget[0] -= 1
            values[e] = x
            trail.append(e)
            # update both endpoints before any check so undo stays symmetric
            for v in g.edges[e]:
                partial[v] += x
                undecided[v] -= 1
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
        for e in reversed(trail):
            x = values[e]
            values[e] = 0
            for v in g.edges[e]:
                partial[v] -= x
                undecided[v] += 1

    # depth-first search without recursion: one frame per decided edge,
    # (position in order, index of its value in vals, its trail); values
    # are tried in vals order, so the first flow found is fixed
    frames: list[tuple[int, int, list[int]]] = []
    pos = vi = 0
    while True:
        while pos < m and values[order[pos]] != 0:
            pos += 1
        if pos == m:
            return list(values)
        if vi == len(vals):
            if not frames:
                return None
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
