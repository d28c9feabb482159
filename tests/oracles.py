"""Slow, independent reference answers that the tests compare the package
against.  None of them has a caller in the package itself."""

from __future__ import annotations

from itertools import combinations

from signrank.assignments import EdgeAssignment
from signrank.errors import PreconditionError
from signrank.factors import _table
from signrank.graph_core import Graph, bipartition, components
from signrank.zero_sum_flow import _search


def flow_exists_nonbipartite_test(g: Graph) -> bool:
    """Existence test for connected non-bipartite graphs: a zero-sum flow
    exists iff no single edge removal leaves a bipartite component."""
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
    """The flow search at one bound k, outside least_bound_flow's climb: the
    first zero-sum flow with values in {+-1, ..., +-(k-1)}, or None when
    there is none.  More than node_budget value assignments raise
    ResourceCapError (never a false "none")."""
    if k < 2:
        raise PreconditionError("flow bound k must be >= 2")
    return _search(g, k, -1 if node_budget is None else node_budget)[0]


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


def switch_at_vertex(g: Graph, values: tuple[int, ...], v: int) -> tuple[int, ...]:
    """Negate the sign of every edge incident to v (a switching)."""
    out = list(values)
    for _, eidx in g.incidence[v]:
        out[eidx] = -out[eidx]
    return tuple(out)
