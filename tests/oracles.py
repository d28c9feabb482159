"""Slow, independent reference answers that the tests compare the package
against.  None of them has a caller in the package itself."""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations, product
from math import prod
from typing import Iterator

from signrank.assignments import EdgeAssignment
from signrank.errors import PreconditionError
from signrank.factors import Factor, _table, count_factors
from signrank.graph_core import Graph, components, delete_edges, induced_subgraph, is_bipartite
from signrank.zero_sum_flow import _search


def factor_choices(g: Graph, s: int) -> list[tuple[tuple[int, ...], tuple[tuple[int, ...], ...], int]]:
    """The package's choices at the vertex set S (_FactorTable.choices), each
    read back as ((K2 edge,), (), set left) or ((), (cycle edges,), set
    left).  A cycle's text must be "," and its edges' JSON array, as the
    listing writes it; a K2 choice has no text."""
    out = []
    for k2, text, left in _table(g).choices(s):
        cycles = ()
        if text:
            cycle = tuple(json.loads(text[1:]))
            assert text == ",[" + ",".join(map(str, cycle)) + "]", text
            cycles = (cycle,)
        out.append((k2, cycles, left))
    return out


def iter_factors(g: Graph) -> Iterator[Factor]:
    """Every spanning {1,2}-factor exactly once, as Factor tuples, by the
    walk of factors.listing_json over the package's choices
    (factor_choices): at the set S of uncovered vertices, each choice in
    turn, listing a factor when no vertex is left.  The order is that of a
    backtracking search over the lowest uncovered vertex."""
    if g.n == 0:
        yield Factor((), ())
        return
    full = (1 << g.n) - 1
    if not count_factors(g):
        return
    read: dict[int, list] = {}

    def choices(s: int) -> list:
        if s not in read:
            read[s] = factor_choices(g, s)
        return read[s]

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
            yield Factor(k2_edges, cycle_edges)
        else:
            stack.pop()


def enumerate_factors(g: Graph) -> list[Factor]:
    """All {1,2}-factors in canonical order: those of iter_factors grouped
    by K2 edge tuple, groups in sorted order, each in walk order.  The
    reference for factors.listing_json's text."""
    groups = defaultdict(list)
    for f in iter_factors(g):
        groups[f.k2_edges].append(f)
    return [f for k2s in sorted(groups) for f in groups[k2s]]


def flow_exists_nonbipartite_test(g: Graph) -> bool:
    """Existence test for connected non-bipartite graphs: a zero-sum flow
    exists iff no single edge removal leaves a bipartite component."""
    comps = components(g)
    if len(comps) != 1 or g.n == 0:
        raise PreconditionError("existence test requires a connected graph")
    if is_bipartite(g):
        raise PreconditionError(
            "existence test requires a non-bipartite graph; use the bounded solver instead")
    for drop in range(g.m):
        edges = tuple(e for i, e in enumerate(g.edges) if i != drop)
        h = Graph(g.n, edges)
        for comp in components(h):
            if is_bipartite(induced_subgraph(h, comp)[0]):
                return False
    return True


def obstruction_y(g: Graph, edge: int, d: int) -> tuple[int, ...]:
    """The y of the flow obstruction at a coloop `edge` = uv, by a
    breadth-first +-1 colouring of G - e with no spanning forest: with
    d = 2, of the component of u, +1 at u; with d = 1, of the bipartite side
    of the bridge (in a bipartite component, the side without its largest
    vertex), +1 at the edge's end on it.  0 everywhere else."""

    def colouring(start: int) -> tuple[dict[int, int], bool]:
        """start's component in G - e, coloured +1 at start, and whether
        the colouring is proper."""
        col, proper = {start: 1}, True
        queue = [start]
        for a in queue:
            for b, i in g.incidence[a]:
                if i == edge:
                    continue
                if b not in col:
                    col[b] = -col[a]
                    queue.append(b)
                proper &= col[b] != col[a]
        return col, proper

    u, v = g.edges[edge]
    col, proper = colouring(u)
    if d == 1:
        other, other_proper = colouring(v)
        if not proper or other_proper and max(other) < max(col):
            col = other
    y = [0] * g.n
    for w, c in col.items():
        y[w] = c
    return tuple(y)


def has_bridge(g: Graph) -> bool:
    """Whether deleting some edge leaves more components than g has."""
    base = len(components(g))
    return any(len(components(delete_edges(g, (i,))[0])) > base for i in range(g.m))


def factor_expansion(g: Graph) -> dict[tuple[int, ...], int]:
    """The determinant polynomial of the symbolic adjacency matrix (x_i on
    edge i) as exponent tuple -> coefficient, one term per {1,2}-factor:
    exponent 2 on its K2 edges and 1 on its cycle edges, coefficient -1 per
    K2 and (-1)^(length - 1) * 2 per cycle (its two orientations)."""
    terms = {}
    for f in iter_factors(g):
        exp = [0] * g.m
        coeff = (-1) ** len(f.k2_edges)
        for i in f.k2_edges:
            exp[i] = 2
        for cyc in f.cycles:
            coeff *= 2 * (-1) ** (len(cyc) - 1)
            for i in cyc:
                exp[i] = 1
        terms[tuple(exp)] = coeff
    return terms


def expansion_at(terms: dict[tuple[int, ...], int], point) -> int:
    """Exact value of an expansion at an integer point."""
    return sum(c * prod(x ** e for x, e in zip(point, exp)) for exp, c in terms.items())


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


def mod3_flow(g: Graph) -> tuple[int, ...] | None:
    """A nowhere-zero flow mod 3 (values in {1, 2}, every vertex sum 0 mod
    3), or None when there is none.  A basis of ker B over GF(3), B the
    vertex-edge incidence matrix, has one vector per free column of B's
    reduced row echelon form; a kernel vector is nowhere zero only if its
    coordinate on each free column, the coefficient of that column's basis
    vector, is 1 or 2, so every such combination is tried in turn."""
    rows = [[int(v in e) for e in g.edges] for v in range(g.n)]
    pivots: list[int] = []
    for c in range(g.m):
        r = len(pivots)
        p = next((i for i in range(r, g.n) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inverse = rows[r][c]  # 1 and 2 are their own inverses mod 3
        pivot = rows[r] = [x * inverse % 3 for x in rows[r]]
        for i in range(g.n):
            if i != r and (factor := rows[i][c]):
                rows[i] = [(x - factor * y) % 3 for x, y in zip(rows[i], pivot)]
        pivots.append(c)
    basis = []
    for f in (c for c in range(g.m) if c not in pivots):
        vec = [0] * g.m
        vec[f] = 1
        for i, c in enumerate(pivots):
            vec[c] = -rows[i][f] % 3
        basis.append(vec)
    for coeffs in product((1, 2), repeat=len(basis)):
        # the free coordinates are the coefficients, nonzero by choice
        if all(sum(a * vec[c] for a, vec in zip(coeffs, basis)) % 3 for c in pivots):
            return tuple(sum(a * vec[e] for a, vec in zip(coeffs, basis)) % 3
                         for e in range(g.m))
    return None


@dataclass(frozen=True)
class EdgeMembership:
    """Per-edge membership across all factors: whether the edge is ever a K2
    component, ever on a cycle, and present in every factor.  With no
    factors all flags are false."""

    in_k2: tuple[bool, ...]
    in_cycle: tuple[bool, ...]
    in_all: tuple[bool, ...]

    def present(self, i: int) -> bool:
        return self.in_k2[i] or self.in_cycle[i]


def edge_membership(g: Graph) -> EdgeMembership:
    """Edge membership read from the full factor listing: the reference
    for factors.factor_edges and for the weight search's root hunt.
    Intended for small t."""
    t = count_factors(g)
    in_k2 = [False] * g.m
    in_cycle = [False] * g.m
    presence = [0] * g.m
    for f in iter_factors(g):
        for i in f.k2_edges:
            in_k2[i] = True
            presence[i] += 1
        for cyc in f.cycles:
            for i in cyc:
                in_cycle[i] = True
                presence[i] += 1
    in_all = [t > 0 and count == t for count in presence]
    return EdgeMembership(tuple(in_k2), tuple(in_cycle), tuple(in_all))
