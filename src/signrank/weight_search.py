"""Construction of nowhere-zero integer weightings that make the adjacency
matrix singular, and impossibility certificates when there are none.

A singular weighting exists iff the graph has at least two {1,2}-factors;
which of t = 0, 1 or >= 2 holds, and which factors use which edges, is read
off the double-cover matching, so no route builds a factor table:

* t = 0: the determinant polynomial is identically zero, so every weighting
  is singular.  Reported as a witness with an explanatory flag rather than
  as impossibility.
* t = 1: the determinant polynomial is a single monomial with nonzero
  coefficient, hence nonzero at every nowhere-zero point; impossibility is
  certified structurally, by the monomial of the factor.
* t >= 2: a witness is constructed by trying routes in order:
    flow       a zero-sum flow makes the all-ones vector a kernel vector
               (row sums vanish): the least-bound flow up to flow_bound
               bounds weights by 5 (bipartite) or 11 (non-bipartite); a
               climb that runs out of nodes passes on to the next route;
    algebraic  split into components, drop every edge that lies in no
               factor (it does not occur in the determinant polynomial f),
               then for an edge j that is never a K2 and lies outside some
               factor, f = x_j * a + b with a and b nonzero: solve it for
               x_j at random integer points, and scale the rational root
               to integers using homogeneity (f(d*a) = d^n f(a)).

The t = 0 witness keeps the route label "exhaustive" (every weighting is a
witness).  Every witness is re-verified by an exact determinant before it
is returned; a search that finds none reports "inconclusive", never false
impossibility.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

from .assignments import EdgeAssignment
from .errors import ResourceCapError
from .exact_linalg import adjacency_matrix, det, matrix_at_point
from .factors import count_factors_at_most, factor_edges, has_factor, matching_cycles
from .graph_core import Graph, components, delete_edges, induced_subgraph
from .zero_sum_flow import DEFAULT_FLOW_NODES, flow_bound, least_bound_flow

ROOT_TRIALS = 200
TRIAL_MAGNITUDE = 10


@dataclass(frozen=True)
class WeightSearchOutcome:
    """Result of a singular-weight search.

    witness                nowhere-zero weighting with det = 0, if found
    route                  "flow" | "algebraic" | "exhaustive" (how the
                           witness was produced; "exhaustive" only for
                           the vacuous t = 0 witness)
    certificate_impossible reason string when no singular weighting exists
    identically_singular   true when the graph has no factor at all, so the
                           determinant vanishes for every weighting and the
                           witness is vacuous
    """

    witness: EdgeAssignment | None
    route: str | None
    certificate_impossible: str | None
    identically_singular: bool = False


def verify_weight(g: Graph, w: EdgeAssignment) -> str:
    """Exact verdict for a nowhere-zero weighting: "singular" or "full_rank"."""
    return "singular" if det(adjacency_matrix(g, w)) == 0 else "full_rank"


def find_singular_weight(
    g: Graph, seed: int = 0, node_budget: int = DEFAULT_FLOW_NODES
) -> WeightSearchOutcome:
    """Find a nowhere-zero integer weighting with singular adjacency matrix,
    or certify impossibility.  See the module docstring for the routes;
    node_budget bounds each flow climb."""
    t2 = count_factors_at_most(g, 2)
    if t2 == 1:
        reason = (
            "unique factor: determinant polynomial is the single monomial "
            f"{_monomial_text(g)}, nonzero at every nowhere-zero point"
        )
        return WeightSearchOutcome(None, None, reason)
    if t2 == 0:
        values, route = (1,) * g.m, "exhaustive"
    else:
        values, route = _singular_values(g, random.Random(seed), node_budget)
        if values is None:
            return WeightSearchOutcome(None, None, None)
    witness = EdgeAssignment(values, "weight")
    if verify_weight(g, witness) != "singular":
        raise AssertionError("witness failed the exact singularity check")
    return WeightSearchOutcome(witness, route, None, identically_singular=t2 == 0)


def _monomial_text(g: Graph) -> str:
    """The one term of the determinant polynomial when g has one factor F,
    the cycles of the double-cover matching: x_i^2 on its K2 edges and x_i
    on its cycle edges, in edge order, with coefficient (-1)^(#K2 + #even
    cycles) * 2^(#cycles); "1" for n = 0.  The K2s are sigma's 2-cycles."""
    cycles = matching_cycles(g)
    power = _edges_of(cycles)
    mono = "*".join(f"x{i + 1}{power[e]}" for i, e in enumerate(g.edges) if e in power) or "1"
    negative = sum(len(c) % 2 == 0 for c in cycles) % 2
    long = sum(len(c) > 2 for c in cycles)
    return "-" * negative + (f"{1 << long}*" if long else "") + mono


def _edges_of(cycles: tuple[tuple[int, ...], ...]) -> dict[tuple[int, int], str]:
    """The edges (u, v), u < v, of vertex cycles, each mapped to its power
    in the monomial: "^2" on a K2, "" on a longer cycle."""
    return {(min(a, b), max(a, b)): "^2" if len(c) == 2 else ""
            for c in cycles for a, b in zip(c, c[1:] + c[:1])}


def _singular_values(
    g: Graph, rng: random.Random, node_budget: int
) -> tuple[tuple[int, ...] | None, str | None]:
    """(values, route) of a witness for a graph with at least two factors,
    or (None, None), by component split, flow, dropping unused edges and a
    linear-part root hunt.  The route is "flow" only when g is connected
    and its own flow is the witness; anything found by recursing is
    "algebraic"."""
    comps = components(g)
    if len(comps) > 1:
        for comp in comps:
            sub, _, emap = induced_subgraph(g, comp)
            if count_factors_at_most(sub, 2) < 2:
                continue
            rec, _ = _singular_values(sub, rng, node_budget)
            if rec is not None:
                return _lift(g.m, emap, rec), "algebraic"
        return None, None

    try:
        flow = least_bound_flow(g, flow_bound(g), node_budget)
    except ResourceCapError:
        flow = None
    if flow is not None:
        return flow.values, "flow"

    # edges in no factor do not occur in the determinant polynomial: drop
    # them and solve the rest.  No separate split is needed for an edge uv
    # that is a K2 in every factor, or a cycle in every factor: every other
    # edge at its vertices lies in no factor, so after the drop it is a
    # component of its own and the component split reaches the same
    # subproblem (G - u - v, or G minus the cycle).
    unused = [i for i, present in enumerate(factor_edges(g)) if not present]
    if unused:
        sub, emap = delete_edges(g, unused)
        rec, _ = _singular_values(sub, rng, node_budget)
        return (None, None) if rec is None else (_lift(g.m, emap, rec), "algebraic")
    sol = _hunt_linear_root(g, rng)
    return (None, None) if sol is None else (sol, "algebraic")


def _lift(m: int, emap: tuple[int, ...], rec: tuple[int, ...]) -> tuple[int, ...]:
    """Extend recursed witness values to the parent graph, weight 1 on edges
    the recursion dropped (they do not occur in the determinant polynomial)."""
    out = [1] * m
    for j, val in enumerate(rec):
        out[emap[j]] = val
    return tuple(out)


def _root_point(pt: list[int], j: int, c1: int, c0: int) -> tuple[int, ...] | None:
    """pt with x_j at the nonzero root of c1*x + c0 (1 if it vanishes), scaled
    to integers by homogeneity; None when it has no nonzero root."""
    if (c1 == 0) != (c0 == 0):
        return None
    d = abs(c1) // gcd(c0, c1) if c1 else 1
    out = [x * d for x in pt]
    out[j] = -c0 * d // c1 if c1 else 1
    return tuple(out)


def _hunt_linear_root(g: Graph, rng: random.Random) -> tuple[int, ...] | None:
    """A root of f at a random integer point, solved for the first edge j
    that has one.  Every edge of g lies in some factor; when j = uv is also
    never a K2 (G - u - v has no factor) and lies outside some factor (it
    is not in the matching factor F, or G - j has a factor), f = x_j * a + b
    with a and b nonzero, so x_j = -b/a at a point where both are nonzero.
    The root is exact, so f vanishes there; find_singular_weight re-checks
    the witness.  None, with no determinant taken, when no edge qualifies."""
    in_factor = _edges_of(matching_cycles(g))
    for j, (u, v) in enumerate(g.edges):
        if (u, v) in in_factor and not has_factor(delete_edges(g, (j,))[0]):
            continue        # in every factor
        if has_factor(induced_subgraph(g, set(range(g.n)) - {u, v})[0]):
            continue        # a K2 of some factor
        for _ in range(ROOT_TRIALS):
            pt = [rng.choice((1, -1)) * rng.randint(1, TRIAL_MAGNITUDE) for _ in range(g.m)]

            def f_with(x: int) -> int:
                q = list(pt)
                q[j] = x
                return det(matrix_at_point(g, q))

            c0 = f_with(0)
            out = _root_point(pt, j, f_with(1) - c0, c0)
            if out is not None:
                return out
    return None
