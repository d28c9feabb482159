"""Construction of nowhere-zero integer weightings that make the adjacency
matrix singular, and impossibility certificates when there are none.

A singular weighting exists iff the graph has at least two {1,2}-factors;
which of t = 0, 1 or >= 2 holds is read off the double-cover matching, so
only the algebraic route below builds a factor table:

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
               then for an edge i on a cycle of every factor, f = x_i * h:
               solve h = 0 for a cycle edge j that is never a K2 (h is
               linear in x_j) at random integer points, and scale the
               rational root to integers using homogeneity
               (f(d*a) = d^n f(a)).

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
from .factors import Factor, count_factors_at_most, edge_membership, iter_factors, matching_factor
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
    if t2 == 0:
        witness = EdgeAssignment((1,) * g.m, "weight")
        _check_witness(g, witness)
        return WeightSearchOutcome(witness, "exhaustive", None, identically_singular=True)
    if t2 == 1:
        mono = _monomial_text(matching_factor(g))
        reason = (
            "unique factor: determinant polynomial is the single monomial "
            f"{mono}, nonzero at every nowhere-zero point"
        )
        return WeightSearchOutcome(None, None, reason)

    values, route = _singular_values(g, random.Random(seed), node_budget)
    if values is None:
        return WeightSearchOutcome(None, None, None)
    witness = EdgeAssignment(values, "weight")
    _check_witness(g, witness)
    return WeightSearchOutcome(witness, route, None)


def _monomial_text(f: Factor) -> str:
    """The one term of the determinant polynomial when f is the only factor:
    x_i^2 on its K2 edges and x_i on its cycle edges, in edge order, with
    coefficient (-1)^(#K2 + #even cycles) * 2^(#cycles); "1" for n = 0."""
    powers = dict.fromkeys(f.k2_edges, "^2")
    powers.update((i, "") for cyc in f.cycles for i in cyc)
    mono = "*".join(f"x{i + 1}{powers[i]}" for i in sorted(powers)) or "1"
    negative = (len(f.k2_edges) + sum(len(c) % 2 == 0 for c in f.cycles)) % 2
    scale = f"{1 << len(f.cycles)}*" if f.cycles else ""
    return "-" * negative + scale + mono


def _check_witness(g: Graph, w: EdgeAssignment) -> None:
    if verify_weight(g, w) != "singular":
        raise AssertionError("witness failed the exact singularity check")


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
    prof = edge_membership(g)
    unused = [i for i in range(g.m) if not prof.present(i)]
    if unused:
        sub, emap = delete_edges(g, unused)
        rec, _ = _singular_values(sub, rng, node_budget)
        return (None, None) if rec is None else (_lift(g.m, emap, rec), "algebraic")

    # Edge i below exists whenever g has no zero-sum flow.  Each factor F
    # gives x_F (2 on its K2 edges, 1 on its cycle edges) with
    # B x_F = 2 * (1, ..., 1) for the vertex-edge incidence matrix B, so
    # x_F - x_F' is a zero-sum flow where it is nonzero.  Were every edge
    # to take two values across the factors, a generic combination of
    # these would be a nowhere-zero flow.  So some edge has the same x_F in
    # every factor: not 0 (dropped above) and not 2 (a K2 in every factor
    # is a component with one factor, never recursed into), hence it lies
    # on a cycle in every factor.  Then f = x_i * h, and h is linear in any
    # cycle edge j that is never a K2.
    first = next(iter_factors(g))
    for i in range(g.m):
        if prof.in_all[i] and not prof.in_k2[i]:
            cyc = next(c for c in first.cycles if i in c)
            for j in cyc:
                if j != i and not prof.in_all[j] and not prof.in_k2[j]:
                    sol = _hunt_linear_part_root(g, i, j, rng)
                    if sol is not None:
                        return sol, "algebraic"
    return None, None


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


def _hunt_linear_part_root(
    g: Graph, i: int, j: int, rng: random.Random
) -> tuple[int, ...] | None:
    """For f = x_i * h (edge i on a cycle of every factor, never a K2),
    solve h = 0 for edge j, which is never a K2, so h is linear in x_j.
    h does not involve x_i, so it is f with x_i = 1.  Its root is exact, so
    f vanishes there; find_singular_weight re-checks the witness."""
    for _ in range(ROOT_TRIALS):
        pt = [rng.choice((1, -1)) * rng.randint(1, TRIAL_MAGNITUDE) for _ in range(g.m)]
        pt[i] = 1

        def h_with(x: int) -> int:
            q = list(pt)
            q[j] = x
            return det(matrix_at_point(g, q))

        c0 = h_with(0)
        out = _root_point(pt, j, h_with(1) - c0, c0)
        if out is not None and all(out):
            return out
    return None
