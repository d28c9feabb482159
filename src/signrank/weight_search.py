"""Construction of nowhere-zero integer weightings that make the adjacency
matrix singular, and impossibility certificates when there are none.

A singular weighting exists iff the graph has at least two {1,2}-factors:

* t = 0: the determinant polynomial is identically zero, so every weighting
  is singular.  Reported as a witness with an explanatory flag rather than
  as impossibility.
* t = 1: the determinant polynomial is a single monomial with nonzero
  coefficient, hence nonzero at every nowhere-zero point; impossibility is
  certified structurally.
* t >= 2: a witness is constructed by trying routes in order:
    flow       a zero-sum flow makes the all-ones vector a kernel vector
               (row sums vanish), giving weights bounded by 5 (bipartite)
               or 11 (non-bipartite);
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
from fractions import Fraction
from math import lcm

from .assignments import EdgeAssignment
from .detpoly import det_poly, is_single_monomial, to_text
from .errors import InvalidAssignmentError, ResourceCapError
from .exact_linalg import adjacency_matrix, det, matrix_at_point
from .factors import count_factors_at_most, edge_membership, iter_factors
from .graph_core import Graph, components, delete_edges, induced_subgraph, is_bipartite
from .zero_sum_flow import find_zero_sum_flow, flow_obstruction

ROOT_TRIALS = 200
TRIAL_MAGNITUDE = 10
FLOW_NODE_BUDGET = 500_000
BIPARTITE_FLOW_BOUND = 6
GENERAL_FLOW_BOUND = 12


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

    @property
    def status(self) -> str:
        if self.witness is not None:
            return "witness"
        return "impossible" if self.certificate_impossible else "inconclusive"


def verify_weight(g: Graph, w: EdgeAssignment) -> str:
    """Exact verdict for a nowhere-zero weighting: "singular" or "full_rank"."""
    w.check_domain(g)
    if any(v == 0 for v in w.values):
        raise InvalidAssignmentError("weights must be nonzero")
    return "singular" if det(adjacency_matrix(g, w)) == 0 else "full_rank"


def find_singular_weight(g: Graph, seed: int = 0) -> WeightSearchOutcome:
    """Find a nowhere-zero integer weighting with singular adjacency matrix,
    or certify impossibility.  See the module docstring for the routes."""
    t2 = count_factors_at_most(g, 2)
    if t2 == 0:
        witness = EdgeAssignment((1,) * g.m, "weight")
        _check_witness(g, witness.values)
        return WeightSearchOutcome(witness, "exhaustive", None, identically_singular=True)
    if t2 == 1:
        poly = det_poly(g)
        assert is_single_monomial(poly)
        reason = (
            "unique factor: determinant polynomial is the single monomial "
            f"{to_text(poly)}, nonzero at every nowhere-zero point"
        )
        return WeightSearchOutcome(None, None, reason)

    values, route = _singular_values(g, random.Random(seed))
    if values is None:
        return WeightSearchOutcome(None, None, None)
    _check_witness(g, values)
    return WeightSearchOutcome(EdgeAssignment(values, "weight"), route, None)


def _check_witness(g: Graph, values: tuple[int, ...]) -> None:
    if any(v == 0 for v in values):
        raise AssertionError("witness contains a zero weight")
    if det(matrix_at_point(g, values)) != 0:
        raise AssertionError("witness failed the exact singularity check")


def _f_at(g: Graph, values) -> int:
    return det(matrix_at_point(g, values))


def _flow_attempt(g: Graph) -> tuple[int, ...] | None:
    """Bounded zero-sum flow search, guarded by the exact existence test so
    it only runs when a flow is known to exist."""
    if g.m == 0 or flow_obstruction(g) is not None:
        return None
    top = BIPARTITE_FLOW_BOUND if is_bipartite(g) else GENERAL_FLOW_BOUND
    for k in range(2, top + 1):
        try:
            sol = find_zero_sum_flow(g, k, node_budget=FLOW_NODE_BUDGET)
        except ResourceCapError:
            continue
        if sol is not None:
            return sol.values
    return None


def _singular_values(
    g: Graph, rng: random.Random
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
            rec, _ = _singular_values(sub, rng)
            if rec is not None:
                return _lift(g.m, emap, rec), "algebraic"
        return None, None

    flow_values = _flow_attempt(g)
    if flow_values is not None:
        return flow_values, "flow"

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
        rec, _ = _singular_values(sub, rng)
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


def _random_point(m: int, rng: random.Random) -> list[int]:
    return [rng.choice((1, -1)) * rng.randint(1, TRIAL_MAGNITUDE) for _ in range(m)]


def _nonzero_rational_root(c1: int, c0: int) -> Fraction | None:
    """A nonzero rational root of c1*x + c0, if one exists."""
    if c1 == 0:
        return Fraction(1) if c0 == 0 else None
    if c0 == 0:
        return None
    return Fraction(-c0, c1)


def _scaled_integer_point(vec: list[Fraction]) -> tuple[int, ...]:
    """Clear denominators: by homogeneity a rational root scales to an
    integer one."""
    d = lcm(*(f.denominator for f in vec)) if vec else 1
    return tuple(int(f * d) for f in vec)


def _hunt_linear_part_root(
    g: Graph, i: int, j: int, rng: random.Random
) -> tuple[int, ...] | None:
    """For f = x_i * h (edge i on a cycle of every factor, never a K2),
    solve h = 0 for edge j, which is never a K2, so h is linear in x_j.
    h does not involve x_i, so it is f with x_i = 1."""
    m = g.m
    for _ in range(ROOT_TRIALS):
        pt = _random_point(m, rng)
        pt[i] = 1

        def h_with(x: int) -> int:
            q = list(pt)
            q[j] = x
            return _f_at(g, q)

        c0 = h_with(0)
        root = _nonzero_rational_root(h_with(1) - c0, c0)
        if root is None:
            continue
        vec = [Fraction(x) for x in pt]
        vec[j] = root
        out = _scaled_integer_point(vec)
        if _f_at(g, out) == 0 and all(out):
            return out
    return None
