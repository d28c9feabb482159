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
    algebraic  structural reductions (an edge in no factor, an edge or a
               whole cycle in every factor) shrink the graph, and rational
               roots of the determinant polynomial restricted to one edge
               variable are hunted at random integer points, then scaled to
               integers using homogeneity (f(d*a) = d^n f(a));
    exhaustive all assignments with values in {+-1, ..., +-bound}.

Every witness is re-verified by an exact determinant before it is returned;
an exhausted search never reports false impossibility.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import isqrt, lcm

from .assignments import EdgeAssignment
from .detpoly import det_poly, is_single_monomial, to_text
from .errors import InvalidAssignmentError, ResourceCapError
from .exact_linalg import adjacency_matrix, det, matrix_at_point
from .factors import (
    count_factors_at_most,
    cycle_vertices,
    edge_membership,
    iter_factors,
)
from .graph_core import Graph, components, delete_edges, induced_subgraph, is_bipartite
from .zero_sum_flow import find_zero_sum_flow, flow_obstruction

TRIALS_GUARANTEED = 200
TRIALS_OPPORTUNISTIC = 60
TRIAL_MAGNITUDE = 10
FLOW_NODE_BUDGET = 500_000
EXHAUSTIVE_POINT_CAP = 300_000
BIPARTITE_FLOW_BOUND = 6
GENERAL_FLOW_BOUND = 12


@dataclass(frozen=True)
class WeightSearchOutcome:
    """Result of a singular-weight search.

    witness                nowhere-zero weighting with det = 0, if found
    route                  "flow" | "algebraic" | "exhaustive" (how the
                           witness was produced)
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


def find_singular_weight(
    g: Graph,
    bound: int = 3,
    seed: int = 0,
    exhaustive_point_cap: int = EXHAUSTIVE_POINT_CAP,
) -> WeightSearchOutcome:
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

    rng = random.Random(seed)
    connected = len(components(g)) == 1
    if connected:
        flow_values = _flow_attempt(g)
        if flow_values is not None:
            _check_witness(g, flow_values)
            return WeightSearchOutcome(
                EdgeAssignment(flow_values, "weight"), "flow", None)
    values = _singular_values(g, rng, 0, try_flow=not connected)
    if values is not None:
        _check_witness(g, values)
        return WeightSearchOutcome(EdgeAssignment(values, "weight"), "algebraic", None)
    values = _exhaustive_scan(g, bound, exhaustive_point_cap)
    if values is not None:
        _check_witness(g, values)
        return WeightSearchOutcome(EdgeAssignment(values, "weight"), "exhaustive", None)
    return WeightSearchOutcome(None, None, None)


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
    g: Graph, rng: random.Random, depth: int, try_flow: bool = True
) -> tuple[int, ...] | None:
    """Witness values for a graph with at least two factors, by component
    decomposition, flow, structural reduction and rational root hunts."""
    if depth > 64:
        return None
    comps = components(g)
    if len(comps) > 1:
        for comp in comps:
            sub, _, emap = induced_subgraph(g, comp)
            if count_factors_at_most(sub, 2) < 2:
                continue
            rec = _singular_values(sub, rng, depth + 1)
            if rec is not None:
                return _lift(g.m, emap, rec)
        return None

    if try_flow:
        flow_values = _flow_attempt(g)
        if flow_values is not None:
            return flow_values

    prof = edge_membership(g)
    m = g.m

    # an edge in no factor does not occur in the determinant polynomial:
    # drop it and solve the rest
    for i in range(m):
        if not prof.present(i):
            sub, emap = delete_edges(g, (i,))
            rec = _singular_values(sub, rng, depth + 1)
            if rec is not None:
                return _lift(m, emap, rec)

    # an edge that is the same K2 component of every factor splits off: the
    # determinant polynomial is x_i^2 times the one of the graph without
    # its endpoints
    for i in range(m):
        if prof.in_all[i] and not prof.in_cycle[i]:
            u, v = g.edges[i]
            keep = [x for x in range(g.n) if x != u and x != v]
            sub, _, emap = induced_subgraph(g, keep)
            rec = _singular_values(sub, rng, depth + 1)
            if rec is not None:
                return _lift(m, emap, rec)

    # edges that sit on a cycle in every factor and are never a K2
    first = next(iter_factors(g), None)
    for i in range(m):
        if prof.in_all[i] and not prof.in_k2[i]:
            cyc = next(c for c in first.cycles if i in c)
            if all(prof.in_all[j] for j in cyc):
                # the whole cycle is a component of every factor: the
                # determinant polynomial factors through the rest
                drop = set(cycle_vertices(g, cyc))
                keep = [x for x in range(g.n) if x not in drop]
                sub, _, emap = induced_subgraph(g, keep)
                rec = _singular_values(sub, rng, depth + 1)
                if rec is not None:
                    return _lift(m, emap, rec)
            else:
                # f = x_i * h with h linear in any cycle edge that is never
                # a K2 component: solve h = 0 for that edge
                for j in cyc:
                    if j == i or prof.in_all[j] or prof.in_k2[j]:
                        continue
                    sol = _hunt_linear_part_root(g, i, j, rng)
                    if sol is not None:
                        return sol

    # direct rational roots of f restricted to one edge variable; edges
    # where the restriction is provably linear or has a forced zero root
    # come first (success needs only a nonvanishing point, which random
    # integer points provide in abundance)
    tier1 = [i for i in range(m)
             if prof.present(i) and not prof.in_k2[i] and not prof.in_all[i]]
    tier2 = [i for i in range(m)
             if prof.in_all[i] and prof.in_k2[i] and prof.in_cycle[i]]
    tier3 = [i for i in range(m) if prof.in_k2[i] and not prof.in_all[i]]
    for edges_, trials in ((tier1, TRIALS_GUARANTEED), (tier2, TRIALS_GUARANTEED),
                           (tier3, TRIALS_OPPORTUNISTIC)):
        for i in edges_:
            sol = _hunt_f_root(g, i, rng, trials)
            if sol is not None:
                return sol
    return None


def _lift(m: int, emap: tuple[int, ...], rec: tuple[int, ...]) -> tuple[int, ...]:
    """Extend recursed witness values to the parent graph, weight 1 on edges
    the recursion dropped (they do not occur in the determinant polynomial)."""
    out = [1] * m
    for j, val in enumerate(rec):
        out[emap[j]] = val
    return tuple(out)


def _random_point(m: int, rng: random.Random) -> list[int]:
    return [rng.choice((1, -1)) * rng.randint(1, TRIAL_MAGNITUDE) for _ in range(m)]


def _nonzero_rational_root(c2: int, c1: int, c0: int) -> Fraction | None:
    """A nonzero rational root of c2*x^2 + c1*x + c0, if one exists."""
    if c2 == 0:
        if c1 == 0:
            return Fraction(1) if c0 == 0 else None
        if c0 == 0:
            return None
        return Fraction(-c0, c1)
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return None
    s = isqrt(disc)
    if s * s != disc:
        return None
    for num in (-c1 + s, -c1 - s):
        if num != 0:
            return Fraction(num, 2 * c2)
    return None


def _scaled_integer_point(vec: list[Fraction]) -> tuple[int, ...]:
    """Clear denominators: by homogeneity a rational root scales to an
    integer one."""
    d = lcm(*(f.denominator for f in vec)) if vec else 1
    return tuple(int(f * d) for f in vec)


def _hunt_f_root(g: Graph, i: int, rng: random.Random, trials: int) -> tuple[int, ...] | None:
    """Random integer points for all edges but i, then a rational root of
    the induced univariate restriction of the determinant polynomial."""
    m = g.m
    for _ in range(trials):
        pt = _random_point(m, rng)

        def f_with(x: int) -> int:
            q = list(pt)
            q[i] = x
            return _f_at(g, q)

        c0 = f_with(0)
        f1, f_1 = f_with(1), f_with(-1)
        c1 = (f1 - f_1) // 2
        c2 = (f1 + f_1) // 2 - c0
        root = _nonzero_rational_root(c2, c1, c0)
        if root is None:
            continue
        vec = [Fraction(x) for x in pt]
        vec[i] = root
        out = _scaled_integer_point(vec)
        if _f_at(g, out) == 0 and all(out):
            return out
    return None


def _hunt_linear_part_root(
    g: Graph, i: int, j: int, rng: random.Random
) -> tuple[int, ...] | None:
    """For f = x_i * h (edge i on a cycle of every factor, never a K2),
    solve h = 0 for edge j, where h is the x_i-linear part of f."""
    m = g.m
    for _ in range(TRIALS_GUARANTEED):
        pt = _random_point(m, rng)

        def h_with(x: int) -> int:
            q = list(pt)
            q[j] = x
            q[i] = 1
            plus = _f_at(g, q)
            q[i] = -1
            minus = _f_at(g, q)
            return (plus - minus) // 2

        c0 = h_with(0)
        h1, h_1 = h_with(1), h_with(-1)
        c1 = (h1 - h_1) // 2
        c2 = (h1 + h_1) // 2 - c0
        root = _nonzero_rational_root(c2, c1, c0)
        if root is None:
            continue
        vec = [Fraction(x) for x in pt]
        vec[i] = Fraction(1)
        vec[j] = root
        out = _scaled_integer_point(vec)
        if _f_at(g, out) == 0 and all(out):
            return out
    return None


def _exhaustive_scan(g: Graph, bound: int, point_cap: int) -> tuple[int, ...] | None:
    """Last resort: scan all weightings with values in {+-1, ..., +-bound}
    in a fixed order.  Skipped (returns None) when the space exceeds the
    point cap, so it never claims impossibility."""
    if bound < 1 or g.m == 0:
        return None
    space = (2 * bound) ** g.m
    if space > point_cap:
        return None
    domain = []
    for v in range(1, bound + 1):
        domain.append(v)
        domain.append(-v)
    for combo in product(tuple(domain), repeat=g.m):
        if _f_at(g, combo) == 0:
            return combo
    return None
