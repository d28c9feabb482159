import random
from itertools import combinations, product

import pytest

from signrank import factors, weight_search
from signrank.assignments import EdgeAssignment
from signrank.errors import InvalidAssignmentError
from signrank.exact_linalg import adjacency_matrix, det, matrix_at_point
from signrank.factors import count_factors, count_factors_at_most
from signrank.graph_core import Graph, components, parse_graph6
from signrank.harness import RunConfig, run
from signrank.weight_search import find_singular_weight, verify_weight
from signrank.zero_sum_flow import flow_obstruction

from conftest import chain_of_4_cycles, complete, cycle, grid, path, star
from oracles import edge_membership, flow_exists_nonbipartite_test


class TestVerifyWeight:
    def test_c4_singular(self):
        assert verify_weight(cycle(4), EdgeAssignment((1, -1, 1, -1))) == "singular"

    def test_k2_full_rank(self):
        assert verify_weight(complete(2), EdgeAssignment((7,))) == "full_rank"

    def test_c4_full_rank(self):
        assert verify_weight(cycle(4), EdgeAssignment((1, 1, 1, -1))) == "full_rank"

    def test_zero_rejected(self):
        with pytest.raises(InvalidAssignmentError):
            EdgeAssignment((1, 0, 1, 1))


class TestWitnesses:
    def test_c4_flow_route(self):
        out = find_singular_weight(cycle(4))
        assert out.route == "flow"
        assert verify_weight(cycle(4), out.witness) == "singular"
        assert out.witness.max_abs() <= 5

    def test_k4_flow_route(self):
        # removing any edge of K4 leaves a triangle, so a flow exists
        assert flow_exists_nonbipartite_test(complete(4))
        out = find_singular_weight(complete(4))
        assert out.route == "flow"
        assert verify_weight(complete(4), out.witness) == "singular"
        assert out.witness.max_abs() <= 11

    def test_bridge_between_two_c4_uses_algebraic_route(self):
        # two 4-cycles joined by a bridge: nine factors but no zero-sum flow
        g = Graph(8, ((0, 1), (1, 2), (2, 3), (0, 3), (3, 4),
                      (4, 5), (5, 6), (6, 7), (4, 7)))
        assert count_factors(g) == 9
        out = find_singular_weight(g, seed=5)
        assert out.route == "algebraic"
        assert verify_weight(g, out.witness) == "singular"

    def test_c5_with_chord_no_flow(self):
        # two factors, no zero-sum flow (removing the 1-2 edge leaves a
        # bipartite graph), so the witness comes from a rational root
        g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)))
        assert count_factors(g) == 2
        out = find_singular_weight(g, seed=3)
        assert out.witness is not None
        assert out.route == "algebraic"
        assert verify_weight(g, out.witness) == "singular"

    def test_flow_climb_answers_a_dense_graph(self):
        # n = 12, m = 49, t = 1,402,457: the climb to flow_bound finds a
        # 3-flow within its one node budget
        g = parse_graph6("KzMj]z|~Qz~{")
        out = find_singular_weight(g)
        assert out.route == "flow" and out.witness.max_abs() == 2
        assert verify_weight(g, out.witness) == "singular"

    def test_disconnected_component_witness(self):
        # C4 plus a triangle: the C4 component alone is made singular
        g = Graph(7, ((0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (4, 6), (5, 6)))
        out = find_singular_weight(g)
        assert out.witness is not None
        assert verify_weight(g, out.witness) == "singular"

    def test_flow_free_random_graphs_never_inconclusive(self):
        # connected graphs with t >= 2 and no zero-sum flow, n = 8-11: the
        # component split, unused-edge drop and linear-part hunt answer all
        rng = random.Random(20261019)
        found = 0
        while found < 200:
            n = rng.randint(8, 11)
            p = rng.choice((0.25, 0.3, 0.35, 0.4))
            g = Graph(n, tuple(e for e in combinations(range(n), 2) if rng.random() < p))
            if (len(components(g)) != 1 or count_factors_at_most(g, 2) < 2
                    or flow_obstruction(g) is None):
                continue
            out = find_singular_weight(g, seed=found)
            assert out.route == "algebraic", g
            assert verify_weight(g, out.witness) == "singular"
            found += 1

    def test_deterministic_for_fixed_seed(self):
        g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)))
        a = find_singular_weight(g, seed=9)
        b = find_singular_weight(g, seed=9)
        assert a.witness == b.witness and a.route == b.route


class TestWitnessCheck:
    """The one determinant on every weight witness, which the verify t31
    check relies on: a route that returns non-singular values is a fault,
    raised before any record is written.  K4's all-ones matrix has det -3."""

    @pytest.fixture
    def all_ones_route(self, monkeypatch):
        assert det(adjacency_matrix(complete(4), (1,) * 6)) == -3
        monkeypatch.setattr(weight_search, "_singular_values",
                            lambda g, rng, node_budget: ((1,) * 6, "flow"))

    def test_search_raises(self, all_ones_route):
        with pytest.raises(AssertionError, match="exact singularity check"):
            find_singular_weight(complete(4))

    def test_verify_t31_raises(self, all_ones_route):
        with pytest.raises(AssertionError, match="exact singularity check"):
            run([complete(4)], RunConfig("verify", theorem="t31"))


class TestFactorTableUse:
    """t = 0, 1 and >= 2, and the edges that some factor uses, are read off
    the double-cover matching: no route builds a factor table."""

    def test_no_route_builds_a_table(self, monkeypatch, corpus_le7, corpus_bipartite_2ec_n8):
        def no_table(g):
            raise AssertionError("built a factor table")

        monkeypatch.setattr(factors, "_FactorTable", no_table)
        routes = set()
        for g in corpus_le7 + corpus_bipartite_2ec_n8:
            for budget in (weight_search.DEFAULT_FLOW_NODES, 0):
                routes.add(find_singular_weight(Graph(g.n, g.edges), node_budget=budget).route)
        assert routes == {"flow", "algebraic", "exhaustive", None}
        # grid(10, 10) has t >= 2 and, with no flow nodes, reaches the
        # algebraic route: it finds every edge a K2 of some factor, so it
        # is inconclusive with no determinant taken (a table on 100
        # vertices would not fit in memory)
        def no_det(matrix):
            raise AssertionError("took a determinant")

        monkeypatch.setattr(weight_search, "det", no_det)
        out = find_singular_weight(grid(10, 10), node_budget=0)
        assert out == weight_search.WeightSearchOutcome(None, None, None)

    @pytest.mark.parametrize("make, route", [
        (lambda: grid(2, 50), "flow"),
        (lambda: grid(6, 6), "flow"),
        (lambda: cycle(201), None),
        (lambda: cycle(5001), None),
        (lambda: chain_of_4_cycles(20), "exhaustive"),
    ], ids=["grid(2,50)", "grid(6,6)", "cycle(201)", "cycle(5001)", "chain_of_4_cycles(20)"])
    def test_large_graphs(self, make, route):
        # a table on any of these would exhaust memory or its depth limit
        g = make()
        out = find_singular_weight(g)
        assert out.route == route
        assert "_factor_table" not in vars(g)
        if route is None:
            # one odd cycle: the monomial 2 * x1 * ... * xn
            assert out.certificate_impossible.endswith(
                "2*" + "*".join(f"x{i + 1}" for i in range(g.n))
                + ", nonzero at every nowhere-zero point")
        else:
            assert verify_weight(g, out.witness) == "singular"


class TestRootHunts:
    """The rational-root helpers directly."""

    def test_linear_part_solver(self):
        from signrank.weight_search import _hunt_linear_root

        g = Graph(5, ((0, 1), (0, 2), (0, 4), (1, 2), (2, 3), (3, 4)))
        # the factors are the 5-cycle and the triangle 0-1-2 with the K2
        # 3-4.  (0, 1) and (1, 2) are in both and (3, 4) is a K2 of the
        # second, so f is linear in the chord (0, 2), in (0, 4) and in
        # (2, 3): f = x_j * a + b, each edge being in one factor only
        prof = edge_membership(g)
        linear = [j for j in range(g.m) if not prof.in_k2[j] and not prof.in_all[j]]
        assert linear == [1, 2, 4]
        out = _hunt_linear_root(g, random.Random(3))
        assert out is not None and det(matrix_at_point(g, out)) == 0
        # on C5 alone every edge is in the one factor: nothing to hunt
        assert _hunt_linear_root(cycle(5), random.Random(3)) is None

    def test_rational_root_solver_cases(self):
        from signrank.weight_search import _root_point

        # root 3/2 of 2x - 3 (and of -4x + 6): the point scales by 2
        assert _root_point([1, -2, 5], 1, 2, -3) == (2, 3, 10)
        assert _root_point([1, -2, 5], 1, -4, 6) == (2, 3, 10)
        assert _root_point([1, -2, 5], 1, 3, 7) == (3, -7, 15)
        assert _root_point([1, -2, 5], 1, 2, 0) is None  # zero root skipped
        assert _root_point([1, -2, 5], 1, 0, 5) is None  # no root
        assert _root_point([1, -2, 5], 1, 0, 0) == (1, 1, 5)  # any x: take 1


class TestImpossibility:
    def test_k3_certificate(self):
        out = find_singular_weight(complete(3))
        assert out.witness is None
        assert "single monomial" in out.certificate_impossible
        # brute-force confirmation on a small weight grid
        for w in product((-2, -1, 1, 2), repeat=3):
            assert det(adjacency_matrix(complete(3), w)) != 0

    def test_k2_certificate(self):
        out = find_singular_weight(complete(2))
        assert out.witness is None and out.certificate_impossible

    def test_p4_certificate(self):
        out = find_singular_weight(path(4))
        assert count_factors(path(4)) == 1
        assert out.witness is None and out.certificate_impossible


class TestNoFactorConvention:
    def test_p3_every_weighting_singular(self):
        out = find_singular_weight(path(3))
        assert out.identically_singular
        assert out.witness.values == (1, 1)
        assert out.route == "exhaustive"
        assert verify_weight(path(3), out.witness) == "singular"

    def test_isolated_vertex(self):
        out = find_singular_weight(Graph(1, ()))
        assert out.identically_singular
        assert out.witness.values == ()

    def test_star(self):
        out = find_singular_weight(star(3))
        assert out.identically_singular
        assert verify_weight(star(3), out.witness) == "singular"
