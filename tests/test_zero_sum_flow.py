from itertools import product

import pytest

from signrank.assignments import EdgeAssignment
from signrank.errors import InvalidAssignmentError, PreconditionError, ResourceCapError
from signrank.exact_linalg import adjacency_matrix, mat_vec
from signrank.graph_core import Graph, bipartition, components, cut_edges, induced_subgraph
from signrank.zero_sum_flow import (
    FlowObstruction,
    find_zero_sum_flow,
    flow_exists_nonbipartite_test,
    flow_obstruction,
    verify_flow,
    verify_obstruction,
)

from conftest import complete, cycle


def flow_oracle_exists(g: Graph, k: int) -> bool:
    """Independent exhaustive check over the full value grid."""
    domain = [v for v in range(-(k - 1), k) if v != 0]
    for combo in product(domain, repeat=g.m):
        sums = [0] * g.n
        for idx, (u, v) in enumerate(g.edges):
            sums[u] += combo[idx]
            sums[v] += combo[idx]
        if all(s == 0 for s in sums):
            return True
    return g.m == 0


def obstruction_holds(g: Graph, edge: int, y, d: int) -> bool:
    """Independent re-check of an obstruction: d != 0 and y[u] + y[v] is d
    on the named edge and 0 on every other edge.  Summing the vertex
    equations of a zero-sum flow with weights y then gives d * f[edge] = 0."""
    return d != 0 and len(y) == g.n and all(
        y[u] + y[v] == (d if i == edge else 0) for i, (u, v) in enumerate(g.edges))


def structural_flow_exists(g: Graph) -> bool:
    """The structural predicate, per component: isolated vertices pass, a
    bipartite component needs no bridge, a non-bipartite one must pass
    flow_exists_nonbipartite_test."""
    for comp in components(g):
        sub, _, _ = induced_subgraph(g, comp)
        if sub.m == 0:
            continue
        if bipartition(g, comp).valid:
            if cut_edges(sub):
                return False
        elif not flow_exists_nonbipartite_test(sub):
            return False
    return True


class TestObstruction:
    @pytest.mark.parametrize("corpus", ["corpus_le7", "corpus_bipartite_2ec_n8"])
    def test_certificates_and_structural_oracle(self, corpus, request):
        flow_free = 0
        for g in request.getfixturevalue(corpus):
            obs = flow_obstruction(g)
            assert (obs is None) == structural_flow_exists(g)
            if obs is not None:
                flow_free += 1
                assert obstruction_holds(g, obs.edge, obs.y, obs.d)
                assert verify_obstruction(g, obs)
        assert flow_free == (664 if corpus == "corpus_le7" else 0)

    def test_flow_found_wherever_no_obstruction(self, corpus_le7):
        # the converse direction: "a flow exists" is confirmed by the search
        for g in corpus_le7:
            if flow_obstruction(g) is None:
                flow = find_zero_sum_flow(g, 12)
                assert flow is not None and verify_flow(g, flow)

    def test_tampered_certificate_rejected(self):
        g = cycle(3)
        obs = flow_obstruction(g)
        assert verify_obstruction(g, obs)
        assert not verify_obstruction(g, obs._replace(d=0))
        assert not verify_obstruction(g, obs._replace(edge=(obs.edge + 1) % 3))
        assert not verify_obstruction(g, FlowObstruction(obs.edge, obs.y[:-1], obs.d))

    def test_absence_needs_no_search(self):
        # with no node budget at all, a flow-free graph still gets its
        # certified "none", since the exact test comes before any search
        for g in (cycle(3), cycle(5), complete(2), Graph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))):
            assert flow_obstruction(g) is not None
            assert find_zero_sum_flow(g, 6, node_budget=0) is None


class TestExistenceTest:
    def test_k4(self):
        assert flow_exists_nonbipartite_test(complete(4)) is True

    def test_triangle_with_pendant(self):
        g = Graph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))
        assert flow_exists_nonbipartite_test(g) is False

    def test_c5(self):
        assert flow_exists_nonbipartite_test(cycle(5)) is False

    def test_bipartite_rejected(self):
        with pytest.raises(PreconditionError):
            flow_exists_nonbipartite_test(cycle(4))

    def test_disconnected_rejected(self):
        g = Graph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
        with pytest.raises(PreconditionError):
            flow_exists_nonbipartite_test(g)


class TestSolver:
    def test_c4_alternating(self):
        flow = find_zero_sum_flow(cycle(4), 2)
        assert flow is not None
        assert verify_flow(cycle(4), flow)
        assert set(flow.values) == {1, -1}

    def test_k2_has_none(self):
        assert find_zero_sum_flow(complete(2), 2) is None
        assert find_zero_sum_flow(complete(2), 9) is None

    def test_c3_has_none_for_any_bound(self):
        # x+y = y+z = z+x = 0 forces x = y = z = 0
        for k in range(2, 14):
            assert find_zero_sum_flow(cycle(3), k) is None

    def test_k4_within_twelve_flow_bound(self):
        flow = None
        for k in range(2, 13):
            flow = find_zero_sum_flow(complete(4), k)
            if flow is not None:
                break
        assert flow is not None and verify_flow(complete(4), flow)
        assert flow.max_abs() <= 11

    def test_per_component(self):
        two_c4 = Graph(8, ((0, 1), (1, 2), (2, 3), (0, 3),
                           (4, 5), (5, 6), (6, 7), (4, 7)))
        flow = find_zero_sum_flow(two_c4, 2)
        assert flow is not None and verify_flow(two_c4, flow)
        c4_plus_k2 = Graph(6, ((0, 1), (1, 2), (2, 3), (0, 3), (4, 5)))
        assert find_zero_sum_flow(c4_plus_k2, 6) is None

    C4 = cycle(4)
    K4 = complete(4)

    @staticmethod
    def disjoint_union(a: Graph, b: Graph) -> Graph:
        return Graph(a.n + b.n, a.edges + tuple((u + a.n, v + a.n) for u, v in b.edges))

    # per order of the parts: the flow at k = 3, and the smallest node budget
    # that does not raise at k = 2 and at k = 3
    PINNED = {
        "C4+K4": ((-1, 1, -1, 1, -2, 1, 1, 1, 1, -2), 10, 14),
        "K4+C4": ((-2, 1, 1, 1, 1, -2, -1, 1, -1, 1), 6, 14),
    }

    @pytest.mark.parametrize("order", ["C4+K4", "K4+C4"])
    def test_components_searched_in_turn(self, order):
        first, second = (self.C4, self.K4) if order == "C4+K4" else (self.K4, self.C4)
        g = self.disjoint_union(first, second)
        values, budget2, budget3 = self.PINNED[order]
        # K4's odd degrees leave no 2-flow, whichever part is searched first
        assert flow_obstruction(g) is None and find_zero_sum_flow(g, 2) is None
        flow = find_zero_sum_flow(g, 3)
        assert flow.values == values and verify_flow(g, flow)
        for k, budget in ((2, budget2), (3, budget3)):
            find_zero_sum_flow(g, k, node_budget=budget)
            with pytest.raises(ResourceCapError):
                find_zero_sum_flow(g, k, node_budget=budget - 1)

    def test_edgeless(self):
        flow = find_zero_sum_flow(Graph(3, ()), 2)
        assert flow is not None and flow.values == ()

    def test_k_below_two_rejected(self):
        with pytest.raises(PreconditionError):
            find_zero_sum_flow(cycle(4), 1)

    def test_budget_raises(self):
        with pytest.raises(ResourceCapError):
            find_zero_sum_flow(complete(6), 6, node_budget=0)

    def test_flow_puts_ones_vector_in_kernel(self):
        flow = find_zero_sum_flow(cycle(6), 3)
        assert flow is not None
        kernel = mat_vec(adjacency_matrix(cycle(6), flow), (1,) * 6)
        assert all(x == 0 for x in kernel)

    def test_matches_exhaustive_oracle_k2(self, corpus_le5):
        for g in corpus_le5:
            if g.m > 8:
                continue
            found = find_zero_sum_flow(g, 2)
            assert (found is not None) == flow_oracle_exists(g, 2)
            if found is not None:
                assert verify_flow(g, found)

    def test_twelve_flow_wherever_existence_test_passes(self, corpus_le7):
        # every connected non-bipartite graph n <= 7 passing the existence
        # test admits a flow with values in +-1..+-11
        from signrank.graph_core import components, is_bipartite

        eligible = 0
        for g in corpus_le7:
            if g.n == 0 or len(components(g)) != 1 or is_bipartite(g):
                continue
            if not flow_exists_nonbipartite_test(g):
                continue
            flow = find_zero_sum_flow(g, 12)
            assert flow is not None and verify_flow(g, flow)
            assert flow.max_abs() <= 11
            eligible += 1
        assert eligible > 400


class TestVerifyFlow:
    def test_alternating_c4(self):
        assert verify_flow(cycle(4), EdgeAssignment((1, -1, 1, -1), "flow"))

    def test_all_ones_c4(self):
        assert not verify_flow(cycle(4), EdgeAssignment((1, 1, 1, 1), "flow"))

    def test_c6_twos(self):
        assert verify_flow(cycle(6), EdgeAssignment((2, -2, 2, -2, 2, -2), "flow"))

    def test_zero_value_invalid(self):
        with pytest.raises(InvalidAssignmentError):
            EdgeAssignment((1, 0, 1, -1), "flow")
