import random
from itertools import combinations, product

import pytest

from signrank.assignments import EdgeAssignment
from signrank.errors import InvalidAssignmentError, PreconditionError, ResourceCapError
from signrank.exact_linalg import adjacency_matrix, rank
from signrank.graph_core import (
    Graph, components, induced_subgraph, is_bipartite, parse_graph6, spanning_forest)
from signrank.zero_sum_flow import (
    FlowObstruction,
    _first_flow,
    _search,
    flow_bound,
    flow_obstruction,
    least_bound_flow,
    verify_flow,
    verify_obstruction,
)

from conftest import chain_of_4_cycles, complete, cycle, path
from oracles import (
    find_zero_sum_flow, flow_exists_nonbipartite_test, has_bridge, mod3_flow, obstruction_y)


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


def reference_flow(g: Graph, k: int, node_budget: int) -> tuple[int, ...] | None:
    """The bounded search without the k = 2 parity shortcut and without the
    balance condition: the same edge order (per component, the edges outside
    the spanning forest, then the forest edges, each in index order), the
    same values in the same order, forcing at vertices with one open edge.
    Raises ResourceCapError past node_budget assignments."""
    if flow_obstruction(g) is not None:
        return None
    forest = spanning_forest(g)
    where = {v: c for c, comp in enumerate(components(g)) for v in comp}
    orders = [[] for _ in components(g)]
    for i in sorted(range(g.m), key=lambda i: i in forest):
        orders[where[g.edges[i][0]]].append(i)
    vals = [x for v in range(1, k) for x in (v, -v)]
    values, partial = [0] * g.m, [0] * g.n
    undecided = [g.degree(v) for v in range(g.n)]
    nodes = 0

    def assign(e0: int, x0: int, trail: list[int]) -> bool:
        nonlocal nodes
        queue = [(e0, x0)]
        while queue:
            e, x = queue.pop()
            if values[e]:
                if values[e] != x:
                    return False
                continue
            nodes += 1
            if nodes > node_budget:
                raise ResourceCapError("reference search exceeded its node budget")
            values[e] = x
            trail.append(e)
            for v in g.edges[e]:
                partial[v] += x
                undecided[v] -= 1
            for v in g.edges[e]:
                if abs(partial[v]) > (k - 1) * undecided[v]:
                    return False
                if undecided[v] == 1:
                    if not 0 < abs(partial[v]) < k:
                        return False
                    queue.append((next(e2 for _, e2 in g.incidence[v] if not values[e2]),
                                  -partial[v]))
        return True

    def undo(trail: list[int]) -> None:
        for e in reversed(trail):
            for v in g.edges[e]:
                partial[v] -= values[e]
                undecided[v] += 1
            values[e] = 0

    def solve(order: list[int], pos: int) -> bool:
        # recursion depth is one frame per free edge; test graphs stay small
        while pos < len(order) and values[order[pos]]:
            pos += 1
        if pos == len(order):
            return True
        for x in vals:
            trail = []
            if assign(order[pos], x, trail) and solve(order, pos + 1):
                return True
            undo(trail)
        return False

    return tuple(values) if all(solve(order, 0) for order in orders) else None


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
        if is_bipartite(sub):
            if has_bridge(sub):
                return False
        elif not flow_exists_nonbipartite_test(sub):
            return False
    return True


def first_coloop(g: Graph) -> int | None:
    """The smallest-index edge whose column of the vertex-edge incidence
    matrix B lies in every basis (rank(B) drops without it), or None.
    Every zero-sum flow vanishes on exactly these edges."""
    b = [[1 if v in e else 0 for e in g.edges] for v in range(g.n)]
    full = rank(b)
    return next((i for i in range(g.m)
                 if rank([row[:i] + row[i + 1:] for row in b]) < full), None)


def check_against_rank(g: Graph) -> FlowObstruction | None:
    """flow_obstruction(g), checked against the rank oracle: it exists iff
    B has a coloop, it names the smallest-index one, and it re-checks."""
    obs = flow_obstruction(g)
    assert (None if obs is None else obs.edge) == first_coloop(g)
    if obs is not None:
        assert obstruction_holds(g, obs.edge, obs.y, obs.d)
        assert verify_obstruction(g, obs)
    return obs


class TestObstruction:
    @pytest.mark.parametrize("corpus", ["corpus_le7", "corpus_bipartite_2ec_n8"])
    def test_certificates_and_structural_oracle(self, corpus, request):
        flow_free = 0
        for g in request.getfixturevalue(corpus):
            obs = check_against_rank(g)
            assert (obs is None) == structural_flow_exists(g)
            flow_free += obs is not None
        assert flow_free == (664 if corpus == "corpus_le7" else 0)

    def test_random_gnp_against_rank(self):
        # sparse to dense, so both answers and both kinds of coloop occur
        rng = random.Random(2024)
        found = {None: 0, 1: 0, 2: 0}
        for _ in range(240):
            n = rng.randint(2, 30)
            p = rng.choice((2.0, 2.5, 3.0, 4.0)) / n
            g = Graph(n, tuple(e for e in combinations(range(n), 2) if rng.random() < p))
            obs = check_against_rank(g)
            found[None if obs is None else obs.d] += 1
        assert min(found.values()) >= 10

    @pytest.mark.parametrize("source", ["corpus_le7", "corpus_bipartite_2ec_n8", "gnp"])
    def test_y_matches_breadth_first_colouring(self, source, request):
        # y does not depend on the walk's forest: a breadth-first colouring
        # of the side the tie-break picks, or of the component without the
        # edge, gives the same vector ("gnp": test_random_gnp_against_rank's
        # graphs; the 2-edge-connected bipartite corpus has no obstruction)
        if source == "gnp":
            rng = random.Random(2024)
            graphs = []
            for _ in range(240):
                n = rng.randint(2, 30)
                p = rng.choice((2.0, 2.5, 3.0, 4.0)) / n
                graphs.append(Graph(n, tuple(e for e in combinations(range(n), 2)
                                             if rng.random() < p)))
        else:
            graphs = request.getfixturevalue(source)
        found = 0
        for g in graphs:
            if (obs := flow_obstruction(g)) is not None:
                assert obs.y == obstruction_y(g, obs.edge, obs.d)
                found += 1
        assert found == {"corpus_le7": 664, "corpus_bipartite_2ec_n8": 0, "gnp": 214}[source]

    def test_large_inputs_take_no_recursion(self):
        # a 5,000-vertex path or cycle, and a 1,100-link chain of 4-cycles
        # (3,301 vertices, 4,400 edges), with and without one chord
        assert flow_obstruction(path(5000)) == FlowObstruction(0, (1,) + (0,) * 4999, 1)
        assert flow_obstruction(cycle(5000)) is None
        odd = cycle(5001)
        obs = flow_obstruction(odd)
        assert obs.edge == 0 and obs.d == 2 and verify_obstruction(odd, obs)
        chain = chain_of_4_cycles(1100)
        assert flow_obstruction(chain) is None
        chord = Graph(chain.n, chain.edges + ((0, 2),))
        obs = flow_obstruction(chord)
        # the chord is the one edge on both triangles of the first 4-cycle
        assert obs.edge == chord.edges.index((0, 2)) and obs.d == 2
        assert verify_obstruction(chord, obs)

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
    # that does not raise at k = 3 (10 nodes find a flow mod 3, then 13 the
    # flow itself)
    PINNED = {
        "C4+K4": ((-1, 1, 1, -1, -2, 1, 1, 1, 1, -2), 23),
        "K4+C4": ((-2, 1, 1, 1, 1, -2, -1, 1, 1, -1), 23),
    }

    @pytest.mark.parametrize("order", ["C4+K4", "K4+C4"])
    def test_components_searched_in_turn(self, order):
        first, second = (self.C4, self.K4) if order == "C4+K4" else (self.K4, self.C4)
        g = self.disjoint_union(first, second)
        values, budget = self.PINNED[order]
        # K4's odd degrees leave no 2-flow, whichever part is searched first,
        # and that needs no search
        assert flow_obstruction(g) is None
        assert find_zero_sum_flow(g, 2, node_budget=0) is None
        flow = find_zero_sum_flow(g, 3)
        assert flow.values == values and verify_flow(g, flow)
        find_zero_sum_flow(g, 3, node_budget=budget)
        with pytest.raises(ResourceCapError):
            find_zero_sum_flow(g, 3, node_budget=budget - 1)

    def test_edgeless(self):
        flow = find_zero_sum_flow(Graph(3, ()), 2)
        assert flow is not None and flow.values == ()

    def test_k_below_two_rejected(self):
        with pytest.raises(PreconditionError):
            find_zero_sum_flow(cycle(4), 1)
        with pytest.raises(PreconditionError):
            least_bound_flow(cycle(4), 1, node_budget=100)

    def test_budget_raises(self):
        with pytest.raises(ResourceCapError):
            find_zero_sum_flow(complete(6), 6, node_budget=0)

    def test_climb_shares_one_budget(self):
        # alone, k = 2 takes 68 nodes to find no flow and k = 3 takes 42 to
        # find one (17 for a flow mod 3, then 25): 68 covers either bound,
        # and the climb to 3 needs 110
        g = parse_graph6("FF~]o")
        assert find_zero_sum_flow(g, 2, node_budget=68) is None
        flow = find_zero_sum_flow(g, 3, node_budget=42)
        assert flow is not None
        for k, nodes in ((2, 68), (3, 42)):
            with pytest.raises(ResourceCapError):
                find_zero_sum_flow(g, k, node_budget=nodes - 1)
        # a climb keeps its progress with the graph, so each climb here gets
        # a graph of its own
        with pytest.raises(ResourceCapError):
            least_bound_flow(parse_graph6("FF~]o"), 3, node_budget=109)
        assert least_bound_flow(parse_graph6("FF~]o"), 3, node_budget=110) == flow

    def test_climb_resumes_from_the_graph(self):
        # a climb stopped at k = 3 has searched k = 2 in full: a bound of 2
        # needs no node, and k = 3 only its own 42
        g = parse_graph6("FF~]o")
        with pytest.raises(ResourceCapError):
            least_bound_flow(g, 3, node_budget=109)
        assert least_bound_flow(g, 2, node_budget=0) is None
        with pytest.raises(ResourceCapError):
            least_bound_flow(g, 3, node_budget=41)
        flow = least_bound_flow(g, 3, node_budget=42)
        assert flow == find_zero_sum_flow(g, 3)
        assert least_bound_flow(g, 12, node_budget=0) == flow

    def test_flow_puts_ones_vector_in_kernel(self):
        flow = find_zero_sum_flow(cycle(6), 3)
        assert flow is not None
        assert all(sum(row) == 0 for row in adjacency_matrix(cycle(6), flow))

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


class TestAgainstReference:
    """The search with the parity shortcut, the balance condition and the
    relaxation mod 3 at k = 3 against reference_flow, which has none of
    them: the same flows and the same "none", under a budget that neither
    search reaches, and "none" at k = 3 wherever the relaxation finds no
    flow mod 3; and the climb's flow against the reference's at the smallest
    bound that has one."""

    BUDGET = 10**6

    @pytest.mark.parametrize("corpus", ["corpus_le7", "corpus_bipartite_2ec_n8"])
    def test_corpora_every_bound(self, corpus, request):
        for g in request.getfixturevalue(corpus):
            if g.m == 0 or flow_obstruction(g) is not None:
                continue
            least = None
            for k in range(2, flow_bound(g) + 1):
                found = find_zero_sum_flow(g, k, node_budget=self.BUDGET)
                reference = reference_flow(g, k, self.BUDGET)
                assert (found and found.values) == reference
                if k == 3 and _first_flow(g, 2, self.BUDGET, modulus=3)[0] is None:
                    assert reference is None
                least = least or reference
            assert least_bound_flow(g, flow_bound(g), self.BUDGET).values == least

    def test_random_gnp_climb(self):
        # the bounds a weight search climbs: 2, 3, ... up to the first flow
        # (searches above it on dense n = 10 graphs can take the reference
        # past 10^7 nodes)
        rng = random.Random(2017)
        flowing = 0
        while flowing < 100:
            n = rng.randint(8, 10)
            p = rng.choice((0.4, 0.5, 0.6))
            g = Graph(n, tuple(e for e in combinations(range(n), 2) if rng.random() < p))
            if flow_obstruction(g) is not None:
                continue
            flowing += 1
            for k in range(2, flow_bound(g) + 1):
                found = find_zero_sum_flow(g, k, node_budget=self.BUDGET)
                assert (found and found.values) == reference_flow(g, k, self.BUDGET)
                if found:
                    break

    def test_balance_cuts_dead_subtrees(self):
        # the first flow puts 1, 1, 1, -3 on the first four free edges; after
        # them no tilted edge is open, so a wrong signed sum ends the branch
        # (the search without the condition needs 105,473 nodes)
        g = parse_graph6("FBY~o")
        flow = find_zero_sum_flow(g, 12, node_budget=100)
        assert flow is not None and verify_flow(g, flow)
        with pytest.raises(ResourceCapError):
            reference_flow(g, 12, 100)


def is_mod3_flow(g: Graph, values: tuple[int, ...]) -> bool:
    """Whether values are nonzero mod 3 on every edge of g, with every vertex
    sum 0 mod 3."""
    sums = [0] * g.n
    for (u, v), x in zip(g.edges, values):
        sums[u] += x
        sums[v] += x
    return len(values) == g.m and all(x % 3 for x in values) and all(s % 3 == 0 for s in sums)


class TestModThreeRelaxation:
    """The search mod 3 that _search runs at k = 3 before the integer
    search, with +-1 for the residues 1 and 2, against mod3_flow, which
    tries every combination of a basis of ker B over GF(3)."""

    @staticmethod
    def refutes(g: Graph) -> bool:
        found = _first_flow(g, 2, -1, modulus=3)[0]
        oracle = mod3_flow(g)
        assert (found is None) == (oracle is None)
        if found is not None:
            assert set(found) <= {1, -1} and is_mod3_flow(g, found)
            assert is_mod3_flow(g, oracle)
        return found is None

    @pytest.mark.parametrize("corpus", ["corpus_le7", "corpus_bipartite_2ec_n8"])
    def test_corpora(self, corpus, request):
        refuted = sum(map(self.refutes, request.getfixturevalue(corpus)))
        # le7: the 664 graphs with no flow at all and the 141 with no 3-flow
        assert refuted == (805 if corpus == "corpus_le7" else 7)

    def test_random_gnp(self):
        # per kind: a flow mod 3, no flow at all, a flow but none mod 3; a
        # flow mod 3 next to an obstruction (d f_e = 0 with d = 1 or 2 forces
        # f_e = 0 mod 3) would be a KeyError
        rng = random.Random(2009)
        kinds = {(False, True): 0, (True, False): 0, (True, True): 0}
        for _ in range(240):
            n = rng.randint(3, 12)
            p = min(1.0, rng.choice((3.0, 4.0, 5.0, 6.0)) / n)
            g = Graph(n, tuple(e for e in combinations(range(n), 2) if rng.random() < p))
            kinds[self.refutes(g), flow_obstruction(g) is None] += 1
        assert min(kinds.values()) >= 10

    def test_refutations_are_cheap(self, corpus_le7):
        # without the relaxation, the 141 graphs with a flow but no 3-flow
        # took 70,904 nodes to refute one; with it, 5,434
        budget = 10**6
        spent = 0
        for g in corpus_le7:
            flow, left = _search(g, 3, budget)
            if flow is None:
                spent += budget - left
        assert spent <= 9_000


class TestVerifyFlow:
    def test_alternating_c4(self):
        # cycle(4)'s edges: (0, 1), (0, 3), (1, 2), (2, 3)
        assert verify_flow(cycle(4), EdgeAssignment((1, -1, -1, 1), "flow"))

    def test_all_ones_c4(self):
        assert not verify_flow(cycle(4), EdgeAssignment((1, 1, 1, 1), "flow"))

    def test_c6_twos(self):
        assert verify_flow(cycle(6), EdgeAssignment((2, -2, -2, 2, -2, 2), "flow"))

    def test_zero_value_invalid(self):
        with pytest.raises(InvalidAssignmentError):
            EdgeAssignment((1, 0, 1, -1), "flow")
