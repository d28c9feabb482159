import random

import pytest

from signrank.errors import GraphParseError
from signrank.graph_core import (
    Graph,
    components,
    delete_edges,
    encode_graph6,
    forest_parity,
    induced_subgraph,
    is_bipartite,
    parse_edge_list,
    parse_graph6,
    spanning_forest,
)

from conftest import SHUFFLED_EDGE_LIST, chain_of_4_cycles, complete, cycle, path
from oracles import has_bridge


def union_find_components(n: int, edges) -> tuple[int, bool]:
    """The component count of the graph on n vertices with these edges, and
    whether every edge joined two components (so the edges form no cycle),
    by a union-find that shares nothing with graph_core's walk."""
    root = list(range(n))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    count, acyclic = n, True
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            acyclic = False
        else:
            root[ru] = rv
            count -= 1
    return count, acyclic


def reference_encode_graph6(g: Graph) -> str:
    """The encoder that asks about all n(n-1)/2 vertex pairs, kept as the
    reference for encode_graph6."""
    n = g.n
    edges = set(g.edges)
    if n <= 62:
        head = [n]
    elif n <= 258047:
        head = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    else:
        head = [63, 63] + [(n >> k) & 63 for k in (30, 24, 18, 12, 6, 0)]
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in edges else 0)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for k in range(0, len(bits), 6):
        v = 0
        for b in bits[k:k + 6]:
            v = (v << 1) | b
        body.append(v)
    return "".join(chr(63 + v) for v in head + body)


class TestParseEdgeList:
    def test_path_p3(self):
        g = parse_edge_list("3\n0 1\n1 2")
        assert g.n == 3
        assert g.edges == ((0, 1), (1, 2))

    def test_single_vertex(self):
        g = parse_edge_list("1\n")
        assert g.n == 1 and g.m == 0

    def test_loop_rejected(self):
        with pytest.raises(GraphParseError, match="line 2.*loop"):
            parse_edge_list("3\n0 0")

    def test_duplicate_rejected(self):
        with pytest.raises(GraphParseError, match="line 3.*duplicate"):
            parse_edge_list("3\n0 1\n0 1")

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_edge_list("3\n0 3")

    def test_unordered_pair_rejected(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_edge_list("3\n2 1")

    def test_garbage_line(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_edge_list("3\n0 1 2")

    def test_missing_count(self):
        with pytest.raises(GraphParseError, match="line 1"):
            parse_edge_list("")

    def test_blank_lines_skipped(self):
        g = parse_edge_list("3\n\n0 1\n\n1 2\n")
        assert g.m == 2


class TestGraph6:
    # expected strings cross-checked against the networkx graph6 encoder
    def test_k4(self):
        g = parse_graph6("C~")
        assert g.n == 4 and g.m == 6

    def test_two_isolated_vertices(self):
        g = parse_graph6("A?")
        assert g.n == 2 and g.m == 0

    def test_null_graph(self):
        g = parse_graph6("?")
        assert g.n == 0 and g.m == 0

    def test_header_accepted(self):
        assert parse_graph6(">>graph6<<C~").m == 6

    def test_empty_input(self):
        with pytest.raises(GraphParseError):
            parse_graph6("")

    def test_invalid_character(self):
        with pytest.raises(GraphParseError, match="invalid"):
            parse_graph6("C\x05")

    def test_bad_length(self):
        with pytest.raises(GraphParseError, match="length"):
            parse_graph6("C~~")

    def test_edge_order_is_row_major(self):
        g = parse_graph6("Cl")  # C4 as 0-1-2-3-0
        assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))

    def test_large_n_size_field(self):
        g = Graph(100, ((0, 99),))
        back = parse_graph6(encode_graph6(g))
        assert back.n == 100 and back.edges == ((0, 99),)

    def test_matches_reference_encoder(self, corpus_le7, corpus_bipartite_2ec_n8):
        # the chain has n = 901, a 4-character size field, and edges that
        # are not in row-major order
        chain = chain_of_4_cycles(300)
        for g in corpus_le7 + corpus_bipartite_2ec_n8 + (chain,):
            text = encode_graph6(g)
            assert text == reference_encode_graph6(g)
            back = parse_graph6(text)
            assert back.n == g.n and set(back.edges) == set(g.edges)

    def test_round_trip_random_graphs(self):
        rng = random.Random(20240811)
        for _ in range(1000):
            n = rng.randint(0, 8)
            edges = tuple(
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            )
            g = Graph(n, edges)
            assert parse_graph6(encode_graph6(g)) == g


class TestComponents:
    def test_triangle(self):
        assert components(complete(3)) == [frozenset({0, 1, 2})]

    def test_two_k2(self):
        g = Graph(4, ((0, 1), (2, 3)))
        assert components(g) == [frozenset({0, 1}), frozenset({2, 3})]

    def test_null_graph(self):
        assert components(Graph(0, ())) == []

    def test_walk_is_cached_per_graph(self):
        g = cycle(5)
        assert spanning_forest(g) is spanning_forest(g)
        assert components(g) == components(Graph(g.n, g.edges))


def check_walk(g: Graph) -> int:
    """Checks the cached walk of g, without recursion, and returns how many
    edges lie outside its forest.  The parents are the forest's; every
    subtree and every component is a run of the order; and for each edge ab
    outside the forest, with a earlier in the order, b's parent is an
    ancestor of a and a is not in b's subtree."""
    walk = g._walk
    up, depth, order = walk.up, walk.depth, walk.order
    assert sorted(order) == list(range(g.n))
    pos = {v: i for i, v in enumerate(order)}
    tree = sorted((min(v, p), max(v, p)) for v, p in enumerate(up) if p >= 0)
    assert tree == sorted(g.edges[i] for i in spanning_forest(g))
    assert all(depth[v] == (depth[p] + 1 if p >= 0 else 0) for v, p in enumerate(up))
    # subtree sizes, deepest vertices first; once each vertex's run lies
    # within its parent's, every vertex of a subtree lies in its root's run,
    # which has exactly as many places
    size = [1] * g.n
    for v in sorted(range(g.n), key=depth.__getitem__, reverse=True):
        if up[v] >= 0:
            size[up[v]] += size[v]
    for v, p in enumerate(up):
        if p >= 0:
            assert pos[p] < pos[v] and pos[v] + size[v] <= pos[p] + size[p]
    start = 0
    for comp in components(g):
        root = order[start]
        assert root == min(comp) and up[root] < 0 and size[root] == len(comp)
        assert set(order[start:start + len(comp)]) == comp
        start += len(comp)
    assert start == g.n and len(components(g)) == union_find_components(g.n, g.edges)[0]
    outside = 0
    for i, (a, b) in enumerate(g.edges):
        if i in spanning_forest(g):
            continue
        outside += 1
        if pos[a] > pos[b]:
            a, b = b, a
        x = a
        while x not in (up[b], -1):
            assert x != b
            x = up[x]
        assert x == up[b]
    return outside


class TestWalk:
    @pytest.mark.parametrize("corpus", ["corpus_le7", "corpus_bipartite_2ec_n8"])
    def test_corpora(self, corpus, request):
        assert sum(check_walk(g) for g in request.getfixturevalue(corpus)) > 0

    def test_random_gnp(self):
        rng = random.Random(19)
        outside = 0
        for _ in range(200):
            n = rng.randint(1, 30)
            p = rng.choice((1.0, 2.0, 3.0, 5.0)) / n
            outside += check_walk(Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)
                                                 if rng.random() < p)))
        assert outside > 0

    def test_large_inputs_take_no_recursion(self):
        assert check_walk(path(5000)) == 0
        assert check_walk(cycle(5001)) == 1


class TestSpanningForest:
    @pytest.mark.parametrize("corpus", ["corpus_le7", "corpus_bipartite_2ec_n8"])
    def test_n_minus_c_edges_and_no_cycle(self, corpus, request):
        for g in request.getfixturevalue(corpus):
            c, _ = union_find_components(g.n, g.edges)
            forest = spanning_forest(g)
            assert len(forest) == g.n - c
            assert union_find_components(g.n, [g.edges[i] for i in forest]) == (c, True)


class TestBipartition:
    """is_bipartite, and the forest parity that colours a bipartite graph."""

    def test_c4_valid(self):
        g = cycle(4)
        parity = forest_parity(g)
        assert is_bipartite(g)
        assert sorted(parity) == [0, 0, 1, 1]
        for u, v in g.edges:
            assert parity[u] != parity[v]

    def test_c3_invalid(self):
        assert not is_bipartite(cycle(3))

    def test_single_vertex(self):
        g = Graph(1, ())
        assert is_bipartite(g) and forest_parity(g) == (0,)

    def test_is_bipartite(self):
        assert is_bipartite(cycle(6))
        assert not is_bipartite(cycle(5))
        assert is_bipartite(Graph(0, ()))

    @pytest.mark.parametrize("corpus", ["corpus_le7", "corpus_bipartite_2ec_n8"])
    def test_matches_brute_force_colouring(self, corpus, request):
        # the parity colours every forest edge properly, and every edge
        # exactly when some colouring of each component does
        for g in request.getfixturevalue(corpus):
            proper = True
            for comp in components(g):
                verts = sorted(comp)
                inner = [(u, v) for u, v in g.edges if u in comp]
                proper &= any(
                    all((mask >> verts.index(u) & 1) != (mask >> verts.index(v) & 1)
                        for u, v in inner)
                    for mask in range(2 ** len(verts)))
            parity = forest_parity(g)
            assert all(parity[u] != parity[v]
                       for u, v in (g.edges[i] for i in spanning_forest(g)))
            assert is_bipartite(g) == proper
            assert all(parity[u] != parity[v] for u, v in g.edges) == proper


class TestCutEdges:
    """The bridge test of tests/oracles.py, which the flow tests and the
    2-edge-connected sweep of the acceptance suite filter by."""

    def test_path(self):
        assert has_bridge(path(3))

    def test_cycle_has_none(self):
        assert not has_bridge(cycle(4))

    def test_two_triangles_joined(self):
        # triangles 0-1-2 and 3-4-5 joined by the edge 2-3, its one bridge
        g = Graph(6, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)))
        assert has_bridge(g)
        assert not has_bridge(delete_edges(g, (g.edges.index((2, 3)),))[0])

    def test_matches_component_count_oracle(self, corpus_le7):
        # bridge <=> removing the edge increases the union-find component count
        for g in corpus_le7:
            base, _ = union_find_components(g.n, g.edges)
            grows = any(union_find_components(g.n, g.edges[:i] + g.edges[i + 1:])[0] > base
                        for i in range(g.m))
            assert has_bridge(g) == grows


class TestSubgraphs:
    def test_induced(self):
        g = complete(4)
        sub, vmap, emap = induced_subgraph(g, [1, 2, 3])
        assert sub.n == 3 and sub.m == 3
        assert vmap == (1, 2, 3)
        assert [g.edges[i] for i in emap] == [(1, 2), (1, 3), (2, 3)]

    def test_delete_edges(self):
        g = cycle(4)
        h, emap = delete_edges(g, (1,))
        assert h.edges == ((0, 1), (1, 2), (2, 3))
        assert emap == (0, 2, 3)

    def test_subgraphs_equal_checked_graphs(self):
        # both are built without Graph's checks, on edges that passed them
        g = Graph(6, ((4, 5), (0, 3), (2, 1), (1, 3), (3, 5)))
        sub, _, _ = induced_subgraph(g, [5, 1, 3])
        h, _ = delete_edges(g, (0, 2))
        assert sub == Graph(3, ((0, 1), (1, 2)))
        assert h == Graph(6, ((1, 2), (3, 5), (4, 5)))


class TestGraphValidation:
    def test_loop(self):
        with pytest.raises(ValueError):
            Graph(2, ((1, 1),))

    def test_duplicate(self):
        with pytest.raises(ValueError):
            Graph(2, ((0, 1), (1, 0)))

    def test_range(self):
        with pytest.raises(ValueError):
            Graph(2, ((0, 2),))

    def test_pairs_normalized(self):
        g = Graph(3, ((2, 0),))
        assert g.edges == ((0, 2),)

    def test_one_edge_order(self):
        # shuffled with pairs flipped, from an edge list out of order, or
        # through graph6: the same graph, its edges sorted
        flipped = Graph(4, ((3, 2), (0, 3), (2, 1), (0, 1), (3, 1)))
        g = parse_edge_list(SHUFFLED_EDGE_LIST)
        assert g.edges == ((0, 1), (0, 3), (1, 2), (1, 3), (2, 3))
        assert flipped == g == parse_graph6(encode_graph6(g))

    def test_incidence_neighbor_sorted(self):
        # read off the sorted edges, with no sort of its own
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(2, 9)
            edges = [(v, u) if rng.random() < 0.5 else (u, v)
                     for u, v in complete(n).edges if rng.random() < 0.4]
            rng.shuffle(edges)
            g = Graph(n, tuple(edges))
            for v in range(n):
                at_v = [(a + b - v, i) for i, (a, b) in enumerate(g.edges) if v in (a, b)]
                assert g.incidence[v] == tuple(sorted(at_v))
