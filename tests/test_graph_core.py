import random

import pytest

from signrank.errors import GraphParseError
from signrank.graph_core import (
    Graph,
    bipartition,
    components,
    cut_edges,
    delete_edges,
    encode_graph6,
    induced_subgraph,
    is_bipartite,
    parse_edge_list,
    parse_graph6,
)

from conftest import chain_of_4_cycles, complete, cycle, path


def reference_encode_graph6(g: Graph) -> str:
    """The encoder that asked has_edge for all n(n-1)/2 vertex pairs, kept
    as the reference for encode_graph6."""
    n = g.n
    if n <= 62:
        head = [n]
    elif n <= 258047:
        head = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    else:
        head = [63, 63] + [(n >> k) & 63 for k in (30, 24, 18, 12, 6, 0)]
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
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


class TestBipartition:
    def test_c4_valid(self):
        g = cycle(4)
        b = bipartition(g, components(g)[0])
        assert b.valid
        assert sorted(map(len, b.sides)) == [2, 2]
        x, y = b.sides
        for u, v in g.edges:
            assert (u in x) != (v in x)

    def test_c3_invalid(self):
        g = cycle(3)
        assert not bipartition(g, components(g)[0]).valid

    def test_single_vertex(self):
        g = Graph(1, ())
        b = bipartition(g, frozenset({0}))
        assert b.valid and b.sides == (frozenset({0}), frozenset())

    def test_is_bipartite(self):
        assert is_bipartite(cycle(6))
        assert not is_bipartite(cycle(5))
        assert is_bipartite(Graph(0, ()))


class TestCutEdges:
    def test_path(self):
        assert cut_edges(path(3)) == frozenset({0, 1})

    def test_cycle_has_none(self):
        assert cut_edges(cycle(4)) == frozenset()

    def test_two_triangles_joined(self):
        # triangles 0-1-2 and 3-4-5 joined by the edge 2-3
        g = Graph(6, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)))
        assert cut_edges(g) == frozenset({g.edge_index(2, 3)})

    def test_matches_component_count_oracle(self, corpus_le7):
        # bridge <=> removing the edge increases the component count
        for g in corpus_le7:
            base = len(components(g))
            bridges = cut_edges(g)
            for i in range(g.m):
                h, _ = delete_edges(g, (i,))
                assert (len(components(h)) > base) == (i in bridges)


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
        assert h.edges == ((0, 1), (2, 3), (0, 3))
        assert emap == (0, 2, 3)


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
        assert g.edge_index(2, 0) == 0
