import random
from itertools import product

import pytest

from signrank.errors import ResourceCapError
from signrank.exact_linalg import adjacency_matrix, det, rank
from signrank.factors import has_factor, perrank_fast
from signrank.graph_core import Graph
from signrank.sign_search import (
    find_fullrank_sign,
    iter_sign_representatives,
    max_rank_over_signs,
    min_rank_over_signs,
    spanning_forest,
    switch_at_vertex,
)

from conftest import complete, cycle, path


def grid(rows: int, cols: int) -> Graph:
    at = lambda i, j: i * cols + j
    edges = [(at(i, j), at(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    edges += [(at(i, j), at(i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    return Graph(rows * cols, tuple(edges))


def random_graph(rng, n, p=0.5) -> Graph:
    edges = tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p)
    return Graph(n, edges)


class TestFindFullrankSign:
    def test_k2(self):
        out = find_fullrank_sign(complete(2), method="exhaustive")
        assert out.witness.values == (1,)
        assert det(adjacency_matrix(complete(2), out.witness)) == -1

    def test_p3_certified_none(self):
        out = find_fullrank_sign(path(3), method="exhaustive")
        assert out.status == "certified_none"
        assert out.basis == "no_factor"

    def test_c4_witness(self):
        out = find_fullrank_sign(cycle(4), method="exhaustive")
        assert out.witness is not None
        assert det(adjacency_matrix(cycle(4), out.witness)) != 0

    @pytest.mark.parametrize("method", ["randomized", "exhaustive"])
    def test_methods_agree_on_small_graphs(self, method, corpus_le5):
        for idx, g in enumerate(corpus_le5):
            out = find_fullrank_sign(g, method=method, seed=idx)
            expect = has_factor(g)
            if expect:
                assert out.witness is not None, (method, g)
                assert det(adjacency_matrix(g, out.witness)) != 0
            else:
                assert out.witness is None and out.certified_none

    def test_randomized_is_seeded(self):
        a = find_fullrank_sign(complete(5), method="randomized", seed=11)
        b = find_fullrank_sign(complete(5), method="randomized", seed=11)
        assert a.witness == b.witness and a.attempts == b.attempts

    def test_randomized_inconclusive_is_not_a_certificate(self):
        # with a single attempt the sampler can miss; it must then report
        # inconclusive, never certified absence
        for seed in range(40):
            out = find_fullrank_sign(cycle(4), method="randomized", seed=seed,
                                     max_attempts=1)
            if out.witness is None:
                assert out.status == "inconclusive"
                assert not out.certified_none
                break
        else:
            pytest.fail("no seed produced an inconclusive run")

    def test_grid_6x6_witness(self):
        # n = 36 is far above the factor table's reach; the guard is one
        # matching of the double cover
        g = grid(6, 6)
        out = find_fullrank_sign(g, method="randomized")
        assert out.witness is not None
        assert det(adjacency_matrix(g, out.witness)) != 0

    @pytest.mark.parametrize("method", ["randomized", "exhaustive"])
    def test_grid_5x5_certified_none(self, method):
        # bipartite with sides 13 and 12: no {1,2}-factor
        out = find_fullrank_sign(grid(5, 5), method=method)
        assert out.status == "certified_none" and out.basis == "no_factor"

    def test_exhaustive_cap(self):
        with pytest.raises(ResourceCapError):
            find_fullrank_sign(complete(7), method="exhaustive", exhaustive_m_cap=10)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            find_fullrank_sign(complete(2), method="simulated-annealing")


class TestSwitching:
    def test_representative_count(self):
        g = cycle(4)
        reps = list(iter_sign_representatives(g))
        assert len(reps) == 2 ** (g.m - g.n + 1)
        assert all(len(r) == g.m for r in reps)

    def test_forest_is_spanning(self):
        g = complete(5)
        forest = spanning_forest(g)
        assert len(forest) == g.n - 1

    def test_rank_invariant_under_switching(self):
        rng = random.Random(2024)
        cases = 0
        while cases < 100:
            g = random_graph(rng, rng.randint(2, 6))
            if g.m == 0:
                continue
            values = tuple(rng.choice((1, -1)) for _ in range(g.m))
            v = rng.randrange(g.n)
            switched = switch_at_vertex(g, values, v)
            assert rank(adjacency_matrix(g, values)) == rank(
                adjacency_matrix(g, switched))
            assert det(adjacency_matrix(g, values)) == det(
                adjacency_matrix(g, switched))
            cases += 1

    def test_every_class_reaches_all_dets(self):
        # the determinant multiset over representatives equals the one over
        # the full sign space, up to multiplicity
        g = cycle(4)
        full = sorted(
            det(adjacency_matrix(g, s))
            for s in __import__("itertools").product((1, -1), repeat=g.m))
        reps = sorted(
            det(adjacency_matrix(g, s)) for s in iter_sign_representatives(g))
        assert set(full) == set(reps)


class TestMaxRank:
    @pytest.mark.parametrize(
        "g,expected",
        [(path(3), 2), (cycle(4), 4), (Graph(1, ()), 0)],
        ids=["P3", "C4", "K1"],
    )
    def test_examples(self, g, expected):
        assert max_rank_over_signs(g) == expected

    def test_equals_perrank_small_sweep(self, corpus_le5):
        for g in corpus_le5:
            assert max_rank_over_signs(g) == perrank_fast(g)

    def test_sampling_fallback_above_cap(self):
        # K7 has m=21; beyond the exhaustive cap the randomized lower bound
        # must meet the perrank upper bound
        assert max_rank_over_signs(complete(7), exhaustive_m_cap=20, seed=1) == 7


class TestMinRank:
    def test_c4(self):
        value, witness = min_rank_over_signs(cycle(4))
        assert value == 2
        assert witness.values == (1, 1, 1, 1)
        assert rank(adjacency_matrix(cycle(4), witness)) == 2

    def test_k2(self):
        value, witness = min_rank_over_signs(complete(2))
        assert value == 2 and witness.values == (1,)

    def test_k3(self):
        value, _ = min_rank_over_signs(complete(3))
        assert value == 3

    def test_cap_refusal(self):
        with pytest.raises(ResourceCapError, match="m <= 20"):
            min_rank_over_signs(complete(7))

    def test_quotient_scan_matches_full_scan(self, corpus_le6):
        # min over all 2^m signs, computed directly, against the scan over
        # one sign per switching class
        for g in corpus_le6:
            full = min(rank(adjacency_matrix(g, s)) for s in product((1, -1), repeat=g.m))
            value, witness = min_rank_over_signs(g)
            assert value == full
            assert rank(adjacency_matrix(g, witness)) == value

    def test_monotone_sanity(self, corpus_le5):
        for g in corpus_le5:
            mn, _ = min_rank_over_signs(g)
            mx = max_rank_over_signs(g)
            assert mn <= mx == perrank_fast(g) <= g.n
