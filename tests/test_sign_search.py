import random
from itertools import product

import pytest

from signrank import sign_search
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
)

from conftest import complete, cycle, grid, path
from oracles import switch_at_vertex


def random_graph(rng, n, p=0.5) -> Graph:
    edges = tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p)
    return Graph(n, edges)


class TestFindFullrankSign:
    def test_k2(self, no_samples):
        out = find_fullrank_sign(complete(2))
        assert out.witness.values == (1,) and out.method == "exhaustive"
        assert det(adjacency_matrix(complete(2), out.witness)) == -1

    def test_p3_certified_none(self):
        out = find_fullrank_sign(path(3))
        assert out.witness is None
        assert out.basis == "no_factor" and out.method == "randomized"

    def test_c4_witness(self):
        out = find_fullrank_sign(cycle(4))
        assert out.witness is not None
        assert det(adjacency_matrix(cycle(4), out.witness)) != 0

    def test_witness_iff_factor_on_small_graphs(self, corpus_le5):
        for idx, g in enumerate(corpus_le5):
            out = find_fullrank_sign(g, seed=idx)
            if has_factor(g):
                assert out.witness is not None and out.method == "randomized", g
                assert det(adjacency_matrix(g, out.witness)) != 0
            else:
                assert out.witness is None and out.certified_none

    def test_randomized_is_seeded(self):
        a = find_fullrank_sign(complete(5), seed=11)
        b = find_fullrank_sign(complete(5), seed=11)
        assert a.witness == b.witness and a.attempts == b.attempts

    def test_grid_6x6_witness(self):
        # n = 36 is far above the factor table's reach; the guard is one
        # matching of the double cover
        g = grid(6, 6)
        out = find_fullrank_sign(g)
        assert out.witness is not None
        assert det(adjacency_matrix(g, out.witness)) != 0

    @pytest.mark.parametrize("samples_per_edge", [64, 0],
                             ids=["randomized", "exhaustive"])
    def test_grid_5x5_certified_none(self, samples_per_edge, monkeypatch):
        # bipartite with sides 13 and 12: no {1,2}-factor, so the guard
        # certifies before either phase of the schedule runs
        monkeypatch.setattr(sign_search, "SAMPLES_PER_EDGE", samples_per_edge)
        out = find_fullrank_sign(grid(5, 5))
        assert out.witness is None and out.basis == "no_factor"
        assert out.attempts == 0

    def test_exhaustive_cap(self, no_samples):
        with pytest.raises(ResourceCapError, match="m <= 10"):
            find_fullrank_sign(complete(7), exhaustive_m_cap=10)

    def test_scan_below_rank_n_raises(self, monkeypatch):
        # the scan's exact rank is the witness's proof: a scan that ends
        # below rank n on a graph with a factor is a fault, never an answer
        def short(g, signs, goal, lowest=False):
            return g.n - 1, (1,) * g.m, 1

        monkeypatch.setattr(sign_search, "_scan", short)
        with pytest.raises(AssertionError, match="no verified full-rank sign"):
            find_fullrank_sign(cycle(4))


class TestScanFallback:
    """The schedule's second phase, which no corpus graph reaches: with
    sampling off, the switching-class scan answers alone."""

    def test_witness_on_every_factor_graph(self, no_samples, corpus_le5):
        for g in corpus_le5:
            out = find_fullrank_sign(g)
            if has_factor(g):
                assert out.method == "exhaustive" and out.attempts >= 1, g
                assert det(adjacency_matrix(g, out.witness)) != 0
            else:
                assert out.certified_none and out.attempts == 0

    def test_max_rank_equals_perrank(self, no_samples, corpus_le5):
        for g in corpus_le5:
            assert max_rank_over_signs(g) == perrank_fast(g)

    @pytest.mark.parametrize("search", [find_fullrank_sign, max_rank_over_signs],
                             ids=["fullrank", "maxrank"])
    def test_miss_above_cap_is_not_a_certificate(self, search, monkeypatch):
        # one sample per edge misses a full-rank sign of C4 on some seeds;
        # above the cap the scan is refused, so a miss is a cap error and
        # never an answer
        monkeypatch.setattr(sign_search, "SAMPLES_PER_EDGE", 1)
        misses = 0
        for seed in range(40):
            try:
                out = search(cycle(4), seed=seed, exhaustive_m_cap=0)
            except ResourceCapError as exc:
                assert "after 4 missed samples" in str(exc) and "m <= 0" in str(exc)
                misses += 1
                continue
            if search is max_rank_over_signs:
                assert out == 4
            else:
                assert out.method == "randomized"
                assert det(adjacency_matrix(cycle(4), out.witness)) != 0
        assert 0 < misses < 40


class TestSwitching:
    def test_representative_count(self):
        g = cycle(4)
        reps = list(iter_sign_representatives(g))
        assert len(reps) == 2 ** (g.m - g.n + 1)
        assert all(len(r) == g.m for r in reps)

    def test_representatives_in_free_edge_order(self):
        # the nested construction: forest edges +1, the free edges written
        # into a copy of that base, running over {+1,-1} with +1 first
        rng = random.Random(68)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 7), rng.random())
            forest = spanning_forest(g)
            free = [i for i in range(g.m) if i not in forest]
            expected = []
            for combo in product((1, -1), repeat=len(free)):
                vec = [1] * g.m
                for pos, val in zip(free, combo):
                    vec[pos] = val
                expected.append(tuple(vec))
            assert list(iter_sign_representatives(g)) == expected, g

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
