import random
import weakref
from itertools import combinations
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signrank.factors import (
    Factor,
    count_factors,
    count_factors_at_most,
    count_nonzero_transversals,
    edge_membership,
    enumerate_factors,
    has_factor,
    iter_factors,
    perrank_bruteforce,
    perrank_fast,
)
from signrank.graph_core import Graph

from conftest import complete, cycle, path, petersen, star


def factor_oracle(g: Graph) -> set[frozenset[int]]:
    """Independent enumeration: every edge subset whose spanning subgraph has
    all degrees in {1, 2}, covers V, and splits into K2s and cycles (a
    degree-1 vertex's component is a single edge; degree-2 components are
    cycles).  Returns factors as edge-index sets."""
    out = set()
    for size in range(g.m + 1):
        for subset in combinations(range(g.m), size):
            deg = [0] * g.n
            for i in subset:
                u, v = g.edges[i]
                deg[u] += 1
                deg[v] += 1
            if any(d == 0 or d > 2 for d in deg):
                continue
            # each component must be a single edge or a cycle: a component
            # with any degree-1 vertex must have exactly one edge
            parent = list(range(g.n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            comp_edges = {}
            for i in subset:
                u, v = g.edges[i]
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
            for i in subset:
                r = find(g.edges[i][0])
                comp_edges.setdefault(r, []).append(i)
            ok = True
            for r, es in comp_edges.items():
                verts = {x for i in es for x in g.edges[i]}
                degs = [deg[v] for v in verts]
                if all(d == 1 for d in degs):
                    ok = ok and len(es) == 1
                elif all(d == 2 for d in degs):
                    ok = ok and len(es) == len(verts) >= 3
                else:
                    ok = False
            if ok:
                out.add(frozenset(subset))
    return out


small_graphs = st.integers(0, 5).flatmap(
    lambda n: st.builds(
        Graph,
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
            max_size=10,
        ).map(
            lambda pairs: tuple(
                sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
            )
        ),
    )
)


class TestEnumeration:
    def test_p3_has_none(self):
        assert enumerate_factors(path(3)) == []

    def test_c4(self):
        facs = enumerate_factors(cycle(4))
        assert len(facs) == 3
        assert {f.edge_indices() for f in facs} == factor_oracle(cycle(4))
        kinds = sorted((f.k2_count, f.cycle_count) for f in facs)
        assert kinds == [(0, 1), (2, 0), (2, 0)]

    def test_k4(self):
        facs = enumerate_factors(complete(4))
        assert len(facs) == 6
        assert {f.edge_indices() for f in facs} == factor_oracle(complete(4))
        assert sum(1 for f in facs if f.cycle_count == 1) == 3  # Hamiltonian cycles
        assert sum(1 for f in facs if f.k2_count == 2) == 3  # perfect matchings

    def test_null_graph_has_empty_factor(self):
        facs = enumerate_factors(Graph(0, ()))
        assert facs == [Factor((), (), frozenset())]

    def test_matches_oracle_up_to_n5(self, corpus_le5):
        for g in corpus_le5:
            assert {f.edge_indices() for f in enumerate_factors(g)} == factor_oracle(g)

    @settings(max_examples=150, deadline=None)
    @given(small_graphs)
    def test_factor_structure(self, g):
        facs = enumerate_factors(g)
        seen = set()
        for f in facs:
            deg = {}
            for i in f.k2_edges:
                for v in g.edges[i]:
                    deg[v] = deg.get(v, 0) + 1
            for cyc in f.cycles:
                assert len(cyc) >= 3
                for i in cyc:
                    for v in g.edges[i]:
                        deg[v] = deg.get(v, 0) + 1
            # spanning, and every vertex is a K2 endpoint or a cycle vertex
            assert set(deg) == set(range(g.n))
            assert all(
                deg[v] == 1 or deg[v] == 2 for v in deg
            )
            # canonical form is unique: no duplicates
            key = (f.k2_edges, f.cycles)
            assert key not in seen
            seen.add(key)
            assert 2 * f.k2_count + sum(len(c) for c in f.cycles) == len(f.covered)


class TestCounts:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (complete(3), 1),
            (cycle(4), 3),
            (complete(2), 1),
            (Graph(0, ()), 1),
            (Graph(3, ()), 0),
        ],
        ids=["K3", "C4", "K2", "K0", "edgeless3"],
    )
    def test_count_factors(self, g, expected):
        assert count_factors(g) == expected

    def test_count_at_most_stops_early(self):
        assert count_factors_at_most(complete(6), 2) == 2

    def test_has_factor(self):
        assert has_factor(cycle(5))
        assert not has_factor(star(3))

    @pytest.mark.parametrize(
        "g,expected",
        [(cycle(4), 4), (complete(4), 9), (path(3), 0)],
        ids=["C4", "K4", "P3"],
    )
    def test_nonzero_transversals(self, g, expected):
        assert count_nonzero_transversals(g) == expected


def reference_factors(g: Graph) -> Iterator[Factor]:
    """The backtracking listing that iter_factors replaced, kept as the slow
    reference it must match factor for factor and in order.

    Backtracks over the lowest-index uncovered vertex v: either match v to
    an uncovered neighbor (a K2 component), or grow a path from v that must
    close into a cycle of length >= 3.  Since v is the lowest uncovered
    vertex it is the minimum of its component, and cycles are closed only
    when the second vertex is smaller than the last, so each cycle appears
    in exactly one orientation.
    """
    n = g.n
    if n == 0:
        yield Factor((), (), frozenset())
        return
    covered = [False] * n
    k2: list[int] = []
    cycles: list[tuple[int, ...]] = []
    adj = g._adjacency

    def next_uncovered(start: int) -> int:
        i = start
        while i < n and covered[i]:
            i += 1
        return i

    def rec(v: int) -> Iterator[Factor]:
        if v == n:
            yield Factor(tuple(sorted(k2)), tuple(cycles), frozenset(range(n)))
            return
        covered[v] = True
        for u in adj[v]:
            if covered[u]:
                continue
            covered[u] = True
            k2.append(g.edge_index(v, u))
            yield from rec(next_uncovered(v + 1))
            k2.pop()
            covered[u] = False
        path = [v]

        def grow() -> Iterator[Factor]:
            current = path[-1]
            for u in adj[current]:
                if u == v and len(path) >= 3 and path[1] < path[-1]:
                    cyc = tuple(
                        [g.edge_index(path[i], path[i + 1]) for i in range(len(path) - 1)]
                        + [g.edge_index(path[-1], v)]
                    )
                    cycles.append(cyc)
                    yield from rec(next_uncovered(v + 1))
                    cycles.pop()
                elif not covered[u]:
                    covered[u] = True
                    path.append(u)
                    yield from grow()
                    path.pop()
                    covered[u] = False

        yield from grow()
        covered[v] = False

    yield from rec(next_uncovered(0))


def _gnp(rng: random.Random, n: int, p: float) -> Graph:
    return Graph(n, tuple(e for e in combinations(range(n), 2) if rng.random() < p))


def _listed_sums(g: Graph) -> tuple[int, int]:
    """The counts by the reference listing: (t, nonzero transversals)."""
    facs = list(reference_factors(g))
    return len(facs), sum(2 ** f.cycle_count for f in facs)


class TestCountingDP:
    """The subset-DP counts against the enumeration they replace."""

    def test_corpora(self, corpus_le7, corpus_bipartite_2ec_n8):
        for g in corpus_le7 + corpus_bipartite_2ec_n8:
            assert (count_factors(g), count_nonzero_transversals(g)) == _listed_sums(g)

    def test_random_gnp(self):
        rng = random.Random(20261018)
        for _ in range(50):
            g = _gnp(rng, rng.randint(8, 10), rng.choice((0.3, 0.4, 0.5)))
            assert (count_factors(g), count_nonzero_transversals(g)) == _listed_sums(g)

    def test_complete_graphs(self):
        # t(K_n) is OEIS A002137; perm(A(K_n)) is the number of derangements
        t = [1, 0, 1, 1, 6, 22, 130, 822, 6202, 52552, 499194, 5238370, 60222844]
        perm = [1, 0, 1, 2, 9, 44, 265, 1854, 14833, 133496, 1334961, 14684570,
                176214841]
        for n in range(13):
            assert count_factors(complete(n)) == t[n]
            assert count_nonzero_transversals(complete(n)) == perm[n]


class TestListingWalk:
    """iter_factors walks the DP table; the reference backtracking must give
    the same factors in the same order."""

    def test_corpora(self, corpus_le7, corpus_bipartite_2ec_n8):
        for g in corpus_le7 + corpus_bipartite_2ec_n8:
            assert list(iter_factors(g)) == list(reference_factors(g))

    def test_random_gnp(self):
        rng = random.Random(20261018)
        for _ in range(50):
            g = _gnp(rng, rng.randint(8, 11), rng.choice((0.2, 0.3, 0.4, 0.5, 0.6, 0.7)))
            assert list(iter_factors(g)) == list(reference_factors(g))

    def test_early_exit_values_on_corpora(self, corpus_le7, corpus_bipartite_2ec_n8):
        for g in corpus_le7 + corpus_bipartite_2ec_n8:
            ref = reference_factors(g)
            first_two = sum(1 for _ in zip(range(2), ref))
            assert has_factor(g) == (first_two > 0)
            assert count_factors_at_most(g, 2) == first_two

    def test_table_freed_with_graph(self):
        # the table holds no reference back to the graph and no cycle, so
        # it goes with the graph at once, not at the next garbage collection
        g = complete(6)
        list(iter_factors(g))
        count_nonzero_transversals(g)
        table = weakref.ref(vars(g)["_factor_table"])
        del g
        assert table() is None

    def test_first_factor_after_counting(self):
        # the table built for a count serves the listing on the same graph
        g = complete(7)
        assert count_factors(g) == 822
        assert next(iter_factors(g)) == next(reference_factors(g))
        assert list(iter_factors(g)) == list(reference_factors(g))


class TestPerrank:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (path(3), 2),
            (star(3), 2),
            (cycle(5), 5),
            (cycle(3), 3),
            (Graph(0, ()), 0),
            (Graph(4, ()), 0),
        ],
        ids=["P3", "K13", "C5", "C3", "K0", "edgeless4"],
    )
    def test_both_routes(self, g, expected):
        assert perrank_bruteforce(g) == expected
        assert perrank_fast(g) == expected

    def test_petersen(self):
        g = petersen()
        assert perrank_fast(g) == 10
        assert perrank_bruteforce(g) == 10

    def test_has_factor_and_perrank_agree_in_either_order(self, corpus_le5):
        # both read one cached matching: whichever runs first fills it
        for g in corpus_le5:
            expected = perrank_bruteforce(Graph(g.n, g.edges))
            first = Graph(g.n, g.edges)
            assert has_factor(first) == (expected == g.n)
            assert perrank_fast(first) == expected
            second = Graph(g.n, g.edges)
            assert perrank_fast(second) == expected
            assert has_factor(second) == (expected == g.n)

    def test_long_path_and_cycle(self):
        # the odd cycle's last vertex finds its augmenting path about n/2
        # steps away, deeper than the default recursion limit
        assert perrank_fast(path(3000)) == 3000
        assert perrank_fast(cycle(3001)) == 3001

    def test_fast_equals_bruteforce_up_to_n5(self, corpus_le5):
        for g in corpus_le5:
            assert perrank_fast(g) == perrank_bruteforce(g)

    def test_fast_equals_bruteforce_random_gnp(self):
        # the exhaustive check stops at n = 7; these reach n = 12, sparse
        # enough that many graphs miss a full perrank by one or more
        rng = random.Random(20261019)
        for _ in range(200):
            g = _gnp(rng, rng.randint(8, 12), rng.choice((0.1, 0.15, 0.2, 0.3, 0.5)))
            assert perrank_fast(g) == perrank_bruteforce(g)

    def test_full_perrank_iff_factor_up_to_n5(self, corpus_le5):
        for g in corpus_le5:
            assert (perrank_fast(g) == g.n) == has_factor(g)


class TestEdgeMembership:
    def test_c5_with_chord(self):
        # cycle 0-1-2-3-4 plus chord 0-2: factors are the 5-cycle and the
        # triangle 0-1-2 with the edge 3-4
        g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)))
        prof = edge_membership(g)
        assert prof.factor_total == 2
        chord = g.edge_index(0, 2)
        e34 = g.edge_index(3, 4)
        assert not prof.in_all[chord] and prof.in_cycle[chord] and not prof.in_k2[chord]
        assert prof.in_all[e34] and prof.in_k2[e34] and prof.in_cycle[e34]

    def test_no_factors(self):
        prof = edge_membership(path(3))
        assert prof.factor_total == 0
        assert not any(prof.in_all)
