import gc
import json
import random
import weakref
from itertools import combinations
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signrank import harness
from signrank.factors import (
    count_factors,
    count_factors_at_most,
    count_nonzero_transversals,
    factor_edges,
    has_factor,
    listing_json,
    matching_cycles,
    perrank_fast,
)
from signrank.graph_core import Graph, induced_subgraph

from conftest import complete, cycle, grid, path, petersen, star
from oracles import (
    Factor,
    edge_membership,
    enumerate_factors,
    factor_choices,
    iter_factors,
    perrank_bruteforce,
)


def edge_set(f: Factor) -> frozenset[int]:
    """The edge indices of a factor, K2s and cycles together."""
    return frozenset(f.k2_edges).union(*f.cycles)


def cycle_edges(g: Graph, cycles: tuple[tuple[int, ...], ...]) -> frozenset[int]:
    """The edge indices of vertex cycles, a 2-cycle being one edge."""
    index = {e: i for i, e in enumerate(g.edges)}
    return frozenset(index[min(a, b), max(a, b)] for c in cycles for a, b in zip(c, c[1:] + c[:1]))


def listed(g: Graph) -> list[Factor]:
    """The package's listing (listing_json), read back as Factor tuples."""
    t, text = listing_json(g)
    facs = [Factor(tuple(d["k2"]), tuple(map(tuple, d["cycles"])))
            for d in json.loads("[" + text + "]")]
    assert t == len(facs)
    return facs


def listing_dicts(factors: list[Factor]) -> list[dict]:
    """Factors as a factors record lists them: {"k2": [...], "cycles":
    [[...], ...]} each."""
    return [{"k2": list(f.k2_edges), "cycles": [list(c) for c in f.cycles]} for f in factors]


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
        assert listed(path(3)) == []

    def test_c4(self):
        facs = listed(cycle(4))
        assert len(facs) == 3
        assert {edge_set(f) for f in facs} == factor_oracle(cycle(4))
        kinds = sorted((len(f.k2_edges), len(f.cycles)) for f in facs)
        assert kinds == [(0, 1), (2, 0), (2, 0)]

    def test_k4(self):
        facs = listed(complete(4))
        assert len(facs) == 6
        assert {edge_set(f) for f in facs} == factor_oracle(complete(4))
        assert sum(1 for f in facs if len(f.cycles) == 1) == 3  # Hamiltonian cycles
        assert sum(1 for f in facs if len(f.k2_edges) == 2) == 3  # perfect matchings

    def test_null_graph_has_empty_factor(self):
        facs = listed(Graph(0, ()))
        assert facs == [Factor((), ())]

    def test_matches_oracle_up_to_n5(self, corpus_le5):
        for g in corpus_le5:
            assert {edge_set(f) for f in listed(g)} == factor_oracle(g)

    @settings(max_examples=150, deadline=None)
    @given(small_graphs)
    def test_factor_structure(self, g):
        facs = listed(g)
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
            assert 2 * len(f.k2_edges) + sum(len(c) for c in f.cycles) == g.n


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
    """The backtracking listing that the table walk replaced, kept as the slow
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
        yield Factor((), ())
        return
    covered = [False] * n
    k2: list[int] = []
    cycles: list[tuple[int, ...]] = []
    adj = g._adjacency
    index = {e: i for i, e in enumerate(g.edges)}

    def edge_index(u: int, v: int) -> int:
        return index[(u, v) if u < v else (v, u)]

    def next_uncovered(start: int) -> int:
        i = start
        while i < n and covered[i]:
            i += 1
        return i

    def rec(v: int) -> Iterator[Factor]:
        if v == n:
            yield Factor(tuple(sorted(k2)), tuple(cycles))
            return
        covered[v] = True
        for u in adj[v]:
            if covered[u]:
                continue
            covered[u] = True
            k2.append(edge_index(v, u))
            yield from rec(next_uncovered(v + 1))
            k2.pop()
            covered[u] = False
        path = [v]

        def grow() -> Iterator[Factor]:
            current = path[-1]
            for u in adj[current]:
                if u == v and len(path) >= 3 and path[1] < path[-1]:
                    cyc = tuple(
                        [edge_index(path[i], path[i + 1]) for i in range(len(path) - 1)]
                        + [edge_index(path[-1], v)]
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
    return len(facs), sum(2 ** len(f.cycles) for f in facs)


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
    """The listing's walk over the DP table's choices (iter_factors in
    tests/oracles.py); the reference backtracking must give the same
    factors in the same order."""

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
        listing_json(g)
        count_nonzero_transversals(g)
        table = weakref.ref(vars(g)["_factor_table"])
        del g
        assert table() is None

    def test_table_leaves_no_reference_cycle(self):
        # the table's recursive closures refer to each other: each count and
        # listing must break that cycle, or every table waits for the
        # garbage collector
        gc.collect()
        gc.disable()
        try:
            graphs = _dense_graphs(5)
            for g in graphs:
                count_factors(g)
                count_nonzero_transversals(g)
                listing_json(g)
            del graphs, g
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_second_count_adds_no_table_state(self):
        # both counts are residues of one packed value: the transversal
        # count fills no memo entry that t did not
        g = _dense_graphs(1)[0]
        count_factors(g)
        table = vars(g)["_factor_table"]
        sizes = len(table.f_memo), [len(pv) for pv in table.p_memo]
        count_nonzero_transversals(g)
        assert (len(table.f_memo), [len(pv) for pv in table.p_memo]) == sizes

    def test_first_factor_after_counting(self):
        # the table built for a count serves the listing on the same graph
        g = complete(7)
        assert count_factors(g) == 822
        assert next(iter_factors(g)) == next(reference_factors(g))
        assert list(iter_factors(g)) == list(reference_factors(g))


class TestMatchingTClass:
    """count_factors_at_most up to 2, the cycles of the double-cover
    matching and the edges that some factor uses (factor_edges, against the
    full listing in tests/oracles.py), read without a factor table."""

    @staticmethod
    def check(g: Graph) -> None:
        t = count_factors(Graph(g.n, g.edges))
        prof = edge_membership(g)
        fresh = Graph(g.n, g.edges)
        for limit in (0, 1, 2):
            assert count_factors_at_most(fresh, limit) == min(t, limit)
        assert factor_edges(fresh) == tuple(prof.present(i) for i in range(g.m))
        cycles = matching_cycles(fresh)
        assert "_factor_table" not in vars(fresh)
        assert (cycles is None) == (t == 0)
        if cycles is not None:
            # a factor: its cycles partition V, each from its least vertex
            assert sorted(v for c in cycles for v in c) == list(range(g.n))
            assert [c[0] for c in cycles] == sorted(min(c) for c in cycles)
            assert all(len(c) == 2 or len(c) == len(cycle_edges(g, (c,))) for c in cycles)
        if t == 1:
            assert cycle_edges(g, cycles) == edge_set(next(iter_factors(g)))

    def test_corpora(self, corpus_le7, corpus_bipartite_2ec_n8):
        for g in corpus_le7 + corpus_bipartite_2ec_n8:
            self.check(g)

    def test_random_gnp(self):
        # a third with the edge list shuffled and its pairs flipped at random
        rng = random.Random(20261020)
        for i in range(600):
            g = _gnp(rng, rng.randint(0, 12), rng.choice((0.1, 0.2, 0.3, 0.4)))
            if i % 3 == 0:
                edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
                rng.shuffle(edges)
                g = Graph(g.n, tuple(edges))
            self.check(g)

    def test_long_graphs(self):
        # no step recurses: a path's and an odd cycle's unique factor, and
        # the second factor of an even cycle or a ladder, are found at any n
        assert count_factors_at_most(path(5000), 2) == 1
        assert matching_cycles(path(5000)) == tuple((i, i + 1) for i in range(0, 5000, 2))
        assert count_factors_at_most(cycle(5001), 2) == 1
        assert matching_cycles(cycle(5001)) == (tuple(range(5001)),)
        assert count_factors_at_most(cycle(5000), 2) == 2
        assert count_factors_at_most(grid(2, 2000), 2) == 2
        assert count_factors_at_most(path(5001), 2) == 0
        # the strong components of factor_edges take no recursion either:
        # the odd cycle's one digraph cycle is 5001 nodes long, and every
        # edge of the ladder lies in some factor
        assert factor_edges(cycle(5001)) == (True,) * 5001
        assert factor_edges(grid(2, 2000)) == (True,) * grid(2, 2000).m
        assert factor_edges(path(5001)) == (False,) * 5000


class TestCanonicalListing:
    """The listing sorts no factor: grouped by K2 edges, the walk's order
    (iter_factors and enumerate_factors in tests/oracles.py) must already be
    the sorted order."""

    @staticmethod
    def check(g: Graph) -> None:
        listed = enumerate_factors(g)
        assert listed == sorted(iter_factors(g))
        assert all(type(f) is Factor for f in listed)

    def test_corpora(self, corpus_le7, corpus_bipartite_2ec_n8):
        for g in corpus_le7 + corpus_bipartite_2ec_n8:
            self.check(g)

    def test_random_gnp(self):
        rng = random.Random(20261020)
        for _ in range(200):
            self.check(_gnp(rng, rng.randint(8, 11), rng.choice((0.2, 0.3, 0.4, 0.5))))

    def test_groups_need_no_sort(self):
        # the walk's own order is not sorted: at each vertex it takes the
        # K2 edges before the cycles, so K2 edges (0, 1), (2, 3), (4, 5)
        # come before (0, 1) and a cycle, whose shorter K2 tuple sorts first
        g = complete(6)
        assert list(iter_factors(g)) != sorted(iter_factors(g))
        self.check(g)


def oracle_choices(g: Graph, s: int, leaves: dict[int, bool]) -> list:
    """The choices at the vertex set S by their definition, with v = min S:
    the K2 partners of v in vertex order, then every cycle through v inside
    S, from a depth-first search over simple paths with no memo and no
    pruning, in the orientation whose second vertex is below its last and
    sorted by vertex sequence.  A choice is kept when what it leaves has a
    factor, by the double-cover matching on the induced subgraph; leaves
    keeps those answers by vertex set, for every S of one graph."""
    v = (s & -s).bit_length() - 1
    rest = s ^ 1 << v
    adj = g._adjacency
    index = {e: i for i, e in enumerate(g.edges)}

    def edge(a: int, b: int) -> int:
        return index[(a, b) if a < b else (b, a)]

    def leaves_factor(left: int) -> bool:
        if left not in leaves:
            kept = [u for u in range(g.n) if left >> u & 1]
            leaves[left] = has_factor(induced_subgraph(g, kept)[0])
        return leaves[left]

    sequences = []

    def grow(seq: list[int], left: int) -> None:
        for u in adj[seq[-1]]:
            if u == v and len(seq) >= 3 and seq[1] < seq[-1]:
                sequences.append(tuple(seq))
            elif left >> u & 1:
                grow(seq + [u], left ^ 1 << u)

    grow([v], rest)
    out = [((edge(v, u),), (), rest ^ 1 << u) for u in sorted(adj[v])
           if rest >> u & 1 and leaves_factor(rest ^ 1 << u)]
    for seq in sorted(sequences):
        left = rest ^ sum(1 << u for u in seq[1:])
        if leaves_factor(left):
            out.append(((), (tuple(edge(a, b) for a, b in zip(seq, seq[1:] + (v,))),), left))
    return out


class TestChoices:
    """The choices the walk reads at every set it enters, against their
    definition: the open-path search and its pruning neither lose, add nor
    reorder a choice."""

    @staticmethod
    def check_walk(g: Graph) -> int:
        listing_json(g)
        sets = vars(g)["_factor_table"].choice_lists
        leaves: dict[int, bool] = {}
        for s in sets:
            assert factor_choices(g, s) == oracle_choices(g, s, leaves), (g, s)
        return len(sets)

    def test_corpora(self, corpus_le7, corpus_bipartite_2ec_n8):
        assert sum(self.check_walk(g) for g in corpus_le7 + corpus_bipartite_2ec_n8)

    def test_random_gnp(self):
        rng = random.Random(20261019)
        for _ in range(50):
            g = _gnp(rng, rng.randint(8, 11), rng.choice((0.2, 0.3, 0.4, 0.5)))
            self.check_walk(g)


def _dense_graphs(count: int) -> list[Graph]:
    """The first seeded G(n, p) graphs, n = 9..11, with 1,000 <= t <= 5,000
    factors: the range that no graph of the committed corpora reaches."""
    rng = random.Random(20261019)
    found = []
    while len(found) < count:
        g = _gnp(rng, rng.randint(9, 11), rng.choice((0.5, 0.6, 0.7)))
        if 1000 <= count_factors(g) <= 5000:
            found.append(g)
    return found


class TestDenseListing:
    """Listings of 1e3-5e3 factors, where the walk's shared prefixes and
    cached choices carry the most weight."""

    def test_walk_and_report(self):
        for g in _dense_graphs(4):
            listed = list(reference_factors(g))
            assert list(iter_factors(g)) == listed
            report, _ = harness.run([g], harness.RunConfig(command="factors"))
            record = report.splitlines()[1]
            expected = {
                **harness._base_record(0, g), "status": "ok", "t": len(listed),
                "factors": listing_dicts(sorted(listed, key=lambda f: (f.k2_edges, f.cycles)))}
            assert record == harness._dumps(expected)


class TestTextListing:
    """listing_json's text is the JSON of the oracle listing
    (enumerate_factors in tests/oracles.py) as the shared encoder writes
    it: sorted keys, no whitespace."""

    @staticmethod
    def check(g: Graph) -> None:
        t, text = listing_json(g)
        expected = listing_dicts(enumerate_factors(g))
        assert json.loads("[" + text + "]") == expected
        assert "[" + text + "]" == harness._dumps(expected)
        assert t == len(expected) == count_factors(g)

    def test_corpora(self, corpus_le7, corpus_bipartite_2ec_n8):
        for g in corpus_le7 + corpus_bipartite_2ec_n8:
            self.check(g)

    def test_random_gnp(self):
        rng = random.Random(20261021)
        for _ in range(200):
            self.check(_gnp(rng, rng.randint(8, 11), rng.choice((0.2, 0.3, 0.4, 0.5))))

    def test_dense(self):
        for g in _dense_graphs(4):
            self.check(g)

    def test_null_graph_lists_one_empty_factor(self):
        assert listing_json(Graph(0, ())) == (1, '{"cycles":[],"k2":[]}')
        self.check(Graph(0, ()))

    def test_no_factor_lists_nothing(self):
        assert listing_json(path(3)) == (0, "")
        self.check(path(3))


class TestFactorContract:
    def test_fields_and_derived_counts(self):
        f = Factor(k2_edges=(0, 3), cycles=((1, 2, 4), (5, 6, 7, 8)))
        assert (f.k2_edges, f.cycles) == ((0, 3), ((1, 2, 4), (5, 6, 7, 8)))
        assert len(f.k2_edges) == 2 and len(f.cycles) == 2
        assert edge_set(f) == frozenset(range(9))

    def test_equality_and_hashing(self):
        a = Factor((1,), ((0, 2, 3),))
        b = Factor((1,), ((0, 2, 3),))
        c = Factor((4,), ((0, 2, 3),))
        assert a == b and hash(a) == hash(b) and a != c
        assert len({a, b, c}) == 2


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
        assert count_factors(g) == 2
        chord = g.edges.index((0, 2))
        e34 = g.edges.index((3, 4))
        assert not prof.in_all[chord] and prof.in_cycle[chord] and not prof.in_k2[chord]
        assert prof.in_all[e34] and prof.in_k2[e34] and prof.in_cycle[e34]

    def test_no_factors(self):
        prof = edge_membership(path(3))
        assert count_factors(path(3)) == 0
        assert not any(prof.in_all)
