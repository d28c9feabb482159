import random
from itertools import combinations, permutations

import pytest

from signrank.assignments import EdgeAssignment
from signrank.errors import InvalidAssignmentError
from signrank.exact_linalg import (
    _eliminate,
    adjacency_matrix,
    det,
    matrix_at_point,
    permanent,
    rank,
)

from conftest import chain_of_4_cycles, complete, cycle, grid
from oracles import bareiss


def det_by_permutations(m) -> int:
    """Independent oracle: Leibniz expansion."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        prod = 1
        for i, j in enumerate(perm):
            prod *= m[i][j]
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        total += prod if inversions % 2 == 0 else -prod
    return total


def perm_by_permutations(m) -> int:
    n = len(m)
    return sum(
        _prod(m[i][j] for i, j in enumerate(p))
        for p in permutations(range(n)))


def _prod(xs):
    out = 1
    for x in xs:
        out *= x
    return out


def random_matrix(rng, n, lo=-9, hi=9) -> list[list[int]]:
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


class TestAdjacencyMatrix:
    def test_k2(self):
        m = adjacency_matrix(complete(2), (1,))
        assert m == [[0, 1], [1, 0]]

    def test_c4_all_ones(self):
        m = adjacency_matrix(cycle(4), (1, 1, 1, 1))
        assert m == [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]

    def test_zero_weight_rejected(self):
        with pytest.raises(InvalidAssignmentError):
            adjacency_matrix(complete(2), (0,))

    def test_missing_edge_rejected(self):
        with pytest.raises(InvalidAssignmentError):
            adjacency_matrix(cycle(4), (1, 1, 1))

    def test_symmetric_zero_diagonal(self):
        rng = random.Random(7)
        g = complete(5)
        w = tuple(rng.choice((1, -1)) * rng.randint(1, 9) for _ in range(g.m))
        m = adjacency_matrix(g, EdgeAssignment(w))
        for i in range(5):
            assert m[i][i] == 0
            for j in range(5):
                assert m[i][j] == m[j][i]

    def test_point_matrix_allows_zero(self):
        m = matrix_at_point(cycle(4), (0, 1, 0, 1))
        assert m[0][1] == 0 and m[0][3] == 1


class TestDet:
    def test_identity(self):
        assert det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1

    def test_k3_all_ones(self):
        assert det(adjacency_matrix(complete(3), (1, 1, 1))) == 2

    def test_c4_all_ones(self):
        assert det(adjacency_matrix(cycle(4), (1, 1, 1, 1))) == 0

    def test_empty_matrix(self):
        assert det([]) == 1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det([[1, 2]])

    def test_against_permutation_expansion(self):
        # entries in {-1, 0, 1} give singular matrices and row swaps often
        rng = random.Random(1234)
        for lo, hi in ((-9, 9), (-1, 1)):
            for _ in range(500):
                n = rng.randint(0, 6)
                m = random_matrix(rng, n, lo, hi)
                assert det(m) == det_by_permutations(m)


class TestRank:
    def test_c4(self):
        assert rank(adjacency_matrix(cycle(4), (1, 1, 1, 1))) == 2

    def test_k2_weight5(self):
        assert rank(adjacency_matrix(complete(2), (5,))) == 2

    def test_zero_matrix(self):
        assert rank([[0] * 3 for _ in range(3)]) == 0

    def test_rectangular(self):
        assert rank([[1, 2, 3], [2, 4, 6]]) == 1
        assert rank([[0, 1], [1, 0], [1, 1]]) == 2

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            rank([[1, 2], [3]])

    def test_against_largest_nonzero_minor(self):
        rng = random.Random(99)
        for _ in range(100):
            m = random_matrix(rng, 5, lo=-3, hi=3)
            largest = 0
            for k in range(1, 6):
                found = False
                for rows in combinations(range(5), k):
                    for cols in combinations(range(5), k):
                        sub = [[m[i][j] for j in cols] for i in rows]
                        if det_by_permutations(sub) != 0:
                            found = True
                            break
                    if found:
                        break
                if found:
                    largest = k
            assert rank(m) == largest


class TestPermanent:
    def test_derangements_k4(self):
        assert permanent(adjacency_matrix(complete(4), (1,) * 6)) == 9

    def test_empty(self):
        assert permanent([]) == 1

    def test_against_permutation_expansion(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(0, 5)
            m = random_matrix(rng, n, lo=-4, hi=4)
            assert permanent(m) == perm_by_permutations(m)
        for n in (6, 7):
            for _ in range(4):
                m = random_matrix(rng, n, lo=-4, hi=4)
                assert permanent(m) == perm_by_permutations(m)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_zero_rows_and_columns(self, n):
        # a zero row leaves no column set to carry on, and a zero column is
        # never used: either way no permutation survives
        rng = random.Random(n)
        for _ in range(3):
            m = random_matrix(rng, n, lo=-3, hi=3)
            i = rng.randrange(n)
            rows = [row[:] for row in m]
            rows[i] = [0] * n
            cols = [[0 if j == i else x for j, x in enumerate(row)] for row in m]
            assert permanent(rows) == perm_by_permutations(rows) == 0
            assert permanent(cols) == perm_by_permutations(cols) == 0

    @pytest.mark.parametrize("n", [*range(3, 13), 900])
    def test_cycles(self, n):
        # the permutations along C_n: its two rotations, and for even n its
        # two perfect matchings.  The program keeps a few column sets per
        # row on the cycle's band, so a long cycle costs about n^2 steps
        m = adjacency_matrix(cycle(n), (1,) * n)
        assert permanent(m) == 2 + 2 * (n % 2 == 0)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_sparse_sign_matrices(self, n):
        rng = random.Random(10 + n)
        for _ in range(4):
            m = [[rng.choice((0, 0, 0, 1, -1)) for _ in range(n)] for _ in range(n)]
            assert permanent(m) == perm_by_permutations(m)


class TestRowsUnchanged:
    def test_det_rank_permanent_leave_rows_unchanged(self):
        rng = random.Random(3)
        for lo, hi in ((-9, 9), (-1, 1)):
            for _ in range(50):
                m = random_matrix(rng, rng.randint(1, 5), lo, hi)
                before = [list(row) for row in m]
                for fn in (det, rank, permanent):
                    fn(m)
                    assert m == before


def _matrices_with_zero_lines(rng, count):
    """count seeded matrices of 0-12 rows and 0-12 columns, entries in
    {-1, 0, 1} or -9..9 at a random density, some rows and columns zeroed:
    rectangular, singular, and with negative pivots."""
    for _ in range(count):
        rows, cols = rng.randint(0, 12), rng.randint(0, 12)
        lo, hi = rng.choice(((-1, 1), (-9, 9)))
        density = rng.random()
        m = [[rng.randint(lo, hi) if rng.random() < density else 0 for _ in range(cols)]
             for _ in range(rows)]
        for i in range(rows):
            if rng.random() < 0.1:
                m[i] = [0] * cols
        for j in range(cols):
            if rng.random() < 0.1:
                for row in m:
                    row[j] = 0
        yield m


class TestSkippedRowUpdates:
    """_eliminate leaves a row alone when its pivot-column entry is 0 and the
    pivot equals the previous one, and only rescales it when the pivots
    differ; bareiss updates every row.  Both must agree on (rank, sign,
    last pivot) for every input."""

    @staticmethod
    def signed(g, rng):
        return adjacency_matrix(g, tuple(rng.choice((1, -1)) for _ in range(g.m)))

    def test_corpora(self, corpus_le7, corpus_bipartite_2ec_n8):
        rng = random.Random(31)
        for g in corpus_le7 + corpus_bipartite_2ec_n8:
            for m in (adjacency_matrix(g, (1,) * g.m), self.signed(g, rng)):
                assert _eliminate(m) == bareiss(m), g.edges

    def test_seeded_matrices(self):
        rng = random.Random(2024)
        shapes = set()
        for m in _matrices_with_zero_lines(rng, 1200):
            assert _eliminate(m) == bareiss(m), m
            shapes.add((len(m), len(m[0]) if m else 0))
        assert len(shapes) > 120

    @pytest.mark.parametrize("g", [chain_of_4_cycles(30), grid(8, 8)], ids=["chain30", "grid8x8"])
    def test_large_sparse_graphs(self, g):
        rng = random.Random(g.n)
        for m in (adjacency_matrix(g, (1,) * g.m), self.signed(g, rng)):
            assert _eliminate(m) == bareiss(m)
