"""Exact integer matrix arithmetic: determinant, rank and permanent without
floating point, so "full rank" and "singular" are decided with certainty.

A matrix is a sequence of integer rows (adjacency_matrix and
matrix_at_point build lists of lists); no function here mutates the rows it
is given.  Determinant and rank share one fraction-free (Bareiss)
elimination: every intermediate entry is an exact minor of the input, kept
integral by exact division through the previous pivot.  A row whose entry
in the pivot column is 0 updates to x * pivot / prev, so it is skipped when
the two pivots are equal and only rescaled otherwise: the entries are the
same minors, and a sparse matrix pays arithmetic only where a pivot reaches.
Python integers are arbitrary precision, so nothing overflows.
"""

from __future__ import annotations

from itertools import compress
from typing import Sequence, Union

from .assignments import EdgeAssignment
from .errors import InvalidAssignmentError
from .graph_core import Graph

Rows = Sequence[Sequence[int]]


def adjacency_matrix(g: Graph, w: Union[EdgeAssignment, Sequence[int]]) -> list[list[int]]:
    """Weighted adjacency matrix of g: symmetric, zero diagonal, entry (i,j)
    equal to the weight of edge ij.  Every edge needs a nonzero weight."""
    values = w.values if isinstance(w, EdgeAssignment) else tuple(int(x) for x in w)
    if any(v == 0 for v in values):
        raise InvalidAssignmentError("edge weights must be nonzero")
    return matrix_at_point(g, values)


def matrix_at_point(g: Graph, values: Sequence[int]) -> list[list[int]]:
    """Symbolic adjacency matrix evaluated at a point; zeros are allowed here
    (used for generic polynomial evaluation, not for weighted graphs)."""
    if len(values) != g.m:
        raise InvalidAssignmentError(f"{len(values)} values given, graph has {g.m} edges")
    a = [[0] * g.n for _ in range(g.n)]
    for idx, (u, v) in enumerate(g.edges):
        a[u][v] = a[v][u] = int(values[idx])
    return a


def _eliminate(m: Rows) -> tuple[int, int, int]:
    """Fraction-free elimination of a copy of m, pivoting in each column on
    the first nonzero entry at or below the current row.  Returns (rank,
    sign of the row swaps, last pivot).  When the rank equals the row count
    of a square matrix, sign * last pivot is its determinant."""
    a = [list(row) for row in m]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    if any(len(row) != ncols for row in a):
        raise ValueError("matrix rows differ in length")
    r = 0
    sign = 1
    prev = 1
    for c in range(ncols):
        pivot_row = -1
        for i in range(r, nrows):
            if a[i][c] != 0:
                pivot_row = i
                break
        if pivot_row < 0:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
            sign = -sign
        row_r = a[r]
        pivot = row_r[c]
        for i in range(r + 1, nrows):
            row_i = a[i]
            f = row_i[c]
            if f:
                for j in range(c + 1, ncols):
                    row_i[j] = (row_i[j] * pivot - f * row_r[j]) // prev
                row_i[c] = 0
            elif pivot != prev:
                for j in range(c + 1, ncols):
                    row_i[j] = row_i[j] * pivot // prev
        prev = pivot
        r += 1
        if r == nrows:
            break
    return r, sign, prev


def _order(m: Rows, what: str) -> int:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError(f"{what} needs a square matrix")
    return n


def det(m: Rows) -> int:
    """Exact determinant.  det of 0x0 is 1."""
    n = _order(m, "determinant")
    r, sign, last_pivot = _eliminate(m)
    return sign * last_pivot if r == n else 0


def rank(m: Rows) -> int:
    """Rank over the rationals."""
    return _eliminate(m)[0]


def permanent(m: Rows) -> int:
    """Exact permanent by a dynamic program over the rows in order, keyed by
    the set of columns the rows so far have used (each partial product
    summed once per key).  A column leaves the key once the last row with a
    nonzero entry in it is done: a key that lacks it then has no way to use
    it and is dropped.  O(2^n n) steps at most, and polynomial when the
    nonzero entries lie in a band; a zero column makes it 0 at once."""
    n = _order(m, "permanent")
    entries = [[(1 << j, row[j]) for j in compress(range(n), row)] for row in m]
    closing = [0] * n       # row i -> the columns whose last nonzero is in it
    last = {bit: i for i, row in enumerate(entries) for bit, _ in row}
    if len(last) < n:
        return 0
    for bit, i in last.items():
        closing[i] |= bit
    sums = {0: 1}
    for row, close in zip(entries, closing):
        nxt: dict[int, int] = {}
        for used, value in sums.items():
            for bit, x in row:
                if not used & bit:
                    key = used | bit
                    nxt[key] = nxt.get(key, 0) + value * x
        sums = {key ^ close: value for key, value in nxt.items() if key & close == close}
    return sums.get(0, 0)
