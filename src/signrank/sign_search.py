"""Search for edge signs giving a full-rank signed adjacency matrix, and the
extreme ranks over the sign space.

A full-rank sign exists iff the graph has a {1,2}-factor (iff full perrank),
so the search certifies "none" instantly when no factor exists: every term
of the determinant expansion needs a nonzero transversal, hence the
determinant vanishes identically.  Otherwise the square-free reduction of
the determinant polynomial is not identically zero, so some +-1 point is a
witness.

All three questions are one rank scan that stops at a proven goal: rank n
for a full-rank sign, perrank (rank never exceeds it) for the maximum, and
0 for the minimum.  One generator feeds every scan: given a seed,
SAMPLES_PER_EDGE * m seeded samples, then the switching-class scan, so a
sample answers cheaply and the class scan makes the schedule complete.  The
two highest-rank questions pass a seed; the minimum scans the classes
alone, since no sample certifies a minimum.  The switching-class scan
quotients by switching: negating all edges at a vertex conjugates the
matrix by a +-1 diagonal, preserving determinant and rank, so it is enough
to scan sign vectors that are +1 on a spanning forest (2^(m-n+c)
representatives instead of 2^m).  It is refused when m exceeds the cap,
only once it is reached, with a reason that names the caller's scan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

from .assignments import EdgeAssignment
from .errors import ResourceCapError
from .exact_linalg import adjacency_matrix, rank
from .factors import has_factor, perrank_fast
from .graph_core import Graph, spanning_forest

DEFAULT_EXHAUSTIVE_M_CAP = 20
SAMPLES_PER_EDGE = 64


@dataclass(frozen=True)
class SignSearchOutcome:
    """Result of a full-rank sign search.

    witness        sign assignment with nonzero determinant, or None when
                   the graph has no {1,2}-factor
    method         the phase of the schedule that answered: "randomized"
                   (a sample, or the no-factor check) or "exhaustive" (the
                   switching-class scan)
    attempts       number of candidate signs tested
    basis          why there is no witness: "no_factor" (determinant
                   identically zero)
    """

    witness: EdgeAssignment | None
    method: str
    attempts: int
    basis: str | None = None

    @property
    def certified_none(self) -> bool:
        """True exactly when there is no witness: the search never returns a
        miss (above the cap it raises ResourceCapError instead)."""
        return self.witness is None


def iter_sign_representatives(g: Graph) -> Iterator[tuple[int, ...]]:
    """One sign vector per switching class: forest edges fixed to +1, the
    remaining edges running over {+1,-1} (+1 first, deterministic order)."""
    forest = spanning_forest(g)
    return product(*[(1,) if i in forest else (1, -1) for i in range(g.m)])


def _samples(g: Graph) -> int:
    return SAMPLES_PER_EDGE * max(g.m, 1)


def _signs(g: Graph, cap: int, scan: str, seed: int | None = None) -> Iterator[tuple[int, ...]]:
    """The sign vectors a scan ranks: with a seed, _samples(g) uniform +-1
    vectors from one seeded generator first; then iter_sign_representatives,
    under the cap on m, checked only once the class scan is reached: raises
    ResourceCapError, naming the scan, if m > cap."""
    if seed is not None:
        rng = random.Random(seed)
        for _ in range(_samples(g)):
            yield tuple(rng.choice((1, -1)) for _ in range(g.m))
        scan += f" after {_samples(g)} missed samples"
    if g.m > cap:
        raise ResourceCapError(
            f"{scan} is exhaustive over 2^m signs and needs m <= {cap}; graph has m={g.m}")
    yield from iter_sign_representatives(g)


def _scan(g: Graph, signs: Iterable[tuple[int, ...]], goal: int,
          lowest: bool = False) -> tuple[int, tuple[int, ...], int]:
    """Rank the sign vectors in order and return (best rank, the first
    vector with it, vectors ranked): the highest rank, or the lowest when
    lowest, stopping at the first vector whose rank reaches goal."""
    side = -1 if lowest else 1
    best, best_values, attempts = -g.n - 1, (), 0
    for attempts, values in enumerate(signs, 1):
        r = side * rank(adjacency_matrix(g, values))
        if r > best:
            best, best_values = r, values
            if r >= side * goal:
                break
    return side * best, best_values, attempts


def find_fullrank_sign(
    g: Graph,
    seed: int = 0,
    exhaustive_m_cap: int = DEFAULT_EXHAUSTIVE_M_CAP,
) -> SignSearchOutcome:
    """Find a sign with det != 0, or certify that none exists.

    A graph without a {1,2}-factor is certified immediately: its determinant
    is identically zero for every weighting.  Otherwise the schedule runs
    until a sign reaches rank n, which the switching-class scan guarantees;
    it raises ResourceCapError if the samples miss and m exceeds the cap.
    """
    if not has_factor(g):
        return SignSearchOutcome(None, "randomized", 0, basis="no_factor")
    best, values, attempts = _scan(g, _signs(g, exhaustive_m_cap, "sign scan", seed), g.n)
    # the scan's exact rank is the proof: rank n over Q means det != 0
    if best != g.n:
        raise AssertionError("no verified full-rank sign on a graph with a {1,2}-factor")
    method = "exhaustive" if attempts > _samples(g) else "randomized"
    return SignSearchOutcome(EdgeAssignment(values, "sign"), method, attempts)


def max_rank_over_signs(
    g: Graph,
    exhaustive_m_cap: int = DEFAULT_EXHAUSTIVE_M_CAP,
    seed: int = 0,
) -> int:
    """Exact maximum of rank over all signs.

    Rank never exceeds perrank (the term rank), so the schedule stops at the
    first sign whose rank reaches it; below that, only the complete scan
    pins the maximum, and it raises ResourceCapError above the cap."""
    return _scan(g, _signs(g, exhaustive_m_cap, "sign scan", seed), perrank_fast(g))[0]


def min_rank_over_signs(
    g: Graph,
    exhaustive_m_cap: int = DEFAULT_EXHAUSTIVE_M_CAP,
) -> tuple[int, EdgeAssignment]:
    """Exact minimum of rank over all 2^m signs, with the first minimizing
    sign vector in iter_sign_representatives order.

    Rank is invariant under switching (D A D for a +-1 diagonal D), so one
    sign per switching class, 2^(m-n+c) of them, covers all 2^m.  Data
    collection for an open problem; scan only, since no sample certifies a
    minimum, and refused above the cap."""
    best, values, _ = _scan(g, _signs(g, exhaustive_m_cap, "min-rank scan"), 0, lowest=True)
    return best, EdgeAssignment(values, "sign")
