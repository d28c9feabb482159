"""Search for edge signs giving a full-rank signed adjacency matrix, and the
extreme ranks over the sign space.

A full-rank sign exists iff the graph has a {1,2}-factor (iff full perrank),
so the search certifies "none" instantly when no factor exists: every term
of the determinant expansion needs a nonzero transversal, hence the
determinant vanishes identically.  Otherwise the square-free reduction of
the determinant polynomial is not identically zero and random or exhaustive
+-1 points find a witness.

All three questions are one rank scan that stops at a proven goal: rank n
for a full-rank sign, perrank (rank never exceeds it) for the maximum, and
0 for the minimum.  Exhaustive scans quotient by switching: negating all
edges at a vertex conjugates the matrix by a +-1 diagonal, preserving
determinant and rank, so it is enough to scan sign vectors that are +1 on a
spanning forest (2^(m-n+c) representatives instead of 2^m).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

from .assignments import EdgeAssignment
from .errors import ResourceCapError
from .exact_linalg import adjacency_matrix, det, rank
from .factors import has_factor, perrank_fast
from .graph_core import Graph, spanning_forest

DEFAULT_EXHAUSTIVE_M_CAP = 20


@dataclass(frozen=True)
class SignSearchOutcome:
    """Result of a full-rank sign search.

    witness        sign assignment with nonzero determinant, if found
    method         search method that produced the outcome
    attempts       number of candidate signs tested
    certified_none True only with a proof that no sign works; `basis` says
                   which proof: "no_factor" (determinant identically zero)
                   or "exhausted" (all switching classes scanned)
    """

    witness: EdgeAssignment | None
    method: str
    attempts: int
    certified_none: bool
    basis: str | None = None

    @property
    def status(self) -> str:
        if self.witness is not None:
            return "witness"
        return "certified_none" if self.certified_none else "inconclusive"


def iter_sign_representatives(g: Graph) -> Iterator[tuple[int, ...]]:
    """One sign vector per switching class: forest edges fixed to +1, the
    remaining edges running over {+1,-1} (+1 first, deterministic order)."""
    forest = spanning_forest(g)
    free = [i for i in range(g.m) if i not in forest]
    base = [1] * g.m
    for combo in product((1, -1), repeat=len(free)):
        vec = list(base)
        for pos, val in zip(free, combo):
            vec[pos] = val
        yield tuple(vec)


def switch_at_vertex(g: Graph, values: tuple[int, ...], v: int) -> tuple[int, ...]:
    """Negate the sign of every edge incident to v (a switching)."""
    out = list(values)
    for _, eidx in g.incidence[v]:
        out[eidx] = -out[eidx]
    return tuple(out)


def _sampled_signs(m: int, seed: int, count: int) -> Iterator[tuple[int, ...]]:
    """count uniform +-1 vectors of length m from one seeded generator."""
    rng = random.Random(seed)
    return (tuple(rng.choice((1, -1)) for _ in range(m)) for _ in range(count))


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
    method: str = "randomized",
    seed: int = 0,
    max_attempts: int | None = None,
    exhaustive_m_cap: int = DEFAULT_EXHAUSTIVE_M_CAP,
) -> SignSearchOutcome:
    """Find a sign with det != 0, or certify that none exists.

    methods:
      randomized  sample uniform +-1 vectors (default budget 64*m)
      exhaustive  scan all switching classes; certifies "none" on exhaustion

    A graph without a {1,2}-factor is certified immediately: its determinant
    is identically zero for every weighting.
    """
    if method not in ("randomized", "exhaustive"):
        raise ValueError(f"unknown method {method!r}")
    if not has_factor(g):
        return SignSearchOutcome(None, method, 0, True, basis="no_factor")
    exhaustive = method == "exhaustive"
    if exhaustive:
        if g.m > exhaustive_m_cap:
            raise ResourceCapError(
                f"exhaustive sign search needs m <= {exhaustive_m_cap}, graph has m={g.m}")
        signs = iter_sign_representatives(g)
    else:
        budget = max_attempts if max_attempts is not None else 64 * max(g.m, 1)
        signs = _sampled_signs(g.m, seed, budget)
    best, values, attempts = _scan(g, signs, g.n)
    if best != g.n:
        return SignSearchOutcome(None, method, attempts, exhaustive,
                                 basis="exhausted" if exhaustive else None)
    # soundness: re-check the witness independently of the search path
    if det(adjacency_matrix(g, values)) == 0:
        raise AssertionError("witness failed re-verification")
    return SignSearchOutcome(EdgeAssignment(values, "sign"), method, attempts, False)


def max_rank_over_signs(
    g: Graph,
    exhaustive_m_cap: int = DEFAULT_EXHAUSTIVE_M_CAP,
    seed: int = 0,
) -> int:
    """Exact maximum of rank over all signs.

    Rank never exceeds perrank (the term rank), so the scan stops at the
    first sign whose rank reaches it.  Exhaustive over switching classes
    when m fits the cap.  Beyond the cap, falls back to a randomized lower
    bound that must meet the perrank upper bound; raises ResourceCapError
    when it cannot be pinned down."""
    upper = perrank_fast(g)
    exhaustive = g.m <= exhaustive_m_cap
    signs = iter_sign_representatives(g) if exhaustive else _sampled_signs(g.m, seed, 64 * g.m)
    best, _, _ = _scan(g, signs, upper)
    if not exhaustive and best != upper:
        raise ResourceCapError(
            f"m={g.m} exceeds the exhaustive cap and sampling reached only rank {best} < perrank {upper}")
    return best


def min_rank_over_signs(
    g: Graph,
    exhaustive_m_cap: int = DEFAULT_EXHAUSTIVE_M_CAP,
) -> tuple[int, EdgeAssignment]:
    """Exact minimum of rank over all 2^m signs, with the first minimizing
    sign vector in iter_sign_representatives order.

    Rank is invariant under switching (D A D for a +-1 diagonal D), so one
    sign per switching class, 2^(m-n+c) of them, covers all 2^m.  Data
    collection for an open problem; exhaustive only, refused above the
    cap."""
    if g.m > exhaustive_m_cap:
        raise ResourceCapError(
            f"min-rank scan is exhaustive over 2^m signs and needs m <= {exhaustive_m_cap}; "
            f"graph has m={g.m}")
    best, values, _ = _scan(g, iter_sign_representatives(g), 0, lowest=True)
    return best, EdgeAssignment(values, "sign")
