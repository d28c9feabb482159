from __future__ import annotations

import functools
from pathlib import Path

import pytest

from signrank import sign_search
from signrank.graph_core import Graph, parse_graph6

DATA = Path(__file__).parent / "data"
# K4 minus an edge, its edges out of graph6 order
SHUFFLED_EDGE_LIST = "4\n2 3\n0 3\n1 2\n0 1\n1 3\n"


@functools.lru_cache(maxsize=None)
def _load(name: str) -> tuple[Graph, ...]:
    lines = (DATA / name).read_text().split()
    return tuple(parse_graph6(line) for line in lines)


@pytest.fixture
def no_samples(monkeypatch):
    """Switch off the sign schedule's sampling phase, so every full-rank and
    max-rank answer comes from the switching-class scan or its cap; no
    corpus graph reaches that scan otherwise."""
    monkeypatch.setattr(sign_search, "SAMPLES_PER_EDGE", 0)


@pytest.fixture(scope="session")
def corpus_le7() -> tuple[Graph, ...]:
    """All pairwise non-isomorphic graphs of order <= 7."""
    return _load("graphs_le7.g6")


@pytest.fixture(scope="session")
def corpus_le6(corpus_le7) -> tuple[Graph, ...]:
    return tuple(g for g in corpus_le7 if g.n <= 6)


@pytest.fixture(scope="session")
def corpus_le5(corpus_le7) -> tuple[Graph, ...]:
    return tuple(g for g in corpus_le7 if g.n <= 5)


@pytest.fixture(scope="session")
def corpus_bipartite_2ec_n8() -> tuple[Graph, ...]:
    """All 2-edge-connected bipartite graphs of order exactly 8."""
    return _load("bipartite_2ec_n8.g6")


def cycle(n: int) -> Graph:
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n - 1)) + ((0, n - 1),))


def chain_of_4_cycles(k: int) -> Graph:
    """k 4-cycles in a chain, each sharing a vertex with the next."""
    edges = []
    for c in range(k):
        a = 3 * c
        edges += [(a, a + 1), (a + 1, a + 2), (a + 2, a + 3), (a, a + 3)]
    return Graph(3 * k + 1, tuple(edges))


def grid(rows: int, cols: int) -> Graph:
    at = lambda i, j: i * cols + j
    edges = [(at(i, j), at(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    edges += [(at(i, j), at(i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    return Graph(rows * cols, tuple(edges))


def path(n: int) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def complete(n: int) -> Graph:
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def star(leaves: int) -> Graph:
    return Graph(leaves + 1, tuple((0, i) for i in range(1, leaves + 1)))


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, tuple(outer + spokes + inner))
