"""Simple undirected graphs with a frozen edge order, plus the structural
predicates (connected components, spanning forests, bipartiteness, cut
edges) that the rank searches depend on.

The edge order is canonical: it is fixed when a graph is built and defines
the variable indexing x1..xm used by every polynomial, sign vector and
weight vector downstream.  Edge-list input keeps file order; graph6 input
uses row-major upper-triangle order of the decoded adjacency matrix.

Input formats
-------------
Edge list: first line is the vertex count n; each subsequent non-empty line
is "u v" with 0 <= u < v < n.  Loops, duplicate edges and out-of-range
indices are rejected with the offending line number.

graph6: the standard ASCII encoding (one graph per line in corpus files).
An optional ">>graph6<<" header is accepted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import GraphParseError


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with an ordered edge list."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be >= 0")
        normalized = []
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            normalized.append(e)
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    @cached_property
    def _edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def incidence(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex tuple of (neighbor, edge index) pairs, neighbor-sorted."""
        inc = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(self.edges):
            inc[u].append((v, i))
            inc[v].append((u, i))
        return tuple(tuple(sorted(a)) for a in inc)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        return len(self._adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._edge_index

    def edge_index(self, u: int, v: int) -> int:
        return self._edge_index[(u, v) if u < v else (v, u)]


@dataclass(frozen=True)
class Bipartition:
    """Two-coloring of one connected component; valid iff the component is
    bipartite, in which case every component edge joins the two sides."""

    sides: tuple[frozenset[int], frozenset[int]]
    valid: bool


def parse_edge_list(text: str) -> Graph:
    """Parse the documented edge-list format into a Graph (edges in file order)."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise GraphParseError("line 1: expected vertex count")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise GraphParseError(f"line 1: vertex count is not an integer: {lines[0].strip()!r}") from None
    if n < 0:
        raise GraphParseError("line 1: vertex count must be >= 0")
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer vertex in {line!r}") from None
        if u == v:
            raise GraphParseError(f"line {lineno}: loop at vertex {u}")
        if not (0 <= u < v < n):
            raise GraphParseError(f"line {lineno}: edge ({u},{v}) violates 0 <= u < v < n={n}")
        if (u, v) in seen:
            raise GraphParseError(f"line {lineno}: duplicate edge ({u},{v})")
        seen.add((u, v))
        edges.append((u, v))
    return Graph(n, tuple(edges))


_G6_HEADER = ">>graph6<<"
# byte v -> the graph6 character chr(63 + v), for the 6-bit values v
_G6_CHARS = bytes((63 + v) % 256 for v in range(256))


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string.  Edge order of the result is the row-major
    upper-triangle order of the adjacency matrix."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise GraphParseError("empty graph6 input")
    vals = []
    for ch in s:
        v = ord(ch) - 63
        if not (0 <= v <= 63):
            raise GraphParseError(f"invalid graph6 character {ch!r}")
        vals.append(v)
    if vals[0] != 63:
        n = vals[0]
        body = vals[1:]
    elif len(vals) >= 2 and vals[1] != 63:
        if len(vals) < 4:
            raise GraphParseError("truncated graph6 size field")
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        body = vals[4:]
    else:
        if len(vals) < 8:
            raise GraphParseError("truncated graph6 size field")
        n = 0
        for v in vals[2:8]:
            n = (n << 6) | v
        body = vals[8:]
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(body) != nchars:
        raise GraphParseError(
            f"bad graph6 length: n={n} needs {nchars} data characters, got {len(body)}")
    bits = []
    for v in body:
        for k in range(5, -1, -1):
            bits.append((v >> k) & 1)
    # graph6 stores the upper triangle column by column: (0,1),(0,2),(1,2),...
    adj_bit = {}
    pos = 0
    for j in range(1, n):
        for i in range(j):
            adj_bit[(i, j)] = bits[pos]
            pos += 1
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if adj_bit.get((u, v))]
    return Graph(n, tuple(edges))


def encode_graph6(g: Graph) -> str:
    """Encode a graph in graph6 (inverse of parse_graph6 up to edge order)."""
    n = g.n
    if n <= 62:
        head = [n]
    elif n <= 258047:
        head = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    else:
        head = [63, 63] + [(n >> k) & 63 for k in (30, 24, 18, 12, 6, 0)]
    # bit j(j-1)/2 + i of the upper triangle, column by column, is edge ij;
    # six bits to a character, the first in its high bit
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for i, j in g.edges:
        pos = j * (j - 1) // 2 + i
        body[pos // 6] |= 32 >> pos % 6
    return (bytes(head) + body).translate(_G6_CHARS).decode("ascii")


def components(g: Graph) -> list[frozenset[int]]:
    """Connected components, ordered by their smallest vertex."""
    seen = [False] * g.n
    out = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = []
        queue = deque([s])
        seen[s] = True
        while queue:
            v = queue.popleft()
            comp.append(v)
            for u in g.neighbors(v):
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
        out.append(frozenset(comp))
    return out


def spanning_forest(g: Graph) -> frozenset[int]:
    """Edge indices of a spanning forest, one tree per component, grown from
    each component's smallest vertex in stack (last-in, first-out) order."""
    seen = [False] * g.n
    tree: set[int] = set()
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            v = stack.pop()
            for u, eidx in g.incidence[v]:
                if not seen[u]:
                    seen[u] = True
                    tree.add(eidx)
                    stack.append(u)
    return frozenset(tree)


def bipartition(g: Graph, comp: frozenset[int]) -> Bipartition:
    """Two-color one connected component by breadth-first layering.

    Even layers (including the smallest vertex) form side X."""
    root = min(comp) if comp else 0
    color = {root: 0}
    queue = deque([root])
    ok = True
    while queue:
        v = queue.popleft()
        for u in g.neighbors(v):
            if u not in color:
                color[u] = 1 - color[v]
                queue.append(u)
            elif color[u] == color[v]:
                ok = False
    if not ok:
        return Bipartition((frozenset(), frozenset()), False)
    x = frozenset(v for v, c in color.items() if c == 0)
    y = frozenset(v for v, c in color.items() if c == 1)
    return Bipartition((x, y), True)


def is_bipartite(g: Graph) -> bool:
    return all(bipartition(g, c).valid for c in components(g))


def cut_edges(g: Graph) -> frozenset[int]:
    """Edge indices of all bridges (iterative depth-first low-link)."""
    n = g.n
    disc = [-1] * n
    low = [0] * n
    bridges: set[int] = set()
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
        iters = {root: iter(g.incidence[root])}
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, parent_edge, _ = stack[-1]
            advanced = False
            for u, eidx in iters[v]:
                if eidx == parent_edge:
                    continue
                if disc[u] == -1:
                    disc[u] = low[u] = timer
                    timer += 1
                    stack.append((u, eidx, 0))
                    iters[u] = iter(g.incidence[u])
                    advanced = True
                    break
                low[v] = min(low[v], disc[u])
            if advanced:
                continue
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[v])
                if low[v] > disc[p]:
                    bridges.add(parent_edge)
    return frozenset(bridges)


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, tuple[int, ...], tuple[int, ...]]:
    """Induced subgraph on `keep`.

    Returns (subgraph, vertex_map, edge_map) where vertex_map[i] is the
    parent vertex of sub vertex i and edge_map[j] is the parent edge index
    of sub edge j.  Sub edges keep the parent edge order.
    """
    verts = sorted(set(keep))
    pos = {v: i for i, v in enumerate(verts)}
    sub_edges = []
    edge_map = []
    for idx, (u, v) in enumerate(g.edges):
        if u in pos and v in pos:
            sub_edges.append((pos[u], pos[v]))
            edge_map.append(idx)
    return Graph(len(verts), tuple(sub_edges)), tuple(verts), tuple(edge_map)


def delete_edges(g: Graph, drop: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Graph without the given edge indices, plus the sub->parent edge map."""
    dropset = set(drop)
    sub_edges = []
    edge_map = []
    for idx, e in enumerate(g.edges):
        if idx not in dropset:
            sub_edges.append(e)
            edge_map.append(idx)
    return Graph(g.n, tuple(sub_edges)), tuple(edge_map)
