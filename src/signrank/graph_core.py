"""Simple undirected graphs with their edges sorted, plus the structural
predicates (connected components, spanning forests, bipartiteness) that the
rank searches depend on.  They, and the flow obstruction, read one walk,
made once per graph and cached on it: from each component's smallest
vertex, a stack walk that records each vertex's parent and depth and the
order of the pops.  That order is a preorder, so every subtree and every
component is a run of it.  For an edge ab outside the forest, with a popped
first, b was waiting on the stack, so b's parent is the lowest common
ancestor of a and b.  Other modules keep what they derive from a graph on
it the same way, through per_graph, so it goes with the graph.

The edge order is canonical: a graph keeps its edges (u, v), u < v, sorted,
the order graph6 decoding gives, however they were given.  It defines the
variable indexing x1..xm used by every polynomial, sign vector and weight
vector downstream.

Input formats
-------------
Edge list: first line is the vertex count n; each subsequent non-empty line
is "u v" with 0 <= u < v < n.  Loops, duplicate edges and out-of-range
indices are rejected with the offending line number.

graph6: the standard ASCII encoding (one graph per line in corpus files).
An optional ">>graph6<<" header is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Iterable, NamedTuple

from .errors import GraphParseError


class _Walk(NamedTuple):
    """Per vertex, its depth and its parent (-1 at a root); the vertices in
    the order popped; the components by smallest vertex; the forest edges."""

    depth: list[int]
    up: list[int]
    order: list[int]
    components: tuple[frozenset[int], ...]
    forest: frozenset[int]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1, its edges (u < v) sorted."""

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
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(u for u, _ in a) for a in self.incidence)

    @cached_property
    def incidence(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex (neighbor, edge index) pairs, neighbor-sorted as edges are."""
        inc = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(self.edges):
            inc[u].append((v, i))
            inc[v].append((u, i))
        return tuple(map(tuple, inc))

    @cached_property
    def _walk(self) -> _Walk:
        """The one traversal: from each component's smallest vertex, in
        vertex order, pop a vertex and push its unseen neighbors in
        neighbor order, each through a forest edge."""
        up, depth, order = [-1] * self.n, [-1] * self.n, []
        comps, forest = [], set()
        for root in range(self.n):
            if depth[root] >= 0:
                continue
            depth[root] = 0
            start, stack = len(order), [root]
            while stack:
                v = stack.pop()
                order.append(v)
                for u, eidx in self.incidence[v]:
                    if depth[u] < 0:
                        up[u], depth[u] = v, depth[v] + 1
                        forest.add(eidx)
                        stack.append(u)
            comps.append(frozenset(order[start:]))
        return _Walk(depth, up, order, tuple(comps), frozenset(forest))

    def degree(self, v: int) -> int:
        return len(self._adjacency[v])


def per_graph(key: str):
    """Decorator: a function's result for a graph, built on the first call
    and kept in the graph's instance dict under key, as a cached property."""
    def decorate(build):
        @wraps(build)
        def memo(g: Graph):
            cache = vars(g)
            if key not in cache:
                cache[key] = build(g)
            return cache[key]
        return memo
    return decorate


def _graph_of(n: int, edges: tuple[tuple[int, int], ...]) -> Graph:
    """A Graph on a validated graph's edges (each u < v < n, none repeated,
    in sorted order), built without repeating __post_init__'s checks."""
    g = object.__new__(Graph)
    vars(g).update(n=n, edges=edges)
    return g


def parse_edge_list(text: str) -> Graph:
    """Parse the documented edge-list format into a Graph."""
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
    """Decode one graph6 string."""
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
    nchars = (n * (n - 1) // 2 + 5) // 6
    if len(body) != nchars:
        raise GraphParseError(
            f"bad graph6 length: n={n} needs {nchars} data characters, got {len(body)}")
    # bit j(j-1)/2 + i is edge ij, laid out as encode_graph6 writes it
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)
                          if body[(p := j * (j - 1) // 2 + i) // 6] & 32 >> p % 6))


def encode_graph6(g: Graph) -> str:
    """Encode a graph in graph6 (inverse of parse_graph6)."""
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
    return list(g._walk.components)


def spanning_forest(g: Graph) -> frozenset[int]:
    """Edge indices of a spanning forest, one tree per component, grown from
    each component's smallest vertex in stack (last-in, first-out) order."""
    return g._walk.forest


def forest_parity(g: Graph) -> tuple[int, ...]:
    """Per vertex, the parity (0 or 1) of its depth in the spanning forest.
    Every forest edge joins the two parities."""
    return tuple(d % 2 for d in g._walk.depth)


def is_bipartite(g: Graph) -> bool:
    """Whether every edge joins the two forest depth parities."""
    depth = g._walk.depth
    return all((depth[u] - depth[v]) % 2 for u, v in g.edges)


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, tuple[int, ...], tuple[int, ...]]:
    """Induced subgraph on `keep`.

    Returns (subgraph, vertex_map, edge_map) where vertex_map[i] is the
    parent vertex of sub vertex i and edge_map[j] is the parent edge index
    of sub edge j.  Sub edges keep the parent edge order.
    """
    verts = sorted(set(keep))
    pos = {v: i for i, v in enumerate(verts)}
    edge_map = tuple(i for i, (u, v) in enumerate(g.edges) if u in pos and v in pos)
    sub_edges = tuple((pos[u], pos[v]) for u, v in (g.edges[i] for i in edge_map))
    return _graph_of(len(verts), sub_edges), tuple(verts), edge_map


def delete_edges(g: Graph, drop: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Graph without the given edge indices, plus the sub->parent edge map."""
    dropset = set(drop)
    edge_map = tuple(i for i in range(g.m) if i not in dropset)
    return _graph_of(g.n, tuple(g.edges[i] for i in edge_map)), edge_map
