#!/usr/bin/env python3
"""Regenerate the graph6 corpus files under tests/data/.

Maintenance tooling, not part of the package: requires networkx, which is
used as an independent reference (its graph atlas for all graphs on up to 7
vertices, its bridge test for 2-edge-connectivity, its isomorphism tester
for deduplication).  The test suite only reads the committed .g6 files.

Outputs:
  tests/data/graphs_le7.g6         all 1253 pairwise non-isomorphic graphs
                                   of order <= 7 (counts per order validated
                                   against 1,1,2,4,11,34,156,1044)
  tests/data/bipartite_2ec_n8.g6   all 2-edge-connected bipartite graphs of
                                   order exactly 8, up to isomorphism
"""

from __future__ import annotations

import sys
import warnings
from collections import defaultdict
from pathlib import Path

import networkx as nx
from networkx.generators.atlas import graph_atlas_g

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from signrank.graph_core import Graph, encode_graph6, parse_graph6

DATA_DIR = Path(__file__).resolve().parent.parent / "tests" / "data"
EXPECTED_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def atlas_corpus() -> list[str]:
    lines = []
    counts: dict[int, int] = defaultdict(int)
    for G in graph_atlas_g():
        n = G.number_of_nodes()
        relabel = {v: i for i, v in enumerate(sorted(G.nodes()))}
        edges = tuple(sorted((min(relabel[u], relabel[v]), max(relabel[u], relabel[v]))
                             for u, v in G.edges()))
        g = Graph(n, edges)
        g6 = encode_graph6(g)
        # cross-check against the networkx encoder
        assert g6 == nx.to_graph6_bytes(nx.relabel_nodes(G, relabel), header=False).decode().strip()
        lines.append(g6)
        counts[n] += 1
    assert dict(counts) == EXPECTED_COUNTS, counts
    assert len(set(lines)) == len(lines), "atlas produced duplicate labeled graphs"
    lines.sort(key=lambda s: (parse_graph6(s).n, parse_graph6(s).m, s))
    return lines


def bipartite_2ec_order8() -> list[str]:
    found: dict[str, list[nx.Graph]] = defaultdict(list)
    out = []
    for a in (2, 3, 4):
        b = 8 - a
        pairs = [(i, a + j) for i in range(a) for j in range(b)]
        npairs = len(pairs)
        for mask in range(1 << npairs):
            if bin(mask).count("1") < 8:
                continue
            edges = tuple(pairs[i] for i in range(npairs) if mask >> i & 1)
            deg = [0] * 8
            for u, v in edges:
                deg[u] += 1
                deg[v] += 1
            if min(deg) < 2:
                continue
            G = nx.Graph(edges)
            G.add_nodes_from(range(8))
            if not nx.is_connected(G) or nx.has_bridges(G):
                continue
            with warnings.catch_warnings():
                # networkx >= 3.5 warns that these hashes changed in v3.5; the
                # hash is only a bucket key before is_isomorphic
                warnings.filterwarnings(
                    "ignore", message="The hashes produced for graphs without node or edge",
                    category=UserWarning)
                key = nx.weisfeiler_lehman_graph_hash(G)
            if any(nx.is_isomorphic(G, H) for H in found[key]):
                continue
            found[key].append(G)
            out.append(encode_graph6(Graph(8, edges)))
    out.sort(key=lambda s: (parse_graph6(s).m, s))
    return out


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    le7 = atlas_corpus()
    (DATA_DIR / "graphs_le7.g6").write_text("\n".join(le7) + "\n")
    print(f"graphs_le7.g6: {len(le7)} graphs")
    b8 = bipartite_2ec_order8()
    (DATA_DIR / "bipartite_2ec_n8.g6").write_text("\n".join(b8) + "\n")
    print(f"bipartite_2ec_n8.g6: {len(b8)} graphs")


if __name__ == "__main__":
    main()
