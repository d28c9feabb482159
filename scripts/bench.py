#!/usr/bin/env python3
"""Time signrank's layers on fixed inputs and write BENCH_<label>.json.

    python3 scripts/bench.py --label baseline
    python3 scripts/bench.py --label quick --quick --out /tmp

The `layers` block times the exact linear algebra that decides both of
the paper's questions: `rank` and `det` of signed adjacency matrices of
seeded sparse G(n, p) graphs (mean degree about 3) at n = 7, 40 and 100,
and the determinant of the all-ones adjacency matrix of a chain of 200
4-cycles (n = 601, each cycle sharing a vertex with the next).  Matrices
are built before the clock starts.  Each entry is the best of five
process times over its whole batch, with the batch size and a checksum of
the answers (the sum of the ranks, or the count of nonzero determinants),
so two files from different code can be compared answer for answer.

`--quick` times smaller batches once, in well under a second; it is for
checking that the script runs, not for comparing numbers.  Compare two
files only when both ran on the same machine without `--quick`.

Standard library only.  (End-to-end timings of the CLI and the scale gate
are not written yet.)
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from signrank.exact_linalg import adjacency_matrix, det, rank
from signrank.graph_core import Graph

SEED = 1
# n -> matrices per batch, full and quick
BATCHES = {7: (500, 50), 40: (40, 4), 100: (4, 1)}
CHAIN = 200
REPEATS = 5


def sparse_gnp(rng: random.Random, n: int) -> Graph:
    p = min(1.0, 3 / max(n - 1, 1))
    return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p))


def signed_matrices(n: int, count: int) -> list[list[list[int]]]:
    rng = random.Random(SEED * 1000 + n)
    out = []
    for _ in range(count):
        g = sparse_gnp(rng, n)
        out.append(adjacency_matrix(g, tuple(rng.choice((1, -1)) for _ in range(g.m))))
    return out


def chain_of_4_cycles(k: int) -> Graph:
    return Graph(3 * k + 1, tuple(
        e for c in range(k) for e in ((3 * c, 3 * c + 1), (3 * c + 1, 3 * c + 2),
                                      (3 * c + 2, 3 * c + 3), (3 * c, 3 * c + 3))))


def best_of(fn, matrices, repeats: int, checksum) -> dict:
    times = []
    for _ in range(repeats):
        start = time.process_time()
        answers = [fn(m) for m in matrices]
        times.append(time.process_time() - start)
    return {"matrices": len(matrices), "best_s": round(min(times), 6),
            "checksum": checksum(answers)}


def layers(quick: bool, repeats: int) -> dict:
    out = {}
    nonzero = lambda dets: sum(d != 0 for d in dets)
    for n, sizes in BATCHES.items():
        matrices = signed_matrices(n, sizes[quick])
        out[f"rank.n{n}"] = best_of(rank, matrices, repeats, sum)
        out[f"det.n{n}"] = best_of(det, matrices, repeats, nonzero)
    g = chain_of_4_cycles(CHAIN)
    out[f"det.chain_of_4_cycles_{CHAIN}.all_ones"] = best_of(
        det, [adjacency_matrix(g, (1,) * g.m)], repeats, nonzero)
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    p.add_argument("--quick", action="store_true", help="small batches, timed once")
    p.add_argument("--out", type=Path, default=ROOT, help="directory of the file (default: repo root)")
    args = p.parse_args(argv)
    repeats = 1 if args.quick else REPEATS
    result = {
        "label": args.label,
        "quick": args.quick,
        "repeats": repeats,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "layers": layers(args.quick, repeats),
    }
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
