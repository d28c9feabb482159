"""Record the expected answers that the benchmark checks every report against.

Run from the repository root, once per part:

    python3 perfbench/record.py le7     # corpus invariants + analyze outcome at n = 7
    python3 perfbench/record.py dense   # dense-factors pools and their answers
    python3 perfbench/record.py sign    # sign-scan pool and its answers

Each part writes ``perfbench/data/<part>.json``.  The random pools are drawn
with fixed pool seeds, so re-running a part at the same commit rewrites the
same graphs.  The answers are what the program returned at the recorded
commit; only invariants of the graph are kept (factor count, perrank,
ranks, permanent, which outcome class a request fell in), never witness
values, which a correct later version may change.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time

sys.path.insert(0, "src")

from signrank import harness  # noqa: E402
from signrank.errors import ResourceCapError  # noqa: E402
from signrank.factors import count_factors_at_most  # noqa: E402
from signrank.graph_core import Graph, encode_graph6  # noqa: E402

import workloads as wl  # noqa: E402

DENSE_POOL_SEED = 20170823
DENSE_POOL_SIZE = 96
DENSE_T = (1000, 5000)          # accepted factor counts, half-open
DENSE_LARGE_POOL_SEED = 11
DENSE_LARGE_POOL_SIZE = 6
DENSE_LARGE_T = (wl.LARGE_T, 20000)
SIGN_POOL_SEED = 1708
SIGN_CELLS = [(n, m) for n in (8, 9, 10) for m in (11, 12, 13)]
SIGN_PER_CELL = 8


def _records(graphs, command, theorem=None, caps=""):
    cfg = harness.RunConfig(command=command, theorem=theorem, caps=harness.parse_caps(caps))
    report, summary = harness.run(graphs, cfg)
    if summary["fail"] or summary["skip"]:
        raise SystemExit(f"{command} {theorem}: {summary}")
    return [json.loads(line) for line in report.splitlines()[1:-1]]


def _one(g, command, theorem=None, caps=""):
    """The single record of a one-graph run, or "cap" when the run raises
    ResourceCapError (analyze does not catch its flow cap)."""
    cfg = harness.RunConfig(command=command, theorem=theorem, caps=harness.parse_caps(caps))
    try:
        report, _ = harness.run([g], cfg)
    except ResourceCapError:
        return "cap"
    return json.loads(report.splitlines()[1])


def _flow_class(rec) -> str:
    if rec == "cap":
        return "cap"
    return "none" if rec["flow"]["values"] is None else "found"


def record_le7() -> dict:
    graphs = harness.load_corpus(open(wl.CORPUS).read(), "graph6")
    caps = wl.LE7_CAPS
    c22 = _records(graphs, "verify", "c22", caps)
    r11 = _records(graphs, "verify", "r11", caps)
    t31 = _records(graphs, "verify", "t31", caps)
    flows = _records(graphs, "verify", "flows", caps)
    out = {}
    for i, g in enumerate(graphs):
        out[encode_graph6(g)] = {
            "n": g.n,
            "m": g.m,
            "t": t31[i]["check"]["t"],
            "perrank": c22[i]["check"]["perrank"],
            "max_rank": c22[i]["check"]["max_rank"],
            "permanent": r11[i]["check"]["permanent"],
            "flows_k": flows[i]["check"].get("k"),
        }
    for i, g in enumerate(graphs):
        if g.n != 7:
            continue
        start = time.perf_counter()
        rec = _one(g, "analyze", caps=wl.FLOW_CAPS)
        entry = out[encode_graph6(g)]
        entry["analyze_flow"] = _flow_class(rec)
        print(f"analyze {i} m={g.m} {entry['analyze_flow']} {time.perf_counter() - start:.3f}s",
              flush=True)
    return out


def _gnp(rng: random.Random) -> Graph:
    n = rng.choice((9, 10, 11))
    p = rng.uniform(0.5, 0.7)
    return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p))


def _draw(seed: int, size: int, t_range: tuple[int, int]) -> list[Graph]:
    rng = random.Random(seed)
    lo, hi = t_range
    pool = []
    while len(pool) < size:
        g = _gnp(rng)
        if lo <= count_factors_at_most(g, hi) < hi:
            pool.append(g)
    return pool


def record_dense() -> dict:
    pool = (_draw(DENSE_POOL_SEED, DENSE_POOL_SIZE, DENSE_T)
            + _draw(DENSE_LARGE_POOL_SEED, DENSE_LARGE_POOL_SIZE, DENSE_LARGE_T))
    out = []
    for g in pool:
        start = time.perf_counter()
        ana = _one(g, "analyze", caps=wl.FLOW_CAPS)
        r11 = _one(g, "verify", "r11", wl.FLOW_CAPS)
        fac = _one(g, "factors", caps=wl.FLOW_CAPS)
        entry = {
            "g6": encode_graph6(g),
            "n": g.n,
            "m": g.m,
            "t": fac["t"],
            "perrank": _one(g, "perrank")["perrank"],
            "permanent": r11["check"]["permanent"],
            "analyze_flow": _flow_class(ana),
        }
        if ana != "cap" and (ana["t"], ana["perrank"]) != (entry["t"], entry["perrank"]):
            raise SystemExit(f"analyze disagrees with factors/perrank on {entry['g6']}")
        out.append(entry)
        print(f"dense n={g.n} m={g.m} t={entry['t']} {entry['analyze_flow']} "
              f"{time.perf_counter() - start:.3f}s", flush=True)
    return out


def record_sign() -> dict:
    rng = random.Random(SIGN_POOL_SEED)
    out = []
    for n, m in SIGN_CELLS:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for _ in range(SIGN_PER_CELL):
            g = Graph(n, tuple(sorted(rng.sample(pairs, m))))
            start = time.perf_counter()
            rec = _one(g, "minrank")
            out.append({"g6": encode_graph6(g), "n": n, "m": m, "min_rank": rec["min_rank"]})
            print(f"sign n={n} m={m} min_rank={rec['min_rank']} "
                  f"{time.perf_counter() - start:.3f}s", flush=True)
    return out


PARTS = {
    "le7": ("le7.json", record_le7),
    "dense": ("dense_pool.json", record_dense),
    "sign": ("sign_pool.json", record_sign),
}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in PARTS:
        print(f"usage: record.py {{{'|'.join(PARTS)}}}", file=sys.stderr)
        return 2
    name, fn = PARTS[argv[0]]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True).stdout.strip()
    data = {"commit": commit, "graphs": fn()}
    with open(os.path.join(wl.DATA, name), "w") as fh:
        json.dump(data, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
