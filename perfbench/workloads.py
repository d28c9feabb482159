"""Workload definitions: which requests each workload sends, built from a seed.

A request is one call of ``signrank.harness.run([graph], cfg)``.  Each
workload turns its seed into a *deck*: a fixed list of requests that the
closed loop in ``run.py`` sends in order, pass after pass, until the run's
time is used up.  The deck is what the seed decides; the program only ever
sees the graphs.

Graphs come from two places:

* the committed corpus ``tests/data/graphs_le7.g6`` (le7-sweep, analyze-n7);
* pools of random graphs that ``record.py`` generated once with a fixed pool
  seed and stored, with their expected answers, under ``data/``
  (dense-factors, sign-scan).  A pool is needed because the expected answers
  are recorded once, so every graph a seed can pick must already be in it.

Samples are *stratified*: the candidates are split into classes, each class
is sorted by a size measure and cut into equal bins, and one graph is picked
per bin, so a sample holds the same mix of cheap and expensive graphs however
it is drawn.  The three sampled workloads use one fixed sample each, drawn
with SAMPLE_SEED.  A sample drawn from the workload seed moved the deck's
time between seeds by 15% (dense-factors) and 7-10% (analyze-n7), as the
distance between quartiles over 40 seeds, simulated from the per-graph times
record.py logs; on sign-scan it moved the median request by 11% over ten
seeds.  The workload seed orders the deck and seeds the searches
(RunConfig.seed), so two seeds still send different inputs.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

CORPUS = os.path.join("tests", "data", "graphs_le7.g6")
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

LE7_CAPS = "sign_exhaustive_m=21"
# analyze's flow step runs with a 100,000-node budget.  At the default
# 2,000,000 nodes one cap hit takes 2-4 s, as long as the rest of an
# analyze-n7 pass together, and a run holds too few passes to be steady.
FLOW_CAPS = "flow_nodes=100000"

LE7_COMMANDS = (
    ("verify", "t21"), ("verify", "c22"), ("verify", "t31"), ("verify", "r11"),
    ("verify", "r32"), ("verify", "flows"), ("perrank", None), ("factors", None),
    ("signfind", None), ("weightfind", None),
)
DENSE_COMMANDS = (("analyze", None), ("verify", "r11"), ("factors", None))

# Graphs per deck, and the seed of the fixed samples.  dense-factors sends
# DENSE_DECK graphs with 1,000 <= t < 5,000 and DENSE_LARGE with
# LARGE_T <= t < 20,000: the large graph's three requests cost about a
# third as much as the rest of a pass, and t near 1e5 would take 9-17 s.
DENSE_DECK = 11
DENSE_LARGE = 1
LARGE_T = 10_000
ANALYZE_DECK = 126
SAMPLE_SEED = 7118


@dataclass(frozen=True)
class Request:
    """One request: the graph (graph6) and the CLI words that configure it."""

    g6: str
    command: str
    theorem: str | None
    caps: str


@dataclass(frozen=True)
class Workload:
    name: str
    deck: tuple[Request, ...]
    expected: dict          # g6 -> recorded answers for that graph
    tail_pct: float         # fixed per workload: at this commit a run has at
                            # least ten latency samples beyond it


def make_config(harness, req: Request, seed: int):
    """The RunConfig that ``signrank <command> [theorem] --seed S --caps C``
    builds (cli.main), with every other flag at its default."""
    return harness.RunConfig(
        command=req.command,
        theorem=req.theorem,
        seed=seed,
        caps=harness.parse_caps(req.caps),
    )


def read_corpus(root: str = ".") -> list[str]:
    with open(os.path.join(root, CORPUS)) as fh:
        return [line.strip() for line in fh if line.strip()]


def load_data(name: str) -> dict:
    with open(os.path.join(DATA, name)) as fh:
        return json.load(fh)


def stratified_pick(classes: list[tuple[list, int]], size_of, rng: random.Random) -> list:
    """One item from each of `bins` equal slices of every class, the class
    sorted by `size_of`; classes are (items, bins) pairs."""
    picked = []
    for items, bins in classes:
        if bins == 0:
            continue
        ordered = sorted(items, key=size_of)
        if len(ordered) < bins:
            raise ValueError(f"class of {len(ordered)} items cannot fill {bins} bins")
        for b in range(bins):
            lo = b * len(ordered) // bins
            hi = (b + 1) * len(ordered) // bins
            picked.append(ordered[rng.randrange(lo, hi)])
    return picked


def class_bins(counts: dict[str, int], deck: int) -> dict[str, int]:
    """Split `deck` slots over classes in proportion to their sizes (largest
    remainder).  A class that exists gets at least one slot, so a rare
    outcome such as a cap hit is never rounded out of the deck."""
    total = sum(counts.values())
    raw = {c: deck * k / total for c, k in counts.items()}
    bins = {c: max(1, int(r)) if counts[c] else 0 for c, r in raw.items()}
    order = sorted(counts, key=lambda c: raw[c] - int(raw[c]), reverse=True)
    i = 0
    while sum(bins.values()) < deck:
        c = order[i % len(order)]
        if counts[c] > bins[c]:
            bins[c] += 1
        i += 1
    while sum(bins.values()) > deck:
        c = max((k for k in bins if bins[k] > 1), key=lambda k: bins[k] - raw[k])
        bins[c] -= 1
    return bins


def _le7_sweep(seed: int, root: str) -> Workload:
    """Every corpus graph through every verify tag and the four light
    commands, in a seeded order."""
    graphs = read_corpus(root)
    expected = load_data("le7.json")["graphs"]
    deck = [Request(g6, cmd, tag, LE7_CAPS) for g6 in graphs for cmd, tag in LE7_COMMANDS]
    random.Random(seed).shuffle(deck)
    return Workload("le7-sweep", tuple(deck), expected, 99.9)


def _dense_factors(seed: int, root: str) -> Workload:
    """The fixed sample of pool graphs: the small ones split by analyze
    outcome (answered / cap hit) and binned by factor count t, plus the
    large ones; each graph goes out as analyze, r11 and factors."""
    pool = load_data("dense_pool.json")["graphs"]
    small = [g for g in pool if g["t"] < LARGE_T]
    large = [g for g in pool if g["t"] >= LARGE_T]
    answered = [g for g in small if g["analyze_flow"] != "cap"]
    capped = [g for g in small if g["analyze_flow"] == "cap"]
    bins = class_bins({"answered": len(answered), "cap": len(capped)}, DENSE_DECK)
    picked = stratified_pick(
        [(answered, bins["answered"]), (capped, bins["cap"]), (large, DENSE_LARGE)],
        lambda g: (g["t"], g["g6"]), random.Random(SAMPLE_SEED))
    deck = [Request(g["g6"], cmd, tag, FLOW_CAPS) for g in picked for cmd, tag in DENSE_COMMANDS]
    random.Random(seed).shuffle(deck)
    return Workload("dense-factors", tuple(deck), {g["g6"]: g for g in pool}, 92.0)


def _sign_scan(seed: int, root: str) -> Workload:
    """The fixed sample of one pool graph per (n, m) cell, n = 8..10 and
    m = 11..13, as minrank."""
    pool = load_data("sign_pool.json")["graphs"]
    rng = random.Random(SAMPLE_SEED)
    cells = sorted({(g["n"], g["m"]) for g in pool})
    picked = [rng.choice([g for g in pool if (g["n"], g["m"]) == cell]) for cell in cells]
    random.Random(seed).shuffle(picked)
    deck = [Request(g["g6"], "minrank", None, "") for g in picked]
    return Workload("sign-scan", tuple(deck), {g["g6"]: g for g in pool}, 72.0)


def _analyze_n7(seed: int, root: str) -> Workload:
    """The fixed sample of order-7 corpus graphs, split by analyze's flow
    outcome (flow found / absence proved / cap hit) and binned by edge
    count."""
    expected = load_data("le7.json")["graphs"]
    order7 = [g6 for g6 in read_corpus(root) if expected[g6]["n"] == 7]
    classes: dict[str, list] = {"found": [], "none": [], "cap": []}
    for g6 in order7:
        classes[expected[g6]["analyze_flow"]].append(g6)
    bins = class_bins({c: len(v) for c, v in classes.items()}, ANALYZE_DECK)
    picked = stratified_pick(
        [(classes[c], bins[c]) for c in classes], lambda g6: (expected[g6]["m"], g6),
        random.Random(SAMPLE_SEED))
    random.Random(seed).shuffle(picked)
    deck = [Request(g6, "analyze", None, FLOW_CAPS) for g6 in picked]
    return Workload("analyze-n7", tuple(deck), expected, 95.0)


BY_NAME = {
    "le7-sweep": _le7_sweep,
    "dense-factors": _dense_factors,
    "sign-scan": _sign_scan,
    "analyze-n7": _analyze_n7,
}


def build(name: str, seed: int, root: str = ".") -> Workload:
    return BY_NAME[name](seed, root)
