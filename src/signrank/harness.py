"""Corpus verification harness: per-graph analysis records, theorem-sweep
checks, and deterministic machine-readable reports.

Report format (JSON lines, diffable and streamable):

    line 1      header object: {"signrank_report": 1, "command": ..., config}
    lines 2..   one record object per input graph, in input order
    last line   {"summary": {"records": N, "pass": P, "fail": F, "skip": S,
                             "partial": Q}}

write_report hands over each line as soon as it is made (a pool's records
still in input order; the summary from running counts), so a run that stops
early has written the header and every record finished before it.

"partial" counts records with status "ok" in which a block carries
"skipped" (an analyze record whose sign or flow step hit its cap), and
records with status "ok" or "pass" whose weight search was inconclusive (an
analyze or weightfind "weight" block, or a verify r32 "check" block's
"weight", with no witness, no certificate_impossible and not
identically_singular; r32 passes such a graph only because it has no flow
route witness to check, and t31 fails it).

Objects are serialized with sorted keys and no whitespace, by one shared
encoder, so two runs with identical inputs, seed and configuration produce
byte-identical reports.
Per-record wall-clock timings are only included when explicitly requested,
because they would break that reproducibility.

Every witness embedded in a record is self-contained: the record carries the
graph (graph6) and the witness values in its edge order, which parse_graph6
gives, so it can be re-verified from the report alone.  Each record builds
its own graph from the input's vertex count and edges, so whatever is
cached on it goes with the record: no record, and no run, sees another's
work.

Checks (the verify command's theorem tags, in _CHECKERS):

    t21    a full-rank signing exists  <=>  full perrank  <=>  a factor exists
    c22    max rank over signs equals perrank
    t31    singular weighting exists <=> at least two factors (t = 0 flagged)
    r11    factor-orientation count equals the adjacency permanent
    r32    flow-route witnesses respect the 5 (bipartite) / 11 bound
    flows  the flow climb up to flow_bound succeeds where existence is known
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import Callable, Iterable

try:
    # the interpreter's own SHA-256, as the random module takes its SHA-512:
    # hashlib would load OpenSSL (about 3.6 MB resident) for two short
    # digests a record
    from _sha2 import sha256            # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256      # CPython 3.11 and before
    except ImportError:
        from hashlib import sha256

from . import __version__
from .errors import GraphParseError, ResourceCapError
from .exact_linalg import adjacency_matrix, permanent
from .factors import (
    count_factors, count_nonzero_transversals, enumerate_factors, perrank_fast)
from .graph_core import (
    Graph,
    _graph_of,
    components,
    encode_graph6,
    parse_edge_list,
    parse_graph6,
)
from .sign_search import (
    DEFAULT_EXHAUSTIVE_M_CAP, find_fullrank_sign, max_rank_over_signs, min_rank_over_signs)
from .weight_search import find_singular_weight
from .zero_sum_flow import (
    DEFAULT_FLOW_NODES, flow_bound, flow_obstruction, least_bound_flow, verify_flow)

@dataclass(frozen=True)
class Caps:
    """Resource caps; each command marks a graph "skip" instead of exceeding
    them."""

    sign_exhaustive_m: int = DEFAULT_EXHAUSTIVE_M_CAP  # largest m of a switching-class scan
    factor_n: int = 12  # largest n of a factor table
    flow_nodes: int = DEFAULT_FLOW_NODES  # search nodes of a flow climb, all bounds together


# read by name, not with vars(): that would give each caller's Caps a dict of
# its own for as long as the caller keeps it (64 B each in Python 3.11)
_CAP_NAMES = tuple(f.name for f in fields(Caps))


@dataclass(frozen=True)
class RunConfig:
    command: str
    theorem: str | None = None
    seed: int = 0
    bound: int = 6
    jobs: int = 1
    timings: bool = False
    caps: Caps = field(default_factory=Caps)


def parse_caps(text: str) -> Caps:
    """Parse a --caps string like "sign_exhaustive_m=24,flow_nodes=10000".
    Raises ValueError on an unknown key or a value that is not an integer
    >= 0."""
    caps = Caps()
    if not text:
        return caps
    for item in text.split(","):
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in _CAP_NAMES:
            raise ValueError(f"unknown cap {key!r}")
        number = int(value)
        if number < 0:
            raise ValueError(f"cap {key} must be at least 0, got {number}")
        caps = replace(caps, **{key: number})
    return caps


def graph_seed(master: int, index: int) -> int:
    """Stable per-graph seed, independent of worker count and platform."""
    digest = sha256(f"{master}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def load_corpus(text: str, fmt: str) -> list[Graph]:
    """graph6: one graph per non-empty line.  edgelist: the whole text is a
    single graph."""
    if fmt == "edgelist":
        return [parse_edge_list(text)]
    if fmt != "graph6":
        raise ValueError(f"unknown input format {fmt!r}")
    graphs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            graphs.append(parse_graph6(line))
        except GraphParseError as exc:
            raise GraphParseError(f"line {lineno}: {exc}") from None
    return graphs


def _base_record(index: int, g: Graph) -> dict:
    g6 = encode_graph6(g)
    gid = f"{index}:{sha256(g6.encode()).hexdigest()[:12]}"
    return {"record": index, "id": gid, "g6": g6, "n": g.n, "m": g.m}


# Each command maps (graph, its seed, config) to the fields of its record;
# _record adds the rest.


def _analyze(g: Graph, seed: int, cfg: RunConfig) -> dict:
    rec = {"t": count_factors(g), **_perrank(g, seed, cfg)}
    try:
        rec.update(_signfind(g, seed, cfg))
    except ResourceCapError as exc:
        rec["sign"] = {"skipped": str(exc)}
    rec.update(_weightfind(g, seed, cfg))
    try:
        rec["flow"] = _zsf(g, seed, cfg)
    except ResourceCapError as exc:
        rec["flow"] = {"k": cfg.bound, "values": None, "basis": None, "skipped": str(exc)}
    return rec


def _zsf(g: Graph, seed: int, cfg: RunConfig) -> dict:
    """The flow fields of analyze and zsf records: the smallest-bound flow up
    to bound k, or the basis of its absence, "no_flow_exists" (with the
    obstruction that proves it) or "exhausted" (the climb found none).
    Raises ResourceCapError when the climb exceeds its node cap."""
    k = cfg.bound
    flow = least_bound_flow(g, k, cfg.caps.flow_nodes)
    if flow is not None:
        return {"k": k, "values": list(flow.values), "basis": None}
    obstruction = flow_obstruction(g)
    if obstruction is None:
        return {"k": k, "values": None, "basis": "exhausted"}
    return {"k": k, "values": None, "basis": "no_flow_exists",
            "obstruction": obstruction._asdict()}


def _signfind(g: Graph, seed: int, cfg: RunConfig) -> dict:
    """The sign block of signfind, analyze and verify t21 records."""
    outcome = find_fullrank_sign(g, seed=seed, exhaustive_m_cap=cfg.caps.sign_exhaustive_m)
    return {"sign": {
        "witness": list(outcome.witness.values) if outcome.witness is not None else None,
        "method": outcome.method,
        "attempts": outcome.attempts,
        "certified_none": outcome.certified_none,
        "basis": outcome.basis,
    }}


def _weightfind(g: Graph, seed: int, cfg: RunConfig) -> dict:
    """The weight block of weightfind, analyze and verify t31 and r32 records."""
    outcome = find_singular_weight(g, seed=seed, node_budget=cfg.caps.flow_nodes)
    return {"weight": {
        "witness": list(outcome.witness.values) if outcome.witness is not None else None,
        "route": outcome.route,
        "certificate_impossible": outcome.certificate_impossible,
        "identically_singular": outcome.identically_singular,
        "max_abs_weight": outcome.witness.max_abs() if outcome.witness is not None else None,
    }}


def _minrank(g: Graph, seed: int, cfg: RunConfig) -> dict:
    value, witness = min_rank_over_signs(g, exhaustive_m_cap=cfg.caps.sign_exhaustive_m)
    return {"min_rank": value, "witness": list(witness.values)}


def _factors(g: Graph, seed: int, cfg: RunConfig) -> dict:
    # the encoder writes the factors' tuples as arrays
    listing = [{"k2": f.k2_edges, "cycles": f.cycles} for f in enumerate_factors(g)]
    return {"t": len(listing), "factors": listing}


def _perrank(g: Graph, seed: int, cfg: RunConfig) -> dict:
    pr = perrank_fast(g)
    return {"perrank": pr, "full_perrank": pr == g.n}


def _verify(g: Graph, seed: int, cfg: RunConfig) -> dict:
    ok, detail = _CHECKERS[cfg.theorem](g, seed, cfg)
    return {"check": detail, "status": "pass" if ok else "fail"}


def _check_t21(g: Graph, seed: int, cfg: RunConfig) -> tuple[bool, dict]:
    # the sign side is signfind's block; the factor side comes from the
    # table, not from has_factor, which is the same double-cover matching as
    # full_perrank
    detail = _signfind(g, seed, cfg)
    detail.update(has_factor=count_factors(g) > 0, full_perrank=perrank_fast(g) == g.n)
    signed = detail["sign"]["witness"] is not None
    return signed == detail["has_factor"] == detail["full_perrank"], detail


def _check_c22(g: Graph, seed: int, cfg: RunConfig) -> tuple[bool, dict]:
    mx = max_rank_over_signs(g, exhaustive_m_cap=cfg.caps.sign_exhaustive_m, seed=seed)
    pr = perrank_fast(g)
    return mx == pr, {"max_rank": mx, "perrank": pr}


def _check_t31(g: Graph, seed: int, cfg: RunConfig) -> tuple[bool, dict]:
    t = count_factors(g)
    detail = {"t": t, **_weightfind(g, seed, cfg)}
    weight = detail["weight"]
    if t == 0:
        ok = weight["identically_singular"] and weight["witness"] is not None
    elif t == 1:
        ok = weight["certificate_impossible"] is not None and weight["witness"] is None
    else:
        # find_singular_weight has checked the witness's determinant
        ok = weight["witness"] is not None and not weight["identically_singular"]
    return ok, detail


def _check_r11(g: Graph, seed: int, cfg: RunConfig) -> tuple[bool, dict]:
    transversals = count_nonzero_transversals(g)
    perm = permanent(adjacency_matrix(g, (1,) * g.m))
    return transversals == perm, {"transversals": transversals, "permanent": perm}


def _check_r32(g: Graph, seed: int, cfg: RunConfig) -> tuple[bool, dict]:
    detail = _weightfind(g, seed, cfg)
    weight = detail["weight"]
    if weight["route"] != "flow" or weight["witness"] is None:
        detail["applicable"] = False
        return True, detail
    detail.update(applicable=True, bound=flow_bound(g) - 1)
    return weight["max_abs_weight"] <= detail["bound"], detail


def _check_flows(g: Graph, seed: int, cfg: RunConfig) -> tuple[bool, dict]:
    detail: dict = {"applicable": False}
    if g.n == 0 or g.m == 0 or len(components(g)) != 1 or flow_obstruction(g) is not None:
        return True, detail
    k = flow_bound(g)
    detail.update(applicable=True, k=k)
    flow = least_bound_flow(g, k, cfg.caps.flow_nodes)
    if flow is None:
        detail["values"] = None
        return False, detail
    detail["values"] = list(flow.values)
    return verify_flow(g, flow) and flow.max_abs() <= k - 1, detail


_CHECKERS: dict[str, Callable[[Graph, int, RunConfig], tuple[bool, dict]]] = {
    "t21": _check_t21,
    "c22": _check_c22,
    "t31": _check_t31,
    "r11": _check_r11,
    "r32": _check_r32,
    "flows": _check_flows,
}
THEOREM_TAGS = tuple(_CHECKERS)

_COMMANDS: dict[str, Callable[[Graph, int, RunConfig], dict]] = {
    "analyze": _analyze,
    "verify": _verify,
    "minrank": _minrank,
    "factors": _factors,
    "perrank": _perrank,
    "signfind": _signfind,
    "weightfind": _weightfind,
    "zsf": _zsf,
}

# commands, and verify tags, whose records are skipped for graphs above the
# factor_n cap.  analyze, factors, t21, t31 and r11 read t or the listing off
# the factor table.  weightfind and r32 build none; they stay capped as every
# witness they return is re-checked by an exact n x n determinant, in time
# about n^3 (test_factor_cap_keeps_dense_determinants_off)
_FACTOR_CAPPED = frozenset(("analyze", "factors", "weightfind", "t21", "t31", "r11", "r32"))


def _record(task: tuple[str, int, int, tuple[tuple[int, int], ...], RunConfig]) -> dict:
    """The record of one task (command, index, n, edges, config), on a graph
    built from n and a Graph's edges: the base fields, status "ok"
    (or the pass/fail of a verify check) and the command's fields; or status
    "skip" with a reason when the graph exceeds factor_n (for the commands
    and tags above) or a search or the factor table hits a cap.  "ms" is
    added under cfg.timings."""
    command, index, n, edges, cfg = task
    start = time.perf_counter()
    # the record's own graph, on checked edges: its caches go with the record
    g = _graph_of(n, edges)
    rec = _base_record(index, g)
    capped = cfg.theorem if command == "verify" else command
    try:
        if capped in _FACTOR_CAPPED and g.n > cfg.caps.factor_n:
            rec.update(status="skip", reason=f"n={g.n} exceeds factor cap {cfg.caps.factor_n}")
        else:
            rec.update({"status": "ok", **_COMMANDS[command](g, graph_seed(cfg.seed, index), cfg)})
    except ResourceCapError as exc:
        rec.update(status="skip", reason=str(exc))
    if cfg.timings:
        rec["ms"] = round((time.perf_counter() - start) * 1000, 3)
    return rec


def run(graphs: Iterable[Graph], cfg: RunConfig) -> tuple[str, dict]:
    """Run one command over a corpus.  Returns (report_text, summary)."""
    lines: list[str] = []
    summary = write_report(graphs, cfg, lines.append)
    return "".join(lines), summary


def write_report(graphs: Iterable[Graph], cfg: RunConfig,
                 write: Callable[[str], object]) -> dict:
    """Run one command over a corpus, passing each report line (newline
    included) to write as soon as it is made: the header, each record in
    input order as it finishes, then the summary.  Returns the summary."""
    if cfg.command not in _COMMANDS:
        raise ValueError(f"unknown command {cfg.command!r}")
    if cfg.command == "verify" and cfg.theorem not in THEOREM_TAGS:
        raise ValueError(f"unknown theorem tag {cfg.theorem!r}")
    if cfg.bound < 2:
        raise ValueError(f"flow bound must be at least 2, got {cfg.bound}")
    tasks = [(cfg.command, i, g.n, g.edges, cfg) for i, g in enumerate(graphs)]
    write(_header(cfg))
    summary = {"records": 0, "pass": 0, "fail": 0, "skip": 0, "partial": 0}

    def emit(rec: dict) -> None:
        write(_dumps(rec) + "\n")
        summary["records"] += 1
        if rec["status"] != "ok":
            summary[rec["status"]] += 1
        if _is_partial(rec):
            summary["partial"] += 1

    workers = pool_size(cfg.jobs, len(tasks))
    if workers > 1:
        # imported here: a single-process run does not pay multiprocessing's
        # import time and memory
        from multiprocessing import Pool

        # ordered, in the chunks Pool.map would send
        with Pool(workers) as pool:
            for rec in pool.imap(_record, tasks, chunksize=-(-len(tasks) // (4 * workers))):
                emit(rec)
    else:
        for rec in map(_record, tasks):
            emit(rec)
    write(_dumps({"summary": summary}) + "\n")
    return summary


@lru_cache(maxsize=16)
def _header(cfg: RunConfig) -> str:
    """The header line, encoded once per config (callers repeat configs)."""
    return _dumps({"signrank_report": 1, "version": __version__, "command": cfg.command,
                   "theorem": cfg.theorem, "seed": cfg.seed, "bound": cfg.bound,
                   "caps": {key: getattr(cfg.caps, key) for key in _CAP_NAMES}}) + "\n"


def pool_size(jobs: int, tasks: int) -> int:
    """Worker processes for a run: never more than the requested jobs, the
    graphs to process or the CPUs present (not asked for one worker)."""
    size = min(jobs, tasks)
    return size if size <= 1 else min(size, os.cpu_count() or 1)


# one encoder for every line: json.dumps with these arguments builds a new
# one per call, and writes the same bytes.  A record is a fresh tree of
# dicts, lists, tuples, ints and strings, never circular, so the encoder
# keeps no table of the containers it is inside
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode


def _is_partial(rec: dict) -> bool:
    """An ok record with a block whose answer was skipped at a cap, or an ok
    or pass record with an inconclusive weight search: no witness, no
    certificate of impossibility, and not identically singular (an edgeless
    graph's vacuous witness is the empty list)."""
    if rec.get("status") not in ("ok", "pass"):
        return False
    weight = rec.get("weight") or rec.get("check", {}).get("weight")
    if weight is not None and weight.get("witness") is None \
            and weight.get("certificate_impossible") is None \
            and not weight.get("identically_singular"):
        return True
    return any(isinstance(v, dict) and "skipped" in v for v in rec.values())


def exit_code(summary: dict, allow_skips: bool = False) -> int:
    """0 ok; 1 any failure; 3 any skipped record or partial record (unless
    allowed)."""
    if summary["fail"]:
        return 1
    if (summary["skip"] or summary.get("partial")) and not allow_skips:
        return 3
    return 0
