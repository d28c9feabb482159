"""Independent output check: re-verify every report from its own contents.

Nothing here imports ``signrank``.  The graph is decoded from the report's
graph6 string by this module's own decoder, determinants and ranks come from
this module's own exact elimination over ``fractions.Fraction``, and flows
are checked by this module's own vertex sums.  Invariants (factor count,
perrank, ranks, permanent, verify outcome) are compared with the answers
that ``record.py`` stored once; witness values are never compared, only
re-verified, because a correct later version may return other witnesses.

``check_report`` returns None for a correct report and a short reason
otherwise.  ``unanswered_reason`` says whether a record was skipped.
"""

from __future__ import annotations

import json
from fractions import Fraction


def decode_graph6(s: str) -> tuple[int, list[tuple[int, int]]]:
    """(n, edges) with edges in row-major upper-triangle order, the edge
    order every witness in a report is positional in.  Handles n <= 62."""
    vals = [ord(ch) - 63 for ch in s]
    if not vals or vals[0] > 62 or any(not 0 <= v <= 63 for v in vals):
        raise ValueError(f"unsupported graph6 string {s!r}")
    n = vals[0]
    bits = [(v >> k) & 1 for v in vals[1:] for k in range(5, -1, -1)]
    present = set()
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                present.add((i, j))
            pos += 1
    return n, sorted(present)


def _matrix(n: int, edges, values) -> list[list[Fraction]]:
    a = [[Fraction(0)] * n for _ in range(n)]
    for (u, v), x in zip(edges, values):
        a[u][v] = a[v][u] = Fraction(x)
    return a


def _eliminate(a: list[list[Fraction]]) -> tuple[int, Fraction]:
    """(rank, determinant) of a square matrix by Gaussian elimination."""
    a = [row[:] for row in a]
    n = len(a)
    rank, det = 0, Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(rank, n) if a[r][col] != 0), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            det = -det
        det *= a[rank][col]
        for r in range(rank + 1, n):
            if a[r][col] != 0:
                f = a[r][col] / a[rank][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank, det


def det(n: int, edges, values) -> Fraction:
    return _eliminate(_matrix(n, edges, values))[1]


def rank(n: int, edges, values) -> int:
    return _eliminate(_matrix(n, edges, values))[0]


def vertex_sums(n: int, edges, values) -> list[int]:
    sums = [0] * n
    for (u, v), x in zip(edges, values):
        sums[u] += x
        sums[v] += x
    return sums


def is_bipartite(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    color = [-1] * n
    for s in range(n):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def _factor_key(n: int, edges, factor) -> tuple | None:
    """Canonical key of a listed {1,2}-factor, or None if it is not one:
    K2 edges and cycles (edge index lists of length >= 3 forming one closed
    cycle) must cover every vertex exactly once."""
    cover = [0] * n
    for i in factor["k2"]:
        u, v = edges[i]
        cover[u] += 1
        cover[v] += 1
    cycles = []
    for cyc in factor["cycles"]:
        if len(cyc) < 3 or len(set(cyc)) != len(cyc):
            return None
        deg: dict[int, int] = {}
        for i in cyc:
            for x in edges[i]:
                deg[x] = deg.get(x, 0) + 1
        if len(deg) != len(cyc) or any(d != 2 for d in deg.values()):
            return None
        # one cycle, not several: walk it from the first edge
        seen, at, prev = {cyc[0]}, edges[cyc[0]][1], cyc[0]
        while True:
            nxt = next((i for i in cyc if i != prev and at in edges[i]), None)
            if nxt is None or nxt in seen:
                break
            seen.add(nxt)
            at = edges[nxt][0] if edges[nxt][1] == at else edges[nxt][1]
            prev = nxt
        if len(seen) != len(cyc):
            return None
        for x in deg:
            cover[x] += 1
        cycles.append(tuple(sorted(cyc)))
    if any(c != 1 for c in cover):
        return None
    return tuple(sorted(factor["k2"])), tuple(sorted(cycles))


def _sign_ok(n, edges, values) -> bool:
    if values is None and not edges:
        values = []         # reports write an empty assignment as null
    return (values is not None and len(values) == len(edges)
            and all(x in (1, -1) for x in values) and det(n, edges, values) != 0)


def _weight_ok(n, edges, values) -> bool:
    if values is None and not edges:
        values = []
    return (values is not None and len(values) == len(edges)
            and all(isinstance(x, int) and x != 0 for x in values)
            and det(n, edges, values) == 0)


def _flow_ok(n, edges, values, k) -> bool:
    return (len(values) == len(edges)
            and all(isinstance(x, int) and 0 < abs(x) <= k - 1 for x in values)
            and all(s == 0 for s in vertex_sums(n, edges, values)))


def _sign_outcome(n, edges, sign, t) -> str | None:
    if t > 0:
        return None if _sign_ok(n, edges, sign["witness"]) else "sign witness rejected"
    if sign["witness"] is None and sign["certified_none"]:
        return None
    return "sign outcome on a factor-free graph"


def _weight_outcome(n, edges, weight, t) -> str | None:
    if t == 0:
        ok = weight["identically_singular"] and _weight_ok(n, edges, weight["witness"])
    elif t == 1:
        ok = weight["witness"] is None and bool(weight["certificate_impossible"])
    else:
        ok = not weight["identically_singular"] and _weight_ok(n, edges, weight["witness"])
    return None if ok else f"weight outcome rejected (t={t})"


def _verify(rec, n, edges, exp, theorem) -> str | None:
    chk = rec["check"]
    t = exp["t"]
    if theorem == "t21":
        if chk["has_factor"] != (t > 0) or chk["full_perrank"] != (exp["perrank"] == n):
            return "t21 invariants differ"
        return _sign_outcome(n, edges, chk["sign"], t)
    if theorem == "c22":
        if (chk["max_rank"], chk["perrank"]) != (exp["max_rank"], exp["perrank"]):
            return "c22 ranks differ"
        return None
    if theorem == "t31":
        if chk["t"] != t:
            return "t differs"
        return _weight_outcome(n, edges, chk["weight"], t)
    if theorem == "r11":
        if not chk["transversals"] == chk["permanent"] == exp["permanent"]:
            return "permanent differs"
        return None
    if theorem == "r32":
        if not chk["applicable"]:
            return None
        w = chk["weight"]["witness"]
        bound = 5 if is_bipartite(n, edges) else 11
        if not _weight_ok(n, edges, w) or max(abs(x) for x in w) > bound:
            return "r32 witness rejected"
        return None
    if theorem == "flows":
        k = exp["flows_k"]
        if chk["applicable"] != (k is not None):
            return "flows applicability differs"
        if k is not None and (chk["k"] != k or not _flow_ok(n, edges, chk["values"], k)):
            return "flow rejected"
        return None
    return f"unknown theorem {theorem!r}"


def _analyze(rec, n, edges, exp) -> str | None:
    t = exp["t"]
    if (rec["t"], rec["perrank"], rec["full_perrank"]) != (t, exp["perrank"], exp["perrank"] == n):
        return "analyze invariants differ"
    if "skipped" not in rec["sign"]:
        bad = _sign_outcome(n, edges, rec["sign"], t)
        if bad:
            return bad
    bad = _weight_outcome(n, edges, rec["weight"], t)
    if bad:
        return bad
    flow = rec["flow"]
    if flow["values"] is None:
        return "flow missing" if exp["analyze_flow"] == "found" else None
    if exp["analyze_flow"] == "none":
        return "flow returned where none was recorded"
    return None if _flow_ok(n, edges, flow["values"], flow["k"]) else "flow rejected"


def _body(rec, command, theorem, n, edges, exp) -> str | None:
    if command == "verify":
        return _verify(rec, n, edges, exp, theorem)
    if command == "analyze":
        return _analyze(rec, n, edges, exp)
    if command == "perrank":
        ok = (rec["perrank"], rec["full_perrank"]) == (exp["perrank"], exp["perrank"] == n)
        return None if ok else "perrank differs"
    if command == "factors":
        if rec["t"] != exp["t"] or len(rec["factors"]) != exp["t"]:
            return "t differs"
        keys = {_factor_key(n, edges, f) for f in rec["factors"]}
        if None in keys or len(keys) != exp["t"]:
            return "factor listing rejected"
        return None
    if command == "signfind":
        return _sign_outcome(n, edges, rec["sign"], exp["t"])
    if command == "weightfind":
        return _weight_outcome(n, edges, rec["weight"], exp["t"])
    if command == "minrank":
        w = rec["witness"]
        if rec["min_rank"] != exp["min_rank"]:
            return "min_rank differs"
        if len(w) != len(edges) or any(x not in (1, -1) for x in w) or \
                rank(n, edges, w) != exp["min_rank"]:
            return "minrank witness rejected"
        return None
    return f"unknown command {command!r}"


def parse(report: str) -> tuple[dict, dict, dict]:
    lines = report.splitlines()
    if len(lines) != 3:
        raise ValueError(f"expected 3 report lines, got {len(lines)}")
    return json.loads(lines[0]), json.loads(lines[1]), json.loads(lines[2])["summary"]


def unanswered_reason(rec: dict) -> str | None:
    if rec.get("status") == "skip":
        return str(rec.get("reason", "skip"))
    return None


def check_report(report: str, g6: str, command: str, theorem: str | None,
                 expected: dict) -> str | None:
    """None if the one-graph report is correct, else why not.  A skipped
    record is not wrong; the caller counts it as unanswered."""
    try:
        header, rec, summary = parse(report)
        if header["command"] != command or header["theorem"] != theorem:
            return "header does not match the request"
        if rec["record"] != 0 or rec["g6"] != g6 or summary["records"] != 1:
            return "record does not match the request"
        if unanswered_reason(rec) is not None:
            return None
        want = "pass" if command == "verify" else "ok"
        if rec["status"] != want:
            return f"status {rec['status']!r}"
        n, edges = decode_graph6(g6)
        if (rec["n"], rec["m"]) != (n, len(edges)):
            return "graph size differs"
        return _body(rec, command, theorem, n, edges, expected[g6])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
