"""Span recorder that measures signrank layer by layer from outside.

``Recorder.install()`` wraps every public function defined in a signrank
module and rebinds the wrapper under every name that holds the original in
any signrank module namespace.  That matters because ``harness``,
``sign_search`` and ``weight_search`` import functions by name
(``from .exact_linalg import det``): patching only the defining module would
miss their calls.  Private helpers are not wrapped, so their time counts as
self time of the public function that called them.

A span has a function, a start, an end and a parent span.  Spans of the
request in flight stay in memory; ``end_request()`` folds them into
per-group self times and counts, and clears them, so memory stays bounded
however long the run is.  Self time is a span's duration minus the
durations of its child spans.

Generator functions (``iter_factors``, ``iter_sign_representatives``) are
not timed, because their body runs inside the caller's loop and would be
charged the loop; their yields are counted, and the work they do is self
time of whichever span consumes them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

# Function -> metric group.  A function not listed here is counted in its
# module's total only.
GROUPS = {
    ("exact_linalg", "rank"): "exact_linalg.rank",
    ("exact_linalg", "det"): "exact_linalg.det",
    ("exact_linalg", "permanent"): "exact_linalg.permanent",
    ("exact_linalg", "adjacency_matrix"): "exact_linalg.matrix_build",
    ("exact_linalg", "matrix_at_point"): "exact_linalg.matrix_build",
    ("factors", "count_factors"): "factors.count",
    ("factors", "count_factors_at_most"): "factors.count",
    ("factors", "count_nonzero_transversals"): "factors.count",
    ("factors", "enumerate_factors"): "factors.enumerate",
    ("factors", "has_factor"): "factors.has_factor",
    ("factors", "edge_membership"): "factors.edge_membership",
    ("factors", "perrank_fast"): "factors.perrank",
    ("factors", "perrank_bruteforce"): "factors.perrank",
    ("detpoly", "det_poly"): "detpoly.det_poly",
    ("zero_sum_flow", "find_zero_sum_flow"): "zero_sum_flow.find",
    ("zero_sum_flow", "flow_exists_nonbipartite_test"): "zero_sum_flow.existence_test",
}

MODULES = ("graph_core", "exact_linalg", "factors", "detpoly", "sign_search",
           "weight_search", "zero_sum_flow", "harness", "assignments", "cli")

WEIGHT_ROUTES = ("flow", "algebraic", "exhaustive", "impossible", "vacuous")


class Recorder:
    """Wraps signrank's public functions; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[tuple[str, str]] = []     # function id -> (module, name)
        # spans of the request in flight, as parallel lists
        self.fid: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.stack = [-1]
        # folded totals
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def install(self, package: str = "signrank") -> None:
        mods = {name[len(package) + 1:]: mod for name, mod in sys.modules.items()
                if name.startswith(package + ".") and mod is not None}
        wrappers = {}                      # original function -> its wrapper
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(obj, short, name)
        for mod in [sys.modules[package], *mods.values()]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def wrap(self, fn, module: str, name: str):
        fid = len(self.names)
        self.names.append((module, name))
        if inspect.isgeneratorfunction(fn):
            counts = self.counts
            key = f"{module}.{name}.yielded"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counts[key] += 1
                    yield item
            return gen_wrapper

        clock, fids, starts, ends, parents, stack = (
            self.clock, self.fid, self.start, self.end, self.parent, self.stack)
        observe = _OBSERVERS.get((module, name))
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                if observe is not None:
                    observe(counts, None, exc)
                raise
            ends[idx] = clock()
            stack.pop()
            if observe is not None:
                observe(counts, result, None)
            return result
        return wrapper

    # -- folding ----------------------------------------------------------

    def end_request(self) -> float:
        """Fold the spans of the finished request into the totals; returns
        the summed duration of its top-level spans."""
        fids, starts, ends, parents = self.fid, self.start, self.end, self.parent
        child = [0.0] * len(fids)
        for i in range(len(fids) - 1, -1, -1):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        top = 0.0
        names = self.names
        for i, f in enumerate(fids):
            dur = ends[i] - starts[i]
            module, name = names[f]
            own = dur - child[i]
            self.self_s[module] += own
            self.calls[module] += 1
            group = GROUPS.get((module, name))
            p = parents[i]
            if group:
                self.self_s[group] += own
                # adjacency_matrix calls matrix_at_point: one build, not two
                if p < 0 or GROUPS.get(names[fids[p]]) != group:
                    self.calls[group] += 1
            if p < 0:
                top += dur
            elif name in ("det", "rank") and module == "exact_linalg":
                parent_module = names[fids[p]][0]
                if parent_module in ("sign_search", "weight_search"):
                    self.counts[f"{parent_module}.{name}_calls"] += 1
        del fids[:], starts[:], ends[:], parents[:]
        return top


def _observe_flow(counts, result, exc):
    if exc is not None:
        if type(exc).__name__ == "ResourceCapError":
            counts["zero_sum_flow.cap_hits"] += 1
    elif result is None:
        counts["zero_sum_flow.absent"] += 1


def _observe_sign(counts, result, exc):
    if result is not None:
        counts["sign_search.attempts"] += result.attempts
        counts["sign_search.witnesses"] += result.witness is not None


def _observe_weight(counts, result, exc):
    if result is None:
        return
    if result.identically_singular:
        route = "vacuous"
    elif result.certificate_impossible:
        route = "impossible"
    else:
        route = result.route
    if route is not None:
        counts[f"weight_search.route.{route}"] += 1


def _observe_run(counts, result, exc):
    if result is not None:
        counts["harness.report_bytes"] += len(result[0])


_OBSERVERS = {
    ("zero_sum_flow", "find_zero_sum_flow"): _observe_flow,
    ("sign_search", "find_fullrank_sign"): _observe_sign,
    ("weight_search", "find_singular_weight"): _observe_weight,
    ("harness", "run"): _observe_run,
}


def layer_metrics(rec: Recorder, passes: int, request_s: float) -> dict[str, float]:
    """Per-layer metrics per pass over the deck, in the names BENCHMARK.json
    lists.  `request_s` is the summed request time the client measured."""
    s, c, k = rec.self_s, rec.calls, rec.counts
    attempts = k["sign_search.attempts"]
    per = {
        "graph_core.calls": c["graph_core"],
        "graph_core.self_s": s["graph_core"],
        "exact_linalg.self_s": s["exact_linalg"],
        "exact_linalg.rank.calls": c["exact_linalg.rank"],
        "exact_linalg.rank.self_s": s["exact_linalg.rank"],
        "exact_linalg.matrix_build.calls": c["exact_linalg.matrix_build"],
        "exact_linalg.matrix_build.self_s": s["exact_linalg.matrix_build"],
        "exact_linalg.det.calls": c["exact_linalg.det"],
        "exact_linalg.det.self_s": s["exact_linalg.det"],
        "exact_linalg.permanent.self_s": s["exact_linalg.permanent"],
        "factors.self_s": s["factors"],
        "factors.yielded": k["factors.iter_factors.yielded"],
        "factors.count.self_s": s["factors.count"],
        "factors.enumerate.self_s": s["factors.enumerate"],
        "factors.has_factor.self_s": s["factors.has_factor"],
        "factors.edge_membership.self_s": s["factors.edge_membership"],
        "factors.perrank.self_s": s["factors.perrank"],
        "detpoly.self_s": s["detpoly"],
        "detpoly.det_poly.calls": c["detpoly.det_poly"],
        "detpoly.det_poly.self_s": s["detpoly.det_poly"],
        "sign_search.self_s": s["sign_search"],
        "sign_search.matrix_evals": k["sign_search.det_calls"] + k["sign_search.rank_calls"],
        "weight_search.self_s": s["weight_search"],
        "weight_search.det_calls": k["weight_search.det_calls"],
        "zero_sum_flow.self_s": s["zero_sum_flow"],
        "zero_sum_flow.find.calls": c["zero_sum_flow.find"],
        "zero_sum_flow.find.self_s": s["zero_sum_flow.find"],
        "zero_sum_flow.absent": k["zero_sum_flow.absent"],
        "zero_sum_flow.cap_hits": k["zero_sum_flow.cap_hits"],
        "zero_sum_flow.existence_test.self_s": s["zero_sum_flow.existence_test"],
        "harness.self_s": s["harness"],
        "harness.report_bytes": k["harness.report_bytes"],
    }
    for route in WEIGHT_ROUTES:
        per[f"weight_search.route.{route}"] = k[f"weight_search.route.{route}"]
    out = {name: value / passes for name, value in per.items()}
    # ratios are not divided by the pass count
    out["sign_search.witness_ratio"] = k["sign_search.witnesses"] / attempts if attempts else 0.0
    accounted = sum(s[m] for m in MODULES)
    out["trace.request_s"] = request_s / passes
    out["trace.accounted_share"] = accounted / request_s if request_s else 0.0
    return out


def unit_of(metric: str) -> str:
    if metric.endswith("records_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_share", "_ratio")):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"
