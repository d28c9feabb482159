"""signrank benchmark: one workload, closed loop, measured from outside.

Run from the repository root:

    python3 perfbench/run.py --workload le7-sweep --seed 1 --seconds 18 --trace 0

One client sends one request at a time (``jobs=1``); the next request goes
out when the previous one has returned.  A request is one call of
``signrank.harness.run([graph], cfg)`` with the RunConfig the CLI would
build.  The workload's seed fixes its deck of requests (workloads.py); the
loop sends the deck pass after pass until the summed request time reaches
``--seconds``, always finishing the pass it is in.  Every report is checked
(check.py): in full the first time a request is seen, and by comparing the
report with that first one on later passes, since reports are
deterministic.  Exceptions are caught per request and counted.

Times are corrected for the host's speed, which on a shared machine drifts
by up to a factor of two over minutes: a calibration probe runs between
requests, and each request's time is scaled by the probe's reference time
over the probe's median time around it (see ``HostClock``).

With ``--trace 0`` the last line of standard output is the end-to-end result;
with ``--trace 1`` the run wraps signrank's public functions (spans.py) and
the last line carries the per-layer metrics instead.  The line before it is
a detail record: environment, seed, outcome histograms, tail percentile,
uncorrected times.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9
WALL_LIMIT_S = 150.0
PROBE_EVERY_S = 0.05
PROBE_REF_S = 0.001
PROBE_WINDOW = 8
_PROBE_MATRIX = [[(3 * i + 7 * j) % 11 - 5 + 13 * (i == j) for j in range(7)] for i in range(7)]


def probe() -> float:
    """Seconds taken by a fixed pure-Python integer workload: fraction-free
    elimination of a fixed 7x7 matrix, 60 times.  It uses the same
    interpreter paths as signrank (integer arithmetic, list indexing), so
    its time tracks how fast the host runs signrank at that moment."""
    start = time.perf_counter()
    for _ in range(60):
        a = [row[:] for row in _PROBE_MATRIX]
        prev = 1
        for k in range(6):
            for i in range(k + 1, 7):
                ai, ak = a[i], a[k]
                for j in range(k + 1, 7):
                    ai[j] = (ai[j] * ak[k] - ai[k] * ak[j]) // prev
            prev = a[k][k]
    return time.perf_counter() - start


class HostClock:
    """Times requests in reference seconds: the seconds a request would take
    on a host where ``probe()`` takes PROBE_REF_S.

    The probe runs before a request whenever PROBE_EVERY_S of wall time have
    passed since the last one, and once more at the end.  When the run ends,
    each request is scaled by PROBE_REF_S over the median of the PROBE_WINDOW
    probes before it and the PROBE_WINDOW after it.  One probe is a noisy
    reading of the host's speed (a preempted probe reads slow); the median
    of a window follows the host's drift, which takes seconds to minutes.
    Uncorrected times are kept alongside."""

    def __init__(self, clock=time.perf_counter, measure=probe):
        self.clock, self.measure = clock, measure
        self.probes: list[float] = []
        self.samples: list[tuple[list[float], int, int]] = []
        self.take_probe()

    def take_probe(self) -> None:
        self.probes.append(self.measure())
        self.last_at = self.clock()

    def before_request(self) -> None:
        if self.clock() - self.last_at >= PROBE_EVERY_S:
            self.take_probe()

    def record(self, corrected: list[float], raw_seconds: float) -> None:
        corrected.append(raw_seconds)
        self.samples.append((corrected, len(corrected) - 1, len(self.probes)))

    def finish(self) -> None:
        """Probe once more and scale every recorded request."""
        self.take_probe()
        for values, i, k in self.samples:      # k probes ran before the request
            window = self.probes[max(0, k - PROBE_WINDOW):k + PROBE_WINDOW]
            values[i] *= PROBE_REF_S / statistics.median(window)
        self.samples.clear()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (used to sample setup_s)")
    return p.parse_args(argv)


def setup(name: str, seed: int):
    """Everything before the first request: import signrank, read the
    corpus or pool, load the expected answers, parse every deck graph and
    build every RunConfig."""
    if not os.path.isdir(os.path.join("src", "signrank")):
        raise SystemExit("run from the repository root: src/signrank not found")
    sys.path.insert(0, "src")
    from signrank import harness
    from signrank.graph_core import parse_graph6

    wl = workloads.build(name, seed)
    graphs = {g6: parse_graph6(g6) for g6 in {r.g6 for r in wl.deck}}
    configs = [workloads.make_config(harness, r, seed) for r in wl.deck]
    return harness, wl, graphs, configs


def sample_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up time of fresh workload processes, from start to their 'ready'
    line, several times; returned corrected (reference seconds, by the median
    of the probes run before, between and after the samples) and
    uncorrected."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    raw, probes = [], [probe()]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                raise SystemExit("setup sample failed")
        raw.append(elapsed)
        probes.append(probe())
    scale = PROBE_REF_S / statistics.median(probes)
    return [x * scale for x in raw], raw


class Outcomes:
    """Per-request verdicts; a repeated request whose report is identical to
    the first one inherits that report's verdict."""

    def __init__(self, wl):
        self.wl = wl
        self.seen: dict[int, tuple[int, str | None, str | None]] = {}
        self.attempted = 0
        self.unanswered = 0
        self.wrong = 0
        self.histogram: Counter = Counter()
        self.wrong_examples: list[str] = []

    def add(self, i: int, report: str | None, exc: BaseException | None) -> None:
        self.attempted += 1
        if exc is not None:
            self.unanswered += 1
            self.histogram[f"raised {type(exc).__name__}"] += 1
            return
        digest = hash(report)
        known = self.seen.get(i)
        if known is None or known[0] != digest:
            req = self.wl.deck[i]
            wrong = check.check_report(report, req.g6, req.command, req.theorem,
                                       self.wl.expected)
            skip = None
            if wrong is None:
                skip = check.unanswered_reason(check.parse(report)[1])
            known = (digest, wrong, skip)
            self.seen[i] = known
        _, wrong, skip = known
        if wrong is not None:
            self.wrong += 1
            self.histogram["wrong"] += 1
            if len(self.wrong_examples) < 5:
                self.wrong_examples.append(f"{self.wl.deck[i]}: {wrong}")
        elif skip is not None:
            self.unanswered += 1
            self.histogram[f"skip {skip}"] += 1


def closed_loop(harness, wl, graphs, configs, seconds, recorder=None):
    """Send the deck pass after pass.  Returns, per deck request, its
    corrected and its uncorrected times (one per pass), the outcome tally,
    the pass count, the summed request time and the probe times."""
    Graph = type(next(iter(graphs.values())))
    corrected: list[list[float]] = [[] for _ in wl.deck]
    raw: list[list[float]] = [[] for _ in wl.deck]
    outcomes = Outcomes(wl)
    clock = time.perf_counter
    host = HostClock()
    wall_limit = clock() + WALL_LIMIT_S
    service = 0.0
    passes = 0
    while True:
        for i, req in enumerate(wl.deck):
            base = graphs[req.g6]
            g = Graph(base.n, base.edges)      # a fresh graph: no warm caches
            host.before_request()
            report = exc = None
            start = clock()
            try:
                report, _ = harness.run([g], configs[i])
            except Exception as e:             # contained per request
                exc = e
            elapsed = clock() - start
            if recorder is not None:
                recorder.end_request()
            raw[i].append(elapsed)
            host.record(corrected[i], elapsed)
            service += elapsed
            outcomes.add(i, report, exc)
        passes += 1
        if service >= seconds or clock() > wall_limit:
            host.finish()
            return corrected, raw, outcomes, passes, service, host.probes


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def latency_figures(times, tail_pct: float) -> dict[str, float]:
    """records_per_s, p50 and tail (seconds) of one set of per-request times.
    records_per_s is every sample over their summed time, first pass
    included.  p50 is the median over the deck of each request's median over
    the passes.  The tail is taken over every sample, since a deck has too
    few requests for ten beyond a high percentile."""
    per_request = [statistics.median(t) for t in times]
    pooled = sorted(x for t in times for x in t)
    tail = percentile(pooled, tail_pct)
    return {
        "records_per_s": len(pooled) / sum(pooled),
        "p50": statistics.median(per_request),
        "tail": tail,
        "samples": len(pooled),
        "beyond": sum(1 for x in pooled if x > tail),
    }


def end_to_end(wl, corrected, raw, outcomes, setup) -> tuple[dict, dict]:
    fig = latency_figures(corrected, wl.tail_pct)
    plain = latency_figures(raw, wl.tail_pct)
    setup_corrected, setup_raw = setup
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup_corrected), "s"),
        "records_per_s": (fig["records_per_s"], "1/s"),
        "record_ms.p50": (1000 * fig["p50"], "ms"),
        "record_ms.tail": (1000 * fig["tail"], "ms"),
        "answered_share": (1 - outcomes.unanswered / outcomes.attempted, "share"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    detail = {
        "unanswered_share": outcomes.unanswered / outcomes.attempted,
        "wrong_share": outcomes.wrong / outcomes.attempted,
        "tail_percentile": wl.tail_pct,
        "tail_samples": fig["samples"],
        "tail_beyond": fig["beyond"],
        "uncorrected": {
            "setup_s": statistics.median(setup_raw),
            "records_per_s": plain["records_per_s"],
            "record_ms.p50": 1000 * plain["p50"],
            "record_ms.tail": 1000 * plain["tail"],
        },
    }
    return metrics, detail


def environment(seed: int, name: str, trace: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    commit = None
    if os.path.exists(".git"):             # a plain checkout has none; do not look above it
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True).stdout.strip() or None
        except OSError:
            pass
    return {
        "workload": name,
        "seed": seed,
        "trace": bool(trace),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "commit": commit,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    harness, wl, graphs, configs = setup(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    setup_in_process = time.perf_counter() - PROCESS_START

    recorder = None
    if args.trace:
        import spans
        recorder = spans.Recorder()
        recorder.install()
    try:
        corrected, raw, outcomes, passes, service, probes = closed_loop(
            harness, wl, graphs, configs, args.seconds, recorder)
    finally:
        if recorder is not None:
            recorder.uninstall()

    detail = environment(args.seed, args.workload, args.trace)
    detail.update(deck=len(wl.deck), passes=passes, attempted=outcomes.attempted,
                  service_s=service, setup_in_process_s=setup_in_process,
                  probe_ms={"min": 1000 * min(probes), "median": 1000 * statistics.median(probes),
                            "max": 1000 * max(probes), "count": len(probes)},
                  outcomes=dict(sorted(outcomes.histogram.items())),
                  wrong_examples=outcomes.wrong_examples)
    if args.trace:
        import spans
        values = spans.layer_metrics(recorder, passes, service)
        values["trace.records_per_s"] = latency_figures(corrected, wl.tail_pct)["records_per_s"]
        metrics = {k: {"value": v, "unit": spans.unit_of(k)} for k, v in values.items()}
    else:
        e2e, extra = end_to_end(wl, corrected, raw, outcomes,
                                sample_setup(args.workload, args.seed))
        detail.update(extra)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        for k, (v, u) in e2e.items():
            print(f"{args.workload} seed={args.seed} {k} = {v:.6g} {u}")
        for k in ("unanswered_share", "wrong_share"):
            print(f"{args.workload} seed={args.seed} {k} = {extra[k]:.6g} share")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": outcomes.wrong == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.wrong,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
