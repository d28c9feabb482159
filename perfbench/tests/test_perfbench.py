"""Self-tests of the benchmark: span accounting, the output check, seeding.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from signrank import harness  # noqa: E402
from signrank.graph_core import parse_graph6  # noqa: E402

# -- spans -----------------------------------------------------------------


@pytest.fixture
def fake_package():
    """fakepkg.inner defines inner() and gen(); fakepkg.outer imports them
    by name, the way signrank's modules import each other.  Every function
    advances a fake clock, so durations are exact."""
    now = [0.0]
    pkg = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")
    outer = types.ModuleType("fakepkg.outer")
    exec("def inner():\n    now[0] += 3\n"
         "def gen():\n    yield 1\n    now[0] += 5\n    yield 2\n    yield 3\n"
         "def _private():\n    now[0] += 2\n", {"now": now, "__name__": "fakepkg.inner"},
         inner.__dict__)
    outer.__dict__.update(inner=inner.inner, gen=inner.gen, _private=inner._private, now=now)
    exec("def outer():\n    now[0] += 1\n    inner()\n    _private()\n    now[0] += 4\n"
         "    return sum(gen())\n", outer.__dict__)
    mods = {"fakepkg": pkg, "fakepkg.inner": inner, "fakepkg.outer": outer}
    saved = {k: sys.modules.get(k) for k in mods}
    sys.modules.update(mods)
    yield outer, now
    for k, v in saved.items():
        if v is None:
            sys.modules.pop(k, None)
        else:
            sys.modules[k] = v


def test_self_time_of_nested_call(fake_package):
    outer, now = fake_package
    rec = spans.Recorder(clock=lambda: now[0])
    rec.install("fakepkg")
    try:
        assert outer.outer() == 6
    finally:
        rec.uninstall()
    top = rec.end_request()
    # outer: 1 + inner 3 + private 2 + 4 + generator body 5 = 15 in total;
    # inner is its child, the private helper and the generator are not
    assert top == 15
    assert rec.self_s["inner"] == 3
    assert rec.self_s["outer"] == 12
    assert rec.calls["outer"] == 1 and rec.calls["inner"] == 1
    assert rec.counts["inner.gen.yielded"] == 3
    assert outer.inner.__name__ == "inner" and not hasattr(outer.inner, "__wrapped__")
    assert rec.fid == [] and rec.stack == [-1]


def test_span_closed_when_call_raises(fake_package):
    outer, now = fake_package
    rec = spans.Recorder(clock=lambda: now[0])

    def boom():
        now[0] += 2
        raise RuntimeError("cap")
    boom.__module__ = "fakepkg.inner"
    sys.modules["fakepkg.inner"].boom = boom
    rec.install("fakepkg")
    try:
        with pytest.raises(RuntimeError):
            sys.modules["fakepkg.inner"].boom()
    finally:
        rec.uninstall()
    assert rec.end_request() == 2 and rec.stack == [-1]


# -- output check ----------------------------------------------------------

C4 = "Cr"           # the 4-cycle: three {1,2}-factors, perrank 4
C4_EXPECTED = {C4: {"n": 4, "m": 4, "t": 3, "perrank": 4, "max_rank": 4, "permanent": 4,
                    "flows_k": 6, "analyze_flow": "found"}}


def _report(command, theorem=None, g6=C4):
    cfg = harness.RunConfig(command=command, theorem=theorem)
    return harness.run([parse_graph6(g6)], cfg)[0]


def _tamper(report, edit):
    lines = report.splitlines()
    rec = json.loads(lines[1])
    edit(rec)
    lines[1] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    return "\n".join(lines) + "\n"


def test_check_accepts_real_reports():
    for command, theorem in (("analyze", None), ("factors", None), ("signfind", None),
                             ("weightfind", None), ("perrank", None)) + tuple(
                                 ("verify", t) for t in harness.THEOREM_TAGS):
        report = _report(command, theorem)
        assert check.check_report(report, C4, command, theorem, C4_EXPECTED) is None, command


def test_check_rejects_tampered_weight_witness():
    report = _report("weightfind")
    n, edges = check.decode_graph6(C4)

    def double_first(rec):
        rec["weight"]["witness"][0] *= 2
    bad = _tamper(report, double_first)
    witness = json.loads(bad.splitlines()[1])["weight"]["witness"]
    assert check.det(n, edges, witness) != 0
    assert check.check_report(bad, C4, "weightfind", None, C4_EXPECTED) is not None


def test_check_rejects_tampered_sign_and_flow():
    def zero_sign(rec):
        rec["sign"]["witness"][0] = 0
    bad = _tamper(_report("signfind"), zero_sign)
    assert check.check_report(bad, C4, "signfind", None, C4_EXPECTED) is not None

    def bump_flow(rec):
        rec["flow"]["values"][0] += 1
    bad = _tamper(_report("analyze"), bump_flow)
    assert check.check_report(bad, C4, "analyze", None, C4_EXPECTED) == "flow rejected"


def test_check_rejects_wrong_t():
    def bump_t(rec):
        rec["t"] += 1
    bad = _tamper(_report("factors"), bump_t)
    assert check.check_report(bad, C4, "factors", None, C4_EXPECTED) == "t differs"

    def drop_factor(rec):
        rec["factors"].pop()
        rec["t"] -= 1
    bad = _tamper(_report("factors"), drop_factor)
    assert check.check_report(bad, C4, "factors", None, C4_EXPECTED) is not None


def test_check_counts_skip_as_unanswered_not_wrong():
    def skip(rec):
        for key in ("t", "factors"):
            rec.pop(key)
        rec.update(status="skip", reason="cap")
    bad = _tamper(_report("factors"), skip)
    assert check.check_report(bad, C4, "factors", None, C4_EXPECTED) is None
    assert check.unanswered_reason(check.parse(bad)[1]) == "cap"


def test_own_linear_algebra():
    n, edges = check.decode_graph6(C4)
    assert edges == [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert check.det(n, edges, [1, 1, 1, 1]) == 0
    assert check.rank(n, edges, [1, 1, 1, 1]) == 2
    assert check.det(n, edges, [1, 1, 1, -1]) == 4


# -- seeding ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.BY_NAME))
def test_seed_fixes_inputs(name):
    first = workloads.build(name, 11, ROOT)
    again = workloads.build(name, 11, ROOT)
    other = workloads.build(name, 12, ROOT)
    assert first.deck == again.deck
    assert first.deck != other.deck
    cfg = workloads.make_config(harness, first.deck[0], 11)
    assert cfg.seed == 11 and cfg.jobs == 1


def test_rare_class_keeps_a_slot():
    assert workloads.class_bins({"answered": 95, "cap": 1}, 12) == {"answered": 11, "cap": 1}
    assert workloads.class_bins({"a": 512, "b": 507, "c": 25}, 42) == {"a": 21, "b": 20, "c": 1}


# -- host-speed correction -------------------------------------------------


def test_host_clock_scales_each_request_by_the_median_of_nearby_probes(monkeypatch):
    import run
    monkeypatch.setattr(run, "PROBE_WINDOW", 1)
    now = [0.0]
    probes = iter([0.002, 0.004, 0.001])
    host = run.HostClock(clock=lambda: now[0], measure=lambda: next(probes))
    first, second = [], []
    host.before_request()                  # too soon: no probe
    host.record(first, 0.010)
    now[0] = 1.0
    host.before_request()                  # probe 0.004
    host.record(second, 0.040)
    assert first == [0.010] and second == [0.040]
    host.finish()                          # probe 0.001, then scale
    ref = run.PROBE_REF_S
    assert first == [pytest.approx(0.010 * ref / 0.003)]      # median of 0.002, 0.004
    assert second == [pytest.approx(0.040 * ref / 0.0025)]    # median of 0.004, 0.001
    assert host.probes == [0.002, 0.004, 0.001]
