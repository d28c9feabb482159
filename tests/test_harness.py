import importlib.util
import inspect
import json
import subprocess
import sys

import pytest

from signrank.assignments import EdgeAssignment
from signrank.errors import GraphParseError
from signrank.exact_linalg import adjacency_matrix, det
from signrank.graph_core import Graph, encode_graph6, parse_graph6
from signrank import cli, harness, zero_sum_flow
from signrank.harness import (
    Caps,
    RunConfig,
    exit_code,
    graph_seed,
    load_corpus,
    parse_caps,
    pool_size,
    run,
)
from signrank.weight_search import WeightSearchOutcome, verify_weight
from signrank.zero_sum_flow import verify_flow

from conftest import DATA, chain_of_4_cycles, complete, cycle, path

C4_G6 = encode_graph6(cycle(4))
P3_G6 = encode_graph6(path(3))
K3_G6 = encode_graph6(complete(3))
CORPUS = f"{C4_G6}\n{P3_G6}\n{K3_G6}\n"


def run_cli(args, stdin=""):
    return subprocess.run(
        [sys.executable, "-m", "signrank.cli"] + args,
        input=stdin, capture_output=True, text=True)


def _load_report_digests():
    path = DATA.parent.parent / "scripts" / "report_digests.py"
    spec = importlib.util.spec_from_file_location("report_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


report_digests = _load_report_digests()
DIGESTS = json.loads(report_digests.DIGEST_FILE.read_text())


def parse_report(text):
    lines = text.strip().splitlines()
    header = json.loads(lines[0])
    records = [json.loads(l) for l in lines[1:-1]]
    summary = json.loads(lines[-1])["summary"]
    return header, records, summary


class TestLoadCorpus:
    def test_graph6_lines(self):
        graphs = load_corpus(CORPUS, "graph6")
        assert [g.n for g in graphs] == [4, 3, 3]

    def test_edgelist_single_graph(self):
        graphs = load_corpus("3\n0 1\n1 2\n", "edgelist")
        assert len(graphs) == 1 and graphs[0].m == 2

    def test_bad_line_reported(self):
        with pytest.raises(GraphParseError, match="line 2"):
            load_corpus(f"{C4_G6}\nC\x05\n", "graph6")


class TestAnalyze:
    def test_c4_record(self):
        report, summary = run([cycle(4)], RunConfig(command="analyze"))
        _, records, _ = parse_report(report)
        rec = records[0]
        assert rec["t"] == 3
        assert rec["perrank"] == 4 and rec["full_perrank"]
        assert rec["sign"]["witness"] is not None
        assert rec["weight"]["witness"] is not None
        assert rec["weight"]["route"] == "flow"
        assert rec["flow"]["values"] is not None

    def test_p3_record(self):
        report, _ = run([path(3)], RunConfig(command="analyze"))
        _, records, _ = parse_report(report)
        rec = records[0]
        assert rec["t"] == 0
        assert rec["perrank"] == 2
        assert rec["sign"]["certified_none"] and rec["sign"]["basis"] == "no_factor"
        assert rec["weight"]["identically_singular"]

    def test_k3_record(self):
        report, _ = run([complete(3)], RunConfig(command="analyze"))
        _, records, _ = parse_report(report)
        rec = records[0]
        assert rec["t"] == 1
        assert rec["weight"]["certificate_impossible"]

    def test_skip_above_factor_cap(self):
        report, summary = run(
            [complete(4)], RunConfig(command="analyze", caps=Caps(factor_n=3)))
        _, records, _ = parse_report(report)
        assert records[0]["status"] == "skip"
        assert summary["skip"] == 1

    def test_flow_bases(self):
        report, _ = run([cycle(4), complete(3)], RunConfig(command="analyze"))
        _, (c4, k3), _ = parse_report(report)
        assert c4["flow"]["basis"] is None and c4["flow"]["values"] is not None
        assert k3["flow"]["basis"] == "no_flow_exists" and k3["flow"]["values"] is None
        assert set(k3["flow"]["obstruction"]) == {"edge", "y", "d"}

    def test_flow_cap_marks_only_the_flow_block(self):
        # a node budget of 0 stops the bounded search on C4, which has a flow;
        # the record keeps every other answer and the run is not sunk
        report, summary = run(
            [cycle(4), complete(3)], RunConfig(command="analyze", caps=Caps(flow_nodes=0)))
        _, (c4, k3), _ = parse_report(report)
        assert summary["skip"] == 0 and c4["status"] == "ok"
        assert c4["flow"]["values"] is None and c4["flow"]["basis"] is None
        assert "node budget" in c4["flow"]["skipped"]
        assert c4["weight"]["witness"] is not None
        # absence is decided before any search, so the cap cannot hide it
        assert k3["flow"]["basis"] == "no_flow_exists"

    def test_skipped_block_counts_as_partial(self):
        # the record stays ok, but the summary and the exit code show that
        # one of its answers is missing
        report, summary = run(
            [cycle(4), complete(3)], RunConfig(command="analyze", caps=Caps(flow_nodes=0)))
        assert summary == {"records": 2, "pass": 0, "fail": 0, "skip": 0, "partial": 1}
        assert exit_code(summary) == 3
        assert exit_code(summary, allow_skips=True) == 0


class TestInconclusiveWeight:
    """A weight search that ends with neither a witness nor a certificate
    leaves the record ok, but counts it as partial."""

    @pytest.fixture
    def inconclusive(self, monkeypatch):
        monkeypatch.setattr(harness, "find_singular_weight",
                            lambda g, seed=0: WeightSearchOutcome(None, None, None))

    @pytest.mark.parametrize("command", ["weightfind", "analyze"])
    def test_counts_as_partial(self, inconclusive, command):
        report, summary = run([cycle(4)], RunConfig(command=command))
        _, (rec,), _ = parse_report(report)
        assert rec["status"] == "ok"
        assert rec["weight"]["witness"] is None and rec["weight"]["route"] is None
        assert summary == {"records": 1, "pass": 0, "fail": 0, "skip": 0, "partial": 1}
        assert exit_code(summary) == 3
        assert exit_code(summary, allow_skips=True) == 0

    def test_verify_r32_passes_as_partial(self, inconclusive):
        # r32 has no flow route witness to check: the record passes, and the
        # summary shows the missing answer
        report, summary = run([cycle(4)], RunConfig(command="verify", theorem="r32"))
        _, (rec,), _ = parse_report(report)
        assert rec["status"] == "pass" and rec["check"]["applicable"] is False
        assert rec["check"]["weight"]["witness"] is None
        assert summary == {"records": 1, "pass": 1, "fail": 0, "skip": 0, "partial": 1}
        assert exit_code(summary) == 3
        assert exit_code(summary, allow_skips=True) == 0

    def test_verify_t31_fails(self, inconclusive):
        # C4 has two factors, so t31 needs a witness: the record fails
        report, summary = run([cycle(4)], RunConfig(command="verify", theorem="t31"))
        _, (rec,), _ = parse_report(report)
        assert rec["status"] == "fail" and rec["check"]["weight"]["witness"] is None
        assert summary == {"records": 1, "pass": 0, "fail": 1, "skip": 0, "partial": 0}
        assert exit_code(summary, allow_skips=True) == 1

    @pytest.mark.parametrize("theorem, code", [("r32", 3), ("t31", 1)])
    def test_cli_verify_exit_code(self, inconclusive, tmp_path, capsys, theorem, code):
        corpus = tmp_path / "c4.g6"
        corpus.write_text(C4_G6 + "\n")
        assert cli.main(["verify", theorem, str(corpus)]) == code

    def test_cli_exit_code(self, inconclusive, tmp_path, capsys):
        corpus = tmp_path / "c4.g6"
        corpus.write_text(C4_G6 + "\n")
        assert cli.main(["weightfind", str(corpus)]) == 3
        _, _, summary = parse_report(capsys.readouterr().out)
        assert summary["partial"] == 1
        assert cli.main(["weightfind", str(corpus), "--allow-skips"]) == 0

    def test_complete_answers_are_not_partial(self):
        # t = 1 gets a certificate instead of a witness; an edgeless graph's
        # vacuous witness is written as null
        report, summary = run([complete(3), Graph(2, ())], RunConfig(command="weightfind"))
        _, (k3, edgeless), _ = parse_report(report)
        assert k3["weight"]["certificate_impossible"] is not None
        assert edgeless["weight"]["witness"] is None
        assert edgeless["weight"]["identically_singular"]
        assert summary["partial"] == 0


class TestFactorTableRelease:
    @pytest.mark.parametrize("command, theorem", [
        ("analyze", None), ("factors", None), ("verify", "t21"), ("verify", "r11")])
    def test_run_leaves_no_factor_table(self, command, theorem):
        # run() holds all its input graphs until it returns; each factor
        # table goes with its record
        graphs = [complete(5), cycle(6), path(4), complete(6)]
        run(graphs, RunConfig(command=command, theorem=theorem, timings=True))
        assert all("_factor_table" not in vars(g) for g in graphs)


class TestRecordEnvelope:
    BASE = {"record", "id", "g6", "n", "m", "status"}

    @pytest.mark.parametrize("command, theorem", [
        *[(c, None) for c in ("analyze", "minrank", "factors", "perrank",
                              "signfind", "weightfind", "zsf")],
        *[("verify", tag) for tag in harness.THEOREM_TAGS]])
    @pytest.mark.parametrize("caps", [Caps(), Caps(factor_n=3)])
    def test_one_envelope(self, command, theorem, caps):
        def record(timings):
            cfg = RunConfig(command=command, theorem=theorem, timings=timings, caps=caps)
            _, (rec,), _ = parse_report(run([cycle(4)], cfg)[0])
            return rec

        timed, plain = record(True), record(False)
        assert isinstance(timed.pop("ms"), float) and timed == plain
        assert self.BASE <= plain.keys()
        assert ("reason" in plain) == (plain["status"] == "skip")
        if plain["status"] == "skip":
            assert plain.keys() == self.BASE | {"reason"}


class TestFlowEliminations:
    def test_one_elimination_per_graph(self, monkeypatch):
        # analyze and verify flows ask for the flow answer at several gates
        # (the weight search, the flow block, the flows check); a graph with
        # a flow and a connected flow-free graph with t >= 2 (K4 minus an
        # edge) are each eliminated once
        eliminated = []
        original = zero_sum_flow._eliminate

        def counting(g):
            eliminated.append(g)
            return original(g)

        monkeypatch.setattr(zero_sum_flow, "_eliminate", counting)
        graphs = [cycle(4), Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3)))]
        run(graphs, RunConfig(command="analyze"))
        run(graphs, RunConfig(command="verify", theorem="flows"))
        assert any(g is graphs[1] for g in eliminated)
        assert len({id(g) for g in eliminated}) == len(eliminated)


class TestSkipRecords:
    @pytest.mark.parametrize(
        "command, theorem", [("analyze", None), ("verify", "t31"), ("factors", None),
                             ("signfind", None), ("weightfind", None)])
    def test_factor_cap_skip_keeps_timing(self, command, theorem):
        cfg = RunConfig(command=command, theorem=theorem, timings=True,
                        caps=Caps(factor_n=3))
        report, summary = run([complete(4)], cfg)
        _, (rec,), _ = parse_report(report)
        assert rec["status"] == "skip" and "factor cap 3" in rec["reason"]
        assert "ms" in rec and summary["skip"] == 1

    @pytest.mark.parametrize("command, theorem, method, caps", [
        ("verify", "t21", "randomized", Caps(sign_exhaustive_m=2)),
        ("minrank", None, "randomized", Caps(minrank_m=2)),
        ("signfind", None, "exhaustive", Caps(sign_exhaustive_m=2)),
        ("zsf", None, "randomized", Caps(flow_nodes=0)),
    ])
    def test_cap_hit_skips_the_record(self, command, theorem, method, caps):
        cfg = RunConfig(command=command, theorem=theorem, method=method, caps=caps)
        report, summary = run([cycle(4), path(3)], cfg)
        _, (c4, p3), _ = parse_report(report)
        assert c4["status"] == "skip" and c4["g6"] == C4_G6 and c4["reason"]
        assert p3["status"] != "skip" and summary["skip"] == 1


class TestZsfCommand:
    def test_long_chain_of_4_cycles(self):
        # 300 4-cycles in a chain, each sharing a vertex with the next: 300
        # free edges, so a search recursing once per free edge would overrun
        # a recursion limit 100 frames above the current depth
        g = chain_of_4_cycles(300)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            report, summary = run([g], RunConfig(command="zsf"))
        finally:
            sys.setrecursionlimit(limit)
        _, (rec,), _ = parse_report(report)
        assert summary["skip"] == 0 and rec["status"] == "ok"
        assert verify_flow(g, EdgeAssignment(tuple(rec["values"]), "flow"))


class TestVerifyCommand:
    @pytest.mark.parametrize("theorem", ["t21", "c22", "t31", "r11", "r32", "flows"])
    def test_small_corpus_passes(self, theorem):
        graphs = load_corpus(CORPUS, "graph6")
        report, summary = run(graphs, RunConfig(command="verify", theorem=theorem))
        assert summary == {"records": 3, "pass": 3, "fail": 0, "skip": 0, "partial": 0}

    def test_unknown_theorem(self):
        with pytest.raises(ValueError):
            run([cycle(4)], RunConfig(command="verify", theorem="t99"))

    @pytest.mark.parametrize("bound", [1, -3])
    def test_bound_below_two(self, bound):
        with pytest.raises(ValueError, match="bound"):
            run([cycle(4)], RunConfig(command="zsf", bound=bound))

    @pytest.mark.parametrize("theorem", ["t21", "r11"])
    def test_full_n5_corpus_all_pass(self, theorem, corpus_le5):
        report, summary = run(
            list(corpus_le5), RunConfig(command="verify", theorem=theorem, bound=2))
        assert summary["fail"] == 0 and summary["skip"] == 0
        assert summary["pass"] == len(corpus_le5)


class TestDeterminism:
    def test_byte_identical_reports(self):
        graphs = load_corpus(CORPUS, "graph6")
        cfg = RunConfig(command="analyze", seed=7)
        a, _ = run(graphs, cfg)
        b, _ = run(graphs, cfg)
        assert a == b

    def test_pool_size_clamped(self, monkeypatch):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        assert pool_size(10**9, 10**9) == 2
        assert pool_size(8, 1) == 1
        assert pool_size(1, 500) == 1
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        assert pool_size(4, 4) == 1

    def test_jobs_do_not_change_bytes(self):
        graphs = load_corpus(CORPUS, "graph6")
        a, _ = run(graphs, RunConfig(command="analyze", seed=7, jobs=1))
        b, _ = run(graphs, RunConfig(command="analyze", seed=7, jobs=2))
        assert a == b

    def test_graph_seed_stable(self):
        assert graph_seed(0, 0) == graph_seed(0, 0)
        assert graph_seed(0, 0) != graph_seed(0, 1)
        assert graph_seed(0, 1) != graph_seed(1, 1)

    def test_records_in_input_order(self):
        graphs = load_corpus(CORPUS, "graph6")
        report, _ = run(graphs, RunConfig(command="perrank"))
        _, records, _ = parse_report(report)
        assert [r["record"] for r in records] == [0, 1, 2]
        assert [r["g6"] for r in records] == [C4_G6, P3_G6, K3_G6]


class TestReportDigests:
    # analyze on graphs_le7.g6 is checked by TestCli.test_analyze_whole_corpus
    @pytest.mark.parametrize("corpus,variant", [
        case for case in report_digests.cases() if case != ("graphs_le7.g6", "analyze")])
    def test_report_bytes_and_exit_code(self, corpus, variant):
        assert report_digests.entry(corpus, variant) == DIGESTS[corpus][variant]


class TestWitnessesSelfContained:
    def test_reverify_from_report_alone(self):
        graphs = load_corpus(CORPUS, "graph6")
        report, _ = run(graphs, RunConfig(command="analyze"))
        _, records, _ = parse_report(report)
        for rec in records:
            g = parse_graph6(rec["g6"])
            sign = rec["sign"]["witness"]
            if sign is not None:
                assert det(adjacency_matrix(g, tuple(sign))) != 0
            wit = rec["weight"]["witness"]
            if wit is not None:
                assert verify_weight(g, EdgeAssignment(tuple(wit))) == "singular"
            flow = rec["flow"]["values"]
            if flow is not None:
                assert verify_flow(g, EdgeAssignment(tuple(flow), "flow"))
            if rec["flow"]["basis"] == "no_flow_exists":
                # y[u] + y[v] is d on the named edge and 0 elsewhere, so
                # every zero-sum flow vanishes on that edge
                obs = rec["flow"]["obstruction"]
                assert obs["d"] != 0 and len(obs["y"]) == g.n
                for i, (u, v) in enumerate(g.edges):
                    assert obs["y"][u] + obs["y"][v] == (obs["d"] if i == obs["edge"] else 0)


class TestExitCodes:
    def test_mapping(self):
        assert exit_code({"pass": 2, "fail": 0, "skip": 0}) == 0
        assert exit_code({"pass": 1, "fail": 1, "skip": 0}) == 1
        assert exit_code({"pass": 1, "fail": 0, "skip": 1}) == 3
        assert exit_code({"pass": 1, "fail": 0, "skip": 1}, allow_skips=True) == 0
        assert exit_code({"pass": 1, "fail": 1, "skip": 1}) == 1


class TestParseCaps:
    def test_defaults(self):
        assert parse_caps("") == Caps()

    def test_override(self):
        caps = parse_caps("sign_exhaustive_m=24,factor_n=9")
        assert caps.sign_exhaustive_m == 24 and caps.factor_n == 9

    def test_unknown_key(self):
        for text in ("frobnicate=1", "detpoly_n=5"):
            with pytest.raises(ValueError):
                parse_caps(text)

    @pytest.mark.parametrize("text", ["factor_n=-1", "flow_nodes=-5", "minrank_m=x"])
    def test_bad_value(self, text):
        with pytest.raises(ValueError):
            parse_caps(text)


class TestCli:
    def test_analyze_stdin(self):
        res = run_cli(["analyze", "-"], stdin=CORPUS)
        assert res.returncode == 0
        header, records, summary = parse_report(res.stdout)
        assert header["command"] == "analyze"
        assert summary["records"] == 3

    def test_verify_passes(self):
        res = run_cli(["verify", "t21", "-"], stdin=CORPUS)
        assert res.returncode == 0

    def test_parse_error_exit_2(self):
        res = run_cli(["analyze", "-"], stdin="not-a-graph6-\x05line\n")
        assert res.returncode == 2
        assert "parse error" in res.stderr

    def test_missing_file_exit_2(self):
        res = run_cli(["analyze", "/nonexistent/corpus.g6"])
        assert res.returncode == 2

    def test_binary_input_exit_2(self, tmp_path):
        corpus = tmp_path / "corpus.g6"
        corpus.write_bytes(b"Cl\n\xff\xfe\n")
        res = run_cli(["analyze", str(corpus)])
        assert res.returncode == 2
        assert "cannot read input" in res.stderr and "Traceback" not in res.stderr

    def test_negative_cap_exit_2(self):
        res = run_cli(["analyze", "-", "--caps", "factor_n=-1"], stdin=C4_G6 + "\n")
        assert res.returncode == 2 and "factor_n" in res.stderr

    def test_partial_exit_3_and_allow_skips(self):
        res = run_cli(["analyze", "-", "--caps", "flow_nodes=0"], stdin=C4_G6 + "\n")
        assert res.returncode == 3
        _, (rec,), summary = parse_report(res.stdout)
        assert rec["status"] == "ok" and "skipped" in rec["flow"]
        assert summary["partial"] == 1 and summary["skip"] == 0
        res = run_cli(["analyze", "-", "--caps", "flow_nodes=0", "--allow-skips"],
                      stdin=C4_G6 + "\n")
        assert res.returncode == 0

    def test_skip_exit_3_and_allow_skips(self):
        res = run_cli(["analyze", "-", "--caps", "factor_n=3"], stdin=C4_G6 + "\n")
        assert res.returncode == 3
        res = run_cli(["analyze", "-", "--caps", "factor_n=3", "--allow-skips"],
                      stdin=C4_G6 + "\n")
        assert res.returncode == 0

    def test_edgelist_format(self):
        res = run_cli(["perrank", "-", "--format", "edgelist"], stdin="3\n0 1\n1 2\n")
        assert res.returncode == 0
        _, records, _ = parse_report(res.stdout)
        assert records[0]["perrank"] == 2

    def test_subcommands_smoke(self):
        for cmd in ("factors", "perrank", "signfind", "weightfind", "zsf", "minrank"):
            res = run_cli([cmd, "-"], stdin=CORPUS)
            assert res.returncode == 0, (cmd, res.stderr)

    def test_zsf_bound(self):
        res = run_cli(["zsf", "-", "--bound", "2"], stdin=C4_G6 + "\n")
        _, records, _ = parse_report(res.stdout)
        assert records[0]["k"] == 2
        assert records[0]["values"] is not None

    def test_zsf_bases(self):
        # K4 has a flow, but none with values +-1: three of them cannot sum
        # to 0 at a vertex of degree 3
        res = run_cli(["zsf", "-", "--bound", "2"],
                      stdin=f"{encode_graph6(complete(4))}\n{K3_G6}\n")
        assert res.returncode == 0
        _, (k4, k3), _ = parse_report(res.stdout)
        assert k4["values"] is None and k4["basis"] == "exhausted"
        assert "obstruction" not in k4
        assert k3["basis"] == "no_flow_exists" and k3["obstruction"]["d"] != 0

    def test_jobs_below_one_rejected(self):
        for jobs in ("0", "-3", "x"):
            res = run_cli(["perrank", "-", "--jobs", jobs], stdin=C4_G6 + "\n")
            assert res.returncode == 2 and "--jobs" in res.stderr

    def test_greedy_method_rejected(self):
        res = run_cli(["signfind", "-", "--method", "greedy"], stdin=C4_G6 + "\n")
        assert res.returncode == 2 and "--method" in res.stderr

    def test_analyze_whole_corpus(self):
        # the shipped corpus at default caps: no record may sink the run
        res = run_cli(["analyze", str(DATA / "graphs_le7.g6")])
        assert res.returncode == 0, res.stderr
        _, records, summary = parse_report(res.stdout)
        assert summary == {"records": 1253, "pass": 0, "fail": 0, "skip": 0, "partial": 0}
        assert len(records) == 1253
        assert report_digests.digest(res.stdout) == DIGESTS["graphs_le7.g6"]["analyze"]["sha256"]

    def test_output_file(self, tmp_path):
        out = tmp_path / "report.jsonl"
        res = run_cli(["analyze", "-", "--output", str(out)], stdin=C4_G6 + "\n")
        assert res.returncode == 0
        assert out.read_text().startswith("{")

    def test_unwritable_output_exit_2(self, tmp_path):
        res = run_cli(["perrank", "-", "--output", str(tmp_path)], stdin=C4_G6 + "\n")
        assert res.returncode == 2
        assert "cannot write output" in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.parametrize("bound", ["1", "-3"])
    def test_bound_below_two_rejected(self, bound):
        res = run_cli(["zsf", "-", "--bound", bound], stdin=C4_G6 + "\n")
        assert res.returncode == 2 and "--bound" in res.stderr

    def test_timings_flag_adds_ms(self):
        res = run_cli(["perrank", "-", "--timings"], stdin=C4_G6 + "\n")
        _, records, _ = parse_report(res.stdout)
        assert "ms" in records[0]

    def test_byte_identical_across_runs(self):
        a = run_cli(["verify", "t31", "-", "--seed", "3"], stdin=CORPUS)
        b = run_cli(["verify", "t31", "-", "--seed", "3"], stdin=CORPUS)
        assert a.stdout == b.stdout
