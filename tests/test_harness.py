import importlib.util
import inspect
import json
import random
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from signrank.assignments import EdgeAssignment
from signrank.errors import GraphParseError
from signrank.exact_linalg import adjacency_matrix, det
from signrank.graph_core import Graph, encode_graph6, parse_graph6
from signrank import cli, exact_linalg, factors, harness, weight_search, zero_sum_flow
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
from signrank.weight_search import verify_weight
from signrank.zero_sum_flow import verify_flow

from conftest import (
    DATA, SHUFFLED_EDGE_LIST, chain_of_4_cycles, complete, cycle, grid, path, petersen)

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

    def test_flow_cap_bounds_every_flow_search(self):
        # a node budget of 0 stops both flow climbs on C4, which has a flow:
        # the flow block's, and the weight search's, which no other route
        # answers on a graph with a flow; the record keeps its other answers
        # and the run is not sunk
        report, summary = run(
            [cycle(4), complete(3)], RunConfig(command="analyze", caps=Caps(flow_nodes=0)))
        _, (c4, k3), _ = parse_report(report)
        assert summary["skip"] == 0 and c4["status"] == "ok"
        assert c4["flow"]["values"] is None and c4["flow"]["basis"] is None
        assert "node budget" in c4["flow"]["skipped"]
        assert c4["weight"]["witness"] is None and c4["weight"]["route"] is None
        assert c4["sign"]["witness"] is not None
        # absence is decided before any search, so the cap cannot hide it
        assert k3["flow"]["basis"] == "no_flow_exists"
        assert k3["weight"]["certificate_impossible"] is not None

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
    leaves the record ok, but counts it as partial.  A flow_nodes cap of 0
    gives one on C4: its flow climb stops at once, and no other route
    answers a graph with a flow."""

    CAPS = Caps(flow_nodes=0)

    @pytest.mark.parametrize("command", ["weightfind", "analyze"])
    def test_counts_as_partial(self, command):
        report, summary = run([cycle(4)], RunConfig(command=command, caps=self.CAPS))
        _, (rec,), _ = parse_report(report)
        assert rec["status"] == "ok"
        assert rec["weight"]["witness"] is None and rec["weight"]["route"] is None
        assert summary == {"records": 1, "pass": 0, "fail": 0, "skip": 0, "partial": 1}
        assert exit_code(summary) == 3
        assert exit_code(summary, allow_skips=True) == 0

    def test_verify_r32_passes_as_partial(self):
        # r32 has no flow route witness to check: the record passes, and the
        # summary shows the missing answer
        report, summary = run(
            [cycle(4)], RunConfig(command="verify", theorem="r32", caps=self.CAPS))
        _, (rec,), _ = parse_report(report)
        assert rec["status"] == "pass" and rec["check"]["applicable"] is False
        assert rec["check"]["weight"]["witness"] is None
        assert summary == {"records": 1, "pass": 1, "fail": 0, "skip": 0, "partial": 1}
        assert exit_code(summary) == 3
        assert exit_code(summary, allow_skips=True) == 0

    def test_verify_t31_fails(self):
        # C4 has two factors, so t31 needs a witness: the record fails
        report, summary = run(
            [cycle(4)], RunConfig(command="verify", theorem="t31", caps=self.CAPS))
        _, (rec,), _ = parse_report(report)
        assert rec["status"] == "fail" and rec["check"]["weight"]["witness"] is None
        assert summary == {"records": 1, "pass": 0, "fail": 1, "skip": 0, "partial": 0}
        assert exit_code(summary, allow_skips=True) == 1

    @pytest.mark.parametrize("theorem, code", [("r32", 3), ("t31", 1)])
    def test_cli_verify_exit_code(self, tmp_path, capsys, theorem, code):
        corpus = tmp_path / "c4.g6"
        corpus.write_text(C4_G6 + "\n")
        assert cli.main(["verify", theorem, str(corpus), "--caps", "flow_nodes=0"]) == code

    def test_cli_exit_code(self, tmp_path, capsys):
        # --caps flow_nodes bounds the weight search
        corpus = tmp_path / "c4.g6"
        corpus.write_text(C4_G6 + "\n")
        assert cli.main(["weightfind", str(corpus)]) == 0
        capsys.readouterr()
        assert cli.main(["weightfind", str(corpus), "--caps", "flow_nodes=0"]) == 3
        _, _, summary = parse_report(capsys.readouterr().out)
        assert summary["partial"] == 1
        assert cli.main(["weightfind", str(corpus), "--caps", "flow_nodes=0",
                         "--allow-skips"]) == 0

    def test_complete_answers_are_not_partial(self):
        # t = 1 gets a certificate instead of a witness; an edgeless graph's
        # vacuous witness is the empty list
        report, summary = run([complete(3), Graph(2, ())], RunConfig(command="weightfind"))
        _, (k3, edgeless), _ = parse_report(report)
        assert k3["weight"]["certificate_impossible"] is not None
        assert edgeless["weight"]["witness"] == []
        assert edgeless["weight"]["max_abs_weight"] == 0
        assert edgeless["weight"]["identically_singular"]
        assert summary["partial"] == 0

    @pytest.mark.parametrize("command, g6, block", [
        ("signfind", "?", "sign"), ("weightfind", "B?", "weight")])
    def test_empty_witness_is_written(self, tmp_path, capsys, command, g6, block):
        # the empty graph's full-rank sign and an edgeless graph's singular
        # weighting are the empty assignment, written as [], not null
        corpus = tmp_path / "edgeless.g6"
        corpus.write_text(g6 + "\n")
        assert cli.main([command, str(corpus)]) == 0
        _, (rec,), _ = parse_report(capsys.readouterr().out)
        assert rec[block]["witness"] == []


class TestFactorTableRelease:
    @pytest.mark.parametrize("command, theorem", [
        ("analyze", None), ("factors", None), ("verify", "t21"), ("verify", "r11")])
    def test_run_leaves_no_factor_table(self, command, theorem):
        # each record builds its own graph, so run() leaves the caller's
        # graphs as it found them: no factor table, no other cache
        graphs = [complete(5), cycle(6), path(4), complete(6)]
        before = [set(vars(g)) for g in graphs]
        run(graphs, RunConfig(command=command, theorem=theorem, timings=True))
        assert [set(vars(g)) for g in graphs] == before


class TestRunsShareNothing:
    def test_repeated_runs_on_one_graph_list(self):
        # a default run climbs further than flow_nodes=0 allows; a later
        # flow_nodes=0 run on the same graph objects must not see that work
        graphs = [cycle(4), complete(4), petersen(), chain_of_4_cycles(2),
                  Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3)))]
        starved = Caps(flow_nodes=0)
        for command in ("zsf", "weightfind", "analyze"):
            first = run(graphs, RunConfig(command=command, caps=starved))[0]
            run(graphs, RunConfig(command=command))
            assert run(graphs, RunConfig(command=command, caps=starved))[0] == first


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
    # each record builds its own graph; the counting wrappers keep every
    # graph they see, so no id is reused and each distinct graph is one record

    def test_one_elimination_per_graph(self, monkeypatch):
        # analyze and verify flows ask for the flow answer at several gates
        # (the weight search, the flow block, the flows check); a graph with
        # a flow and a connected flow-free graph with t >= 2 (K4 minus an
        # edge) each get at most one coloop search per record, the latter
        # exactly one in each of its two records
        searched = []
        original = zero_sum_flow._first_coloop

        def counting(g):
            searched.append(g)
            return original(g)

        monkeypatch.setattr(zero_sum_flow, "_first_coloop", counting)
        graphs = [cycle(4), Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3)))]
        run(graphs, RunConfig(command="analyze"))
        run(graphs, RunConfig(command="verify", theorem="flows"))
        assert sum(g.edges == graphs[1].edges for g in searched) == 2
        assert len({id(g) for g in searched}) == len(searched)

    @pytest.mark.parametrize("bound", [2, 6])
    def test_one_search_per_graph_and_bound(self, monkeypatch, bound):
        # the weight search climbs to flow_bound and the flow block to
        # --bound: the block reuses the bounds the weight search passed, so
        # every record searches its graph, and never twice at one k
        searched = []
        original = zero_sum_flow._search

        def counting(g, k, budget):
            searched.append((g, k))
            return original(g, k, budget)

        monkeypatch.setattr(zero_sum_flow, "_search", counting)
        graphs = [parse_graph6(encode_graph6(g)) for g in (
            cycle(4), complete(4), complete(5), petersen(), parse_graph6("FF~]o"))]
        run(graphs, RunConfig(command="analyze", bound=bound))
        records = {id(g): g for g, _ in searched}.values()
        assert sorted(g.edges for g in records) == sorted(g.edges for g in graphs)
        assert len({(id(g), k) for g, k in searched}) == len(searched)


class TestOneCheckPerWitness:
    """Each witness is checked once in a run: a sign by the scan's exact
    rank, a weight by the weight search's one determinant (which verify t31
    relies on), and a flow by verify_flow's vertex sums."""

    @staticmethod
    def graphs():
        return [parse_graph6(encode_graph6(g)) for g in (
            cycle(4), path(3), complete(5), petersen(), parse_graph6("FF~]o"))]

    @pytest.fixture
    def eliminations(self, monkeypatch):
        # det and rank both run _eliminate once
        calls = []
        original = exact_linalg._eliminate

        def counting(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(exact_linalg, "_eliminate", counting)
        return calls

    def test_signfind_ranks_each_sign_once(self, eliminations):
        records = parse_report(run(self.graphs(), RunConfig("signfind"))[0])[1]
        attempts = sum(rec["sign"]["attempts"] for rec in records)
        assert attempts > 0 and len(eliminations) == attempts

    def test_t31_runs_the_weight_search_eliminations_only(self, eliminations):
        run(self.graphs(), RunConfig("weightfind"))
        searched = len(eliminations)
        eliminations.clear()
        run(self.graphs(), RunConfig("verify", theorem="t31"))
        assert searched > 0 and len(eliminations) == searched

    def test_flows_builds_no_matrix(self, monkeypatch):
        built = []
        original = exact_linalg.adjacency_matrix

        def counting(g, w):
            built.append(g)
            return original(g, w)

        for name, module in list(sys.modules.items()):
            if name.startswith("signrank") and getattr(module, "adjacency_matrix", None) is original:
                monkeypatch.setattr(module, "adjacency_matrix", counting)
        report, summary = run(self.graphs(), RunConfig("verify", theorem="flows"))
        assert summary["pass"] == 5 and '"applicable":true' in report
        assert built == []


class TestDoubleCoverMatchings:
    @pytest.mark.parametrize("command, theorem", [
        ("analyze", None), ("verify", "t21"), ("verify", "c22"), ("weightfind", None),
        ("verify", "t31")])
    def test_one_matching_per_graph(self, monkeypatch, command, theorem):
        # perrank, full_perrank, the sign search's factor gate and the
        # weight search's t-class all read one double-cover matching per
        # record (every graph is kept, so no id is reused)
        matched = []
        original = factors._double_cover_matching

        def counting(g):
            matched.append(g)
            return original(g)

        monkeypatch.setattr(factors, "_double_cover_matching", counting)
        graphs = [parse_graph6(encode_graph6(g)) for g in (
            cycle(4), path(3), complete(5), petersen(), parse_graph6("FF~]o"))]
        run(graphs, RunConfig(command=command, theorem=theorem))
        assert len({id(g) for g in matched}) == len(matched)
        assert sorted(g.edges for g in matched) == sorted(g.edges for g in graphs)

    def test_one_strong_component_pass_per_graph(self, monkeypatch):
        # with no flow nodes the climb fails and the weight search goes on to
        # the algebraic route: the t-class and the drop step read one
        # factor_edges pass.  Every edge of these graphs lies in a factor,
        # so no step recurses on a subgraph with a pass of its own
        passes = []
        original = factors._strong_components

        def counting(succ):
            passes.append(len(succ))
            return original(succ)

        monkeypatch.setattr(factors, "_strong_components", counting)
        graphs = [petersen(), complete(5), complete(6)]
        run(graphs, RunConfig(command="weightfind", caps=Caps(flow_nodes=0)))
        assert passes == [10, 5, 6]


class TestHeaderLine:
    """The header line is encoded once per config and reused."""

    @staticmethod
    def header(cfg: RunConfig) -> str:
        return run([], cfg)[0].splitlines()[0]

    def test_configs_that_differ_give_their_own_lines(self):
        base = RunConfig(command="verify", theorem="t21")
        variants = [base, replace(base, seed=1), replace(base, theorem="t31"),
                    replace(base, caps=Caps(flow_nodes=0)), replace(base, caps=Caps(factor_n=9))]
        lines = [self.header(cfg) for cfg in variants]
        assert len(set(lines)) == len(variants)
        for cfg, line in zip(variants, lines):
            head = json.loads(line)
            assert (head["seed"], head["theorem"]) == (cfg.seed, cfg.theorem)
            assert head["caps"] == {"sign_exhaustive_m": cfg.caps.sign_exhaustive_m,
                                    "factor_n": cfg.caps.factor_n,
                                    "flow_nodes": cfg.caps.flow_nodes}

    def test_equal_configs_share_a_line(self):
        parsed = RunConfig(command="analyze", seed=3, caps=parse_caps("flow_nodes=2000000"))
        built = RunConfig(command="analyze", seed=3, caps=Caps())
        assert parsed == built and parsed is not built
        assert self.header(parsed) == self.header(built)
        assert json.loads(self.header(parsed))["command"] == "analyze"


class TestSkipRecords:
    @pytest.mark.parametrize(
        "command, theorem", [("analyze", None), ("verify", "t21"), ("verify", "t31"),
                             ("verify", "r11"), ("verify", "r32"), ("factors", None),
                             ("weightfind", None)])
    def test_factor_cap_skip_keeps_timing(self, command, theorem):
        cfg = RunConfig(command=command, theorem=theorem, timings=True,
                        caps=Caps(factor_n=3))
        report, summary = run([complete(4)], cfg)
        _, (rec,), _ = parse_report(report)
        assert rec["status"] == "skip" and "factor cap 3" in rec["reason"]
        assert "ms" in rec and summary["skip"] == 1

    def test_factor_listing_above_the_cap(self, monkeypatch, tmp_path, capsys):
        # t(K11) = 5,238,370 and t(K12) = 60,222,844 (n within factor_n):
        # listing_json checks the count before its walk takes a step, so
        # the records skip at once instead of holding millions of factors
        def no_listing(table, s):
            raise AssertionError("listed factors above the cap")

        monkeypatch.setattr(factors._FactorTable, "choices", no_listing)
        report, summary = run([complete(11), complete(12)], RunConfig(command="factors"))
        _, records, _ = parse_report(report)
        for rec, t in zip(records, (5238370, 60222844)):
            assert rec["status"] == "skip" and "factors" not in rec
            assert rec["reason"] == f"t={t} factors exceed the listing cap {factors.LISTING_CAP}"
        assert summary["skip"] == 2
        corpus = tmp_path / "k11.g6"
        corpus.write_text(encode_graph6(complete(11)) + "\n")
        assert cli.main(["factors", str(corpus)]) == 3

    def test_k11_without_flow_nodes_is_partial(self, monkeypatch):
        # with no flow nodes the weight search goes on to the algebraic
        # route, which reads edge membership off the double-cover matching,
        # not the factor table (t(K11) = 5,238,370).  Every edge of K11 is a
        # K2 of some factor, so no edge leaves a linear root to hunt: the
        # weight block is inconclusive and the record counts as partial
        def no_table(g):
            raise AssertionError("built a factor table")

        monkeypatch.setattr(factors, "_FactorTable", no_table)
        report, summary = run([complete(11)],
                              RunConfig(command="weightfind", caps=Caps(flow_nodes=0)))
        _, (rec,), _ = parse_report(report)
        assert rec["status"] == "ok"
        assert rec["weight"]["witness"] is None and rec["weight"]["route"] is None
        assert rec["weight"]["certificate_impossible"] is None
        assert summary["partial"] == 1 and exit_code(summary) == 3

    @pytest.mark.parametrize("command, theorem", [("weightfind", None), ("verify", "r32")])
    def test_factor_cap_keeps_dense_determinants_off(self, command, theorem, monkeypatch):
        # t = 0 here, so the weight search needs no factor table, but its
        # vacuous witness is re-checked by an exact n x n determinant, whose
        # time grows about as n^3 (n = 3301).  The factor cap answers at once
        def no_det(matrix):
            raise AssertionError("exact determinant above the factor cap")

        monkeypatch.setattr(weight_search, "det", no_det)
        report, summary = run([chain_of_4_cycles(1100)], RunConfig(command=command, theorem=theorem))
        _, (rec,), _ = parse_report(report)
        assert rec["status"] == "skip" and rec["reason"] == "n=3301 exceeds factor cap 12"
        assert summary["skip"] == 1

    def test_recursion_limit_skips_the_record(self, tmp_path, capsys):
        # the factor table recurses about once per vertex of a long cycle:
        # above its depth limit it is refused before it recurses, so the
        # record is a skip, whatever the caller's own stack depth
        g = cycle(1000)
        reason = f"n=1000 exceeds the factor table's depth limit {factors.TABLE_N_LIMIT}"
        report, summary = run([g], RunConfig(command="factors", caps=Caps(factor_n=1000)))
        _, (rec,), _ = parse_report(report)
        assert summary["skip"] == summary["records"] == 1
        assert rec["status"] == "skip" and rec["reason"] == reason
        corpus = tmp_path / "c1000.g6"
        corpus.write_text(encode_graph6(g) + "\n")
        assert cli.main(["factors", str(corpus), "--caps", "factor_n=1000"]) == 3
        _, (rec,), _ = parse_report(capsys.readouterr().out)
        assert rec["status"] == "skip" and rec["reason"] == reason

    def test_r11_on_a_long_cycle_is_quick(self):
        # the permanent's row-by-row program keeps a handful of column sets
        # on a cycle's band, where 2^900 column subsets would never end.
        # It takes about a second; the bound leaves room for a slow machine
        start = time.process_time()
        report, summary = run([cycle(900)], RunConfig(
            command="verify", theorem="r11", caps=Caps(factor_n=1000)))
        assert time.process_time() - start < 20
        _, (rec,), _ = parse_report(report)
        assert summary["pass"] == 1
        assert rec["check"] == {"transversals": 4, "permanent": 4}

    def test_signfind_has_no_factor_cap(self):
        # has_factor is one double-cover matching, so signfind answers far
        # above the factor table's reach (n = 36 > factor_n = 12)
        g = grid(6, 6)
        report, summary = run([g], RunConfig(command="signfind"))
        _, (rec,), _ = parse_report(report)
        assert rec["status"] == "ok" and summary["skip"] == 0
        assert det(adjacency_matrix(g, rec["sign"]["witness"])) != 0

    @pytest.mark.parametrize("theorem", ["c22", "flows"])
    def test_tags_without_factor_table_have_no_factor_cap(self, theorem):
        # c22 needs perrank_fast and the sign scan, flows the coloop search and
        # the flow solver: neither is skipped above factor_n (n = 16 > 12)
        report, summary = run([grid(4, 4)], RunConfig(command="verify", theorem=theorem))
        _, (rec,), _ = parse_report(report)
        assert rec["status"] == "pass" and summary["skip"] == 0

    def test_analyze_sign_cap_skips_the_block(self, no_samples):
        cfg = RunConfig(command="analyze", caps=Caps(sign_exhaustive_m=2))
        report, summary = run([cycle(4)], cfg)
        _, (rec,), _ = parse_report(report)
        assert rec["status"] == "ok" and list(rec["sign"]) == ["skipped"]
        assert "m <= 2" in rec["sign"]["skipped"]
        assert summary["partial"] == 1 and exit_code(summary) == 3

    @pytest.mark.parametrize("command, theorem, caps", [
        ("verify", "t21", Caps(sign_exhaustive_m=2)),
        ("minrank", None, Caps(sign_exhaustive_m=2)),
        ("signfind", None, Caps(sign_exhaustive_m=2)),
        ("zsf", None, Caps(flow_nodes=0)),
        ("verify", "c22", Caps(sign_exhaustive_m=2)),
    ])
    def test_cap_hit_skips_the_record(self, command, theorem, caps, no_samples):
        cfg = RunConfig(command=command, theorem=theorem, caps=caps)
        report, summary = run([cycle(4), path(3)], cfg)
        _, (c4, p3), _ = parse_report(report)
        assert c4["status"] == "skip" and c4["g6"] == C4_G6 and c4["reason"]
        assert p3["status"] != "skip" and summary["skip"] == 1

    def test_samples_answer_above_the_sign_cap(self):
        # K7 has m = 21 > 20: a sample finds its full-rank sign, so only
        # minrank, which scans alone, is skipped
        graphs = [complete(7)]
        for command, theorem in (("verify", "t21"), ("verify", "c22"), ("signfind", None)):
            _, summary = run(graphs, RunConfig(command=command, theorem=theorem))
            assert summary["skip"] == 0 and summary["fail"] == 0, (command, theorem)
        report, summary = run(graphs, RunConfig(command="minrank"))
        _, (rec,), _ = parse_report(report)
        assert summary["skip"] == 1 and "min-rank scan" in rec["reason"]


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
        assert verify_flow(parse_graph6(rec["g6"]), EdgeAssignment(tuple(rec["values"]), "flow"))


class TestVerifyCommand:
    @pytest.mark.parametrize("theorem", ["t21", "c22", "t31", "r11", "r32", "flows"])
    def test_small_corpus_passes(self, theorem):
        graphs = load_corpus(CORPUS, "graph6")
        report, summary = run(graphs, RunConfig(command="verify", theorem=theorem))
        assert summary == {"records": 3, "pass": 3, "fail": 0, "skip": 0, "partial": 0}

    def test_flows_climb_on_order_8(self):
        # two order-8 graphs on which a direct search at k = 12 takes about
        # 2 s and finds values up to 5 and 4: the climb stops at k = 3 and 4
        graphs = [parse_graph6(g6) for g6 in ("GheoZk", "GheLfg")]
        report, summary = run(graphs, RunConfig(command="verify", theorem="flows"))
        _, records, _ = parse_report(report)
        assert summary["pass"] == 2
        assert [max(map(abs, r["check"]["values"])) for r in records] == [2, 3]

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

    def test_factors_listing_splice(self):
        # a factors record's listing comes as text and goes first in its
        # line: the same bytes in one process and in a pool, and with
        # timings still a JSON object whose keys come out sorted
        graphs = list(load_corpus((DATA / "graphs_le7.g6").read_text(), "graph6")[800:900])
        graphs.append(complete(8))      # t = 6,202
        a, _ = run(graphs, RunConfig(command="factors", jobs=1))
        b, _ = run(graphs, RunConfig(command="factors", jobs=2))
        assert a == b
        timed, _ = run(graphs, RunConfig(command="factors", timings=True))
        records = timed.splitlines()[1:-1]
        assert len(records) == len(graphs)
        for line in records:
            rec = json.loads(line)
            assert list(rec) == sorted(rec) and "ms" in rec
            assert line.startswith('{"factors":[') and len(rec["factors"]) == rec["t"]
        assert rec["t"] == 6202

    def test_jobs_do_not_change_bytes_at_the_depth_limit(self):
        # a pool worker calls a record deeper than one process does; the
        # skip depends on the graph alone, not on how deep the stack is
        graphs = [cycle(898), cycle(951), cycle(987)]
        caps = Caps(factor_n=1000)
        a, _ = run(graphs, RunConfig(command="factors", caps=caps, jobs=1))
        b, _ = run(graphs, RunConfig(command="factors", caps=caps, jobs=2))
        assert a == b
        assert [rec["status"] for rec in parse_report(a)[1]] == ["ok", "skip", "skip"]

    def test_edge_order_does_not_change_bytes(self):
        # a graph given in any edge order is the graph of its g6, run in one
        # process or in a pool that re-parses it
        rng = random.Random(5)
        graphs = [complete(5), grid(2, 3), petersen(), chain_of_4_cycles(3),
                  load_corpus(SHUFFLED_EDGE_LIST, "edgelist")[0]]
        shuffled = [Graph(g.n, tuple(rng.sample(g.edges, g.m))) for g in graphs]
        sorted_ = [parse_graph6(encode_graph6(g)) for g in graphs]
        assert shuffled == sorted_
        expected = run(sorted_, RunConfig(command="analyze", seed=3))[0]
        for jobs in (1, 2):
            assert run(shuffled, RunConfig(command="analyze", seed=3, jobs=jobs))[0] == expected

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


class TestFootprint:
    def test_harness_does_not_load_hashlib(self):
        # record ids and graph seeds use the interpreter's own SHA-256;
        # hashlib would load OpenSSL, several MB resident, for them
        res = subprocess.run(
            [sys.executable, "-c",
             "import sys, signrank.cli; print('hashlib' in sys.modules)"],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"


class TestReportDigests:
    # analyze on graphs_le7.g6 is checked by TestCli.test_analyze_whole_corpus
    @pytest.mark.parametrize("corpus,variant", [
        case for case in report_digests.cases() if case != ("graphs_le7.g6", "analyze")])
    def test_report_bytes_and_exit_code(self, corpus, variant):
        assert report_digests.entry(corpus, variant) == DIGESTS[corpus][variant]

    def test_check_flag_on_one_case(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(report_digests, "cases", lambda: [("bipartite_2ec_n8.g6", "perrank")])
        assert report_digests.main(["--check"]) == 0
        # against a file with that digest changed: the pair is named, the
        # exit code is 1 and the file is left as it was
        table = json.loads(json.dumps(DIGESTS))
        table["bipartite_2ec_n8.g6"]["perrank"]["sha256"] = "0" * 64
        tampered = tmp_path / "digests.json"
        tampered.write_text(json.dumps(table))
        monkeypatch.setattr(report_digests, "DIGEST_FILE", tampered)
        assert report_digests.main(["--check"]) == 1
        assert "differs: bipartite_2ec_n8.g6 perrank" in capsys.readouterr().out
        assert json.loads(tampered.read_text()) == table


class TestWitnessesSelfContained:
    @staticmethod
    def reverify(records):
        # the blocks of an analyze record, or the check block of a verify
        # t21, t31 or flows record
        for rec in records:
            g = parse_graph6(rec["g6"])
            blocks = rec.get("check", rec)
            sign = blocks.get("sign", {}).get("witness")
            if sign is not None:
                assert det(adjacency_matrix(g, tuple(sign))) != 0
            wit = blocks.get("weight", {}).get("witness")
            if wit is not None:
                assert verify_weight(g, EdgeAssignment(tuple(wit))) == "singular"
            flow = blocks.get("flow", blocks).get("values")
            if flow is not None:
                assert verify_flow(g, EdgeAssignment(tuple(flow), "flow"))
                assert all(sum(row) == 0 for row in adjacency_matrix(g, tuple(flow)))
            if blocks.get("flow", {}).get("basis") == "no_flow_exists":
                # y[u] + y[v] is d on the named edge and 0 elsewhere, so
                # every zero-sum flow vanishes on that edge
                obs = blocks["flow"]["obstruction"]
                assert obs["d"] != 0 and len(obs["y"]) == g.n
                for i, (u, v) in enumerate(g.edges):
                    assert obs["y"][u] + obs["y"][v] == (obs["d"] if i == obs["edge"] else 0)

    def test_reverify_from_report_alone(self):
        # graphs built in code, as given or shuffled, are the graphs of their
        # g6, so a witness found on them indexes the record's edges
        rng = random.Random(7)
        built = [cycle(6), grid(2, 3), petersen(), chain_of_4_cycles(3)]
        built += [Graph(g.n, tuple(rng.sample(g.edges, g.m))) for g in built]
        graphs = load_corpus(CORPUS, "graph6") + built
        report, _ = run(graphs, RunConfig(command="analyze"))
        records = parse_report(report)[1]
        assert [parse_graph6(rec["g6"]) for rec in records] == graphs
        self.reverify(records)

    @pytest.mark.parametrize("theorem, witness", [
        ("t21", lambda check: check["sign"]["witness"]),
        ("t31", lambda check: check["weight"]["witness"]),
        ("flows", lambda check: check.get("values")),
    ], ids=["t21", "t31", "flows"])
    def test_verify_records_reverify_on_le7(self, corpus_le7, theorem, witness):
        # each check keeps its witness's proof on this side alone
        report, summary = run(corpus_le7, RunConfig("verify", theorem=theorem))
        records = parse_report(report)[1]
        assert summary["pass"] == len(records) == len(corpus_le7)
        assert sum(witness(rec["check"]) is not None for rec in records) > len(records) // 4
        self.reverify(records)

    def test_edge_list_out_of_graph6_order(self):
        # witnesses index the edges of the record's g6, not the file's order
        res = run_cli(["analyze", "-", "--format", "edgelist"], stdin=SHUFFLED_EDGE_LIST)
        assert res.returncode == 0, res.stderr
        _, (rec,), _ = parse_report(res.stdout)
        assert rec["weight"]["witness"] is not None and rec["sign"]["witness"] is not None
        self.reverify([rec])


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
        for text in ("frobnicate=1", "detpoly_n=5", "minrank_m=5"):
            with pytest.raises(ValueError):
                parse_caps(text)

    @pytest.mark.parametrize("text", ["factor_n=-1", "flow_nodes=-5", "sign_exhaustive_m=x"])
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
        # there is one sign schedule, so --method is no flag at all
        for method in ("greedy", "randomized", "exhaustive"):
            res = run_cli(["signfind", "-", "--method", method], stdin=C4_G6 + "\n")
            assert res.returncode == 2 and "unrecognized arguments: --method" in res.stderr

    def test_analyze_whole_corpus(self):
        # the shipped corpus at default caps: no record may sink the run
        res = run_cli(["analyze", str(DATA / "graphs_le7.g6")])
        assert res.returncode == 0, res.stderr
        _, records, summary = parse_report(res.stdout)
        assert summary == {"records": 1253, "pass": 0, "fail": 0, "skip": 0, "partial": 0}
        assert len(records) == 1253
        assert report_digests.digest(res.stdout) == DIGESTS["graphs_le7.g6"]["analyze"]["sha256"]

    def test_analyze_weight_past_a_spent_flow_climb(self):
        # at flow_nodes=80 the weight search's climb runs out on FF~]o
        # (t = 35) before it finds a flow; the algebraic route answers, so
        # the record is whole and the exit code 0
        res = run_cli(["analyze", "-", "--caps", "flow_nodes=80"], stdin="FF~]o\n")
        assert res.returncode == 0, res.stderr
        _, (rec,), summary = parse_report(res.stdout)
        assert rec["status"] == "ok" and rec["weight"]["route"] == "algebraic"
        witness = EdgeAssignment(tuple(rec["weight"]["witness"]), "weight")
        assert verify_weight(parse_graph6("FF~]o"), witness) == "singular"
        assert summary["partial"] == 0

    def test_output_file(self, tmp_path):
        out = tmp_path / "report.jsonl"
        res = run_cli(["analyze", "-", "--output", str(out)], stdin=C4_G6 + "\n")
        assert res.returncode == 0
        assert out.read_text().startswith("{")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_streamed_output_equals_run(self, tmp_path, capsys, jobs):
        # the CLI writes each line as it comes; the bytes are run()'s
        graphs = [complete(4), cycle(5), path(4), petersen(), grid(2, 3), complete(3),
                  cycle(6), chain_of_4_cycles(2), path(2), cycle(4)]
        corpus = tmp_path / "corpus.g6"
        corpus.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
        expected, _ = run(load_corpus(corpus.read_text(), "graph6"),
                          RunConfig(command="analyze", seed=4))
        assert cli.main(["analyze", str(corpus), "--seed", "4", "--jobs", jobs]) == 0
        assert capsys.readouterr().out == expected
        out = tmp_path / "report.jsonl"
        assert cli.main(["analyze", str(corpus), "--seed", "4", "--jobs", jobs,
                         "--output", str(out)]) == 0
        assert out.read_text() == expected

    def test_interrupted_run_keeps_finished_records(self, tmp_path, monkeypatch):
        corpus = tmp_path / "corpus.g6"
        corpus.write_text(CORPUS + encode_graph6(complete(5)) + "\n")
        full, _ = run(load_corpus(corpus.read_text(), "graph6"), RunConfig(command="perrank"))
        perrank = harness._COMMANDS["perrank"]
        calls = []

        def third_raises(g, seed, cfg):
            calls.append(g)
            if len(calls) == 3:
                raise RuntimeError("interrupted")
            return perrank(g, seed, cfg)

        monkeypatch.setitem(harness._COMMANDS, "perrank", third_raises)
        out = tmp_path / "report.jsonl"
        with pytest.raises(RuntimeError, match="interrupted"):
            cli.main(["perrank", str(corpus), "--output", str(out)])
        text = out.read_text()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines == full.splitlines()[:3]
        assert [json.loads(line).get("record") for line in lines] == [None, 0, 1]

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
