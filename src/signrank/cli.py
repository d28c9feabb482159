"""Command-line front end.

Subcommands: analyze, verify, minrank, factors, perrank, signfind,
weightfind, zsf.  Input is a file path or "-" for standard input, holding
one graph per line (graph6, the default) or a single edge-list graph
(--format edgelist).  Exit codes: 0 ok, 1 verification failure, 2 usage,
read, parse or write error, 3 resource cap hit or answer missing (skipped
records, or records with a skipped block or an inconclusive weight search),
unless --allow-skips.
"""

from __future__ import annotations

import argparse
import sys

from .errors import GraphParseError, SignRankError
from .harness import THEOREM_TAGS, RunConfig, exit_code, load_corpus, parse_caps, run

_THEOREM_HELP = (
    "t21: full-rank signing exists iff full perrank; "
    "c22: max rank over signs equals perrank; "
    "t31: singular weighting exists iff at least two factors; "
    "r11: factor-orientation count equals adjacency permanent; "
    "r32: flow-route weights within the 5/11 bound; "
    "flows: bounded zero-sum flow solver succeeds where existence is known"
)


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", nargs="?", default="-",
                   help="input file, or - for stdin (default)")
    p.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--bound", type=_int_at_least(2), default=6,
                   help="flow bound k >= 2 for zsf/analyze")
    p.add_argument("--method", choices=("randomized", "exhaustive"),
                   default="randomized", help="sign search method")
    p.add_argument("--jobs", type=_int_at_least(1), default=1,
                   help="worker processes (at most one per graph and per CPU)")
    p.add_argument("--caps", default="",
                   help="override caps, e.g. sign_exhaustive_m=24,factor_n=10")
    p.add_argument("--output", default=None, help="write the report to a file")
    p.add_argument("--timings", action="store_true",
                   help="include per-record timings (breaks byte reproducibility)")
    p.add_argument("--allow-skips", action="store_true",
                   help="exit 0 even when records were skipped or partial")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signrank",
        description="Exact full-rank signings and singular weightings of graphs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("analyze", "full per-graph record: factors, perrank, sign and weight witnesses"),
        ("verify", "run one equivalence check over a corpus"),
        ("minrank", "exhaustive minimum rank over all signs"),
        ("factors", "list all {1,2}-factors"),
        ("perrank", "largest vertex set coverable by disjoint edges and cycles"),
        ("signfind", "find a sign making the adjacency matrix full rank"),
        ("weightfind", "find a nowhere-zero weighting making the matrix singular"),
        ("zsf", "find a bounded zero-sum flow"),
    ):
        p = sub.add_parser(name, help=desc)
        if name == "verify":
            p.add_argument("theorem", choices=THEOREM_TAGS, help=_THEOREM_HELP)
        _add_common(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        caps = parse_caps(args.caps)
    except ValueError as exc:
        parser.error(str(exc))
    cfg = RunConfig(
        command=args.command,
        theorem=getattr(args, "theorem", None),
        seed=args.seed,
        bound=args.bound,
        method=args.method,
        jobs=args.jobs,
        timings=args.timings,
        caps=caps,
    )
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"signrank: cannot read input: {exc}", file=sys.stderr)
        return 2
    try:
        graphs = load_corpus(text, args.format)
        report, summary = run(graphs, cfg)
    except GraphParseError as exc:
        print(f"signrank: parse error: {exc}", file=sys.stderr)
        return 2
    except SignRankError as exc:
        print(f"signrank: {exc}", file=sys.stderr)
        return 3
    try:
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(report)
        else:
            sys.stdout.write(report)
    except OSError as exc:
        print(f"signrank: cannot write output: {exc}", file=sys.stderr)
        return 2
    return exit_code(summary, allow_skips=args.allow_skips)


if __name__ == "__main__":
    sys.exit(main())
