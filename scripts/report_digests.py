#!/usr/bin/env python3
"""Write or check tests/data/report_digests.json: one digest per report of
the committed corpora, checked by the Tier-1 suite.

Every command, and `verify` with every theorem tag, runs over both corpora
under tests/data/ at the CLI defaults (seed 0, bound 6, default caps, one
process).  Each entry holds the sha256 of the report's
lines after the header, and the CLI's exit code.  The header is left out
because it carries the version and the caps, which change for reasons that
do not touch the answers.

A change that alters report bytes on purpose regenerates the file and says
so:

    python3 scripts/report_digests.py

A change that must leave report bytes alone (a speed-up, say) shows it
without touching the file:

    python3 scripts/report_digests.py --check

`--check` recomputes every digest, writes nothing, prints each
(corpus, variant) pair whose digest or exit code differs from the file, and
exits 1 if any does, 0 otherwise.

`--jobs N` runs every report through a pool of N worker processes (the
CLI's `--jobs`), so that

    python3 scripts/report_digests.py --check --jobs 2

checks the pool path's bytes, over both corpora for every variant, against
the digests pinned from one process.

Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from signrank.harness import THEOREM_TAGS, RunConfig, exit_code, load_corpus, run

DATA_DIR = ROOT / "tests" / "data"
DIGEST_FILE = DATA_DIR / "report_digests.json"
CORPORA = ("graphs_le7.g6", "bipartite_2ec_n8.g6")
VARIANTS = ("analyze", "factors", "minrank", "perrank", "signfind", "weightfind", "zsf") \
    + tuple(f"verify {tag}" for tag in THEOREM_TAGS)


def cases() -> list[tuple[str, str]]:
    """The (corpus, variant) pairs that have a digest."""
    return [(c, v) for c in CORPORA for v in VARIANTS]


def digest(report: str) -> str:
    """sha256 of a report's record and summary lines."""
    _, _, body = report.partition("\n")
    return hashlib.sha256(body.encode()).hexdigest()


def entry(corpus: str, variant: str, jobs: int = 1) -> dict:
    command, _, theorem = variant.partition(" ")
    graphs = load_corpus((DATA_DIR / corpus).read_text(), "graph6")
    report, summary = run(graphs, RunConfig(command=command, theorem=theorem or None, jobs=jobs))
    return {"sha256": digest(report), "exit": exit_code(summary)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the digest file instead of writing it")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes per report (default 1)")
    args = parser.parse_args(argv)
    if args.check:
        pinned = json.loads(DIGEST_FILE.read_text())
        differing = [(corpus, variant) for corpus, variant in cases()
                     if pinned.get(corpus, {}).get(variant) != entry(corpus, variant, args.jobs)]
        for corpus, variant in differing:
            print(f"differs: {corpus} {variant}")
        print(f"{len(cases()) - len(differing)} of {len(cases())} digests match")
        return 1 if differing else 0
    table: dict[str, dict] = {}
    for corpus, variant in cases():
        table.setdefault(corpus, {})[variant] = entry(corpus, variant, args.jobs)
    DIGEST_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cases())} digests to {DIGEST_FILE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
