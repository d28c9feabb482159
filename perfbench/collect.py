"""Run the benchmark over several seeds and summarise the spread.

Run from the repository root:

    python3 perfbench/collect.py --seeds 1-10 --traced-seeds 1-3 --out result.json

Each (workload, seed) is one ``run.py`` process, run one after another, for
every workload and for ``run_seconds`` from BENCHMARK.json.
For every end-to-end metric the summary gives the median over the seeds, the
quartiles, and the spread (distance between the first and third quartile as
a share of the median), the figure BENCHMARK.json's bounds are judged
against.  Seeds listed in ``--traced-seeds`` are also run with tracing on;
the summary then gives the tracing overhead, untraced ``records_per_s``
over traced ``trace.records_per_s`` for the same seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"workload": workload, "seed": seed, "trace": trace,
            "detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0,
            "n": len(values)}


def summarise(runs: list[dict]) -> dict:
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        plain = [r for r in mine if not r["trace"]]
        traced = [r for r in mine if r["trace"]]
        block: dict = {}
        for name in (plain[0]["result"]["metrics"] if plain else {}):
            block[name] = spread([r["result"]["metrics"][name]["value"] for r in plain])
        if plain:
            block["uncorrected"] = {
                name: spread([r["detail"]["uncorrected"][name] for r in plain])
                for name in plain[0]["detail"]["uncorrected"]}
        block["correct"] = all(r["result"]["correct"] for r in mine)
        if traced:
            block["traced"] = {name: spread([r["result"]["metrics"][name]["value"] for r in traced])
                               for name in traced[0]["result"]["metrics"]}
            by_seed = {r["seed"]: r for r in plain}
            ratios = [by_seed[r["seed"]]["result"]["metrics"]["records_per_s"]["value"]
                      / r["result"]["metrics"]["trace.records_per_s"]["value"]
                      for r in traced if r["seed"] in by_seed]
            if ratios:
                block["tracing_overhead"] = spread(ratios)
        out[workload] = block
    return out


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    import workloads
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--traced-seeds", default="")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    with open(BENCHMARK) as fh:
        seconds = json.load(fh)["run_seconds"]
    runs = []
    traced = set(seed_list(args.traced_seeds)) if args.traced_seeds else set()
    for workload in workloads.BY_NAME:
        for seed in seed_list(args.seeds):
            for trace in (0, 1) if seed in traced else (0,):
                run = run_one(workload, seed, seconds, trace)
                runs.append(run)
                m = run["result"]["metrics"]
                key = "trace.records_per_s" if trace else "records_per_s"
                print(f"{workload} seed={seed} trace={trace} {key}={m[key]['value']:.4g}",
                      flush=True)
    summary = summarise(runs)
    with open(args.out, "w") as fh:
        json.dump({"summary": summary, "runs": runs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, block in summary.items():
        for name, s in block.items():
            if isinstance(s, dict) and "spread" in s:
                raw = block.get("uncorrected", {}).get(name)
                note = f"  (uncorrected {raw['spread']:.3f})" if raw and "spread" in raw else ""
                print(f"{workload:14s} {name:16s} median {s['median']:.5g}  "
                      f"spread {s['spread']:.3f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
