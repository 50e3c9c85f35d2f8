#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the BENCHMARK.json command once per seed for each workload and
prints, per metric, the median of the runs and the interquartile range
as a share of that median (quartiles from statistics.quantiles(n=4)),
next to the metric's bound and a third of it. The figures a run records
on its environment line (accuracy, serve_stream's ingest tail) are
summarised the same way, unbounded. Run from the repository root:

    python3 perfbench/spread.py --seeds 1 2 3 4 5 --workloads serve_stream
    python3 perfbench/spread.py --save set1.json
    python3 perfbench/spread.py --save set2.json --against set1.json

--save keeps every run's figures; --against compares this set's medians
with a saved set's (the share by which each got worse, which must stay
within the bound) and checks that each seed's accuracy is identical.
"""

import argparse
import json
import statistics
import subprocess
import sys


def spread(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return med, ((q[2] - q[0]) / med if med else 0.0)


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", trace,
    ]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2 or not lines[-1].startswith("{"):
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def main():
    bench = json.load(open("BENCHMARK.json"))
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--trace", default="0")
    p.add_argument("--save", help="write every run's figures to this JSON file")
    p.add_argument("--against", help="compare medians with a set saved by --save")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {}
    for w in args.workloads:
        for seed in args.seeds:
            env, result = run(bench, w, seed, args.trace)
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: NOT CORRECT {result['failed']}/{result['attempted']}")
            figures = {k: v["value"] for k, v in result["metrics"].items()}
            recorded = {k: v for k, v in env.items() if isinstance(v, float)}
            runs.setdefault(w, []).append(
                {"seed": seed, "metrics": figures, "recorded": recorded,
                 "failed": result["failed"], "attempted": result["attempted"]})
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in {**figures, **recorded}.items()), flush=True)
    if args.save:
        json.dump(runs, open(args.save, "w"), indent=1)
    old = json.load(open(args.against)) if args.against else {}

    worst = 0.0
    for w, rs in runs.items():
        for kind in ("metrics", "recorded"):
            for name in rs[0][kind]:
                med, share = spread([r[kind][name] for r in rs])
                bound = bounds.get(name) if kind == "metrics" else None
                line = f"  {w:14s} {name:16s} median={med:.6g} iqr/median={share:.4f}"
                if bound is not None:
                    worst = max(worst, share / bound)
                    line += f" bound={bound} bound/3={bound / 3:.3f}"
                if w in old and kind == "metrics":
                    before, _ = spread([r[kind][name] for r in old[w]])
                    line += f" vs saved={(med - before) / before:+.4f}"
                print(line)
        if w in old:
            before = {r["seed"]: r["recorded"].get("accuracy") for r in old[w]}
            differ = [r["seed"] for r in rs if r["seed"] in before
                      and r["recorded"].get("accuracy") != before[r["seed"]]]
            print(f"  {w:14s} accuracy identical to the saved set per seed: "
                  f"{'no, seeds ' + str(differ) if differ else 'yes'}")
    print(f"worst spread / bound = {worst:.2f} (setup_s included)")


if __name__ == "__main__":
    main()
