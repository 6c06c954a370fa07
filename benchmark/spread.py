#!/usr/bin/env python3
"""Seed-to-seed spread of every end-to-end metric, the way the PR driver
measures it: run each workload once per seed through the BENCHMARK.json
command, then report, per (workload, metric), the median over seeds and
the interquartile distance as a share of it, next to the metric's bound.

    benchmark/spread.py [--seeds 1-10] [--workload NAME]... [--json OUT]

A benchmark is steady when every spread stays below a third of its
bound (`setup_s` is exempt from the spread rule, not from the bound).
Exits non-zero when a spread exceeds its bound or a run fails.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workload", action="append", help="default: all of them")
    ap.add_argument("--json", help="also write every run's metrics here")
    args = ap.parse_args()

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    lo, hi = (int(x) for x in args.seeds.split("-"))
    workloads = args.workload or [w["name"] for w in manifest["workloads"]]
    runs = {w: [] for w in workloads}
    # seeds outermost, so each workload's runs spread over the whole study
    for seed in range(lo, hi + 1):
        for w in workloads:
            cmd = manifest["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(manifest["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed}: {result['failed']} failed")
            runs[w].append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"seed {seed} {w}: " + " ".join(
                f"{k}={v:.4g}" for k, v in runs[w][-1].items()), flush=True)

    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1))
    print("\n| workload | metric | median | IQR/median | bound | verdict |")
    print("|---|---|---|---|---|---|")
    breached = False
    for w in workloads:
        for m in manifest["end_to_end"]:
            values = [r[m["name"]] for r in runs[w]]
            q1, _, q3 = statistics.quantiles(values, n=4)
            mid = statistics.median(values)
            spread = (q3 - q1) / mid
            if m["name"] == "setup_s":
                verdict = "exempt"
            elif spread > m["bound"]:
                verdict, breached = "BREACH", True
            elif spread > m["bound"] / 3:
                verdict = "wide"
            else:
                verdict = "steady"
            print(f"| {w} | {m['name']} | {mid:.4g} {m['unit']} | "
                  f"{100 * spread:.1f} % | {100 * m['bound']:.0f} % | {verdict} |")
    sys.exit(1 if breached else 0)


if __name__ == "__main__":
    main()
