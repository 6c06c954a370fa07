#!/usr/bin/env bash
# A/B one benchmark workload between two checkouts, the way a PR that
# claims a gain has to: alternating pairs, medians, IQRs, pairs won.
#
#   ci/ab_pairs.sh <parent-tree> <change-tree> <workload> [pairs=10] [seconds=20]
#                  [--layers m1,m2,...]
#
# Builds both trees' benchmark/ packages (release, offline), then for
# seed i = 1..pairs runs `e2e-bench --workload W --seed i --seconds S
# --trace 0` once per tree — odd pairs parent first, even pairs change
# first — and prints, per gated metric of the change tree's
# BENCHMARK.json, the markdown table rows CHANGES.md uses, each with
# the verdict it is judged by, the first of these that holds:
#
#   gain        the change won at least 9 of every 10 pairs, and its
#               median is better than the parent's by more than the
#               parent's IQR
#   worse       the change's median is worse than the parent's by more
#               than the metric's `bound` (a fraction of the parent's
#               median) in BENCHMARK.json
#   unresolved  the parent's IQR is wider than that bound and the two
#               sides' runs overlap: these pairs cannot tell
#   flat        everything else
#
# With --layers it then runs 3 traced passes per side (`--trace 1`,
# seeds 1..3, alternating the same way) and prints parent → change
# medians (and ranges) of the named per-layer metrics; pairs=0 skips
# the gated pairs. Every per-run result line is kept under $AB_OUT
# (default: a temp dir, removed). The benchmark pins itself to one CPU:
# run nothing else meanwhile.
set -euo pipefail
usage() {
    sed -n '2,30p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
    exit 2
}
positional=()
layers=""
traced=0
while [[ $# -gt 0 ]]; do
    case "$1" in
    --layers) layers="${2:?}" && traced=3 && shift 2 ;;
    -*) usage ;;
    *) positional+=("$1") && shift ;;
    esac
done
[[ ${#positional[@]} -ge 3 ]] || usage
parent="$(cd "${positional[0]}" && pwd)"
change="$(cd "${positional[1]}" && pwd)"
workload="${positional[2]}"
pairs="${positional[3]:-10}"
seconds="${positional[4]:-20}"
if [[ -n "${AB_OUT:-}" ]]; then
    out="$AB_OUT"
    mkdir -p "$out"
else
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' EXIT
fi

for tree in "$parent" "$change"; do
    cargo build --release --offline --quiet --manifest-path "$tree/benchmark/Cargo.toml"
done

run() { # kind side tree seed trace
    "$3/benchmark/target/release/e2e-bench" --out "$out/$2-out" \
        --workload "$workload" --seed "$4" --seconds "$seconds" --trace "$5" |
        tail -n 1 >"$out/$workload.$1.$2.$4.json"
}
alternate() { # kind count trace
    for ((i = 1; i <= $2; i++)); do
        if ((i % 2)); then
            run "$1" parent "$parent" "$i" "$3"
            run "$1" change "$change" "$i" "$3"
        else
            run "$1" change "$change" "$i" "$3"
            run "$1" parent "$parent" "$i" "$3"
        fi
        echo "$1 pair $i/$2 done" >&2
    done
}
alternate pair "$pairs" 0
alternate traced "$traced" 1

python3 - "$out" "$change/BENCHMARK.json" "$workload" "$pairs" "$traced" "$layers" <<'EOF'
import json
import statistics
import sys
from pathlib import Path

out, manifest, workload = Path(sys.argv[1]), sys.argv[2], sys.argv[3]
pairs, traced, layers = int(sys.argv[4]), int(sys.argv[5]), sys.argv[6]


def load(kind, count):
    runs = {"parent": [], "change": []}
    for side, rows in runs.items():
        for seed in range(1, count + 1):
            r = json.loads((out / f"{workload}.{kind}.{side}.{seed}.json").read_text())
            if not r["correct"] or r["failed"]:
                sys.exit(f"{workload} {kind} {side} seed {seed}: "
                         f"correct={r['correct']} failed={r['failed']}")
            rows.append({k: v["value"] for k, v in r["metrics"].items()})
    return runs


def mid_iqr(values):
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def change(p, c):
    return f"{100 * (c - p) / p:+.1f} %" if p else "n/a"


def verdict(m, p, c, won):
    """The rule in this script's header, for metric `m` of BENCHMARK.json."""
    (pm, pi), (cm, _) = mid_iqr(p), mid_iqr(c)
    gap = cm - pm if m["better"] == "higher" else pm - cm
    bound = m["bound"] * abs(pm)
    if 10 * won >= 9 * len(p) and gap > pi:
        return "gain"
    if -gap > bound:
        return "worse"
    if pi > bound and max(p) >= min(c) and max(c) >= min(p):
        return "unresolved"
    return "flat"


if pairs:
    runs = load("pair", pairs)
    print("| workload | metric | parent median (IQR) | change median (IQR) | change vs parent | pairs won | verdict |")
    print("|---|---|---|---|---|---|---|")
    for m in json.loads(Path(manifest).read_text())["end_to_end"]:
        p = [r[m["name"]] for r in runs["parent"]]
        c = [r[m["name"]] for r in runs["change"]]
        better = (lambda a, b: a > b) if m["better"] == "higher" else (lambda a, b: a < b)
        won = sum(better(x, y) for x, y in zip(c, p))
        (pm, pi), (cm, ci) = mid_iqr(p), mid_iqr(c)
        print(f"| `{workload}` | `{m['name']}` | {pm:.4g} ({pi:.4g}) | {cm:.4g} ({ci:.4g}) | "
              f"{change(pm, cm)} | {won}/{pairs} | {verdict(m, p, c, won)} |")

if traced:
    runs = load("traced", traced)
    print()
    print(f"| workload | per-layer metric ({traced} traced passes per side) | parent median [min … max] | change median [min … max] | change vs parent |")
    print("|---|---|---|---|---|")
    for name in layers.split(","):
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        pm, cm = statistics.median(p), statistics.median(c)
        print(f"| `{workload}` | `{name}` | {pm:.4g} [{min(p):.4g} … {max(p):.4g}] | "
              f"{cm:.4g} [{min(c):.4g} … {max(c):.4g}] | {change(pm, cm)} |")
EOF
