#!/usr/bin/env bash
# A/B one benchmark workload between two checkouts, the way a PR that
# claims a gain has to: alternating pairs, medians, IQRs, pairs won.
#
#   ci/ab_pairs.sh <parent-tree> <change-tree> <workload> [pairs=10] [seconds=20]
#
# Builds both trees' benchmark/ packages (release, offline), then for
# seed i = 1..pairs runs `e2e-bench --workload W --seed i --seconds S
# --trace 0` once per tree — odd pairs parent first, even pairs change
# first — and prints, per gated metric of the change tree's
# BENCHMARK.json, the markdown table rows CHANGES.md uses. Every
# per-run result line is kept under $AB_OUT (default: a temp dir, removed).
# The benchmark pins itself to one CPU: run nothing else meanwhile.
set -euo pipefail
if [[ $# -lt 3 ]]; then
    sed -n '2,13p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
pairs="${4:-10}"
seconds="${5:-20}"
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

run() { # side tree seed
    "$2/benchmark/target/release/e2e-bench" --out "$out/$1-out" \
        --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 |
        tail -n 1 >"$out/$workload.$1.$3.json"
}
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        run parent "$parent" "$i"
        run change "$change" "$i"
    else
        run change "$change" "$i"
        run parent "$parent" "$i"
    fi
    echo "pair $i/$pairs done" >&2
done

python3 - "$out" "$change/BENCHMARK.json" "$workload" "$pairs" <<'EOF'
import json
import statistics
import sys
from pathlib import Path

out, manifest, workload, pairs = Path(sys.argv[1]), sys.argv[2], sys.argv[3], int(sys.argv[4])
runs = {"parent": [], "change": []}
for side, rows in runs.items():
    for seed in range(1, pairs + 1):
        r = json.loads((out / f"{workload}.{side}.{seed}.json").read_text())
        if not r["correct"] or r["failed"]:
            sys.exit(f"{workload} {side} seed {seed}: correct={r['correct']} failed={r['failed']}")
        rows.append({k: v["value"] for k, v in r["metrics"].items()})


def mid_iqr(values):
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


print("| workload | metric | parent median (IQR) | change median (IQR) | change vs parent | pairs won |")
print("|---|---|---|---|---|---|")
for m in json.loads(Path(manifest).read_text())["end_to_end"]:
    p = [r[m["name"]] for r in runs["parent"]]
    c = [r[m["name"]] for r in runs["change"]]
    better = (lambda a, b: a > b) if m["better"] == "higher" else (lambda a, b: a < b)
    won = sum(better(x, y) for x, y in zip(c, p))
    (pm, pi), (cm, ci) = mid_iqr(p), mid_iqr(c)
    print(f"| `{workload}` | `{m['name']}` | {pm:.4g} ({pi:.4g}) | {cm:.4g} ({ci:.4g}) | "
          f"{100 * (cm - pm) / pm:+.1f} % | {won}/{pairs} |")
EOF
