#!/usr/bin/env bash
# The benchmark's one command: build the harness (release, offline)
# and run it. See README.md in this directory, or `run.sh --help`.
#
#   run.sh                     all five workloads: 5 untraced passes + 1 traced
#   run.sh --smoke             1 pass, 1 s windows, correctness gate only
#   run.sh --trace-only        per-layer metrics only
#   run.sh --repeat 2          two complete end-to-end sets, compared against the bounds
#   run.sh --workload W --seed N --seconds S --trace 0|1
#                              one workload, ending with the result line (BENCHMARK.json)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [[ "${1:-}" == "--help" || "${1:-}" == "-h" ]]; then
    sed -n '2,11p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//'
    exit 0
fi
# cargo's own output goes to stderr; stdout carries only the metrics
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- \
    --out "$here/out" "$@"
