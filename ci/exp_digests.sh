#!/usr/bin/env bash
# The determinism gate: every virtual-time experiment's stdout, hashed
# and compared with the committed ci/exp_digests.txt. These experiments
# are deterministic per seed, so any changed byte is a protocol change:
# either a defect, or a decision the PR names — then re-record and list
# the moved cells in CHANGES.md.
#
#   ci/exp_digests.sh            run all, compare (exit 1 on any mismatch)
#   ci/exp_digests.sh --record   run all, rewrite ci/exp_digests.txt
#
# EXP_BIN=<dir> takes the exp_* binaries from <dir> instead of building
# them into target/release; EXP_OUT=<dir> keeps the hashed text of each
# experiment there, to diff against another commit's.
#
# E3 (exp_rounds_scaling) and E8 (exp_connection_scaling) print
# wall-clock columns and are not here; E12 (exp_observability) is hashed
# without its two wall-clock columns and its wall-clock totals line.
set -euo pipefail
cd "$(dirname "$0")/.."

EXPERIMENTS=(
    exp_fig1 exp_update_time exp_violations exp_barrier_overhead exp_ablation
    exp_concurrent_updates exp_fault_recovery exp_shard_scaling
    exp_observability
)
digests=ci/exp_digests.txt

if [[ -z "${EXP_BIN:-}" ]]; then
    cargo build --release --quiet -p sdn-bench --bins
    EXP_BIN=target/release
fi
if [[ -n "${EXP_OUT:-}" ]]; then
    out="$EXP_OUT"
    mkdir -p "$out"
else
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' EXIT
fi

# Rows of E12's makespan table keep their four virtual-time fields.
strip_wall_clock() {
    awk '
        /^wall-clock totals:/ { next }
        /^== virtual makespan/ { table = 1; print; next }
        table && /^$/ { table = 0 }
        table && /^-+$/ { next }
        table { print $1, $2, $3, $4; next }
        { print }
    '
}

for exp in "${EXPERIMENTS[@]}"; do
    if [[ $exp == exp_observability ]]; then
        "$EXP_BIN/$exp" | strip_wall_clock >"$out/$exp"
    else
        "$EXP_BIN/$exp" >"$out/$exp"
    fi
done

if [[ "${1:-}" == --record ]]; then
    (cd "$out" && sha256sum "${EXPERIMENTS[@]}") >"$digests"
    echo "exp_digests: recorded ${#EXPERIMENTS[@]} digests in $digests"
elif (cd "$out" && sha256sum --check --quiet) <"$digests"; then
    echo "exp_digests: ${#EXPERIMENTS[@]} experiment outputs match $digests"
else
    echo "error: a deterministic experiment's output changed (rerun with EXP_OUT=<dir> to keep the" >&2
    echo "text and diff it against the parent's). If the PR means it, list the moved cells in" >&2
    echo "CHANGES.md and re-record with: ci/exp_digests.sh --record" >&2
    exit 1
fi
