#!/usr/bin/env bash
# Run the transport's tests repeatedly on one CPU.
#
#   ci/pinned_repeat.sh [repeats=10]
#
# The event-loop transport is a condvar protocol between whichever
# thread turns the loop, a receiver that may be asleep, and the
# watchdogs. Its lost wake-ups and ordering races show when those
# threads cannot run in parallel: that is how `benchmark/` runs the
# process (pinned to one CPU) and how CI runners, with several cores,
# do not. So: build once, then run the channel crate's unit tests and
# the two live integration suites `repeats` times under `taskset -c 0`.
set -euo pipefail
cd "$(dirname "$0")/.."
repeats="${1:-10}"

cargo test --release -p sdn-channel --no-run
cargo test --release --test live_transport --test live_stress --no-run
for ((i = 1; i <= repeats; i++)); do
    echo "pinned pass $i/$repeats" >&2
    taskset -c 0 cargo test --release -q -p sdn-channel
    taskset -c 0 cargo test --release -q --test live_transport --test live_stress
done
