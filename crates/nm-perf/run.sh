#!/usr/bin/env bash
# Builds the serving binary (`nmcdr`) and the benchmark from source, then
# runs the benchmark with the given arguments, e.g.
#
#   bash crates/nm-perf/run.sh --workload serve-mixed --seed 7 --seconds 25 --trace 0
#
# Honours CARGO_TARGET_DIR; both binaries land in the same profile
# directory, which is where nm-perf looks for `nmcdr`.
set -euo pipefail
cd "$(dirname "$0")/../.."
cargo build --release -q -p nm-cli -p nm-perf
exec "${CARGO_TARGET_DIR:-target}/release/nm-perf" "$@"
