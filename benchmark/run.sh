#!/usr/bin/env bash
# Builds the benchmark package (offline, cargo's default release profile)
# and runs it:
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
#   benchmark/run.sh --manifest
#
# Without --workload every workload runs, each in a process of its own.
# The last line of a workload's output is its result object; the exit
# code is non-zero if an output check failed or the build did.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target"
exec "$target/release/stategen-benchmark" "$@"
