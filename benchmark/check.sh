#!/usr/bin/env bash
# The package's own gate; it sits outside the root workspace, so
# scripts/verify.sh does not cover it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --quiet
# BENCHMARK.json is generated from the registry in src/report.rs.
cargo run --offline --quiet --release -- --manifest | diff - ../BENCHMARK.json
# Items that ROADMAP open items 2-3 delete must not be compiled against.
if grep -nE 'SessionPool|ShardedPool|\bShard\b|with_workers|with_stealing_workers|Tier::|[A-Za-z]Instance\b|stategen_generated|prune_unreachable|merge_equivalent_states' -r src tests; then
    echo "check.sh: the names above are outside the API surface manifest (README.md)" >&2
    exit 1
fi
echo "benchmark/check.sh: ok"
