#!/usr/bin/env bash
# Builds the release `regcluster` binary and the benchmark harness from
# this checkout, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload mine_deep --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build output goes to stderr; the last
# line of stdout is the result JSON.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/cli || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the root of a full regcluster checkout" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-target}"
bench_target="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --quiet -p regcluster-cli >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2

exec "$bench_target/release/perfbench" --regcluster "$target/release/regcluster" "$@"
