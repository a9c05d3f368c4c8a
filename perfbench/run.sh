#!/usr/bin/env bash
# Build the benchmark and the `qoco-serve` binary from source, then run one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload clean --seed 1 --seconds 15 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: perfbench/target); only
# the benchmark's own result line is printed on stdout.
set -euo pipefail
bench_dir="$(dirname "$0")"
root="$bench_dir/.."
target="${CARGO_TARGET_DIR:-$bench_dir/target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin qoco-serve >&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" >&2
exec "$target/release/perfbench" --serve-bin "$target/release/qoco-serve" "$@"
