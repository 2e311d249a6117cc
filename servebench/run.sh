#!/usr/bin/env bash
# Build the shipped binaries (urbane-serve, urbane-cli) and the load
# generator from source, then run one benchmark workload.
#
#   bash servebench/run.sh --workload pan --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); all build chatter goes to stderr, so the last
# line of stdout is the result JSON.
set -euo pipefail

export CARGO_NET_OFFLINE=true
target="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$target"
target="$(cd "$target" && pwd)"
export CARGO_TARGET_DIR="$target"

cargo build --release --quiet -p urbane-serve -p urbane --bins >&2
cargo build --release --quiet --manifest-path servebench/Cargo.toml >&2

exec "$target/release/servebench" --bin-dir "$target/release" "$@"
