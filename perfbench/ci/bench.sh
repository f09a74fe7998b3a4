#!/usr/bin/env bash
# Build the benchmark, run the whole set, and compare it with the
# checked-in baseline.  Run from anywhere inside the repository:
#
#   perfbench/ci/bench.sh [runs-per-workload] [first-seed]
#
# Exits non-zero if any operation failed, if an end-to-end metric is worse
# than the baseline by more than its bound, or if the fail ratio rose.
# Wiring this into .github/workflows/ci.yml is left to a later change: that
# file is outside the benchmark's own directory.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
runs="${1:-5}"
seed="${2:-1}"

# From the repository root, so cargo finds .cargo/config.toml (the offline
# stand-ins for the external crates).
cd "$bench/.."
cargo build --release --manifest-path perfbench/Cargo.toml --bin xorp-bench
bin="${CARGO_TARGET_DIR:-perfbench/target}/release/xorp-bench"

mkdir -p "$bench/out"
"$bin" all --seed "$seed" --runs "$runs" --out "$bench/out/BENCH_now.json"
"$bin" compare "$bench/baseline/BENCH_11.json" "$bench/out/BENCH_now.json"
