#!/usr/bin/env bash
# Build topobench (release, offline) and run it from the repository root.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] [--smoke]
#
# With no --workload it runs all four. The last line of each workload's
# output is its result as one JSON object; the exit code is non-zero if the
# build fails or any answer is wrong. Everything it writes lands in
# benchmark/out and the cargo target directory.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

# Stamped into the run header.
TOPOBENCH_RUSTC="$(rustc -V)"
TOPOBENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export TOPOBENCH_RUSTC TOPOBENCH_COMMIT

exec "${CARGO_TARGET_DIR:-benchmark/target}/release/topobench" "$@"
