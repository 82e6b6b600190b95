#!/usr/bin/env bash
# Builds the benchmark from source and runs it. See benchmark/README.md.
#
#   benchmark/run.sh [--seed S] [--smoke]              every workload -> benchmark/out/results.json
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1     one workload (driver protocol)
#   benchmark/run.sh compare A B | layers | benchmark-json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# Cargo resolves a relative CARGO_TARGET_DIR against its own working
# directory; anchor it at the checkout root, where the caller meant it.
if [[ -n "${CARGO_TARGET_DIR:-}" && "${CARGO_TARGET_DIR}" != /* ]]; then
    export CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR"
fi
target="${CARGO_TARGET_DIR:-$root/target}"

# Built from benchmark/ so that its .cargo/config.toml (shared ../target)
# applies. The build's output goes to stderr: stdout carries results only.
(cd "$here" && cargo build --release --offline --quiet) >&2

# Paths in the output (benchmark/out, BENCH_paper.json) are relative to
# the checkout root.
cd "$root"
exec "$target/release/carlos-benchmark" "$@"
