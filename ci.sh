#!/usr/bin/env bash
# The Tier-1 command (build + whole-workspace tests, which `default-members`
# makes the plain `cargo build --release && cargo test -q`; the structural
# rules, the package names, the line ledger and the docs fixed point are
# tests in it), then clippy, the crate tests without the facade's features,
# and the release runs whose output is compared with a committed file: the
# paper-scale checked KV run, explore, the quick report's row gate and
# footprint ledger, and a quick wallclock bench gated against the committed
# BENCH_hotpath.json.
set -euo pipefail
cd "$(dirname "$0")"
started=$SECONDS

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (workspace)"
cargo test -q

# benchmark/ is a workspace of its own that pins part of the facade's
# surface (carlos::trace::json among it); compile it so a change that
# breaks that surface fails here, not only when the benchmark runs.
echo "==> cargo check benchmark/"
cargo check --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo clippy -D warnings (every package, all targets)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> crate tests without the seeded-bugs feature"
# The workspace pass above builds carlos-sim and carlos-core with
# `seeded-bugs`, which the facade's dev-dependencies turn on for the whole
# build. Leaving the facade out builds them without it, as benchmark/ does,
# and runs every crate's tests in that build: among them the transport and
# hand-off suites (procs as coroutines, the 300-cluster soak under a
# host-time watchdog), the checker, the tracer, the report and serving.
cargo test -q --workspace --exclude carlos
# Paper-scale KV at n = 16, checked: too slow for the debug test pass.
cargo test -q --release -p carlos-bench --lib -- --ignored sixteen_node_paper_kv_is_checked_clean

echo "==> explore profile (guided DPOR search + seeded-bug smoke)"
# Four campaigns, all inside the one example run: the historical 72-run
# random jitter sweep; guided search at a <=64-execution budget per app
# over SOR/Quicksort/TSP/Water plus the mixed-granularity tsp+vg
# variant; the dedupe-effectiveness gate (guided must cover the windowed
# class space with >= 3x fewer executions than naive enumeration); and
# one armed seeded-bug smoke (the simulator's FIFO-clamp skip) that the
# guided explorer must find and shrink. Any oracle violation, wrong
# answer, crash, missed smoke, or gate failure exits nonzero. The full
# seeded-bug regression suite (tests/seeded_bugs.rs) runs under the
# workspace test pass above. The campaigns are deterministic, so their JSON
# lines must equal the committed BENCH_explore.jsonl exactly.
cargo run --release -q --example explore | tee target/explore.out
if ! diff <(grep '^{' target/explore.out) BENCH_explore.jsonl; then
    echo "explore JSON lines differ from BENCH_explore.jsonl" >&2
    exit 1
fi

echo "==> quick report (exact row gate + footprint ledger)"
# The quick report doubles as the exact row gate: quick runs are
# bit-deterministic, so every row and serve row of the committed baseline
# must come back with every field (per-class ledgers included; a serve
# row's host seconds excepted) equal; new rows and new fields pass and are
# listed. The example exits nonzero otherwise.
# The same run writes the footprint ledger: every quick cell, both serve
# rows and paper-scale Water Lock / Quicksort Hybrid-1 (n = 4) and KV
# (n = 8), each counted by the example's allocator (allocations, bytes,
# peak live bytes, allocations per message, events). Runs are
# deterministic, so the ledger must equal the committed
# BENCH_footprint.json exactly: every change commits its footprint delta.
CARLOS_REPORT_QUICK=1 CARLOS_REPORT_OUT=target/BENCH_paper_quick.json \
    CARLOS_REPORT_BASELINE=BENCH_paper_quick.json \
    CARLOS_REPORT_FOOTPRINT=target/BENCH_footprint.json \
    cargo run --release -q --example report > target/report_quick.md
grep -q '| TSP |' target/report_quick.md
grep -q '## Ablations against their base rows' target/report_quick.md
# The serving table rendered (KV n=8 and KV/chaos n=8 with harvest and
# yield); show its rows, Msg/op included.
grep '| KV | 8 |' target/report_quick.md
grep 'KV/chaos' target/report_quick.md
if ! diff BENCH_footprint.json target/BENCH_footprint.json; then
    echo "footprint ledger differs from BENCH_footprint.json:" \
        "cp target/BENCH_footprint.json BENCH_footprint.json and commit it" >&2
    exit 1
fi

echo "==> wallclock bench (quick mode) -> target/BENCH_hotpath.json"
# The run writes under target/, so the committed BENCH_hotpath.json it is
# gated against stays as it is (run the bench without CARLOS_BENCH_OUT to
# refresh it). The bench runs in its package directory: the path is
# absolute. The gates, and what each bound means, are
# crates/bench/tests/hotpath.rs.
CARLOS_BENCH_QUICK=1 CARLOS_BENCH_OUT="$PWD/target/BENCH_hotpath.json" \
    cargo bench -p carlos-bench --bench wallclock
cargo test -q --release -p carlos-bench --test hotpath -- --ignored --nocapture

echo "ci.sh: all green in $((SECONDS - started)) s"
