#!/usr/bin/env bash
# The Tier-1 command (build + whole-workspace tests, which `default-members`
# makes the plain `cargo build --release && cargo test -q`), then lints on
# the hot-path crates, the profile runs and their gates, and a quick
# wallclock bench run refreshing BENCH_hotpath.json.
set -euo pipefail
cd "$(dirname "$0")"
started=$SECONDS

echo "==> structural gate (the simulator is single-threaded)"
if grep -rEn 'thread::(spawn|Builder|JoinHandle)' crates/sim/src; then
    echo "crates/sim/src must not spawn threads" >&2
    exit 1
fi
# A run's procs, kernel and observers share one thread: state they share is
# Rc / RefCell / Cell. (std::sync::Once for the panic hook stays allowed;
# the word bounds spare carlos-sync's DSM `CondvarSpec`.)
if grep -rEn '\b(Mutex|RwLock|Condvar)\b|Atomic|parking_lot|Arc<|Arc::' \
    crates/{util,sim,lrc,core,sync,check,trace,apps}/src; then
    echo "no locks, atomics or Arc in the crates a run executes" >&2
    exit 1
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (workspace)"
cargo test -q

echo "==> cargo clippy -D warnings (hot-path + hardened crates)"
cargo clippy -p carlos-util -p carlos-sim -p carlos-lrc -p carlos-core \
    -p carlos-sync -p carlos-check -p carlos-trace -p carlos-bench \
    -p carlos-explore -p carlos-serve \
    -p criterion -p proptest --all-targets -- -D warnings

echo "==> chaos profile (scripted faults + pinned fingerprints)"
cargo test -q --test chaos
cargo test -q --test determinism_golden
cargo test -q -p carlos-sim --test transport
# Procs as coroutines: limits, stalls, panics, crashes and first wakes
# tripping while a proc drives the event loop, no OS thread per proc,
# every proc stack unwound and unmapped however the run ends, plus the
# 300-cluster soak under a host-time watchdog.
cargo test -q -p carlos-sim --test handoff
cargo test -q --test handoff

echo "==> checker profile (consistency oracle over schedule sweeps)"
cargo test -q -p carlos-check
cargo test -q --test schedules

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
# workspace test pass above.
cargo run --release -q --example explore

echo "==> trace profile (causal tracer + traced paper-table report)"
cargo test -q -p carlos-trace
cargo test -q -p carlos-bench
# The quick report doubles as the wire-traffic regression gate: the
# example compares its fresh TSP/Quicksort Lock n=4 rows against the
# committed baseline and exits nonzero if messages or SYSTEM-class bytes
# grew more than 5% (quick runs are deterministic, so growth is real).
CARLOS_REPORT_QUICK=1 CARLOS_REPORT_OUT=target/BENCH_paper_quick.json \
    CARLOS_REPORT_BASELINE=BENCH_paper_quick.json \
    cargo run --release -q --example report > target/report_quick.md
grep -q '| TSP |' target/report_quick.md

echo "==> serve profile (DSM-backed KV serving under open-loop traffic)"
# Store/workload/client/orchestration unit + integration tests: exact
# fault-free serving, bit-identical reruns.
cargo test -q -p carlos-serve
# The quick report run above regenerated the serve rows (KV n=8 +
# KV/chaos n=8 with harvest/yield) and gated p999 latency, yield and wire
# messages per completed operation against the committed
# BENCH_paper_quick.json baseline at 5% tolerance; confirm the serving
# table actually rendered, and show its rows (Msg/op included).
grep '| KV | 8 |' target/report_quick.md
grep 'KV/chaos' target/report_quick.md

echo "==> wallclock bench (quick mode) -> BENCH_hotpath.json"
ratio() {
    grep -o "\"$1\": [0-9.]*" "${2:-BENCH_hotpath.json}" | awk '{print $2}'
}
# median_ns of one bench row: median_ns GROUP ID [FILE]
median_ns() {
    grep -o "\"group\": \"$1\", \"id\": \"$2\", \"median_ns\": [0-9.]*" \
        "${3:-BENCH_hotpath.json}" | awk '{print $NF}'
}
# The bench overwrites the committed numbers the footprint gate compares to.
committed=target/BENCH_hotpath.committed.json
cp BENCH_hotpath.json "$committed"
CARLOS_BENCH_QUICK=1 cargo bench -p carlos-bench --bench wallclock

# Sparse page-table gate (serving layout, n = 8 and n = 32): an untouched
# granule costs at most 16 heap bytes per node, and building the engines
# stays within 3x of the committed ns per granule, both sides divided by
# their own calibration loop so a slower host does not trip it.
for n in 8 32; do
    bytes=$(ratio "engine_bytes_per_untouched_granule_n$n")
    ns=$(ratio "engine_new_ns_per_granule_n$n")
    base=$(ratio "engine_new_ns_per_granule_n$n" "$committed")
    echo "==> page-table footprint n=$n: ${bytes} B/untouched granule," \
        "${ns} ns/granule at calib $(ratio calib_ms) ms" \
        "(committed ${base} at $(ratio calib_ms "$committed") ms)"
    awk -v b="$bytes" -v ns="$ns" -v c="$(ratio calib_ms)" \
        -v bns="$base" -v bc="$(ratio calib_ms "$committed")" \
        'BEGIN { exit !(b > 0 && b <= 16 && c > 0 && bc > 0 && bns > 0 && ns / c <= 3 * bns / bc) }'
done

# Flat-diff gate (4 KiB page, one byte in 8 changed, which leaves every
# second word clean: 512 runs that must not merge): a diff is one buffer
# whatever its run count -- at most 2 allocations and 12 heap bytes per
# run (8 of header, 1 of data here) -- and creating it stays within 3x of
# the committed time, normalised like the gate above.
allocs=$(ratio diff_allocs_dense_1_in_8)
per_run=$(ratio diff_heap_bytes_per_run_dense_1_in_8)
ns=$(median_ns diff_create word_dense_1_in_8)
base=$(median_ns diff_create word_dense_1_in_8 "$committed")
echo "==> flat diff dense_1_in_8: ${allocs} allocation(s), ${per_run} B/run," \
    "create ${ns} ns (committed ${base})"
awk -v a="$allocs" -v b="$per_run" -v ns="$ns" -v c="$(ratio calib_ms)" \
    -v bns="$base" -v bc="$(ratio calib_ms "$committed")" \
    'BEGIN { exit !(a > 0 && a <= 2 && b > 0 && b <= 12 && c > 0 && bc > 0 && bns > 0 && ns / c <= 3 * bns / bc) }'

# Interval-log gate (both sides of a RELEASE: the 8-record payload out of a
# 4-creator x 2 000-record log, and accepting 64 decoded records): each
# stays within 3x of the committed time, normalised like the gates above.
for id in newer_than_8_of_4x2000 apply_64_decoded; do
    ns=$(median_ns interval_log "$id")
    base=$(median_ns interval_log "$id" "$committed")
    echo "==> interval log $id: ${ns} ns (committed ${base})"
    awk -v ns="$ns" -v c="$(ratio calib_ms)" \
        -v bns="$base" -v bc="$(ratio calib_ms "$committed")" \
        'BEGIN { exit !(ns > 0 && c > 0 && bc > 0 && bns > 0 && ns / c <= 3 * bns / bc) }'
done

# Codec gate (a 4-creator RELEASE of 8 records: encoded with transport
# headroom, and decoded back): each stays within 3x of the committed time,
# normalised like the gates above. The benchmark builds without LTO, so a
# codec function that loses its `#[inline]` shows here as a call per field.
for id in encode_framed decode; do
    ns=$(median_ns codec "$id")
    base=$(median_ns codec "$id" "$committed")
    echo "==> codec $id: ${ns} ns (committed ${base})"
    awk -v ns="$ns" -v c="$(ratio calib_ms)" \
        -v bns="$base" -v bc="$(ratio calib_ms "$committed")" \
        'BEGIN { exit !(ns > 0 && c > 0 && bc > 0 && bns > 0 && ns / c <= 3 * bns / bc) }'
done

# Typed-diff gate (8 KiB page of u32s below 2^18, every element replaced):
# runs are stretches of dirty 4-byte words, so the agreeing top bytes do
# not split it -- exactly one run and 8 203 wire bytes (a byte-granular
# scanner made 2 055 runs and 22 067 bytes of the same page).
wire=$(ratio diff_wire_len_typed_u32_8k)
runs=$(ratio diff_runs_typed_u32_8k)
echo "==> typed diff u32_8k: ${wire} B in ${runs} run(s)," \
    "create $(median_ns diff_create typed_u32_rewritten_8k) ns," \
    "f64 $(median_ns diff_create typed_f64_perturbed_8k) ns"
awk -v w="$wire" -v r="$runs" 'BEGIN { exit !(w == 8203 && r == 1) }'

# Hand-off gate (raw 2-node ping-pong, two hand-offs per round trip): a
# simulated context switch is two coroutine switches through the runner,
# all on one thread, so the number does not depend on core placement and
# needs no pinning. It stays within 3x of the committed value, normalised
# like the gates above; an OS-thread hand-off cost 5-6x as much.
cores=$(nproc)
ns=$(ratio serial_ns_per_handoff)
base=$(ratio serial_ns_per_handoff "$committed")
echo "==> serial scheduler (raw 2-node ping-pong, ${cores} core(s)):" \
    "$(ratio serial_ns_per_event) ns/event, ${ns} ns/hand-off" \
    "(committed ${base})"
awk -v ns="$ns" -v c="$(ratio calib_ms)" \
    -v bns="$base" -v bc="$(ratio calib_ms "$committed")" \
    'BEGIN { exit !(ns > 0 && c > 0 && bc > 0 && bns > 0 && ns / c <= 3 * bns / bc) }'

# Non-test source lines: each file up to its `#[cfg(test)]` module.
lines=$(find crates/*/src src -name '*.rs' -print0 | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n }')
echo "==> ${lines} non-test source lines in crates/*/src + src/; ci.sh took $((SECONDS - started)) s"
echo "ci.sh: all green"
