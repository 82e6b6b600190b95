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
# Each simulated node runs exactly one proc: its scheduling state lives in
# the node's own state, so no second proc per node, proc table or proc id
# comes back.
if grep -rEn 'fn spawn_thread|ProcState|ProcId' crates/sim/src; then
    echo "one proc per node: no spawn_thread, ProcState or ProcId in crates/sim/src" >&2
    exit 1
fi
# A run's procs, kernel and observers share one thread: state they share is
# Rc / RefCell / Cell, and a lazily initialised global (OnceLock, LazyLock)
# is process state shared by every run. (std::sync::Once for the panic hook
# stays allowed.) Serving runs in the apps crate, so its code is covered.
if grep -rEn 'Mutex|RwLock|Condvar|OnceLock|LazyLock|Atomic|parking_lot|Arc<|Arc::' \
    crates/{util,sim,lrc,core,sync,check,trace,apps}/src; then
    echo "no locks, atomics, lazy globals or Arc in the crates a run executes" >&2
    exit 1
fi
# A run is configured by its Spec and configs alone: no environment variable
# changes what the crates a run executes do. (The report's and the bench's
# CARLOS_REPORT_* / CARLOS_BENCH_* switches live in crates/bench.)
if grep -rEn 'env::var' \
    crates/{util,sim,lrc,core,sync,check,trace,apps,explore}/src; then
    echo "no environment variables in the crates a run executes; add a config field" >&2
    exit 1
fi

# One way to run serving: it is an application like the others, described
# by a Spec, started by launch and judged by Run::verdict, so only the apps
# crate calls its configuration-level entry point. (benchmark/, a workspace
# of its own, is not searched.)
if grep -rEn --include='*.rs' '\btry_run_serve\b' crates src tests examples |
    grep -v '^crates/apps/src/'; then
    echo "run serving as launch(&Spec::new(App::Serve(traffic), n, scale)), not try_run_serve" >&2
    exit 1
fi

# One event stream: every layer emits `carlos_util::event::Event`s into one
# `Sink`, so no per-layer observer trait or single-slot setter comes back.
if grep -rEn '\btrait\s+\w*(Observer|Probe)\b' crates/*/src src; then
    echo "observe through carlos_util::event::Sink, not a new *Observer / *Probe trait" >&2
    exit 1
fi
if grep -rEn 'fn set_[a-z_]*observer\b|fn set_probe\b' crates/*/src src; then
    echo "attach sinks with Cluster::observe, not a set_*observer / set_probe slot" >&2
    exit 1
fi

# One ack mode per run: how transports acknowledge frames is a property of
# the network, set once in carlos_sim's SimConfig, so no second runtime
# constructor or other crate's config carries it.
if grep -rEn 'fn with_ack_mode\b' crates/*/src src; then
    echo "build a Runtime with Runtime::new; the ack mode comes from SimConfig::ack" >&2
    exit 1
fi
if grep -rEn '^\s*(pub(\([a-z]+\))?\s+)?ack\s*:' \
    $(ls -d crates/*/src src | grep -v '^crates/sim/src$'); then
    echo "set the ack mode on SimConfig::ack, not in a config of its own" >&2
    exit 1
fi

# No stand-in crates: every workspace package is one of ours. Each of the
# four offline shims this workspace once carried took the name of the
# registry crate it imitated.
for manifest in crates/*/Cargo.toml; do
    name=$(awk -F'"' '/^name = / { print $2; exit }' "$manifest")
    if [[ $name != carlos-* ]]; then
        echo "$manifest: package \"$name\" is not carlos-*; no stand-in crates" >&2
        exit 1
    fi
done

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (workspace)"
cargo test -q

# benchmark/ is a workspace of its own that pins part of the facade's
# surface (carlos::trace::json among it); compile it so a change that
# breaks that surface fails here, not only when the benchmark runs.
echo "==> cargo check benchmark/"
cargo check --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo clippy -D warnings (every crate, and the facade's bin, examples and tests)"
cargo clippy -p carlos-util -p carlos-sim -p carlos-lrc -p carlos-core \
    -p carlos-sync -p carlos-check -p carlos-trace -p carlos-apps -p carlos-bench \
    -p carlos-explore -p carlos --all-targets -- -D warnings

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

echo "==> trace profile (causal tracer + traced paper report)"
cargo test -q -p carlos-trace
cargo test -q -p carlos-bench
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
if ! diff BENCH_footprint.json target/BENCH_footprint.json; then
    echo "footprint ledger differs from BENCH_footprint.json:" \
        "cp target/BENCH_footprint.json BENCH_footprint.json and commit it" >&2
    exit 1
fi

echo "==> docs (EXPERIMENTS.md and README.md tables rendered from BENCH_paper.json)"
# Every measured table of the two documents sits in a generated region;
# the committed documents must be exactly what the renderer makes of the
# committed report.
cargo run --release -q --bin carlos-repro -- docs target/docs
for doc in EXPERIMENTS.md README.md; do
    if ! diff "$doc" "target/docs/$doc"; then
        echo "$doc differs from its rendering: cp target/docs/$doc $doc and commit it" >&2
        exit 1
    fi
done

echo "==> serve profile (DSM-backed KV serving under open-loop traffic)"
# Store/workload/client/orchestration unit tests: exact fault-free
# serving, bit-identical reruns.
cargo test -q -p carlos-apps serve::
# The quick report run above regenerated the serve rows (KV n=8 +
# KV/chaos n=8 with harvest/yield), and its row gate demanded every field
# but host seconds equal to the committed BENCH_paper_quick.json; confirm
# the serving table actually rendered, and show its rows (Msg/op included).
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
# granule costs at most 1 heap byte per node (slots come a 1 024-granule
# chunk at a time, when a granule in it materialises), and building the engines
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
        'BEGIN { exit !(b > 0 && b <= 1 && c > 0 && bc > 0 && bns > 0 && ns / c <= 3 * bns / bc) }'
done

# Interval-log gate (n = 8 and n = 32): a log filled by applying one
# 10 000-record batch of one-notice records holds each record in its
# creator, clock and notice words plus an end offset -- at most 4 * (n + 4)
# heap bytes -- and allocates nothing per record: at most 0.01 allocations
# each (the JSON keeps three decimals, so a few growths read as 0.000).
for n in 8 32; do
    bytes=$(ratio "engine_bytes_per_logged_record_n$n")
    allocs=$(ratio "engine_allocs_per_logged_record_n$n")
    echo "==> interval log n=$n: ${bytes} B and ${allocs} allocations per logged record"
    [[ -n $bytes && -n $allocs ]]
    awk -v b="$bytes" -v a="$allocs" -v n="$n" \
        'BEGIN { exit !(b > 0 && b <= 4 * (n + 4) && a >= 0 && a <= 0.01) }'
done

# Stored-diff gate (n = 8 and n = 32), beside the interval log's: a store
# filled by keeping one 10 000-record batch of fetched diffs (the update
# strategy) holds each record in its 6 header words, n clock words and its
# runs -- at most its run bytes plus 4 * (n + 6), and a tenth of a byte
# for what the batch allocates once -- and allocates nothing per record:
# at most 0.01 allocations each.
for n in 8 32; do
    bytes=$(ratio "engine_bytes_per_stored_diff_n$n")
    runs=$(ratio "engine_run_bytes_per_stored_diff_n$n")
    allocs=$(ratio "engine_allocs_per_stored_diff_n$n")
    echo "==> diff store n=$n: ${bytes} B (${runs} of runs) and ${allocs} allocations per stored diff"
    [[ -n $bytes && -n $runs && -n $allocs ]]
    awk -v b="$bytes" -v r="$runs" -v a="$allocs" -v n="$n" \
        'BEGIN { exit !(b > 0 && r > 0 && b <= r + 4 * (n + 6) + 0.1 && a >= 0 && a <= 0.01) }'
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

# Row gates, each within 3x of the committed time, normalised like the
# gates above:
# - the interval log on both sides of a RELEASE: the 8-record payload out of
#   a 4-creator x 2 000-record log, and accepting 64 decoded records;
# - the codec: a 4-creator RELEASE of 8 records encoded with transport
#   headroom, and decoded back. The benchmark builds without LTO, so a codec
#   function that loses its `#[inline]` shows here as a call per field;
# - the serving load generator: one arrival (gap, Zipf key, op) drawn at
#   paper scale, 65 536 keys;
# - observing a run: a test-scale Quicksort Hybrid-1 launch on four nodes
#   with the checker, and with the checker and the tracer on one stream
#   (the host seconds a checked run adds, in absolute ns).
for row in "interval_log newer_than_8_of_4x2000" "interval_log apply_64_decoded" \
    "codec encode_framed" "codec decode" "serve next_arrival_64k" \
    "observe check" "observe both"; do
    read -r group id <<< "$row"
    ns=$(median_ns "$group" "$id")
    base=$(median_ns "$group" "$id" "$committed")
    echo "==> $group/$id: ${ns} ns (committed ${base})"
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

# Non-test source lines: each file up to its `#[cfg(test)]` module, per
# source directory. They must equal the committed BENCH_lines.json, so
# every change records its line delta there.
count_lines() {
    find "$1" -name '*.rs' -print0 |
        xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }'
}
lines=0
{
    echo "{"
    for dir in crates/*/src src; do
        n=$(count_lines "$dir")
        lines=$((lines + n))
        echo "  \"$dir\": $n,"
    done
    echo "  \"total\": $lines"
    echo "}"
} > target/BENCH_lines.json
if ! diff BENCH_lines.json target/BENCH_lines.json; then
    echo "non-test source lines differ from BENCH_lines.json:" \
        "cp target/BENCH_lines.json BENCH_lines.json and commit it" >&2
    exit 1
fi
echo "==> ${lines} non-test source lines in crates/*/src + src/; ci.sh took $((SECONDS - started)) s"
echo "ci.sh: all green"
