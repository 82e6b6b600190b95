//! Host wall-clock benchmarks of the hot paths: diff creation,
//! application and the whole life of a fetched diff (create, encode,
//! decode, apply, drop), the wire codec, vector timestamps and interval
//! records, the interval log on both sides of a RELEASE, the serving
//! load generator (building a run's Zipf table, drawing one arrival), and
//! what observing a run costs: one test-scale Quicksort launch with no
//! observer, the tracer, the checker, or both on its event stream.
//! A counting allocator prices one dense diff: `diff_allocs_*` and
//! `diff_heap_bytes_per_run_*`, both deterministic, as are the encoded
//! size and run count of a rewritten page of typed data
//! (`diff_wire_len_typed_*`, `diff_runs_typed_*`, the latter also for a
//! partitioned page of keys). A raw 2-node ping-pong prices the scheduler
//! itself: `serial_ns_per_event` and `serial_ns_per_handoff`.
//! Constructing the serving layout's engines prices the sparse page
//! table: `engine_new_ns_per_granule_*` and
//! `engine_bytes_per_untouched_granule_*`, and a log filled from one
//! batch prices a logged interval record: `engine_bytes_per_logged_record_*`
//! and `engine_allocs_per_logged_record_*`, and a store filled from one
//! batch of kept diffs a stored diff: `engine_bytes_per_stored_diff_*`,
//! `engine_run_bytes_per_stored_diff_*` and
//! `engine_allocs_per_stored_diff_*`. `calib_ms` (a fixed integer
//! loop) is recorded beside them so `tests/hotpath.rs` can gate the
//! timing across hosts. End-to-end host time is `benchmark/`'s to measure.
//!
//! Run with `cargo bench -p carlos-bench --bench wallclock`. Results are
//! written to `BENCH_hotpath.json` at the repository root (override the
//! path with `CARLOS_BENCH_OUT`); `CARLOS_BENCH_QUICK=1` shrinks warm-up,
//! sample counts and repetitions for CI.
//!
//! `encode_finish_copy` reproduces the old `finish_vec` full-buffer copy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use carlos_apps::serve::run::{lrc_config, ServeConfig};
use carlos_apps::serve::{Workload, ZipfTable};
use carlos_apps::{launch_with, App, QsortVariant, Scale, Spec};
use carlos_check::Checker;
use carlos_core::{Annotation, Consistency, Message};
use carlos_lrc::{
    interval::IntervalStore, Diff, Diffs, IntervalRecord, LrcConfig, LrcEngine, Records, Vc,
};
use carlos_sim::{Cluster, SimConfig};
use carlos_trace::Tracer;
use carlos_util::{codec::Wire, event::Interval, rng::Xoshiro256};

/// One timed routine: median nanoseconds per iteration over the samples.
struct BenchRow {
    group: &'static str,
    id: String,
    median_ns: f64,
    iters: u64,
}

/// Warm-up, then the median of fixed-length samples, per routine.
struct Bencher {
    warmup: Duration,
    sample: Duration,
    samples: usize,
    rows: Vec<BenchRow>,
}

impl Bencher {
    fn new(quick: bool) -> Self {
        let (warmup, sample, samples) = if quick { (20, 5, 9) } else { (200, 25, 21) };
        Self {
            warmup: Duration::from_millis(warmup),
            sample: Duration::from_millis(sample),
            samples,
            rows: Vec::new(),
        }
    }

    /// Measures `timed(iters)`, the time `iters` runs of a routine take.
    /// Warm-up sizes `iters` so that one sample lasts about `self.sample`.
    fn measure(
        &mut self,
        group: &'static str,
        id: impl Into<String>,
        mut timed: impl FnMut(u64) -> Duration,
    ) {
        let mut iters = 1u64;
        let start = Instant::now();
        while start.elapsed() < self.warmup {
            let per_iter = timed(iters).as_nanos().max(1) / u128::from(iters);
            iters = (self.sample.as_nanos() / per_iter).clamp(1, 1 << 28) as u64;
        }
        let mut ns: Vec<f64> = (0..self.samples)
            .map(|_| timed(iters).as_nanos() as f64 / iters as f64)
            .collect();
        ns.sort_by(f64::total_cmp);
        let row = BenchRow {
            group,
            id: id.into(),
            median_ns: ns[ns.len() / 2],
            iters: iters * self.samples as u64,
        };
        let label = format!("{group}/{}", row.id);
        eprintln!("bench {label:<48} {:>12.1} ns/iter ({} iters)", row.median_ns, row.iters);
        self.rows.push(row);
    }

    /// Times `routine` back to back.
    fn iter<O>(
        &mut self,
        group: &'static str,
        id: impl Into<String>,
        mut routine: impl FnMut() -> O,
    ) {
        self.measure(group, id, |iters| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            start.elapsed()
        });
    }

    /// Times `routine` on a fresh input from `setup` each run; only the
    /// routine is on the clock.
    fn iter_batched<I, O>(
        &mut self,
        group: &'static str,
        id: impl Into<String>,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
    ) {
        self.measure(group, id, |iters| {
            (0..iters)
                .map(|_| {
                    let input = setup();
                    let start = Instant::now();
                    let out = routine(input);
                    let elapsed = start.elapsed();
                    drop(black_box(out));
                    elapsed
                })
                .sum()
        });
    }
}

/// Counts allocations and sums the bytes requested while a footprint
/// measurement has it armed; otherwise every allocation in this binary
/// pays one relaxed load.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

fn count(layout: Layout) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
    }
}

/// `f`'s result with the allocations it made and the bytes they asked for.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    ALLOCS.store(0, Ordering::Relaxed);
    REQUESTED.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed), REQUESTED.load(Ordering::Relaxed))
}

// SAFETY: defers every operation to `System` unchanged; the counters are
// plain atomics (statistics only, so `Relaxed`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // Not the default (`alloc` + memset): lazily zeroed memory is part of
    // what construction costs.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (above).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The page size of the diff rows.
const PAGE: usize = 4096;

/// A (twin, current) pair where roughly one byte in `change_every` moved.
/// `change_every == 0` means no changes (fully clean).
fn page_pair(change_every: usize) -> (Vec<u8>, Vec<u8>) {
    sized_pair(PAGE, change_every)
}

fn sized_pair(len: usize, change_every: usize) -> (Vec<u8>, Vec<u8>) {
    let mut rng = Xoshiro256::new(42);
    let twin: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
    let mut cur = twin.clone();
    if change_every > 0 {
        let mut i = change_every / 2;
        while i < len {
            cur[i] = cur[i].wrapping_add(1);
            i += change_every;
        }
    }
    (twin, cur)
}

/// Dirtiness ladder: clean page, one cache-line-ish run, sparse, dense,
/// fully rewritten.
const DIRTINESS: &[(&str, usize)] = &[
    ("clean", 0),
    ("mostly_clean_1_in_512", 512),
    ("sparse_1_in_64", 64),
    ("dense_1_in_8", 8),
    ("all_dirty", 1),
];

/// An 8 KiB page of `u32`s below 2^18 and the same page with every element
/// replaced by another such value — what a sorter leaves of a page of
/// keys. Every word differs and every top byte agrees: the input the
/// "one byte in N" ladder above never offers.
fn typed_u32_pages() -> (Vec<u8>, Vec<u8>) {
    let mut rng = Xoshiro256::new(0x5150_1994);
    let mut page = || -> Vec<u8> {
        (0..2048).flat_map(|_| (rng.next_below(1 << 18) as u32).to_le_bytes()).collect()
    };
    (page(), page())
}

/// An 8 KiB page of 2 048 distinct shuffled `u32`s before and after one
/// Lomuto pass around the key of rank 100: the shape of Quicksort's own
/// diffs, one stretch where the small keys gather and 90 runs in all, about
/// their mean.
fn typed_u32_partitioned_pages() -> (Vec<u8>, Vec<u8>) {
    let mut rng = Xoshiro256::new(0x5150_1994);
    let mut vals: Vec<u32> = (0..2048).collect();
    rng.shuffle(&mut vals);
    let last = vals.len() - 1;
    let pivot = vals
        .iter()
        .position(|&v| v == 100)
        .expect("a key of rank 100");
    vals.swap(pivot, last);
    let bytes = |vals: &[u32]| -> Vec<u8> { vals.iter().flat_map(|v| v.to_le_bytes()).collect() };
    let twin = bytes(&vals);
    let mut store = 0;
    for i in 0..last {
        if vals[i] <= vals[last] {
            vals.swap(i, store);
            store += 1;
        }
    }
    vals.swap(store, last);
    (twin, bytes(&vals))
}

/// An 8 KiB page of `f64`s `1.0 + 0.37 i` and the same page with every
/// element moved by `1e-3 sin i` — one step of a particle code: sign,
/// exponent and the top of the mantissa agree.
fn typed_f64_pages() -> (Vec<u8>, Vec<u8>) {
    let at = |i: usize| 1.0 + 0.37 * i as f64;
    let page = |f: &dyn Fn(usize) -> f64| (0..1024).flat_map(|i| f(i).to_le_bytes()).collect();
    (page(&at), page(&|i| at(i) + 1e-3 * (i as f64).sin()))
}

fn bench_diff_create(b: &mut Bencher) {
    for &(label, every) in DIRTINESS {
        let (twin, cur) = page_pair(every);
        b.iter("diff_create", format!("word_{label}"), || {
            Diff::create(black_box(&twin), black_box(&cur))
        });
    }
    for (label, (twin, cur)) in [
        ("typed_u32_rewritten_8k", typed_u32_pages()),
        ("typed_f64_perturbed_8k", typed_f64_pages()),
        ("typed_u32_partitioned_8k", typed_u32_partitioned_pages()),
    ] {
        b.iter("diff_create", label, || {
            Diff::create(black_box(&twin), black_box(&cur))
        });
    }
}

/// The variable-granularity coherence sizes: a 64 B fine granule (one
/// cache-line-ish hot scalar), a 256 B fine granule, the legacy 8 KiB
/// page, and a 1 MiB bulk granule. One create/apply row each at sparse
/// dirtiness, so BENCH_hotpath.json shows how twin/diff cost scales with
/// the granule the region table picks.
const GRANULES: &[(&str, usize)] = &[
    ("64B", 64),
    ("256B", 256),
    ("8KiB", 8192),
    ("1MiB", 1 << 20),
];

/// Times applying `diff` to a fresh copy of `twin`.
fn bench_apply(b: &mut Bencher, group: &'static str, id: String, twin: &[u8], diff: &Diff) {
    b.iter_batched(group, id, || twin.to_vec(), |mut page| {
        diff.apply(&mut page);
        page
    });
}

fn bench_diff_granules(b: &mut Bencher) {
    for &(label, len) in GRANULES {
        // Sparse dirtiness (one byte in 64) — the demand-fetch common case.
        let (twin, cur) = sized_pair(len, 64);
        b.iter("diff_granule", format!("create_{label}"), || {
            Diff::create(black_box(&twin), black_box(&cur))
        });
        let diff = Diff::create(&twin, &cur);
        bench_apply(b, "diff_granule", format!("apply_{label}"), &twin, &diff);
    }
}

fn bench_diff_apply(b: &mut Bencher) {
    for &(label, every) in DIRTINESS {
        if every == 0 {
            continue; // An empty diff applies in no time; nothing to see.
        }
        let (twin, cur) = page_pair(every);
        bench_apply(b, "diff_apply", label.to_string(), &twin, &Diff::create(&twin, &cur));
    }
}

/// What one fetched diff costs from end to end, which `diff_create` alone
/// hides: the writer creates and encodes it, the reader decodes, applies
/// and finally drops it.
fn bench_diff_lifecycle(b: &mut Bencher) {
    for (label, every) in [("dense_1_in_8", 8), ("sparse_1_in_64", 64)] {
        let (twin, cur) = page_pair(every);
        let mut page = twin.clone();
        b.iter("diff_lifecycle", label, || {
            let wire = Diff::create(black_box(&twin), black_box(&cur)).to_wire();
            let fetched = Diff::from_wire(black_box(&wire)).expect("roundtrip");
            fetched.apply(black_box(&mut page));
        });
    }
}

/// Allocations and heap bytes per run of one dense diff (a 4 KiB page,
/// one byte in 8 changed, so every second word is clean and the 512 runs
/// stay apart): the flat layout makes both independent of the run count —
/// one buffer of `8 * runs + modified` bytes. And what a rewritten page of
/// small `u32`s encodes to: one run, the page less its last (agreeing)
/// byte, 12 bytes of framing. And how many runs a partitioned page of keys
/// makes.
fn bench_diff_footprint() -> Vec<(String, f64)> {
    let (twin, cur) = page_pair(8);
    let (diff, allocs, bytes) = counted(|| Diff::create(&twin, &cur));
    let runs = diff.runs().count();
    eprintln!("diff footprint dense_1_in_8: {allocs} allocation(s), {bytes} B for {runs} runs");
    let (twin, cur) = typed_u32_pages();
    let typed = Diff::create(&twin, &cur);
    eprintln!(
        "diff typed_u32_8k: {} B on the wire in {} run(s)",
        typed.wire_len(),
        typed.runs().count()
    );
    let (twin, cur) = typed_u32_partitioned_pages();
    let partitioned = Diff::create(&twin, &cur).runs().count();
    vec![
        ("diff_allocs_dense_1_in_8".to_string(), allocs as f64),
        (
            "diff_heap_bytes_per_run_dense_1_in_8".to_string(),
            bytes as f64 / runs as f64,
        ),
        ("diff_wire_len_typed_u32_8k".to_string(), typed.wire_len() as f64),
        ("diff_runs_typed_u32_8k".to_string(), typed.runs().count() as f64),
        (
            "diff_runs_typed_u32_partitioned_8k".to_string(),
            partitioned as f64,
        ),
    ]
}

/// A RELEASE message shaped like real lock-transfer traffic: a required
/// timestamp plus a handful of interval records.
fn release_message() -> Message {
    let n = 8;
    let mut required = Vc::new(n);
    for i in 0..n as u32 {
        required.set(i, 17 + i);
    }
    let records = (0..6u32)
        .map(|k| {
            let mut vc = Vc::new(n);
            vc.set(k % n as u32, 18 + k);
            IntervalRecord {
                node: k % n as u32,
                index: 18 + k,
                vc,
                pages: (k..k + 4).collect(),
            }
        })
        .collect();
    Message {
        src: 1,
        origin: 1,
        handler: 3,
        annotation: Annotation::Release,
        body: vec![0xAB; 64],
        consistency: Consistency::Release {
            required,
            records,
            diffs: Vec::new(),
        },
    }
}

fn bench_codec(b: &mut Bencher) {
    let msg = release_message();
    let pad = 32;
    b.iter("codec", "encode_framed", || black_box(&msg).to_framed(pad));
    b.iter("codec", "encode_finish_vec", || black_box(&msg).to_wire_bytes(pad));
    // The pre-overhaul cost: encode, then copy the whole buffer out again
    // (what `finish_vec` used to do via `to_vec`).
    b.iter("codec", "encode_finish_copy", || black_box(&msg).to_wire_bytes(pad).clone());
    let bytes = msg.to_wire_bytes(pad);
    b.iter("codec", "decode", || Message::from_wire_bytes(1, black_box(&bytes)).expect("decode"));
}

/// Vector-timestamp operations on 16 nodes.
fn bench_vc(b: &mut Bencher) {
    let (mut x, mut y) = (Vc::new(16), Vc::new(16));
    for i in 0..16u32 {
        x.set(i, i % 5);
        y.set(i, (i + 2) % 7);
    }
    b.iter("vector_timestamp", "dominates_16", || black_box(&x).dominates(black_box(&y)));
    b.iter_batched("vector_timestamp", "join_16", || x.clone(), |mut z| {
        z.join(&y);
        z
    });
    b.iter("vector_timestamp", "wire_roundtrip_16", || {
        Vc::from_wire(&black_box(&x).to_wire()).expect("roundtrip")
    });
}

/// A batch of one interval record with 24 write notices through the codec.
fn bench_interval_record(b: &mut Bencher) {
    let mut vc = Vc::new(8);
    vc.set(3, 17);
    let rec = IntervalRecord {
        node: 3,
        index: 17,
        vc,
        pages: (0..24).collect(),
    };
    let batch: Records = [rec].into_iter().collect();
    b.iter("interval_record", "wire_roundtrip_24_notices", || {
        Records::from_wire(&black_box(&batch).to_wire()).expect("roundtrip")
    });
}

/// The interval log on both sides of a RELEASE. `newer_than`: the
/// payload a sender builds, 8 records (the last two of each creator) out
/// of a 4-creator log of 2 000 records each. `apply`: a receiver accepting
/// 64 decoded records of one writer, 4 notices each, invalidating its
/// copies of the 16 pages they name.
fn bench_interval_log(b: &mut Bencher) {
    let n = 4;
    let mut store = IntervalStore::new();
    for node in 0..n as u32 {
        for index in 1..=2000 {
            let mut vc = Vc::new(n);
            vc.set(node, index);
            let pages: Vec<u32> = (index..index + 4).collect();
            store.insert(Interval {
                creator: node,
                index,
                vt: vc.as_slice(),
                pages: &pages,
            });
        }
    }
    let mut have = Vc::new(n);
    (0..n as u32).for_each(|q| have.set(q, 1998));
    assert_eq!(store.newer_than(&have).len(), 8);
    b.iter("interval_log", "newer_than_8_of_4x2000", || {
        black_box(&store).newer_than(black_box(&have))
    });

    let cfg = LrcConfig::small_test(n);
    let mut writer = LrcEngine::new(0, cfg.clone());
    let mut reader = LrcEngine::new(1, cfg);
    for page in 0..16 {
        let (data, applied) = writer.serve_page(page, 1);
        assert!(reader.install_page(page, data, applied));
    }
    for i in 0..64usize {
        for page in i..i + 4 {
            writer.write(page % 16 * 64, &[i as u8]).expect("owner write");
        }
        writer.close_interval().expect("dirty pages");
    }
    let wire = writer.records_newer_than(reader.vt()).to_wire();
    b.iter_batched(
        "interval_log",
        "apply_64_decoded",
        || (reader.clone(), Records::from_wire(&wire).expect("decode")),
        |(mut engine, batch)| {
            assert_eq!(engine.apply_records(&batch), 64);
            engine
        },
    );
}

/// What a logged interval record costs the node that learns it: heap
/// bytes and allocations per record of a log filled by applying one
/// 10 000-record batch of one-notice records, at 8 and 32 nodes. A record
/// is its creator, clock and notice words and one end offset, so
/// `4 * (n + 3)` bytes.
fn bench_log_footprint() -> Vec<(String, f64)> {
    const RECORDS: u32 = 10_000;
    let mut out = Vec::new();
    for n in [8usize, 32] {
        let cfg = LrcConfig {
            region_bytes: RECORDS as usize * 64,
            ..LrcConfig::small_test(n)
        };
        let mut reader = LrcEngine::new(1, cfg);
        let batch: Records = (1..=RECORDS)
            .map(|index| {
                let mut vc = Vc::new(n);
                vc.set(0, index);
                IntervalRecord { node: 0, index, vc, pages: vec![index - 1] }
            })
            .collect();
        let (applied, allocs, bytes) = counted(|| reader.apply_records(&batch));
        assert_eq!(applied, RECORDS as usize);
        let per = |x: usize| x as f64 / f64::from(RECORDS);
        eprintln!(
            "interval log n={n}: {:.2} B, {:.4} allocations per logged record",
            per(bytes),
            per(allocs)
        );
        out.push((format!("engine_bytes_per_logged_record_n{n}"), per(bytes)));
        out.push((format!("engine_allocs_per_logged_record_n{n}"), per(allocs)));
    }
    out
}

/// What a kept diff costs the node that stores it: heap bytes and
/// allocations per record of a store filled by applying one 10 000-record
/// batch of fetched diffs under the update strategy, at 8 and 32 nodes,
/// beside the run bytes per record. A record is its 6 header words, its
/// `n` clock words and its runs, so `4 * (n + 6)` bytes above its runs.
fn bench_diff_store_footprint() -> Vec<(String, f64)> {
    const RECORDS: u32 = 10_000;
    let mut out = Vec::new();
    for n in [8usize, 32] {
        let cfg = LrcConfig::small_test(n);
        let mut writer = LrcEngine::new(0, cfg.clone());
        let mut reader = LrcEngine::new(1, cfg);
        reader.keep_fetched_diffs();
        let (data, applied) = writer.serve_page(0, 1);
        assert!(reader.install_page(0, data, applied));
        for i in 0..RECORDS {
            writer
                .write(i as usize % 16 * 4, &(i + 1).to_le_bytes())
                .expect("owner write");
            writer.close_interval().expect("one dirty page");
        }
        assert_eq!(
            reader.apply_records(&writer.records_newer_than(reader.vt())),
            RECORDS as usize
        );
        let batch: Diffs = writer.own_diffs(0, 0, RECORDS).collect();
        let runs: usize = batch.iter().map(|r| r.run_bytes()).sum();
        let ((), allocs, bytes) = counted(|| reader.apply_diff_records(0, &batch));
        assert_eq!(reader.stored_diff(0, 0, RECORDS), Some(batch.get(batch.len() - 1)));
        let per = |x: usize| x as f64 / f64::from(RECORDS);
        eprintln!(
            "diff store n={n}: {:.2} B ({:.2} of runs), {:.4} allocations per stored diff",
            per(bytes),
            per(runs),
            per(allocs)
        );
        out.push((format!("engine_bytes_per_stored_diff_n{n}"), per(bytes)));
        out.push((format!("engine_run_bytes_per_stored_diff_n{n}"), per(runs)));
        out.push((format!("engine_allocs_per_stored_diff_n{n}"), per(allocs)));
    }
    out
}

/// The serving load generator at paper scale (65 536 keys, θ 0.99): the
/// Zipf table a run builds once, and one arrival of a client's stream (gap,
/// key, op), CAS arrivals left out.
fn bench_serve(b: &mut Bencher) {
    let cfg = ServeConfig::paper(8);
    b.iter("serve", "zipf_table_64k", || {
        ZipfTable::new(black_box(cfg.keyspace), black_box(cfg.theta))
    });
    let mut w = Workload::new(
        cfg.seed,
        4,
        cfg.keyspace,
        cfg.theta,
        cfg.mean_interarrival,
        cfg.mix,
        u64::MAX,
        0,
        0,
    );
    b.iter("serve", "next_arrival_64k", || w.next_arrival());
}

/// Host time of observing a run, in absolute ns: `launch` of Quicksort
/// Hybrid-1 on four nodes at test scale, unobserved, traced (metrics
/// only), checked, and with both on one event stream.
fn bench_observe(b: &mut Bencher) {
    let spec = Spec::new(App::Quicksort(QsortVariant::Hybrid1), 4, Scale::Test);
    for (id, checked, traced) in [
        ("none", false, false),
        ("trace", false, true),
        ("check", true, false),
        ("both", true, true),
    ] {
        b.iter("observe", id, || {
            let check = checked.then(|| Checker::new(spec.n));
            let trace = traced.then(|| Tracer::metrics_only(spec.n));
            launch_with(&spec, check, trace).expect("a clean run")
        });
    }
}

/// Median host seconds of `run` over `reps` repetitions, and its last
/// result.
fn median_secs<F: FnMut() -> u64>(reps: usize, mut run: F) -> (f64, u64) {
    let mut secs: Vec<f64> = Vec::with_capacity(reps);
    let mut out = 0;
    for _ in 0..reps {
        let start = Instant::now();
        out = run();
        secs.push(start.elapsed().as_secs_f64());
    }
    secs.sort_by(f64::total_cmp);
    (secs[secs.len() / 2], out)
}

/// Scheduler micro-benchmark: a raw 2-node ping-pong — no
/// transport, no DSM, no charged compute — so host time is the switch
/// between procs and the event queue and nothing else.
///
/// Every round trip is four kernel events (two `Deliver`s, two `Wake`s)
/// and exactly two hand-offs (each a coroutine switch to the runner and one
/// on to the peer): each `wait_recv` parks, and the next live wake always
/// belongs to the peer. Returns `(key, ns)` pairs for the JSON `derived`
/// section.
fn bench_handoff(quick: bool) -> Vec<(&'static str, f64)> {
    let rounds: u64 = if quick { 20_000 } else { 100_000 };
    let (secs, events) = median_secs(if quick { 1 } else { 3 }, || {
        let mut cluster = Cluster::new(SimConfig::fast_test(), 2);
        cluster.spawn_node(0, move |ctx| {
            for _ in 0..rounds {
                ctx.send_datagram(1, vec![1]);
                black_box(ctx.wait_recv(None));
            }
        });
        cluster.spawn_node(1, move |ctx| {
            for _ in 0..rounds {
                black_box(ctx.wait_recv(None));
                ctx.send_datagram(0, vec![2]);
            }
        });
        cluster.run().events_processed
    });
    let per_event = secs * 1e9 / events as f64;
    let per_handoff = secs * 1e9 / (2.0 * rounds as f64);
    eprintln!(
        "serial ping-pong: {per_event:.0} ns/event, {per_handoff:.0} ns/hand-off \
         ({events} events, {} hand-offs)",
        2 * rounds
    );
    vec![
        ("serial_ns_per_event", per_event),
        ("serial_ns_per_handoff", per_handoff),
    ]
}

/// What the sparse page table costs before anything is touched, on the
/// serving layout (163 840 granules: 64 B slot headers + 128 B values) at
/// 8 and 32 nodes: host ns and heap bytes per granule per node to build
/// every node's engine. A dense table paid ~140 ns and ~210–400 B here.
fn bench_engine_footprint(quick: bool) -> Vec<(String, f64)> {
    let reps = if quick { 21 } else { 201 };
    let mut out = Vec::new();
    for n in [8usize, 32] {
        let cfg = lrc_config(&ServeConfig::paper(n));
        let build = || -> Vec<LrcEngine> {
            (0..n as u32).map(|node| LrcEngine::new(node, cfg.clone())).collect()
        };
        let (engines, _, bytes) = counted(build);
        let bytes = bytes as f64;
        assert!(engines.iter().all(|e| e.resident_pages() == 0));
        let granules = (engines[0].granules().n_granules() * n) as f64;
        drop(engines);
        let (secs, _) = median_secs(reps, || {
            black_box(build());
            0
        });
        let (ns, bytes) = (secs * 1e9 / granules, bytes / granules);
        eprintln!("engine footprint n={n}: {ns:.3} ns/granule, {bytes:.2} B/untouched granule");
        out.push((format!("engine_new_ns_per_granule_n{n}"), ns));
        out.push((format!("engine_bytes_per_untouched_granule_n{n}"), bytes));
    }
    // The benchmark package's calibration loop (`bench.calib_ms`): the
    // unit that makes a host-time gate portable across hosts.
    let (secs, _) = median_secs(if quick { 3 } else { 9 }, || {
        let mut rng = Xoshiro256::new(0xCA11_B8A7);
        black_box((0..10_000_000u64).fold(0, |acc, _| acc ^ rng.next_u64()))
    });
    out.push(("calib_ms".to_string(), secs * 1e3));
    out
}

fn write_json(
    rows: &[BenchRow],
    handoff: &[(&'static str, f64)],
    footprint: &[(String, f64)],
    quick: bool,
) {
    let benches: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"group\": \"{}\", \"id\": \"{}\", \"median_ns\": {:.1}, \"iters\": {}}}",
                r.group, r.id, r.median_ns, r.iters
            )
        })
        .collect();
    // Amortized per-event and per-hand-off cost of the scheduler itself,
    // then the footprint keys.
    let mut derived: Vec<String> =
        handoff.iter().map(|(key, ns)| format!("    \"{key}\": {ns:.0}")).collect();
    derived.extend(footprint.iter().map(|(key, v)| format!("    \"{key}\": {v:.3}")));
    derived.push(format!(
        "    \"host_cores\": {}",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    ));
    let s = format!(
        "{{\n  \"generated_by\": \"cargo bench -p carlos-bench --bench wallclock\",\n  \
         \"quick_mode\": {quick},\n  \"benches\": [\n{}\n  ],\n  \"derived\": {{\n{}\n  }}\n}}\n",
        benches.join(",\n"),
        derived.join(",\n")
    );
    let path = std::env::var("CARLOS_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json").to_string()
    });
    std::fs::write(&path, s).expect("write BENCH_hotpath.json");
    eprintln!("wrote {path}");
}

fn main() {
    let quick =
        std::env::var("CARLOS_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let mut b = Bencher::new(quick);
    bench_diff_create(&mut b);
    bench_diff_granules(&mut b);
    bench_diff_apply(&mut b);
    bench_diff_lifecycle(&mut b);
    bench_codec(&mut b);
    bench_vc(&mut b);
    bench_interval_record(&mut b);
    bench_interval_log(&mut b);
    bench_serve(&mut b);
    bench_observe(&mut b);
    let handoff = bench_handoff(quick);
    let mut footprint = bench_diff_footprint();
    footprint.extend(bench_log_footprint());
    footprint.extend(bench_diff_store_footprint());
    footprint.extend(bench_engine_footprint(quick));
    write_json(&b.rows, &handoff, &footprint, quick);
}
