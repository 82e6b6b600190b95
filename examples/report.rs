//! The paper report: regenerates every table and figure of the paper's
//! evaluation — Tables 1–3 (plus SOR) across 1–4 nodes, Figure 2, §5.4's
//! microcosts, per-notice costs and all-RELEASE runs, §5's TreadMarks-style
//! dispatch — and the ablations beyond it, every row traced, writing
//! `BENCH_paper.json` and printing a Markdown report, with per-message-class
//! cost attribution, rendered from the document it wrote. TSP Lock and SOR also run at 8 nodes, extending the
//! scaling tables past the paper's testbed. Appends the serving rows
//! (`carlos::serve`): open-loop Zipfian KV traffic at 8–32 nodes (tail latency,
//! ops/s, bytes/op) plus a chaos row reporting harvest and yield under
//! burst loss and a partition.
//!
//! Run with `cargo run --release --example report`. Environment:
//!
//! - `CARLOS_REPORT_QUICK=1` — test-scale workloads (what CI runs);
//! - `CARLOS_REPORT_OUT=path` — JSON destination (default
//!   `BENCH_paper.json` in the current directory);
//! - `CARLOS_REPORT_BASELINE=path` — the regression gate against a
//!   committed report: every baseline row and serve row must come back
//!   with every field equal, host seconds apart (`row_gate`); exits
//!   nonzero otherwise;
//! - `CARLOS_REPORT_FOOTPRINT=path` — also runs the footprint ledger's
//!   cells (`carlos::bench::footprint`) under this binary's counting
//!   allocator and writes the ledger there (`BENCH_footprint.json` is the
//!   committed one; the same at either scale).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Display;

use carlos::apps::{launch, Scale};
use carlos::bench::footprint::{self, Heap};
use carlos::bench::report::{
    decode, row_gate, run_microcosts, run_report, run_serve_rows, to_json, to_markdown,
    ReportOptions, SPECS,
};

/// Counts this thread's heap activity. A run's procs are coroutines on the
/// thread that runs it, so per-thread counters see the whole run.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<u64> = const { Cell::new(0) };
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

fn grew(size: usize) {
    ALLOCS.set(ALLOCS.get() + 1);
    BYTES.set(BYTES.get() + size as u64);
    let live = LIVE.get() + size as u64;
    LIVE.set(live);
    PEAK.set(PEAK.get().max(live));
}

fn shrank(size: usize) {
    LIVE.set(LIVE.get().wrapping_sub(size as u64));
}

// SAFETY: defers every operation to `System` unchanged; the counters are
// const-initialised thread-locals without destructors, so touching them
// inside the allocator neither allocates nor outlives the thread.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from `System` with this `layout` (above).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// This thread's heap activity while `f` ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Heap) {
    let (a0, b0, live0) = (ALLOCS.get(), BYTES.get(), LIVE.get());
    PEAK.set(live0);
    let out = f();
    let heap = Heap {
        allocs: ALLOCS.get() - a0,
        bytes: BYTES.get() - b0,
        peak_live: PEAK.get() - live0,
    };
    (out, heap)
}

/// Runs every ledger cell once, counted, and writes the ledger to `path`.
fn write_footprint(path: &str) {
    let rows: Vec<footprint::Row> = footprint::cells()
        .into_iter()
        .map(|(label, spec)| {
            let (run, heap) = counted(|| launch(&spec));
            let run = or_exit(run, &format!("{label} failed"));
            footprint::Row::new(label, &run, heap)
        })
        .collect();
    let json = footprint::to_json(&rows);
    or_exit(std::fs::write(path, json), &format!("cannot write {path}"));
    eprintln!("wrote {path} ({} rows)", rows.len());
}

/// The value, or exit 1 after printing `what` and the error.
fn or_exit<T>(r: Result<T, impl Display>, what: &str) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{what}: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let opts = ReportOptions::from_env();
    eprintln!(
        "running report at {} scale, 1-{} nodes + 8-node TSP/SOR...",
        if opts.scale == Scale::Quick { "quick" } else { "paper" },
        opts.max_nodes
    );
    let rows = or_exit(run_report(SPECS, &opts), "report failed");
    let micro = or_exit(run_microcosts(), "microcosts failed");
    eprintln!("running serve rows (KV + KV/chaos)...");
    let serve = or_exit(run_serve_rows(&opts), "serve report failed");
    let path =
        std::env::var("CARLOS_REPORT_OUT").unwrap_or_else(|_| "BENCH_paper.json".to_string());
    let json = to_json(&rows, Some(&micro), &serve, &opts);
    or_exit(std::fs::write(&path, &json), &format!("cannot write {path}"));
    eprintln!("wrote {path}");
    if let Ok(baseline_path) = std::env::var("CARLOS_REPORT_BASELINE") {
        let baseline = or_exit(
            std::fs::read_to_string(&baseline_path),
            &format!("cannot read baseline {baseline_path}"),
        );
        for line in or_exit(row_gate(&json, &baseline), "row gate FAILED") {
            eprintln!("row gate: {line}");
        }
    }
    if let Ok(path) = std::env::var("CARLOS_REPORT_FOOTPRINT") {
        eprintln!("running the footprint ledger...");
        write_footprint(&path);
    }
    // The Markdown comes from the document just written, as the docs'
    // tables come from the committed one.
    print!("{}", to_markdown(&or_exit(decode(&json), "report JSON does not decode")));
}
