//! Write notices for granules a node has no copy of stay in the interval
//! log: they materialise no page-table entry, survive no collection, and
//! are found by the first copy's install.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use carlos_lrc::{
    Demand, Diffs, IntervalRecord, LrcConfig, LrcEngine, PageId, PageState, Records, Vc,
};

/// Counts this thread's allocations (the test harness runs tests on
/// parallel threads, so process-wide counters would see each other).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(layout: Layout) {
    ALLOCS.set(ALLOCS.get() + 1);
    BYTES.set(BYTES.get() + layout.size());
}

// SAFETY: defers every operation to `System` unchanged; the counters are
// const-initialised thread-locals without destructors, so touching them
// inside the allocator neither allocates nor outlives the thread.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

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

/// `(allocations, bytes requested)` by this thread while `f` ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (a0, b0) = (ALLOCS.get(), BYTES.get());
    let out = f();
    (out, ALLOCS.get() - a0, BYTES.get() - b0)
}

fn satisfy(e: &mut [LrcEngine], node: usize, demands: Vec<Demand>) {
    for d in demands {
        match d {
            Demand::Diffs {
                to,
                page,
                after,
                through,
            } => {
                let recs: Diffs = e[to as usize].own_diffs(page, after, through).collect();
                e[node].apply_diff_records(page, &recs);
            }
            Demand::Page { to, page } => {
                let (data, applied) = e[to as usize].serve_page(page, node as u32);
                assert!(e[node].install_page(page, data, applied));
            }
        }
    }
}

fn write(e: &mut [LrcEngine], node: usize, addr: usize, data: &[u8]) {
    while let Err(demands) = e[node].write(addr, data) {
        satisfy(e, node, demands);
    }
}

/// Ships `from`'s records that `to` lacks.
fn sync(e: &mut [LrcEngine], from: usize, to: usize) {
    let recs = e[from].records_newer_than(e[to].vt());
    e[to].apply_records(&recs);
}

/// The runtime's collection: close, equalise clocks, validate, discard.
fn gc(e: &mut [LrcEngine]) {
    e.iter_mut().for_each(|x| drop(x.close_interval()));
    for _round in 0..2 {
        for a in 0..e.len() {
            (0..e.len()).filter(|&b| b != a).for_each(|b| sync(e, a, b));
        }
    }
    for node in 0..e.len() {
        let demands = e[node].gc_validate_demands();
        satisfy(e, node, demands);
    }
    e.iter_mut().for_each(LrcEngine::gc_discard);
}

#[test]
fn a_notice_collected_before_the_first_touch_stays_collected() {
    // Node 0 owns every page, node 1 writes, node 2 only hears about it.
    let cfg = LrcConfig::small_test(3);
    let mut e: Vec<LrcEngine> = (0..3).map(|i| LrcEngine::new(i, cfg.clone())).collect();
    let (p, q): (PageId, PageId) = (2, 5);
    write(&mut e, 1, p as usize * 64, &[7]);
    write(&mut e, 1, q as usize * 64, &[9]);
    e[1].close_interval().expect("two dirty pages");
    sync(&mut e, 1, 2);
    assert_eq!(
        e[2].resident_pages(),
        0,
        "notices alone materialise nothing"
    );
    assert_eq!(e[2].page_state(p), PageState::Missing);
    assert!(
        !e[2].covers_with_claims(p, &Diffs::new()),
        "a logged notice is outstanding"
    );

    gc(&mut e);
    assert_eq!(e[2].resident_pages(), 0);
    assert!(
        e[2].covers_with_claims(p, &Diffs::new()),
        "the collection took the notice"
    );

    // Interval 2 names p only; the owner's copy reflects interval 1.
    write(&mut e, 1, p as usize * 64 + 1, &[8]);
    e[1].close_interval().expect("one dirty page");
    sync(&mut e, 1, 2);

    // q's first copy is current: nothing from before the collection is
    // outstanding.
    let mut byte = [0u8];
    let demands = e[2]
        .read(q as usize * 64, &mut byte)
        .expect_err("no copy yet");
    assert_eq!(demands, vec![Demand::Page { to: 0, page: q }]);
    satisfy(&mut e, 2, demands);
    assert_eq!(e[2].page_state(q), PageState::ReadOnly);
    assert!(e[2].fault_demands(q).is_empty());
    e[2].read(q as usize * 64, &mut byte).expect("current copy");
    assert_eq!(byte, [9]);

    // p's first copy lists interval 2 alone.
    let (data, applied) = e[0].serve_page(p, 2);
    assert_eq!(applied, Vc::from_slice(&[0, 1, 0]));
    assert!(e[2].install_page(p, data, applied));
    assert_eq!(
        e[2].fault_demands(p),
        vec![Demand::Diffs {
            to: 1,
            page: p,
            after: 1,
            through: 2
        }]
    );
    let mut word = [0u8; 2];
    while let Err(demands) = e[2].read(p as usize * 64, &mut word) {
        satisfy(&mut e, 2, demands);
    }
    assert_eq!(word, [7, 8]);
    assert_eq!(e[2].resident_pages(), 2);
}

#[test]
fn notices_for_untouched_foreign_granules_allocate_only_the_log() {
    const N: u32 = 10_000;
    /// A creator's log is two flat arrays (record words, record ends),
    /// each grown at most once by a batch.
    const LOG_ARRAYS: usize = 2;
    let n = 2;
    let cfg = LrcConfig {
        region_bytes: (N as usize + 1) * 64,
        ..LrcConfig::small_test(n)
    };
    let mut reader = LrcEngine::new(1, cfg);
    let rec = |index: u32| IntervalRecord {
        node: 0,
        index,
        vc: Vc::from_slice(&[index, 0]),
        pages: vec![index - 1],
    };
    // A first notice sets up the writer's log.
    assert_eq!(reader.apply_records(&[rec(1)].into_iter().collect()), 1);
    let batch: Records = (2..=N + 1).map(rec).collect();
    let (applied, allocs, bytes) = counted(|| reader.apply_records(&batch));
    assert_eq!(applied, N as usize);
    // One growth of each of the writer's log arrays to hold the batch,
    // nothing per notice.
    assert_eq!(allocs, LOG_ARRAYS, "{allocs} allocations for {N} notices");
    // A record of one notice is its creator, clock and notice words and
    // its end: 4 * (n + 3) bytes, with room for one word more.
    assert!(
        bytes <= (N as usize + 1) * 4 * (n + 4),
        "{bytes} bytes for {N} notices"
    );
    assert_eq!(reader.resident_pages(), 0);
    assert_eq!(reader.stats().notices_applied, u64::from(N) + 1);
}
