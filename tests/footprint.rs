//! The page table's footprint follows the granules a node touches, not
//! the address space: constructing an engine is O(1) allocations and a
//! few bytes per granule, reads of never-written owner memory materialise
//! nothing, and each first mutation materialises exactly one entry. A
//! diff's footprint follows its bytes, not its run count. Accepting a
//! RELEASE moves its records into the interval log instead of copying them.
//! Sending a message costs one allocation: the encoder's buffer is the frame.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use carlos::core::{Annotation, Consistency, Message};
use carlos::lrc::{
    Diff, IntervalRecord, LrcConfig, LrcEngine, PageOwnership, PageState, RegionSpec,
};
use carlos::sim::{AckMode, Cluster, SimConfig, Transport};
use carlos::util::codec::Wire;

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

const FINE: usize = 64;
const FINE_GRANULES: usize = 1 << 20;
const PAGE: usize = 8192;

/// 32 nodes over 2^20 hinted 64 B granules plus a few default pages, all
/// owned by node 0.
fn big_config() -> LrcConfig {
    LrcConfig {
        region_bytes: FINE_GRANULES * FINE + 4 * PAGE,
        regions: vec![RegionSpec::new(0, FINE_GRANULES * FINE, FINE)],
        ownership: PageOwnership::SingleOwner(0),
        ..LrcConfig::osdi94(32, 0)
    }
}

#[test]
fn construction_is_constant_allocations_and_bytes_per_granule() {
    let cfg = big_config();
    for node in [0, 7] {
        let (engine, allocs, bytes) = counted(|| LrcEngine::new(node, cfg.clone()));
        let granules = engine.granules().n_granules();
        assert!(granules > FINE_GRANULES);
        assert!(
            allocs <= 16,
            "node {node}: {allocs} allocations for {granules} granules"
        );
        assert!(
            bytes <= 16 * granules,
            "node {node}: {} bytes per granule",
            bytes as f64 / granules as f64
        );
        assert_eq!(engine.resident_pages(), 0);
    }
}

#[test]
fn reading_untouched_owner_memory_materialises_nothing() {
    let cfg = big_config();
    let mut owner = LrcEngine::new(0, cfg.clone());
    let mut buf = vec![0xEEu8; 1 << 16];
    let (all_zero, allocs, _) = counted(|| {
        let mut all_zero = true;
        for addr in (0..cfg.region_bytes).step_by(buf.len()) {
            let chunk = &mut buf[..(cfg.region_bytes - addr).min(1 << 16)];
            chunk.fill(0xEE);
            owner
                .read(addr, chunk)
                .expect("an owner reads its own pages");
            all_zero &= chunk.iter().all(|&b| b == 0);
        }
        all_zero
    });
    assert!(all_zero, "never-written memory must read as zeros");
    assert_eq!(allocs, 0, "reads of untouched pages must not allocate");
    assert_eq!(owner.resident_pages(), 0);
    // Serving an untouched page ships zeros without materialising it.
    let (data, applied) = owner.serve_page(5);
    assert_eq!((data, applied.sum()), (vec![0; FINE], 0));
    assert_eq!(owner.resident_pages(), 0);
}

#[test]
fn each_first_mutation_materialises_exactly_one_entry() {
    let cfg = big_config();
    let mut owner = LrcEngine::new(0, cfg.clone());
    let mut other = LrcEngine::new(9, cfg);

    // A write fault.
    owner.write(3 * FINE + 8, &[1, 2, 3]).expect("owner write");
    assert_eq!(owner.resident_pages(), 1);
    owner
        .write(3 * FINE + 40, &[4])
        .expect("same granule, already resident");
    assert_eq!(owner.resident_pages(), 1);

    // Closing the interval touches only the page it announces.
    let rec = owner.close_interval().expect("one dirty page");
    assert_eq!(rec.pages, vec![3]);
    assert_eq!(owner.resident_pages(), 1);

    // A foreign write notice.
    assert_eq!(other.apply_records(vec![rec]), 1);
    assert_eq!(other.resident_pages(), 1);
    assert_eq!(other.page_state(3), PageState::Missing);

    // An installed copy (of a page no notice named).
    assert!(
        other.read(100 * FINE, &mut [0u8; 4]).is_err(),
        "no copy yet"
    );
    assert_eq!(
        other.resident_pages(),
        1,
        "a fault alone materialises nothing"
    );
    let (data, applied) = owner.serve_page(100);
    assert!(other.install_page(100, data, applied));
    assert_eq!(other.resident_pages(), 2);
    assert_eq!(
        owner.resident_pages(),
        1,
        "serving materialised nothing on the owner"
    );
    let mut word = [0xEEu8; 4];
    other
        .read(100 * FINE, &mut word)
        .expect("installed copy is readable");
    assert_eq!(word, [0; 4]);
}

#[test]
fn a_diff_is_one_buffer_however_many_runs_it_has() {
    // Every eighth byte of an 8 KiB page changed: 1 024 one-byte runs.
    let twin = vec![0u8; PAGE];
    let mut cur = twin.clone();
    for b in cur.iter_mut().step_by(8) {
        *b = 1;
    }
    let (diff, created_allocs, created_bytes) = counted(|| Diff::create(&twin, &cur));
    let runs = diff.runs().count();
    assert_eq!((runs, diff.modified_bytes()), (1024, 1024));
    let budget = 8 * runs + diff.modified_bytes() + 64;

    let (copy, cloned_allocs, cloned_bytes) = counted(|| diff.clone());
    let wire = diff.to_wire();
    let (fetched, decoded_allocs, decoded_bytes) =
        counted(|| Diff::from_wire(&wire).expect("own encoding"));
    assert_eq!((&copy, &fetched), (&diff, &diff));

    for (what, allocs, bytes) in [
        ("create", created_allocs, created_bytes),
        ("clone", cloned_allocs, cloned_bytes),
        ("decode", decoded_allocs, decoded_bytes),
    ] {
        assert!(allocs <= 2, "{what}: {allocs} allocations for {runs} runs");
        assert!(
            bytes <= budget,
            "{what}: {bytes} heap bytes, budget {budget}"
        );
    }
    assert!(std::mem::size_of::<Diff>() <= 24);
}

/// Allocations made by applying a decoded RELEASE batch of `k` records
/// from one writer, on a reader that already holds a current copy of every
/// page the notices name (so no entry materialises and nothing is
/// invalidated).
fn release_apply_allocs(k: u32) -> usize {
    let cfg = LrcConfig::small_test(2);
    let mut writer = LrcEngine::new(0, cfg.clone());
    let mut reader = LrcEngine::new(1, cfg);
    for i in 0..k {
        writer
            .write(i as usize % 4 * 64, &[i as u8 + 1])
            .expect("owner write");
        writer.close_interval().expect("one dirty page");
    }
    for page in 0..4 {
        let (data, applied) = writer.serve_page(page);
        assert!(reader.install_page(page, data, applied));
    }
    let wire: Vec<Vec<u8>> = writer
        .records_newer_than(reader.vt())
        .iter()
        .map(Wire::to_wire)
        .collect();
    let batch: Vec<IntervalRecord> = wire
        .iter()
        .map(|w| IntervalRecord::from_wire(w).expect("own encoding"))
        .collect();
    let (applied, allocs, _) = counted(|| reader.apply_records(batch));
    assert_eq!(applied, k as usize);
    assert_eq!(reader.vt(), writer.vt());
    allocs
}

#[test]
fn applying_a_release_batch_allocates_nothing_per_record() {
    let (small, large) = (release_apply_allocs(16), release_apply_allocs(64));
    assert_eq!(
        small, large,
        "16 records: {small} allocations; 64 records: {large}"
    );
}

/// Allocations made by encoding and sending `k` NONE messages over a
/// 2-node implicit-ack transport. The messages are built beforehand, and a
/// first round of `k` (drained by the receiver before the counted round)
/// grows the event queue, the mailbox and the receive queue to size, so
/// what is counted is the per-frame cost alone. Procs are coroutines on
/// this thread, so the receiver only drains: anything it allocated would
/// be counted too.
fn send_allocs(k: usize) -> usize {
    let allocs = Rc::new(Cell::new(usize::MAX));
    let out = Rc::clone(&allocs);
    let mut cluster = Cluster::new(SimConfig::fast_test(), 2);
    cluster.spawn_node(0, move |ctx| {
        let mut t = Transport::new(ctx, AckMode::Implicit);
        let msg = |i: usize| Message {
            src: 0,
            origin: 0,
            handler: 1,
            annotation: Annotation::None,
            body: (i as u64).to_le_bytes().to_vec(),
            consistency: Consistency::None,
        };
        let msgs: Vec<Message> = (0..2 * k).map(msg).collect();
        for m in &msgs[..k] {
            t.send(1, m.to_framed(0));
        }
        t.wait(None).expect("the receiver drained the first round");
        let ((), n, _) = counted(|| {
            for m in &msgs[k..] {
                t.send(1, m.to_framed(0));
            }
        });
        out.set(n);
    });
    cluster.spawn_node(1, move |ctx| {
        let mut t = Transport::new(ctx, AckMode::Implicit);
        for round in 0..2 {
            for _ in 0..k {
                t.wait(None).expect("every frame arrives");
            }
            if round == 0 {
                t.send(0, vec![1]);
            }
        }
    });
    cluster.run();
    allocs.get()
}

#[test]
fn a_sent_frame_is_one_allocation() {
    for k in [16, 64] {
        let allocs = send_allocs(k);
        assert_eq!(
            allocs, k,
            "{k} frames: {allocs} allocations; the encoder's buffer should be the only one"
        );
    }
}
