//! The page table's footprint follows the granules a node touches, not
//! the address space: constructing an engine is O(1) allocations and a
//! few bytes per granule, reads of never-written owner memory materialise
//! nothing, a write notice for a granule without a copy materialises
//! nothing, and each first mutation materialises exactly one entry. A
//! diff's footprint follows its bytes, not its run count. Building,
//! framing, decoding and applying a RELEASE's interval records costs the
//! same number of allocations for 16 records as for 64, and so do serving,
//! encoding, decoding and applying 16 diffs against 64.
//! Sending a message costs one allocation: the encoder's buffer is the frame.
//! A serving run builds one Zipf table, however many clients it has.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use carlos::apps::{launch, Answer, App, Scale, Spec, Traffic};
use carlos::core::{Annotation, Consistency, Message};
use carlos::lrc::{Demand, Diff, LrcConfig, LrcEngine, PageOwnership, PageState, RegionSpec, Vc};
use carlos::serve::ServeConfig;
use carlos::sim::{AckMode, Cluster, SimConfig, Transport};
use carlos::util::codec::{Encoder, Wire};

/// Counts this thread's allocations (the test harness runs tests on
/// parallel threads, so process-wide counters would see each other).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
    /// Allocations of exactly `WATCHED_SIZE` bytes (0: none watched).
    static WATCHED: Cell<usize> = const { Cell::new(0) };
    static WATCHED_SIZE: Cell<usize> = const { Cell::new(0) };
}

fn count(layout: Layout) {
    ALLOCS.set(ALLOCS.get() + 1);
    BYTES.set(BYTES.get() + layout.size());
    if layout.size() == WATCHED_SIZE.get() {
        WATCHED.set(WATCHED.get() + 1);
    }
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
    let first = owner.close_interval().expect("one dirty page");
    assert_eq!(first.pages, vec![3]);
    assert_eq!(owner.resident_pages(), 1);
    let (copy, copy_applied) = owner.serve_page(3);
    owner.write(3 * FINE + 9, &[5]).expect("owner write");
    let second = owner.close_interval().expect("one dirty page");

    // Foreign write notices for a granule with no copy stay in the log.
    assert_eq!(
        other.apply_records(&[first, second].into_iter().collect()),
        2
    );
    assert_eq!(other.resident_pages(), 0);
    assert_eq!(other.page_state(3), PageState::Missing);

    // A first copy lists exactly the notices above the copy's `applied`.
    assert!(other.install_page(3, copy, copy_applied));
    assert_eq!(other.resident_pages(), 1);
    assert_eq!(other.page_state(3), PageState::Invalid);
    assert_eq!(
        other.fault_demands(3),
        vec![Demand::Diffs {
            to: 0,
            page: 3,
            after: 1,
            through: 2
        }]
    );

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

/// A writer that closed `k` one-page intervals over 4 pages, and a reader
/// that holds a current copy of each of those pages (so applying the
/// writer's notices materialises no entry and invalidates nothing).
fn writer_and_reader(k: u32) -> (LrcEngine, LrcEngine) {
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
    (writer, reader)
}

/// `writer`'s records newer than `have`, as the RELEASE a runtime frames.
fn release(writer: &LrcEngine, have: &Vc) -> Message {
    Message {
        src: 0,
        origin: 0,
        handler: 1,
        annotation: Annotation::Release,
        body: Vec::new(),
        consistency: Consistency::Release {
            required: writer.vt().clone(),
            records: writer.records_newer_than(have),
            diffs: Vec::new(),
        },
    }
}

/// Allocations made by filling a RELEASE of `k` records from the writer's
/// log and framing it.
fn release_build_allocs(k: u32) -> usize {
    let (writer, reader) = writer_and_reader(k);
    let (msg, allocs, _) = counted(|| {
        let msg = release(&writer, reader.vt());
        drop(msg.to_framed(0));
        msg
    });
    assert_eq!(msg.notice_count(), k as usize);
    allocs
}

#[test]
fn building_a_release_allocates_nothing_per_record() {
    let (small, large) = (release_build_allocs(16), release_build_allocs(64));
    assert_eq!(
        small, large,
        "16 records: {small} allocations; 64 records: {large}"
    );
}

/// Allocations made by decoding a framed RELEASE of `k` records from one
/// writer and applying its batch.
fn release_apply_allocs(k: u32) -> usize {
    let (writer, mut reader) = writer_and_reader(k);
    let wire = release(&writer, reader.vt()).to_wire_bytes(0);
    let (applied, allocs, _) = counted(|| {
        let msg = Message::from_wire_bytes(0, &wire).expect("own encoding");
        let Consistency::Release { records, .. } = &msg.consistency else {
            unreachable!("a RELEASE decodes as one");
        };
        reader.apply_records(records)
    });
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

/// A writer that closed `k` intervals each rewriting page 0, and a reader
/// whose copy of page 0 predates them all and that has applied their
/// notices: `k` diffs to fetch.
fn diff_writer_and_reader(k: u32, keep: bool) -> (LrcEngine, LrcEngine) {
    let cfg = LrcConfig::small_test(2);
    let mut writer = LrcEngine::new(0, cfg.clone());
    let mut reader = LrcEngine::new(1, cfg);
    if keep {
        reader.keep_fetched_diffs();
    }
    let (data, applied) = writer.serve_page(0);
    assert!(reader.install_page(0, data, applied));
    for i in 0..k {
        let at = i as usize % 16 * 4;
        writer.write(at, &(i + 1).to_le_bytes()).expect("owner write");
        writer.close_interval().expect("one dirty page");
    }
    assert_eq!(reader.apply_records(&writer.records_newer_than(reader.vt())), k as usize);
    assert_eq!(reader.page_state(0), PageState::Invalid);
    (writer, reader)
}

/// The writer's `k` diffs as a RELEASE carries them.
fn diff_release(writer: &LrcEngine, k: u32) -> Message {
    let mut msg = release(writer, &Vc::new(2));
    let Consistency::Release { diffs, .. } = &mut msg.consistency else {
        unreachable!("a RELEASE");
    };
    diffs.push(writer.own_diffs(0, 0, k).collect());
    msg
}

/// Allocations of each path a fetched diff takes, for `k` diffs: serving
/// them into a reply buffer sized first (as the runtime does), framing a
/// RELEASE that carries them, decoding that frame, and applying the
/// decoded batch (dropping every record, or with `keep` keeping them).
fn diff_path_allocs(k: u32, keep: bool) -> [usize; 4] {
    let (writer, mut reader) = diff_writer_and_reader(k, keep);
    let ((), served, _) = counted(|| {
        let len: usize = writer.own_diffs(0, 0, k).map(|r| r.wire_len()).sum();
        let mut enc = Encoder::with_capacity(len);
        writer.own_diffs(0, 0, k).for_each(|r| r.encode(&mut enc));
        assert_eq!(enc.finish_vec().len(), len);
    });
    let release = diff_release(&writer, k);
    let (frame, encoded, _) = counted(|| release.to_framed(0));
    let wire = release.to_wire_bytes(0);
    let (msg, decoded, _) = counted(|| Message::from_wire_bytes(0, &wire).expect("own encoding"));
    assert_eq!(msg, release);
    drop(frame);
    let Consistency::Release { diffs, .. } = &msg.consistency else {
        unreachable!("a RELEASE decodes as one");
    };
    let ((), applied, _) = counted(|| reader.apply_diff_records(0, &diffs[0]));
    assert_eq!(reader.page_state(0), PageState::ReadOnly);
    assert_eq!(reader.stats().diffs_applied, u64::from(k));
    [served, encoded, decoded, applied]
}

/// Asserts path `path` of [`diff_path_allocs`] costs as many allocations
/// for 16 diffs as for 64, both when the reader drops and keeps them.
fn diff_path_allocates_nothing_per_record(path: usize, what: &str) {
    for keep in [false, true] {
        let (small, large) = (diff_path_allocs(16, keep)[path], diff_path_allocs(64, keep)[path]);
        assert_eq!(
            small, large,
            "{what} (keep {keep}): 16 diffs, {small} allocations; 64 diffs, {large}"
        );
    }
}

#[test]
fn serving_diffs_allocates_nothing_per_record() {
    diff_path_allocates_nothing_per_record(0, "serving");
}

#[test]
fn encoding_diffs_allocates_nothing_per_record() {
    diff_path_allocates_nothing_per_record(1, "encoding");
}

#[test]
fn decoding_diffs_allocates_nothing_per_record() {
    diff_path_allocates_nothing_per_record(2, "decoding");
}

#[test]
fn applying_diffs_allocates_nothing_per_record() {
    diff_path_allocates_nothing_per_record(3, "applying");
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

#[test]
fn a_serving_run_builds_one_zipf_table() {
    let spec = Spec::new(App::Serve(Traffic::Steady), 8, Scale::Test);
    let cfg = ServeConfig::test(8);
    // A first run takes the one-time set-up (thread-locals, the panic
    // hook) out of the counted one.
    let _ = launch(&spec).expect("serving run");
    // A CDF is `keyspace` f64s. Every node also makes two larger
    // allocations (36 and 40 KiB here), so the watch is on the exact size.
    WATCHED_SIZE.set(usize::try_from(cfg.keyspace).unwrap() * 8);
    let w0 = WATCHED.get();
    let (run, allocs, bytes) = counted(|| launch(&spec).expect("serving run"));
    let cdfs = WATCHED.get() - w0;
    WATCHED_SIZE.set(0);
    let Answer::Serve(r) = &run.answer else { unreachable!("a serving run") };
    assert_eq!(r.totals.client.completed, r.totals.client.attempted);
    assert_eq!(cdfs, 1, "{} clients built {cdfs} CDFs", cfg.n_clients());
    // The whole run, pinned exactly: the run is deterministic, and so is
    // every allocation it makes. A change that allocates more or less moves
    // these; re-pin them from the failure message and give the old and new
    // values in the change's description. With one CDF per client there
    // were 27 204 allocations and 4 158 280 bytes; with a page-table entry
    // per noticed granule and a slot per granule, 27 202 and 4 060 080;
    // with a heap vector per interval record's notices, 27 184 and
    // 3 292 976; before the 16-byte ack mode joined the simulator kernel's
    // `SimConfig`, 24 705 and 2 878 800; with the condition-variable
    // handlers (per node: three handler closures, a table that made the
    // handler map grow to 16 buckets, and a map in the sync tables),
    // 24 705 and 2 878 816; before the run went through `launch`, which
    // boxes the 1 032-byte `ServeResult` in its `Answer`, 24 673 and
    // 2 874 336; with every diff a box of its own in a per-(creator, page)
    // vector, and a release's diffs decoded one box each, 24 674 and
    // 2 875 368.
    assert_eq!(
        (allocs, bytes),
        (23_692, 2_452_186),
        "allocations and bytes of one run"
    );
}
