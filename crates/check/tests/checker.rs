//! Oracle and happens-before tracker unit tests, driven by raw LRC engines
//! (no simulator) and by events fed to the checker directly for the
//! protocol-bug cases a correct engine cannot produce.

use std::rc::Rc;

use carlos_check::{Checker, ViolationKind};
use carlos_lrc::{Demand, Diffs, IntervalRecord, LrcConfig, LrcEngine, Records, Vc};
use carlos_util::event::{Event, Sink};

fn engines(n: usize, check: &Checker) -> Vec<LrcEngine> {
    (0..n as u32)
        .map(|i| {
            let mut e = LrcEngine::new(i, LrcConfig::small_test(n));
            e.set_sink(Rc::new(check.clone()));
            e
        })
        .collect()
}

fn mem_read(check: &Checker, node: u32, addr: usize, data: &[u8], vt: &Vc) {
    check.event(&Event::MemRead {
        node,
        addr,
        data,
        vt: vt.as_slice(),
    });
}

fn mem_write(check: &Checker, node: u32, addr: usize, data: &[u8], vt: &Vc) {
    check.event(&Event::MemWrite {
        node,
        addr,
        data,
        vt: vt.as_slice(),
    });
}

fn satisfy(engines: &mut [LrcEngine], node: usize, demands: Vec<Demand>) {
    for d in demands {
        match d {
            Demand::Diffs {
                to,
                page,
                after,
                through,
            } => {
                let recs: Diffs = engines[to as usize].own_diffs(page, after, through).collect();
                engines[node].apply_diff_records(page, &recs);
            }
            Demand::Page { to, page } => {
                let (data, applied) = engines[to as usize].serve_page(page, node as u32);
                engines[node].install_page(page, data, applied);
            }
        }
    }
}

fn resolve_write(engines: &mut [LrcEngine], node: usize, addr: usize, data: &[u8]) {
    loop {
        match engines[node].write(addr, data) {
            Ok(()) => return,
            Err(d) => satisfy(engines, node, d),
        }
    }
}

fn resolve_read(engines: &mut [LrcEngine], node: usize, addr: usize, buf: &mut [u8]) {
    loop {
        match engines[node].read(addr, buf) {
            Ok(()) => return,
            Err(d) => satisfy(engines, node, d),
        }
    }
}

fn sync_release(engines: &mut [LrcEngine], from: usize, to: usize) {
    engines[from].close_interval();
    let have = engines[to].vt().clone();
    let records = engines[from].records_newer_than(&have);
    engines[to].close_interval();
    engines[to].apply_records(&records);
}

#[test]
fn drf_release_chain_is_clean() {
    let check = Checker::new(2);
    let mut e = engines(2, &check);
    resolve_write(&mut e, 0, 0, &7u32.to_le_bytes());
    sync_release(&mut e, 0, 1);
    let mut buf = [0u8; 4];
    resolve_read(&mut e, 1, 0, &mut buf);
    assert_eq!(u32::from_le_bytes(buf), 7);
    check.assert_clean();
}

#[test]
fn partial_writes_are_tracked_without_false_positives() {
    let check = Checker::new(2);
    let mut e = engines(2, &check);
    resolve_write(&mut e, 0, 2, &[0xAB]); // sub-word write
    sync_release(&mut e, 0, 1);
    let mut buf = [0u8; 4];
    resolve_read(&mut e, 1, 0, &mut buf);
    assert_eq!(buf[2], 0xAB);
    check.assert_clean();
}

#[test]
fn unsynchronized_writes_report_ww_race() {
    let check = Checker::new(2);
    let mut e = engines(2, &check);
    resolve_write(&mut e, 0, 0, &1u32.to_le_bytes());
    resolve_write(&mut e, 1, 0, &2u32.to_le_bytes());
    let vs = check.violations();
    assert!(
        vs.iter().any(|v| v.kind == ViolationKind::WriteWriteRace
            && v.node == 1
            && v.interval == 1
            && v.addr == 0
            && v.detail.contains("node 0")
            && v.detail.contains("interval 1")),
        "missing attributed write/write race, got: {vs:?}"
    );
}

#[test]
fn unsynchronized_read_reports_rw_race() {
    let check = Checker::new(2);
    let mut e = engines(2, &check);
    resolve_write(&mut e, 0, 8, &3u32.to_le_bytes());
    e[0].close_interval();
    let mut buf = [0u8; 4];
    resolve_read(&mut e, 1, 8, &mut buf);
    let vs = check.violations();
    assert!(
        vs.iter().any(|v| v.kind == ViolationKind::ReadWriteRace
            && v.node == 1
            && v.addr == 8
            && v.detail.contains("node 0 interval 1")),
        "missing attributed read/write race, got: {vs:?}"
    );
}

#[test]
fn allow_racy_suppresses_read_side_checks() {
    let check = Checker::new(2);
    check.allow_racy(8, 4);
    let mut e = engines(2, &check);
    resolve_write(&mut e, 0, 8, &3u32.to_le_bytes());
    let mut buf = [0u8; 4];
    resolve_read(&mut e, 1, 8, &mut buf);
    check.assert_clean();
}

#[test]
fn duplicate_races_are_reported_once() {
    let check = Checker::new(2);
    let mut e = engines(2, &check);
    resolve_write(&mut e, 0, 8, &3u32.to_le_bytes());
    let mut buf = [0u8; 4];
    resolve_read(&mut e, 1, 8, &mut buf);
    resolve_read(&mut e, 1, 8, &mut buf);
    resolve_read(&mut e, 1, 8, &mut buf);
    assert_eq!(check.violations().len(), 1, "dedup failed");
}

/// A correct engine cannot return a stale value, so the stale-read path is
/// exercised by feeding the checker events directly: the "engine" claims a
/// timestamp covering the write yet returns a different value.
#[test]
fn stale_read_past_established_acquire_is_flagged() {
    let check = Checker::new(2);
    mem_write(&check, 0, 0, &7u32.to_le_bytes(), &Vc::new(2));
    let mut vt1 = Vc::new(2);
    vt1.set(0, 1); // node 1 covers node 0's interval 1...
    mem_read(&check, 1, 0, &9u32.to_le_bytes(), &vt1); // ...but reads 9, not 7
    let vs = check.violations();
    assert_eq!(vs.len(), 1);
    assert_eq!(vs[0].kind, ViolationKind::StaleRead);
    assert_eq!((vs[0].node, vs[0].interval, vs[0].addr), (1, 1, 0));
    assert!(vs[0].detail.contains("node 0"), "{}", vs[0].detail);
}

/// The legal value after a release chain is the causally newest write, not
/// the first one: reading the older value is stale.
#[test]
fn stale_read_of_causally_older_write_is_flagged() {
    let check = Checker::new(2);
    // Node 0 writes 7 in interval 1; node 1, having covered it, overwrites
    // with 8 in its own interval 1.
    mem_write(&check, 0, 0, &7u32.to_le_bytes(), &Vc::new(2));
    let mut vt1 = Vc::new(2);
    vt1.set(0, 1);
    mem_write(&check, 1, 0, &8u32.to_le_bytes(), &vt1);
    // Node 0 covers both writes but reads its own old 7: stale.
    let mut vt0 = Vc::new(2);
    vt0.set(0, 1);
    vt0.set(1, 1);
    mem_read(&check, 0, 0, &7u32.to_le_bytes(), &vt0);
    let vs = check.violations();
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!(vs[0].kind, ViolationKind::StaleRead);
    assert!(vs[0].detail.contains("node 1"), "{}", vs[0].detail);
}

#[test]
fn nonzero_value_from_unwritten_word_is_flagged() {
    let check = Checker::new(2);
    mem_read(&check, 0, 4, &1u32.to_le_bytes(), &Vc::new(2));
    let vs = check.violations();
    assert_eq!(vs.len(), 1);
    assert_eq!(vs[0].kind, ViolationKind::UnknownValue);
    assert_eq!(vs[0].addr, 4);
}

#[test]
fn zero_read_from_unwritten_word_is_clean() {
    let check = Checker::new(2);
    mem_read(&check, 0, 4, &0u32.to_le_bytes(), &Vc::new(2));
    check.assert_clean();
}

#[test]
fn out_of_order_apply_is_flagged() {
    let check = Checker::new(2);
    let mut vc = Vc::new(2);
    vc.set(0, 2);
    let rec = IntervalRecord {
        node: 0,
        index: 2, // node 1 never applied interval 1: a gap
        vc,
        pages: vec![],
    };
    check.event(&Event::RecordApplied {
        node: 1,
        rec: rec.as_interval(),
    });
    let vs = check.violations();
    assert!(
        vs.iter()
            .any(|v| v.kind == ViolationKind::HbOrder && v.detail.contains("out of order")),
        "{vs:?}"
    );
}

#[test]
fn forged_record_timestamp_is_flagged() {
    let check = Checker::new(2);
    // Creator closes interval (0, 1) with its true timestamp...
    let mut vc = Vc::new(2);
    vc.set(0, 1);
    let rec = IntervalRecord {
        node: 0,
        index: 1,
        vc,
        pages: vec![],
    };
    check.event(&Event::IntervalClosed {
        node: 0,
        rec: rec.as_interval(),
    });
    // ...but node 1 applies a copy whose timestamp was tampered with.
    let mut forged_vc = Vc::new(2);
    forged_vc.set(0, 1);
    forged_vc.set(1, 3);
    let forged = IntervalRecord {
        node: 0,
        index: 1,
        vc: forged_vc,
        pages: vec![],
    };
    check.event(&Event::RecordApplied {
        node: 1,
        rec: forged.as_interval(),
    });
    let vs = check.violations();
    assert!(
        vs.iter()
            .any(|v| v.kind == ViolationKind::HbOrder && v.detail.contains("creator made")),
        "{vs:?}"
    );
}

#[test]
fn fail_fast_aborts_the_offending_node() {
    let check = Checker::new(2).fail_fast();
    mem_write(&check, 0, 0, &7u32.to_le_bytes(), &Vc::new(2));
    let c2 = check.clone();
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        // Unsynchronized read from node 1: escalates via carlos_sim::abort.
        mem_read(&c2, 1, 0, &7u32.to_le_bytes(), &Vc::new(2));
    }))
    .expect_err("fail-fast checker must abort");
    let info = payload
        .downcast::<carlos_sim::AbortInfo>()
        .expect("abort payload");
    assert_eq!(info.node, 1);
    assert!(info.context.contains("ReadWriteRace"), "{}", info.context);
    // The violation is still recorded for post-mortem inspection.
    assert_eq!(check.violations().len(), 1);
}

/// Three engines, a causal chain 0 -> 1 -> 2: node 2 must legally read
/// node 0's write through the transitive release, and the checker must
/// stay silent.
#[test]
fn transitive_chain_is_clean_and_converges() {
    let check = Checker::new(3);
    let mut e = engines(3, &check);
    resolve_write(&mut e, 0, 0, &11u32.to_le_bytes());
    sync_release(&mut e, 0, 1);
    resolve_write(&mut e, 1, 4, &22u32.to_le_bytes());
    sync_release(&mut e, 1, 2);
    let mut buf = [0u8; 4];
    resolve_read(&mut e, 2, 0, &mut buf);
    assert_eq!(u32::from_le_bytes(buf), 11);
    resolve_read(&mut e, 2, 4, &mut buf);
    assert_eq!(u32::from_le_bytes(buf), 22);
    check.assert_clean();
}

/// Two nodes rewrite *adjacent* words of one granule in concurrent
/// intervals; each changes two bytes of its word with an unchanged byte
/// between them, so each diff run carries that byte along. Node 0 acquires
/// from both and fetches their diffs in the given order.
fn adjacent_word_writers(order: [u32; 2]) {
    let check = Checker::new(3);
    let mut e = engines(3, &check);
    resolve_write(&mut e, 0, 8, &0x0001_1111u32.to_le_bytes());
    resolve_write(&mut e, 0, 12, &0x0002_2222u32.to_le_bytes());
    sync_release(&mut e, 0, 1);
    sync_release(&mut e, 0, 2);
    resolve_write(&mut e, 1, 8, &0x0005_1133u32.to_le_bytes());
    resolve_write(&mut e, 2, 12, &0x0006_2244u32.to_le_bytes());
    sync_release(&mut e, 1, 0);
    sync_release(&mut e, 2, 0);
    let page = e[0].granules().granule_of(8);
    let mut demands = e[0].fault_demands(page);
    demands.sort_by_key(|d| match d {
        Demand::Diffs { to, .. } => order.iter().position(|n| n == to),
        Demand::Page { .. } => None,
    });
    assert_eq!(demands.len(), 2, "one diff demand per writer");
    satisfy(&mut e, 0, demands);
    let mut buf = [0u8; 8];
    resolve_read(&mut e, 0, 8, &mut buf);
    assert_eq!(buf[..4], 0x0005_1133u32.to_le_bytes());
    assert_eq!(buf[4..], 0x0006_2244u32.to_le_bytes());
    check.assert_clean();
}

#[test]
fn concurrent_writers_of_adjacent_words_merge_in_either_order() {
    adjacent_word_writers([1, 2]);
    adjacent_word_writers([2, 1]);
}

/// The word is the sharing unit: a diff run may carry any byte of a word
/// its writer touched, so two concurrent writers of *different bytes* of
/// one word are a race the model never allowed, and are reported as one.
#[test]
fn concurrent_writers_of_one_word_race_even_on_different_bytes() {
    let check = Checker::new(3);
    let mut e = engines(3, &check);
    resolve_write(&mut e, 0, 8, &0x0001_1111u32.to_le_bytes());
    sync_release(&mut e, 0, 1);
    sync_release(&mut e, 0, 2);
    resolve_write(&mut e, 1, 8, &[0x33]);
    resolve_write(&mut e, 2, 11, &[0x44]);
    let vs = check.violations();
    assert!(
        vs.iter().any(|v| v.kind == ViolationKind::WriteWriteRace
            && v.node == 2
            && v.addr == 8
            && v.detail.contains("node 1")),
        "missing write/write race on the shared word, got: {vs:?}"
    );
}

/// A collection round's clock advance moves the mirror: node 2 jumps over
/// node 0's two intervals, which name only node 0's unshared page, and
/// after its discard applies node 0's third in order. An advance past what the
/// creator closed, one that does not move forward and one of a node's own
/// clock are flagged.
#[test]
fn a_rounds_clock_advance_moves_the_mirror_and_is_checked() {
    let check = Checker::new(3);
    let mut e = engines(3, &check);
    for v in 1..=2u32 {
        e[0].write(0, &v.to_le_bytes()).expect("owned page");
        e[0].close_interval();
    }
    let mut vt = Vc::new(3);
    vt.set(0, 2);
    assert_eq!(e[2].advance(&Records::new(), &vt), 0);
    assert_eq!(e[2].vt(), &vt);
    e[2].gc_discard();
    e[0].write(4, &3u32.to_le_bytes()).expect("owned page");
    e[0].close_interval();
    let records = e[0].records_newer_than(e[2].vt());
    assert_eq!(e[2].apply_records(&records), 1);
    check.assert_clean();
    let advance = |node, creator, index| {
        check.event(&Event::ClockAdvanced { node, creator, index });
    };
    advance(1, 0, 4);
    advance(2, 0, 3);
    advance(1, 1, 1);
    let details: Vec<String> = check.violations().into_iter().map(|v| v.detail).collect();
    assert_eq!(
        details,
        [
            "advanced node 0's clock to 4, which closed 3",
            "advanced node 0's clock to 3, not past 3",
            "advanced its own clock to 1",
        ]
    );
}
