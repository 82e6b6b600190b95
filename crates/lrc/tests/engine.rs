//! Protocol tests that drive several `LrcEngine`s by hand, playing the role
//! of the messaging layer: demands are satisfied by calling the serving
//! engine directly.

use carlos_lrc::{
    Demand, DiffView, Diffs, IntervalRecord, LrcConfig, LrcEngine, PageState, RegionSpec, Vc,
};
use carlos_util::codec::Encoder;

/// Satisfies every outstanding demand for `node` against the other engines,
/// looping until the access succeeds. Returns the number of demands served.
fn resolve_read(engines: &mut [LrcEngine], node: usize, addr: usize, buf: &mut [u8]) -> usize {
    let mut served = 0;
    loop {
        let r = engines[node].read(addr, buf);
        match r {
            Ok(()) => return served,
            Err(demands) => {
                served += demands.len();
                satisfy(engines, node, demands);
            }
        }
    }
}

fn resolve_write(engines: &mut [LrcEngine], node: usize, addr: usize, data: &[u8]) -> usize {
    let mut served = 0;
    loop {
        match engines[node].write(addr, data) {
            Ok(()) => return served,
            Err(demands) => {
                served += demands.len();
                satisfy(engines, node, demands);
            }
        }
    }
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

/// Performs the release side on `from` and the acquire side on `to`,
/// shipping exactly the records the receiver lacks (a RELEASE message).
fn sync_release(engines: &mut [LrcEngine], from: usize, to: usize) {
    engines[from].close_interval();
    let have = engines[to].vt().clone();
    let records = engines[from].records_newer_than(&have);
    engines[to].close_interval();
    engines[to].apply_records(&records);
    assert!(
        engines[to].vt().dominates(engines[from].vt()),
        "acquirer must cover releaser after a full RELEASE"
    );
}

fn cluster(n: usize) -> Vec<LrcEngine> {
    let cfg = LrcConfig::small_test(n);
    (0..n as u32).map(|i| LrcEngine::new(i, cfg.clone())).collect()
}

/// Two nodes configured with `regions`; with `keep` every engine keeps
/// each fetched diff (the update strategy).
fn cluster_with(regions: Vec<RegionSpec>, keep: bool) -> Vec<LrcEngine> {
    let cfg = LrcConfig {
        regions,
        ..LrcConfig::small_test(2)
    };
    let mut e: Vec<LrcEngine> = (0..2).map(|i| LrcEngine::new(i, cfg.clone())).collect();
    if keep {
        e.iter_mut().for_each(LrcEngine::keep_fetched_diffs);
    }
    e
}

#[test]
fn local_read_write_roundtrip() {
    let mut e = cluster(1);
    resolve_write(&mut e, 0, 10, &[1, 2, 3]);
    let mut buf = [0u8; 3];
    resolve_read(&mut e, 0, 10, &mut buf);
    assert_eq!(buf, [1, 2, 3]);
}

#[test]
fn write_fault_creates_twin_once() {
    let mut e = cluster(1);
    resolve_write(&mut e, 0, 0, &[9]);
    assert_eq!(e[0].stats().write_faults, 1);
    resolve_write(&mut e, 0, 1, &[8]); // Same page: no second fault.
    assert_eq!(e[0].stats().write_faults, 1);
    assert_eq!(e[0].page_state(0), PageState::ReadWrite);
}

#[test]
fn remote_node_faults_in_page_from_owner() {
    let mut e = cluster(2);
    resolve_write(&mut e, 0, 0, &[42]);
    // Node 1 has no copy: first read must demand the page.
    let mut buf = [0u8; 1];
    let r = e[1].read(0, &mut buf);
    let demands = r.expect_err("node 1 should fault");
    assert!(matches!(demands[0], Demand::Page { to: 0, .. }));
    satisfy(&mut e, 1, demands);
    e[1].read(0, &mut buf).expect("valid after install");
    assert_eq!(buf[0], 42);
}

#[test]
fn release_acquire_propagates_value() {
    let mut e = cluster(2);
    resolve_write(&mut e, 0, 100, &[7]);
    // Warm node 1's copy so we exercise the diff path, not the page path.
    let mut buf = [0u8; 1];
    resolve_read(&mut e, 1, 0, &mut buf);
    // Node 0 writes under "a lock", then releases to node 1.
    resolve_write(&mut e, 0, 0, &[55]);
    sync_release(&mut e, 0, 1);
    // Node 1's page is invalidated; the read faults and fetches diffs.
    assert_eq!(e[1].page_state(0), PageState::Invalid);
    let served = resolve_read(&mut e, 1, 0, &mut buf);
    assert_eq!(buf[0], 55);
    assert!(served >= 1, "a diff fetch must have happened");
    assert!(e[0].stats().diffs_created >= 1);
    assert!(e[1].stats().diffs_applied >= 1);
}

#[test]
fn no_invalidation_without_release() {
    let mut e = cluster(2);
    let mut buf = [0u8; 1];
    resolve_read(&mut e, 1, 0, &mut buf); // Node 1 caches page 0.
    resolve_write(&mut e, 0, 0, &[9]); // Node 0 dirties it, no release.
    e[1].read(0, &mut buf).expect("no notice, still valid");
    assert_eq!(buf[0], 0, "stale read allowed before synchronization");
}

#[test]
fn transitive_consistency_through_chain() {
    // 0 writes x; 0 -> 1 release; 1 -> 2 release. Node 2 must see x even
    // though it never synchronized with 0 directly (transitivity of ->).
    let mut e = cluster(3);
    let mut buf = [0u8; 1];
    resolve_read(&mut e, 2, 0, &mut buf); // Warm node 2's copy.
    resolve_write(&mut e, 0, 0, &[11]);
    sync_release(&mut e, 0, 1);
    sync_release(&mut e, 1, 2);
    let _ = resolve_read(&mut e, 2, 0, &mut buf);
    assert_eq!(buf[0], 11, "transitive propagation failed");
}

#[test]
fn multiple_writer_merge_on_one_page() {
    // Nodes 1 and 2 concurrently write disjoint bytes of page 0 (classic
    // false sharing); node 0 acquires from both and must see both writes.
    let mut e = cluster(3);
    let mut buf = [0u8; 2];
    resolve_write(&mut e, 1, 0, &[1]);
    resolve_write(&mut e, 2, 1, &[2]);
    sync_release(&mut e, 1, 0);
    sync_release(&mut e, 2, 0);
    resolve_read(&mut e, 0, 0, &mut buf);
    assert_eq!(buf, [1, 2], "multiple-writer diffs must merge");
}

#[test]
fn causally_ordered_writes_last_writer_wins() {
    // 0 writes x=1, releases to 1; 1 overwrites x=2, releases to 2.
    // 2 must read 2, not 1 (diff application order respects causality).
    let mut e = cluster(3);
    let mut buf = [0u8; 1];
    resolve_read(&mut e, 2, 0, &mut buf);
    resolve_write(&mut e, 0, 0, &[1]);
    sync_release(&mut e, 0, 1);
    let _ = resolve_read(&mut e, 1, 0, &mut buf); // 1 fetches 0's diff.
    resolve_write(&mut e, 1, 0, &[2]);
    sync_release(&mut e, 1, 2);
    resolve_read(&mut e, 2, 0, &mut buf);
    assert_eq!(buf[0], 2, "causally later write must win");
}

#[test]
fn eager_capture_is_per_interval() {
    // Each interval's diff is captured at the close that announces it, so
    // every record covers exactly one interval and carries its timestamp
    // (the property that makes cross-writer causal ordering sound). The
    // page is re-protected at each close: post-close writes fault again
    // and land in the next interval. Node 1 holds a copy, so the owner
    // stores the diffs it may ask for.
    let mut e = cluster(2);
    resolve_read(&mut e, 1, 0, &mut [0]);
    resolve_write(&mut e, 0, 0, &[1]);
    e[0].close_interval();
    assert_eq!(e[0].stats().diffs_created, 1);
    assert_eq!(e[0].page_state(0), PageState::ReadOnly, "re-protected");
    resolve_write(&mut e, 0, 1, &[2]); // Faults again: next interval.
    assert_eq!(e[0].stats().write_faults, 2);
    e[0].close_interval();
    let recs: Vec<_> = e[0].own_diffs(0, 0, 2).collect();
    assert_eq!(recs.len(), 2, "one record per interval");
    assert_eq!((recs[0].first, recs[0].last), (1, 1));
    assert_eq!((recs[1].first, recs[1].last), (2, 2));
    assert_eq!(recs[0].vt[0], 1);
    assert_eq!(recs[1].vt[0], 2);
    // Applying both in order reconstructs the page.
    let mut page = vec![0u8; 64];
    for r in &recs {
        r.apply(&mut page);
    }
    assert_eq!((page[0], page[1]), (1, 2));
}

#[test]
fn write_notice_on_dirty_page_captures_diff_first() {
    // Node 1 has local dirty data on page 0 when a notice arrives; its own
    // modifications must survive invalidation and subsequent validation.
    let mut e = cluster(2);
    let mut buf = [0u8; 2];
    resolve_read(&mut e, 1, 0, &mut buf);
    resolve_write(&mut e, 1, 1, &[77]); // Node 1's own write (byte 1).
    resolve_write(&mut e, 0, 0, &[66]); // Node 0 writes byte 0.
    sync_release(&mut e, 0, 1); // Notice for page 0 hits node 1.
    resolve_read(&mut e, 1, 0, &mut buf);
    assert_eq!(buf, [66, 77], "own modification lost or remote one missed");
}

#[test]
fn page_spanning_access() {
    // With 64-byte pages, a 100-byte write spans two pages.
    let mut e = cluster(2);
    let data: Vec<u8> = (0..100).map(|i| i as u8).collect();
    resolve_write(&mut e, 0, 30, &data);
    sync_release(&mut e, 0, 1);
    let mut buf = vec![0u8; 100];
    resolve_read(&mut e, 1, 30, &mut buf);
    assert_eq!(buf, data);
}

#[test]
fn release_nt_payload_contains_only_own_records() {
    let mut e = cluster(3);
    resolve_write(&mut e, 0, 0, &[1]);
    sync_release(&mut e, 0, 1); // Node 1 now stores node 0's record.
    resolve_write(&mut e, 1, 64, &[2]);
    e[1].close_interval();
    let have = Vc::new(3);
    let own = e[1].own_records_newer_than(&have);
    assert!(
        own.iter().all(|r| r.creator == 1),
        "NT payload leaked records"
    );
    assert_eq!(own.len(), 1);
    let full = e[1].records_newer_than(&have);
    assert_eq!(full.len(), 2, "full payload carries both");
}

#[test]
fn gap_detection_and_repair() {
    // Simulates a RELEASE_NT arriving with a causal gap: node 2 gets node
    // 1's records but not node 0's, detects non-domination, and repairs by
    // fetching the missing range.
    let mut e = cluster(3);
    resolve_write(&mut e, 0, 0, &[1]);
    sync_release(&mut e, 0, 1);
    resolve_write(&mut e, 1, 64, &[2]);
    e[1].close_interval();
    let required = e[1].vt().clone();
    // Non-transitive payload only.
    let have0 = Vc::new(3);
    let nt = e[1].own_records_newer_than(&have0);
    e[2].apply_records(&nt);
    assert!(
        !e[2].vt().dominates(&required),
        "gap must be visible in the timestamp"
    );
    // Repair: ask the original sender for the difference.
    let missing = e[1].records_between(&e[2].vt().clone(), &required);
    assert!(!missing.is_empty());
    e[2].apply_records(&missing);
    assert!(e[2].vt().dominates(&required), "repair failed");
}

#[test]
fn apply_records_skips_gapped_and_duplicate() {
    let mut e = cluster(2);
    resolve_write(&mut e, 0, 0, &[1]);
    e[0].close_interval();
    resolve_write(&mut e, 0, 64, &[2]);
    e[0].close_interval();
    resolve_write(&mut e, 0, 128, &[3]);
    e[0].close_interval();
    let all = e[0].records_newer_than(&Vc::new(2));
    assert_eq!(all.len(), 3);
    // Deliver only record #2: gapped, must not apply.
    let second = IntervalRecord::from(all.iter().find(|r| r.index == 2).unwrap());
    assert_eq!(
        e[1].apply_records(&[second.clone()].into_iter().collect()),
        0
    );
    assert_eq!(e[1].vt().get(0), 0);
    // Deliver 1 and 2 (2 duplicated): both apply once.
    let first = IntervalRecord::from(all.iter().find(|r| r.index == 1).unwrap());
    assert_eq!(
        e[1].apply_records(&[second.clone(), first, second].into_iter().collect()),
        2
    );
    assert_eq!(e[1].vt().get(0), 2);
}

#[test]
fn gc_cycle_resets_records_and_preserves_data() {
    let mut e = cluster(2);
    let mut buf = [0u8; 1];
    resolve_read(&mut e, 1, 0, &mut buf);
    for round in 0..5u8 {
        resolve_write(&mut e, 0, 0, &[round]);
        sync_release(&mut e, 0, 1);
        resolve_read(&mut e, 1, 0, &mut buf);
        assert_eq!(buf[0], round);
    }
    assert!(e[0].record_count() > 0);
    // Phase 1 of GC: equalize timestamps (here: both already equal after
    // the last acquire; node 0 must also cover node 1, which wrote nothing).
    assert!(e[0].vt().dominates(e[1].vt()) || e[1].vt().dominates(e[0].vt()));
    let records = e[1].records_newer_than(&e[0].vt().clone());
    e[0].apply_records(&records);
    // Phase 2: validate all pages everywhere.
    for node in 0..2 {
        let demands = e[node].gc_validate_demands();
        satisfy(&mut e, node, demands);
    }
    // Phase 3: discard.
    e[0].gc_discard();
    e[1].gc_discard();
    assert_eq!(e[0].record_count(), 0);
    assert_eq!(e[1].record_count(), 0);
    // Data survives and the protocol still works.
    resolve_read(&mut e, 1, 0, &mut buf);
    assert_eq!(buf[0], 4);
    resolve_write(&mut e, 0, 0, &[99]);
    sync_release(&mut e, 0, 1);
    resolve_read(&mut e, 1, 0, &mut buf);
    assert_eq!(buf[0], 99);
}

#[test]
fn empty_interval_not_created() {
    let mut e = cluster(2);
    assert!(e[0].close_interval().is_none());
    assert_eq!(e[0].vt().get(0), 0);
    resolve_write(&mut e, 0, 0, &[1]);
    assert!(e[0].close_interval().is_some());
    assert!(e[0].close_interval().is_none(), "nothing new to announce");
    assert_eq!(e[0].vt().get(0), 1);
}

/// The record `close_interval` returns, which must exist.
fn close(e: &mut [LrcEngine], node: usize) -> IntervalRecord {
    e[node].close_interval().expect("a page was written")
}

#[test]
fn rewriting_identical_bytes_closes_an_interval_that_names_no_page() {
    let mut e = cluster(2);
    resolve_write(&mut e, 0, 0, &[5]);
    assert_eq!(close(&mut e, 0).pages, vec![0]);
    resolve_write(&mut e, 0, 0, &[5]);
    assert_eq!(e[0].stats().write_faults, 2);
    // The interval still closes, so the write is attributed to interval 2.
    let rec = close(&mut e, 0);
    assert_eq!((rec.index, rec.pages), (2, vec![]));
    assert_eq!(e[0].vt().get(0), 2);
    assert_eq!(e[0].page_state(0), PageState::ReadOnly);
    assert!(e[0].stored_diff(0, 0, 2).is_none(), "no own record for interval 2");
    assert_eq!(e[0].stats().diffs_created, 1);
    // The page was re-protected: the next write faults again.
    resolve_write(&mut e, 0, 0, &[6]);
    assert_eq!(e[0].stats().write_faults, 3);
    assert_eq!(close(&mut e, 0).pages, vec![0]);
}

#[test]
fn a_change_restored_within_the_interval_is_elided() {
    let mut e = cluster(2);
    resolve_write(&mut e, 0, 8, &[7, 7]);
    resolve_write(&mut e, 0, 8, &[0, 0]);
    assert!(close(&mut e, 0).pages.is_empty());
    assert_eq!(e[0].stats().diffs_created, 0);
    assert_eq!(e[0].page_state(0), PageState::ReadOnly);
}

#[test]
fn only_the_changed_page_is_named() {
    let mut e = cluster(2);
    // Node 1 holds both pages, so the owner stores what it may ask for.
    resolve_read(&mut e, 1, 0, &mut [0; 128]);
    resolve_write(&mut e, 0, 0, &[3]);
    resolve_write(&mut e, 0, 64, &[0]); // Page 1 already holds a zero there.
    let rec = close(&mut e, 0);
    assert_eq!(rec.pages, vec![0]);
    assert_eq!(e[0].stats().diffs_created, 1);
    assert!(e[0].stored_diff(0, 1, 1).is_none());
    let own: Vec<DiffView<'_>> = e[0].own_diffs(0, 0, 1).collect();
    assert_eq!(own.len(), 1);
    assert_eq!(own[0].runs().collect::<Vec<_>>(), vec![(0, &[3u8][..])]);
}

#[test]
fn an_owner_stores_no_diff_of_a_granule_it_never_served() {
    // Whatever the granule's kind: plain, eager, or any under the update
    // strategy, whose diffs a release ships.
    for (regions, keep) in [
        (Vec::new(), false),
        (vec![RegionSpec::new(0, 64, 64).eager()], false),
        (Vec::new(), true),
    ] {
        let shippable = keep || !regions.is_empty();
        let mut e = cluster_with(regions, keep);
        resolve_write(&mut e, 0, 0, &[5]);
        // The interval names the page and advances the clock, and the diff
        // counts as created and as a record, but no node can ask for it,
        // and no release carries it, not even one to the owner itself.
        assert_eq!(close(&mut e, 0).pages, vec![0]);
        assert_eq!((e[0].vt().get(0), e[0].stats().diffs_created), (1, 1));
        assert_eq!(e[0].record_count(), 2, "the interval and the elided diff");
        assert!(e[0].stored_diff(0, 0, 1).is_none());
        let records = e[0].records_newer_than(&Vc::new(2));
        assert!(e[0].release_diffs(&records, 0).is_empty());
        // Node 1's first copy comes from the owner and already holds the
        // write.
        let mut buf = [0u8; 1];
        sync_release(&mut e, 0, 1);
        assert_eq!(resolve_read(&mut e, 1, 0, &mut buf), 1, "the page alone");
        assert_eq!(buf[0], 5);
        // Served now: the next write's diff is stored, a release to node 1
        // carries it if the granule's diffs ship, and node 1 fetches it.
        resolve_write(&mut e, 0, 0, &[6]);
        sync_release(&mut e, 0, 1);
        assert!(e[0].stored_diff(0, 0, 2).is_some());
        let records = e[0].records_newer_than(&Vc::new(2));
        let shipped = e[0].release_diffs(&records, 1);
        assert_eq!(shipped.len(), usize::from(shippable));
        assert!(shipped.iter().all(|d| (d.page, d.first) == (0, 2)));
        assert_eq!(resolve_read(&mut e, 1, 0, &mut buf), 1, "one diff demand");
        assert_eq!((buf[0], e[1].stats().diffs_applied), (6, 1));
    }
}

#[test]
fn an_elided_page_stays_valid_on_a_reader_that_applies_the_record() {
    let mut e = cluster(2);
    let mut buf = [0u8; 1];
    resolve_write(&mut e, 0, 0, &[4]);
    sync_release(&mut e, 0, 1);
    resolve_read(&mut e, 1, 0, &mut buf); // Node 1 holds an up-to-date copy.
    assert_eq!(buf[0], 4);
    resolve_write(&mut e, 0, 0, &[4]);
    sync_release(&mut e, 0, 1);
    assert_eq!(e[1].vt().get(0), 2, "the empty interval was applied");
    assert_eq!(e[1].page_state(0), PageState::ReadOnly);
    assert!(e[1].fault_demands(0).is_empty());
    assert_eq!(resolve_read(&mut e, 1, 0, &mut buf), 0, "no fetch");
    assert_eq!(buf[0], 4);
}

#[test]
fn serving_page_from_invalid_owner_copy_is_repaired_by_diffs() {
    // Node 1 writes page 0 and releases to owner 0, which does NOT fault
    // the page in (stays invalid). Node 2 then fetches the page from the
    // owner and must end up needing node 1's diff.
    let mut e = cluster(3);
    let mut buf = [0u8; 1];
    resolve_write(&mut e, 1, 0, &[123]);
    sync_release(&mut e, 1, 0);
    assert_eq!(e[0].page_state(0), PageState::Invalid);
    // Node 2 learns about node 1's interval too (e.g. via a barrier).
    sync_release(&mut e, 1, 2);
    let served = resolve_read(&mut e, 2, 0, &mut buf);
    assert_eq!(buf[0], 123);
    assert!(served >= 2, "expected page fetch plus diff fetch, got {served}");
}

#[test]
fn interval_vc_snapshot_is_stable() {
    let mut e = cluster(2);
    resolve_write(&mut e, 0, 0, &[1]);
    let rec1 = e[0].close_interval().unwrap();
    resolve_write(&mut e, 0, 64, &[2]);
    let rec2 = e[0].close_interval().unwrap();
    assert_eq!(rec1.vc.get(0), 1);
    assert_eq!(rec2.vc.get(0), 2);
    assert_eq!(rec1.index, 1);
    assert_eq!(rec2.index, 2);
}

#[test]
fn install_then_own_write_not_clobbered_by_merged_diff() {
    // Regression test for a subtle interaction of lazy diffing, page
    // installs, and merged diff records:
    //
    // 1. Node 0 writes page 0 in interval 1 and keeps writing after the
    //    close (folded, unannounced modifications).
    // 2. Node 1 first touches the page and receives a full copy; serving
    //    the copy captures node 0's merged diff (covering 1..=k) and the
    //    install must record that coverage.
    // 3. Node 1 writes its own bytes (causally after, via the sync chain).
    // 4. Node 0 writes *other* bytes in a later interval; node 1 learns the
    //    notice, fetches diffs — and must NOT reapply the merged record
    //    over its own newer writes.
    let mut e = cluster(2);
    // Interval 1: node 0 writes byte 0.
    resolve_write(&mut e, 0, 0, &[10]);
    e[0].close_interval();
    // Intervals 2..3 driven by another page; page 0 stays write-enabled.
    resolve_write(&mut e, 0, 64, &[1]);
    e[0].close_interval();
    // Folded, unannounced write to page 0, byte 5.
    resolve_write(&mut e, 0, 5, &[55]);
    // Bring node 1 up to date record-wise, then install the page.
    sync_release(&mut e, 0, 1);
    let mut b = [0u8; 1];
    resolve_read(&mut e, 1, 5, &mut b);
    assert_eq!(b[0], 55, "install must carry folded bytes");
    // Node 1 now writes byte 5 itself (causally after node 0's write).
    resolve_write(&mut e, 1, 5, &[77]);
    e[1].close_interval();
    // Node 0 writes a different byte of page 0 in a new interval.
    resolve_write(&mut e, 0, 9, &[99]);
    sync_release(&mut e, 0, 1);
    // Node 1 revalidates: must see node 0's new byte AND keep its own.
    resolve_read(&mut e, 1, 9, &mut b);
    assert_eq!(b[0], 99);
    resolve_read(&mut e, 1, 5, &mut b);
    assert_eq!(b[0], 77, "merged diff clobbered a causally-later write");
}

#[test]
fn claims_must_cover_every_notice_naming_the_page() {
    // Node 1 writes page 0 in its intervals 1 and 4, and page 1 in the
    // intervals between; node 0 holds a copy of page 0 and learns all four.
    let mut e = cluster(2);
    let page_size = e[0].config().page_size;
    resolve_write(&mut e, 1, 0, &[1]);
    sync_release(&mut e, 1, 0);
    let mut buf = [0u8; 1];
    resolve_read(&mut e, 0, 0, &mut buf);
    for (i, addr) in [page_size, page_size, 0].into_iter().enumerate() {
        resolve_write(&mut e, 1, addr, &[2 + i as u8]);
        sync_release(&mut e, 1, 0);
    }
    assert_eq!(e[0].page_state(0), PageState::Invalid);
    assert_eq!(
        e[0].fault_demands(0),
        vec![Demand::Diffs {
            to: 1,
            page: 0,
            after: 1,
            through: 4
        }]
    );
    // Intervals 2 and 3 do not name page 0, so the one diff of interval 4
    // completes the coverage; nothing, or a diff of another interval, does
    // not.
    let all: Vec<_> = e[1].own_diffs(0, 0, 4).collect();
    assert_eq!(all.iter().map(|r| r.last).collect::<Vec<_>>(), vec![1, 4]);
    let claims = |recs: &[DiffView<'_>]| recs.iter().copied().collect::<Diffs>();
    assert!(!e[0].covers_with_claims(0, &Diffs::new()));
    assert!(!e[0].covers_with_claims(0, &claims(&all[..1])));
    assert!(e[0].covers_with_claims(0, &claims(&all[1..])));
    assert!(!e[0].covers_with_claims(1, &Diffs::new()), "page 1 has notices 2 and 3");
    assert!(e[0].covers_with_claims(2, &Diffs::new()), "never named: nothing outstanding");
    assert_eq!(e[1].own_diffs(0, 1, 4).collect::<Vec<_>>(), all[1..]);
}

#[test]
fn rebased_open_writes_leave_the_neighbour_word_to_the_replacement() {
    // Node 1 holds page 0 with an open write to the word at 8: two of its
    // four bytes change, so the run carries the word whole. Node 0
    // meanwhile rewrites the neighbouring word at 12, and the owner's copy
    // replaces node 1's. Re-basing node 1's open writes must keep its own
    // word and take the neighbour from the replacement.
    let mut e = cluster(2);
    resolve_write(&mut e, 0, 8, &[1, 2, 3, 4, 5, 6, 7, 8]);
    sync_release(&mut e, 0, 1);
    resolve_write(&mut e, 1, 8, &[9]);
    resolve_write(&mut e, 1, 11, &[9]);
    resolve_write(&mut e, 0, 12, &[15, 16, 17, 18]);
    e[0].close_interval();
    let (data, applied) = e[0].serve_page(0, 1);
    assert!(e[1].install_page(0, data, applied));
    let mut words = [0u8; 8];
    e[1].read(8, &mut words)
        .expect("the copy covers every notice node 1 knows");
    assert_eq!(words, [9, 2, 3, 9, 15, 16, 17, 18]);
    // The new twin is the replacement: node 1's next diff is its own word
    // and nothing of the neighbour.
    let rec = e[1].close_interval().expect("open writes survive");
    let runs: Vec<_> = e[1].own_diffs(0, 0, rec.index).flat_map(|r| r.runs()).collect();
    assert_eq!(runs, vec![(8, &[9, 2, 3, 9][..])]);
}

/// Node 1 writes four 9s at byte 64 and releases to node 0, the owner,
/// whose copy of that granule the notice invalidates; node 0 then reads
/// it, fetching and applying node 1's diff. `regions` configure both
/// engines, and with `keep` both keep every fetched diff (the update
/// strategy). Returns the engines, the granule, and node 0's record count
/// before the diff applied.
fn fetch_one_diff(regions: Vec<RegionSpec>, keep: bool) -> (Vec<LrcEngine>, u32, usize) {
    let mut e = cluster_with(regions, keep);
    let g = e[0].granules().granule_of(64);
    let mut buf = [0u8; 4];
    resolve_read(&mut e, 1, 64, &mut buf);
    resolve_write(&mut e, 1, 64, &[9; 4]);
    sync_release(&mut e, 1, 0);
    assert_eq!(e[0].page_state(g), PageState::Invalid);
    let before = e[0].record_count();
    assert_eq!(resolve_read(&mut e, 0, 64, &mut buf), 1, "one diff demand");
    assert_eq!((buf, e[0].stats().diffs_applied), ([9; 4], 1));
    (e, g, before)
}

#[test]
fn a_fetched_diff_no_release_can_ship_is_dropped_but_counted() {
    // Invalidate strategy, no eager region: nothing reads the diff again.
    let (e, g, before) = fetch_one_diff(Vec::new(), false);
    assert_eq!(e[0].stored_diff(1, g, 1), None);
    // It still counts as a stored record, as when every fetched diff was
    // kept, so a collection falls where it did.
    assert_eq!(e[0].record_count(), before + 1);
}

#[test]
fn a_release_ships_a_kept_diff_only_to_a_node_that_may_hold_a_copy() {
    for keep in [false, true] {
        let cfg = LrcConfig::small_test(3);
        let mut e: Vec<LrcEngine> = (0..3).map(|i| LrcEngine::new(i, cfg.clone())).collect();
        if keep {
            e.iter_mut().for_each(LrcEngine::keep_fetched_diffs);
        }
        // Node 1 writes page 0 and releases to its owner, node 0, which
        // fetches the diff.
        let mut buf = [0u8; 4];
        resolve_write(&mut e, 1, 0, &[9; 4]);
        sync_release(&mut e, 1, 0);
        resolve_read(&mut e, 0, 0, &mut buf);
        assert_eq!(buf, [9; 4]);
        assert_eq!(e[0].stored_diff(1, 0, 1).is_some(), keep);
        // Node 0 never served node 2 the page, so node 2 holds no copy and
        // gets no diff; without `keep` nothing ships at all.
        let records = e[0].records_newer_than(&Vc::new(3));
        assert!(e[0].release_diffs(&records, 2).is_empty());
        assert_eq!(e[0].release_diffs(&records, 1).len(), usize::from(keep));
    }
}

#[test]
fn a_fetched_diff_a_release_can_ship_is_kept() {
    // An eager granule under the invalidate strategy, and any granule
    // under the update strategy.
    for (regions, keep) in [
        (vec![RegionSpec::new(64, 64, 64).eager()], false),
        (Vec::new(), true),
    ] {
        let (e, g, before) = fetch_one_diff(regions, keep);
        let kept = e[0].stored_diff(1, g, 1).expect("kept for a release to ship");
        assert_eq!(Some(kept), e[1].stored_diff(1, g, 1), "the writer's record");
        // As a release ships it: node 1, the granule, interval 1 to 1,
        // clock [0, 1], one run of four bytes at offset 0.
        let mut enc = Encoder::new();
        kept.encode(&mut enc);
        #[rustfmt::skip]
        let pinned = [
            1, 0, 0, 0, g as u8, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0,
            2, 0, 0, 0, 1, 0,
            1, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 9, 9, 9, 9,
        ];
        assert_eq!(enc.finish_vec(), pinned);
        assert_eq!(e[0].record_count(), before + 1);
    }
}
