//! Intentional-bug smoke test: a tiny application reads a shared word
//! WITHOUT acquiring the lock that protects it. The race detector must
//! report the access with full `(node, interval, address)` attribution;
//! the corrected program (reader takes the lock) must come back clean.

use std::rc::Rc;

use carlos_check::{Checker, ViolationKind};
use carlos_core::{CoreConfig, Runtime};
use carlos_lrc::LrcConfig;
use carlos_sim::{time::ms, Cluster, SimConfig, SimError};
use carlos_sync::{BarrierSpec, LockSpec};

const WORD: usize = 0;
const SECRET: u32 = 0xDEAD_BEEF;

/// Runs the two-node program; when `reader_locks` is false, node 1 commits
/// the intentional bug.
fn run_app(check: &Checker, reader_locks: bool) -> Result<carlos_sim::SimReport, SimError> {
    const N: usize = 2;
    let mut c = Cluster::new(SimConfig::fast_test(), N);
    c.observe(Rc::new(check.clone()));
    c.spawn_node(0, move |ctx| {
        let mut rt = Runtime::new(ctx, LrcConfig::small_test(N), CoreConfig::fast_test());
        let sys = carlos_sync::install(&mut rt);
        let lock = LockSpec::new(1, 0);
        sys.acquire(&mut rt, lock);
        rt.write_u32(WORD, SECRET);
        sys.release(&mut rt, lock);
        sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
        rt.shutdown();
    });
    c.spawn_node(1, move |ctx| {
        let mut rt = Runtime::new(ctx, LrcConfig::small_test(N), CoreConfig::fast_test());
        let sys = carlos_sync::install(&mut rt);
        let lock = LockSpec::new(1, 0);
        rt.sleep(ms(5)); // let the writer go first in virtual time
        if reader_locks {
            sys.acquire(&mut rt, lock);
        }
        let _ = rt.read_u32(WORD); // the unprotected read when !reader_locks
        if reader_locks {
            sys.release(&mut rt, lock);
        }
        sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
        rt.shutdown();
    });
    c.try_run()
}

#[test]
fn unlocked_read_is_reported_with_attribution() {
    let check = Checker::new(2);
    run_app(&check, false).expect("accumulating checker must not abort the run");
    let vs = check.violations();
    let race = vs
        .iter()
        .find(|v| v.kind == ViolationKind::ReadWriteRace)
        .unwrap_or_else(|| panic!("no read/write race reported, got: {vs:?}"));
    // Attribution: reading node, its open interval, the word address, and
    // the racing writer named in the detail.
    assert_eq!(race.node, 1, "race must be attributed to the reader");
    assert_eq!(race.addr, WORD, "race must name the contested word");
    assert_eq!(race.interval, 1, "reader was in its first (open) interval");
    assert!(
        race.detail.contains("node 0 interval 1"),
        "race must name the racing write: {}",
        race.detail
    );
}

#[test]
fn locked_read_of_same_program_is_clean() {
    let check = Checker::new(2);
    run_app(&check, true).expect("clean run");
    check.assert_clean();
}

#[test]
fn fail_fast_surfaces_race_as_aborted_run() {
    let check = Checker::new(2).fail_fast();
    match run_app(&check, false) {
        Err(SimError::Aborted { node, context, .. }) => {
            assert_eq!(node, 1, "the racing reader aborts");
            assert!(context.contains("ReadWriteRace"), "{context}");
        }
        other => panic!("expected Aborted, got {other:?}"),
    }
}
