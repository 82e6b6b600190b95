//! Cross-crate integration tests: the whole stack (simulator → transport →
//! LRC → message-driven runtime → coordination → applications) exercised
//! end to end.

use carlos::core::{Annotation, CoreConfig, Runtime};
use carlos::lrc::LrcConfig;
use carlos::sim::time::{ms, us};
use carlos::sim::transport::AckMode;
use carlos::sim::{Bucket, Cluster, SimConfig};
use carlos::sync::{BarrierSpec, LockSpec, QueueSpec};

fn mk(ctx: carlos::sim::NodeCtx, n: usize) -> (Runtime, carlos::sync::SyncSystem) {
    let mut rt = Runtime::new(ctx, LrcConfig::small_test(n), CoreConfig::fast_test());
    let sys = carlos::sync::install(&mut rt);
    (rt, sys)
}

/// A small mixed workload: locks, a queue, a semaphore, and barriers all in
/// one run, with shared-memory payloads crossing every primitive. The
/// semaphore is a FIFO queue of empty items (§3): V enqueues, P dequeues.
#[test]
fn mixed_primitive_workload() {
    const N: usize = 4;
    let mut cluster = Cluster::new(SimConfig::fast_test(), N);
    for node in 0..N as u32 {
        cluster.spawn_node(node, move |ctx| {
            let (mut rt, sys) = mk(ctx, N);
            let lock = LockSpec::new(1, 0);
            let q = QueueSpec::fifo(2, 1);
            let sem = QueueSpec::fifo(3, 2);
            let b = BarrierSpec::global(9, 0);

            // Stage 1: everyone increments a counter under the lock.
            for _ in 0..5 {
                sys.acquire(&mut rt, lock);
                let v = rt.read_u32(0);
                rt.write_u32(0, v + 1);
                sys.release(&mut rt, lock);
            }
            sys.barrier(&mut rt, b, 0);
            assert_eq!(rt.read_u32(0), 20);
            sys.barrier(&mut rt, b, 1);

            // Stage 2: node 0 produces work through the queue (managed by
            // node 1); nodes 2 and 3 consume, and each V's a semaphore
            // (managed by node 2) once the queue is drained; node 0 P's
            // it twice.
            match node {
                0 => {
                    for i in 0..6u32 {
                        rt.write_u32(64 + i as usize * 4, 900 + i);
                        sys.enqueue(&mut rt, q, &i.to_le_bytes());
                    }
                    sys.close_queue(&mut rt, q);
                }
                2 | 3 => {
                    let mut got = 0u32;
                    while let Some(item) = sys.dequeue(&mut rt, q) {
                        let i = u32::from_le_bytes(item.try_into().expect("index"));
                        assert_eq!(rt.read_u32(64 + i as usize * 4), 900 + i);
                        got += 1;
                    }
                    rt.ctx().count("consumed", u64::from(got));
                    sys.enqueue(&mut rt, sem, &[]);
                }
                _ => {}
            }
            if node == 0 {
                // Wait until both consumers finished.
                for _ in 0..2 {
                    assert_eq!(sys.dequeue(&mut rt, sem), Some(Vec::new()));
                }
            }
            sys.barrier(&mut rt, b, 2);
            rt.shutdown();
        });
    }
    let report = cluster.run();
    let consumed = report.counter_total("consumed");
    assert_eq!(consumed, 6, "all items consumed exactly once");
}

/// The same workload must be bit-for-bit deterministic across runs.
/// An accepting queue manager whose acquire pends on repair re-releases
/// the item only once it holds the producer's intervals. The producer's
/// first enqueue goes to a forwarding queue the same manager only stores,
/// so its estimate of the manager is too high, and its enqueue on the
/// accepting queue arrives one interval short: the manager's acquire must
/// repair before the parked consumer gets the item.
#[test]
fn accepting_manager_re_releases_only_after_its_acquire_completes() {
    let checker = carlos::check::Checker::new(3);
    let mut cluster = Cluster::new(SimConfig::fast_test(), 3);
    cluster.observe(std::rc::Rc::new(checker.clone()));
    let stored = QueueSpec::fifo(1, 0);
    let accepting = QueueSpec::fifo(2, 0).accepting();
    let b = BarrierSpec::global(9, 0);
    for node in 0..3u32 {
        cluster.spawn_node(node, move |ctx| {
            let (mut rt, sys) = mk(ctx, 3);
            match node {
                1 => {
                    rt.ctx().sleep(ms(5)); // Let the consumer park first.
                    rt.write_u32(0, 111);
                    sys.enqueue(&mut rt, stored, b"stored");
                    rt.write_u32(64, 222);
                    sys.enqueue(&mut rt, accepting, b"accepted");
                }
                2 => {
                    let item = sys.dequeue(&mut rt, accepting);
                    assert_eq!(item.as_deref(), Some(&b"accepted"[..]));
                    assert_eq!((rt.read_u32(0), rt.read_u32(64)), (111, 222));
                    let item = sys.dequeue(&mut rt, stored);
                    assert_eq!(item.as_deref(), Some(&b"stored"[..]));
                }
                _ => {}
            }
            sys.barrier(&mut rt, b, 0);
            rt.shutdown();
        });
    }
    let report = cluster.run();
    let repairs = report.node_counters[0].get("carlos.repair_requests");
    assert!(repairs >= 1, "the manager's acquire pended");
    assert_eq!(report.counter_total("carlos.residue"), 0);
    checker.assert_clean();
}

#[test]
fn full_stack_determinism() {
    let run = || {
        let mut cluster = Cluster::new(SimConfig::osdi94(), 3);
        for node in 0..3u32 {
            cluster.spawn_node(node, move |ctx| {
                let mut rt = Runtime::new(
                    ctx,
                    LrcConfig::osdi94(3, 1 << 15),
                    CoreConfig::osdi94(),
                );
                let sys = carlos::sync::install(&mut rt);
                let lock = LockSpec::new(1, 0);
                let b = BarrierSpec::global(9, 0);
                for i in 0..10u32 {
                    sys.acquire(&mut rt, lock);
                    let v = rt.read_u32((i as usize % 4) * 4);
                    rt.write_u32((i as usize % 4) * 4, v + node + 1);
                    sys.release(&mut rt, lock);
                    rt.compute(us(50));
                }
                sys.barrier(&mut rt, b, 0);
                sys.barrier(&mut rt, b, 1);
                rt.shutdown();
            });
        }
        cluster.run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.net, b.net);
    for i in 0..3 {
        assert_eq!(a.node_buckets[i], b.node_buckets[i]);
        assert_eq!(a.node_counters[i], b.node_counters[i]);
    }
}

/// Figure 2's accounting invariant: every nanosecond of a node's life is
/// charged to exactly one bucket, so the bucket sum telescopes to roughly
/// the node's finish time.
#[test]
fn bucket_accounting_is_exhaustive() {
    const N: usize = 3;
    let mut cluster = Cluster::new(SimConfig::osdi94(), N);
    for node in 0..N as u32 {
        cluster.spawn_node(node, move |ctx| {
            let (mut rt, sys) = mk_osdi(ctx, N);
            let lock = LockSpec::new(1, 0);
            for _ in 0..8 {
                sys.acquire(&mut rt, lock);
                let v = rt.read_u32(0);
                rt.write_u32(0, v + 1);
                sys.release(&mut rt, lock);
                rt.compute(ms(1));
            }
            sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
            rt.shutdown();
        });
    }
    let report = cluster.run();
    for (i, b) in report.node_buckets.iter().enumerate() {
        let total = b.total();
        let elapsed = report.elapsed;
        // Nodes finish at slightly different times; the sum must land
        // within a small tolerance of the run length.
        let ratio = total as f64 / elapsed as f64;
        assert!(
            (0.9..=1.01).contains(&ratio),
            "node {i}: bucket sum {total} vs elapsed {elapsed} (ratio {ratio:.3})"
        );
    }
}

fn mk_osdi(ctx: carlos::sim::NodeCtx, n: usize) -> (Runtime, carlos::sync::SyncSystem) {
    let mut rt = Runtime::new(ctx, LrcConfig::osdi94(n, 1 << 15), CoreConfig::osdi94());
    let sys = carlos::sync::install(&mut rt);
    (rt, sys)
}

/// The full stack stays correct when the wire drops datagrams, thanks to
/// the sliding-window transport underneath the CarlOS messages.
#[test]
fn fault_injection_lock_counter() {
    for (loss, seed) in [(0.05, 11u64), (0.20, 22)] {
        const N: usize = 3;
        const INCS: u32 = 8;
        let cfg = SimConfig::fast_test()
            .with_loss(loss, seed)
            .with_ack(AckMode::Arq {
                window: 16,
                rto: ms(5),
            });
        let mut cluster = Cluster::new(cfg, N);
        for node in 0..N as u32 {
            cluster.spawn_node(node, move |ctx| {
                let mut rt = Runtime::new(ctx, LrcConfig::small_test(N), CoreConfig::fast_test());
                let sys = carlos::sync::install(&mut rt);
                let lock = LockSpec::new(1, 0);
                for _ in 0..INCS {
                    sys.acquire(&mut rt, lock);
                    let v = rt.read_u32(0);
                    rt.write_u32(0, v + 1);
                    sys.release(&mut rt, lock);
                }
                sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
                assert_eq!(rt.read_u32(0), INCS * N as u32, "loss corrupted the DSM");
                sys.barrier(&mut rt, BarrierSpec::global(9, 0), 1);
                rt.shutdown();
            });
        }
        let report = cluster.run();
        assert!(report.net.dropped > 0, "loss injection must actually fire");
    }
}

/// A run with a tiny GC threshold garbage-collects repeatedly and still
/// produces correct results (the §5.2 consistency-data lifecycle).
#[test]
fn gc_pressure_does_not_break_consistency() {
    const N: usize = 3;
    let mut cluster = Cluster::new(SimConfig::fast_test(), N);
    for node in 0..N as u32 {
        cluster.spawn_node(node, move |ctx| {
            let mut lrc = LrcConfig::small_test(N);
            lrc.gc_threshold_records = 12;
            let mut rt = Runtime::new(ctx, lrc, CoreConfig::fast_test());
            let sys = carlos::sync::install(&mut rt);
            let lock = LockSpec::new(1, 0);
            let b = BarrierSpec::global(9, 0);
            for round in 0..20u32 {
                sys.acquire(&mut rt, lock);
                let v = rt.read_u32((round as usize % 8) * 4);
                rt.write_u32((round as usize % 8) * 4, v + 1);
                sys.release(&mut rt, lock);
                if round % 5 == 4 {
                    sys.barrier(&mut rt, b, round);
                }
            }
            sys.barrier(&mut rt, b, 100);
            let mut sum = 0;
            for slot in 0..8 {
                sum += rt.read_u32(slot * 4);
            }
            assert_eq!(sum, 20 * N as u32);
            sys.barrier(&mut rt, b, 101);
            rt.shutdown();
        });
    }
    let report = cluster.run();
    assert!(
        report.counter_total("gc.rounds") >= N as u64,
        "expected at least one global GC with a 12-record threshold"
    );
}

/// Message annotations keep their §2.1 semantics through the public facade:
/// NONE never synchronizes, RELEASE always does.
#[test]
fn annotation_semantics_via_facade() {
    let mut cluster = Cluster::new(SimConfig::fast_test(), 2);
    cluster.spawn_node(0, |ctx| {
        let (mut rt, _) = mk(ctx, 2);
        rt.write_u32(0, 7);
        rt.send(1, 5, vec![], Annotation::None);
        rt.send(1, 6, vec![], Annotation::Release);
        let _ = rt.wait_accepted(7);
        rt.shutdown();
    });
    cluster.spawn_node(1, |ctx| {
        let (mut rt, _) = mk(ctx, 2);
        let _ = rt.wait_accepted(5);
        assert_eq!(rt.vt().get(0), 0, "NONE must not synchronize");
        let _ = rt.wait_accepted(6);
        assert!(rt.vt().get(0) > 0, "RELEASE must synchronize");
        assert_eq!(rt.read_u32(0), 7);
        rt.send(0, 7, vec![], Annotation::None);
        rt.shutdown();
    });
    let report = cluster.run();
    assert!(report.bucket_total(Bucket::Idle) > 0);
}
