//! Integration tests for the message-based coordination primitives,
//! run on full simulated clusters.

use carlos_core::{CoreConfig, Runtime};
use carlos_lrc::LrcConfig;
use carlos_sim::{time::us, Cluster, SimConfig};
use carlos_sync::{BarrierSpec, LockSpec, QueueSpec};

fn mk(ctx: carlos_sim::NodeCtx, n: usize) -> (Runtime, carlos_sync::SyncSystem) {
    let mut rt = Runtime::new(ctx, LrcConfig::small_test(n), CoreConfig::fast_test());
    let sys = carlos_sync::install(&mut rt);
    (rt, sys)
}

/// All nodes increment a shared counter under a lock; the total must be
/// exact and every increment visible (mutual exclusion + consistency).
#[test]
fn lock_protects_shared_counter() {
    const N: usize = 4;
    const PER_NODE: u32 = 25;
    let mut c = Cluster::new(SimConfig::fast_test(), N);
    for node in 0..N as u32 {
        c.spawn_node(node, move |ctx| {
            let (mut rt, sys) = mk(ctx, N);
            let lock = LockSpec::new(1, 0);
            let done = BarrierSpec::global(9, 0);
            for _ in 0..PER_NODE {
                sys.acquire(&mut rt, lock);
                let v = rt.read_u32(0);
                rt.compute(us(10));
                rt.write_u32(0, v + 1);
                sys.release(&mut rt, lock);
            }
            sys.barrier(&mut rt, done, 0);
            let total = rt.read_u32(0);
            assert_eq!(total, PER_NODE * N as u32, "lost update under lock");
            // Second barrier: stay alive to serve peers' final reads.
            sys.barrier(&mut rt, done, 1);
            rt.shutdown();
        });
    }
    c.run();
}

#[test]
fn lock_local_reacquire_sends_no_messages() {
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    c.spawn_node(0, |ctx| {
        let (mut rt, sys) = mk(ctx, 2);
        let lock = LockSpec::new(1, 0);
        for _ in 0..10 {
            sys.acquire(&mut rt, lock);
            sys.release(&mut rt, lock);
        }
        // First acquire goes through the manager (loopback); the other
        // nine are local re-acquires.
        assert_eq!(rt.ctx().counter("lock.local_reacquires"), 9);
        sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
        rt.shutdown();
    });
    c.spawn_node(1, |ctx| {
        let (mut rt, sys) = mk(ctx, 2);
        sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
        rt.shutdown();
    });
    c.run();
}

#[test]
fn lock_passes_down_a_chain_of_requesters() {
    // Nodes 1..3 contend; each appends its id to a shared log under the
    // lock. All ids must appear exactly once.
    const N: usize = 4;
    let mut c = Cluster::new(SimConfig::fast_test(), N);
    for node in 0..N as u32 {
        c.spawn_node(node, move |ctx| {
            let (mut rt, sys) = mk(ctx, N);
            let lock = LockSpec::new(5, 0);
            let done = BarrierSpec::global(9, 0);
            sys.acquire(&mut rt, lock);
            let len = rt.read_u32(0);
            rt.write_u32(4 + 4 * len as usize, node + 100);
            rt.write_u32(0, len + 1);
            sys.release(&mut rt, lock);
            sys.barrier(&mut rt, done, 0);
            let len = rt.read_u32(0);
            assert_eq!(len, N as u32);
            let mut seen: Vec<u32> = (0..N)
                .map(|i| rt.read_u32(4 + 4 * i))
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, vec![100, 101, 102, 103]);
            sys.barrier(&mut rt, done, 1);
            rt.shutdown();
        });
    }
    c.run();
}

/// After a barrier, every node sees every other node's pre-barrier writes.
#[test]
fn barrier_makes_all_mutually_consistent() {
    const N: usize = 4;
    let mut c = Cluster::new(SimConfig::fast_test(), N);
    for node in 0..N as u32 {
        c.spawn_node(node, move |ctx| {
            let (mut rt, sys) = mk(ctx, N);
            let b = BarrierSpec::global(1, 0);
            // Each node writes its slot (64-byte pages: all in page 0..N).
            rt.write_u32(node as usize * 4, node * 11 + 1);
            sys.barrier(&mut rt, b, 0);
            for peer in 0..N as u32 {
                assert_eq!(
                    rt.read_u32(peer as usize * 4),
                    peer * 11 + 1,
                    "node {node} missed node {peer}'s write"
                );
            }
            rt.shutdown();
        });
    }
    let r = c.run();
    // Global barrier: arrivals were RELEASE_NT carrying only own records,
    // and since clients had no foreign history no repair was needed.
    assert_eq!(r.counter_total("carlos.repair_requests"), 0);
}

#[test]
fn repeated_barriers_with_epochs() {
    const N: usize = 3;
    const ROUNDS: u32 = 8;
    let mut c = Cluster::new(SimConfig::fast_test(), N);
    for node in 0..N as u32 {
        c.spawn_node(node, move |ctx| {
            let (mut rt, sys) = mk(ctx, N);
            let b = BarrierSpec::global(1, 1);
            for round in 0..ROUNDS {
                // Rotate a token: node (round % N) writes, all check after.
                if node == round % N as u32 {
                    rt.write_u32(0, round + 7);
                }
                sys.barrier(&mut rt, b, round);
                assert_eq!(rt.read_u32(0), round + 7, "round {round}");
                sys.barrier(&mut rt, b, ROUNDS + round);
            }
            rt.shutdown();
        });
    }
    c.run();
}

/// The work-queue pattern of §2.2: consumers become consistent with
/// producers, the manager absorbs nothing.
#[test]
fn work_queue_forwards_consistency_not_through_manager() {
    const N: usize = 3;
    let mut c = Cluster::new(SimConfig::fast_test(), N);
    // Node 1 produces; node 0 manages; node 2 consumes.
    const H_DONE: u32 = 50;
    const H_GO: u32 = 51;
    c.spawn_node(0, |ctx| {
        let (mut rt, sys) = mk(ctx, N);
        // Wait until the consumer is done, *before* any barrier traffic
        // (accepting a barrier arrival would legitimately synchronize us).
        let _ = rt.wait_accepted(H_DONE);
        assert_eq!(
            rt.vt().get(1),
            0,
            "queue manager became consistent with the producer"
        );
        rt.send(1, H_GO, vec![], carlos_core::Annotation::None);
        rt.send(2, H_GO, vec![], carlos_core::Annotation::None);
        sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
        rt.shutdown();
    });
    c.spawn_node(1, |ctx| {
        let (mut rt, sys) = mk(ctx, N);
        let q = QueueSpec::fifo(1, 0);
        for i in 0..5u32 {
            // The payload lives in coherent memory; the message carries
            // only a descriptor (the address).
            rt.write_u32(i as usize * 4, 1000 + i);
            sys.enqueue(&mut rt, q, &i.to_le_bytes());
        }
        let _ = rt.wait_accepted(H_GO);
        sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
        rt.shutdown();
    });
    c.spawn_node(2, |ctx| {
        let (mut rt, sys) = mk(ctx, N);
        let q = QueueSpec::fifo(1, 0);
        for i in 0..5u32 {
            let item = sys.dequeue(&mut rt, q).expect("queue has items");
            let idx = u32::from_le_bytes(item.try_into().unwrap());
            assert_eq!(idx, i, "FIFO order violated");
            assert_eq!(
                rt.read_u32(idx as usize * 4),
                1000 + idx,
                "consumer not consistent with producer"
            );
        }
        rt.send(0, H_DONE, vec![], carlos_core::Annotation::None);
        let _ = rt.wait_accepted(H_GO);
        sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
        rt.shutdown();
    });
    c.run();
}

#[test]
fn work_stack_is_lifo() {
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    c.spawn_node(0, |ctx| {
        let (mut rt, sys) = mk(ctx, 2);
        let q = QueueSpec::lifo(1, 0);
        for i in 0..4u32 {
            sys.enqueue(&mut rt, q, &i.to_le_bytes());
        }
        sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
        rt.shutdown();
    });
    c.spawn_node(1, |ctx| {
        let (mut rt, sys) = mk(ctx, 2);
        let q = QueueSpec::lifo(1, 0);
        rt.sleep(carlos_sim::time::ms(10)); // Producer first.
        for expect in (0..4u32).rev() {
            let item = sys.dequeue(&mut rt, q).expect("stack has items");
            assert_eq!(u32::from_le_bytes(item.try_into().unwrap()), expect);
        }
        sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
        rt.shutdown();
    });
    c.run();
}

/// The accepting manager (the §5.2 no-forwarding variation) keeps the
/// stack's discipline: items accepted before any dequeue come back last in,
/// first out.
#[test]
fn accepting_stack_is_lifo() {
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    c.spawn_node(0, |ctx| {
        let (mut rt, sys) = mk(ctx, 2);
        let q = QueueSpec::lifo(1, 0).accepting();
        for i in 1..=3u32 {
            sys.enqueue(&mut rt, q, &i.to_le_bytes());
        }
        sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
        rt.shutdown();
    });
    c.spawn_node(1, |ctx| {
        let (mut rt, sys) = mk(ctx, 2);
        let q = QueueSpec::lifo(1, 0).accepting();
        rt.sleep(carlos_sim::time::ms(10)); // Producer first.
        for expect in [3, 2, 1u32] {
            let item = sys.dequeue(&mut rt, q).expect("stack has items");
            assert_eq!(u32::from_le_bytes(item.try_into().unwrap()), expect);
        }
        sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
        rt.shutdown();
    });
    c.run();
}

#[test]
fn queue_close_unblocks_waiting_consumers() {
    const N: usize = 3;
    let mut c = Cluster::new(SimConfig::fast_test(), N);
    c.spawn_node(0, |ctx| {
        let (mut rt, sys) = mk(ctx, N);
        let q = QueueSpec::fifo(1, 0);
        sys.enqueue(&mut rt, q, b"only");
        rt.sleep(carlos_sim::time::ms(20));
        sys.close_queue(&mut rt, q);
        sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
        rt.shutdown();
    });
    for node in 1..N as u32 {
        c.spawn_node(node, move |ctx| {
            let (mut rt, sys) = mk(ctx, N);
            let q = QueueSpec::fifo(1, 0);
            let mut got = 0;
            while sys.dequeue(&mut rt, q).is_some() {
                got += 1;
            }
            rt.ctx().count("items_won", got);
            sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
            rt.shutdown();
        });
    }
    let r = c.run();
    let total: u64 = (1..N).map(|i| r.node_counters[i].get("items_won")).sum();
    assert_eq!(total, 1, "exactly one consumer gets the single item");
}

#[test]
fn accepting_queue_mode_also_correct_but_absorbs() {
    // The §5.2 no-forwarding variation: the manager accepts items; data
    // still flows correctly, but the manager's timestamp absorbs producers.
    let mut c = Cluster::new(SimConfig::fast_test(), 3);
    c.spawn_node(0, |ctx| {
        let (mut rt, sys) = mk(ctx, 3);
        sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
        assert!(
            rt.vt().get(1) > 0,
            "accepting manager must have absorbed the producer"
        );
        rt.shutdown();
    });
    c.spawn_node(1, |ctx| {
        let (mut rt, sys) = mk(ctx, 3);
        let q = QueueSpec::fifo(1, 0).accepting();
        rt.write_u32(0, 424_242);
        sys.enqueue(&mut rt, q, b"item");
        sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
        rt.shutdown();
    });
    c.spawn_node(2, |ctx| {
        let (mut rt, sys) = mk(ctx, 3);
        let q = QueueSpec::fifo(1, 0).accepting();
        rt.sleep(carlos_sim::time::ms(10));
        let item = sys.dequeue(&mut rt, q).expect("item");
        assert_eq!(item, b"item");
        assert_eq!(rt.read_u32(0), 424_242, "consistency lost in accepting mode");
        sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
        rt.shutdown();
    });
    c.run();
}

/// A semaphore is a FIFO forwarding queue of empty items (§3): `V` is an
/// empty enqueue, `P` a dequeue.
#[test]
fn semaphore_bounds_concurrency_and_carries_consistency() {
    // Producer V's after writing; consumer P's and must see the write.
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    c.spawn_node(0, |ctx| {
        let (mut rt, sys) = mk(ctx, 2);
        let sem = QueueSpec::fifo(1, 0);
        rt.write_u32(0, 31337);
        sys.enqueue(&mut rt, sem, &[]);
        sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
        rt.shutdown();
    });
    c.spawn_node(1, |ctx| {
        let (mut rt, sys) = mk(ctx, 2);
        let sem = QueueSpec::fifo(1, 0);
        assert_eq!(sys.dequeue(&mut rt, sem), Some(Vec::new()));
        assert_eq!(rt.read_u32(0), 31337, "V-er's write invisible to P-er");
        sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
        rt.shutdown();
    });
    c.run();
}

/// `k` initial credits are `k` empty enqueues made up front: `k` P's pass
/// without any V.
#[test]
fn semaphore_initial_credits() {
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    c.spawn_node(0, |ctx| {
        let (mut rt, sys) = mk(ctx, 2);
        let sem = QueueSpec::fifo(1, 0);
        for _ in 0..3 {
            sys.enqueue(&mut rt, sem, &[]);
        }
        sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
        rt.shutdown();
    });
    c.spawn_node(1, |ctx| {
        let (mut rt, sys) = mk(ctx, 2);
        let sem = QueueSpec::fifo(1, 0);
        for _ in 0..3 {
            assert_eq!(sys.dequeue(&mut rt, sem), Some(Vec::new()));
        }
        sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
        rt.shutdown();
    });
    let r = c.run();
    assert_eq!(r.node_counters[1].get("queue.dequeues"), 3);
}

/// Garbage collection fires at a barrier once record storage crosses the
/// threshold, and the protocol keeps working afterwards (§5.2).
#[test]
fn gc_triggers_at_barrier_and_preserves_correctness() {
    const N: usize = 2;
    let mut c = Cluster::new(SimConfig::fast_test(), N);
    for node in 0..N as u32 {
        c.spawn_node(node, move |ctx| {
            let mut lrc = LrcConfig::small_test(N);
            lrc.gc_threshold_records = 3; // Tiny threshold to force GC.
            let mut rt = Runtime::new(ctx, lrc, CoreConfig::fast_test());
            let sys = carlos_sync::install(&mut rt);
            let lock = LockSpec::new(1, 0);
            let b = BarrierSpec::global(9, 0);
            for round in 0..30u32 {
                sys.acquire(&mut rt, lock);
                let v = rt.read_u32(0);
                rt.write_u32(0, v + 1);
                sys.release(&mut rt, lock);
                if round % 10 == 9 {
                    sys.barrier(&mut rt, b, round);
                }
            }
            sys.barrier(&mut rt, b, 1000);
            assert_eq!(rt.read_u32(0), 60);
            sys.barrier(&mut rt, b, 1001);
            rt.shutdown();
        });
    }
    let r = c.run();
    assert!(
        r.counter_total("gc.rounds") >= 2, // Both nodes participate.
        "expected at least one global GC, got {}",
        r.counter_total("gc.rounds")
    );
}

/// A collection asked for during the last barrier never starts: node 2's
/// records cross the threshold as its final arrival closes an interval,
/// so it asks the manager (node 0) from the barrier's wait. Node 0 is a
/// client of that barrier, whose manager (node 1) leaves as soon as it has
/// sent the departures; a round started there could never finish.
#[test]
fn a_collection_asked_during_the_last_barrier_ends_cleanly() {
    const N: usize = 3;
    let mut c = Cluster::new(SimConfig::fast_test(), N);
    for node in 0..N as u32 {
        c.spawn_node(node, move |ctx| {
            let mut lrc = LrcConfig::small_test(N);
            lrc.ownership = carlos_lrc::PageOwnership::Banded;
            // Node 2 holds an interval and the diff it elides per write:
            // 4 records after two barriers, 6 after the third.
            lrc.gc_threshold_records = 5;
            let mut rt = Runtime::new(ctx, lrc, CoreConfig::fast_test());
            let sys = carlos_sync::install(&mut rt);
            let b = BarrierSpec::global(9, 1);
            for epoch in 0..3 {
                if node == 2 {
                    // The last page is node 2's own.
                    rt.write_u32(64 * 63, epoch + 1);
                    rt.compute(us(100));
                }
                sys.barrier(&mut rt, b, epoch);
            }
            rt.shutdown();
        });
    }
    let r = c.run();
    assert_eq!(r.node_counters[2].get("carlos.sent.system"), 1, "node 2 asked");
    assert_eq!(r.counter_total("gc.rounds"), 0);
    assert_eq!(r.counter_total("carlos.residue"), 0);
}
