//! Tests for §4.4 user-level multithreading: several threads share one
//! node's runtime, remote latencies are hidden by overlap, handlers keep
//! being served while threads block, the scheduler upcall fires, and
//! misuse of the shared runtime fails the run instead of hanging it.

use std::{cell::Cell, rc::Rc, sync::mpsc, time::Duration};

use carlos_core::{Annotation, CoreConfig, Runtime, SharedRuntime, ThreadEvent};
use carlos_lrc::LrcConfig;
use carlos_sim::time::{ms, us};
use carlos_sim::{Cluster, SimConfig, SimError};

const H_DONE: u32 = 9;

/// Two threads on node 1 each fetch a different remote page and compute.
/// With the page fetches overlapped, the node finishes far sooner than the
/// serial sum of both threads' latencies.
#[test]
fn two_threads_hide_remote_latency() {
    let elapsed_for = |threads: usize| {
        let mut c = Cluster::new(SimConfig::osdi94(), 2);
        // Node 0 owns the pages and serves them.
        c.spawn_node(0, |ctx| {
            let mut rt = Runtime::new(ctx, LrcConfig::osdi94(2, 1 << 16), CoreConfig::osdi94());
            for page in 0..4usize {
                rt.write_u32(page * 8192, page as u32 + 1);
            }
            let mut done = 0;
            while done < 1 {
                let _ = rt.wait_accepted(H_DONE);
                done += 1;
            }
            rt.shutdown();
        });
        c.spawn_node(1, move |ctx| {
            let rt = Runtime::new(
                ctx.clone(),
                LrcConfig::osdi94(2, 1 << 16),
                CoreConfig::osdi94(),
            );
            let shared = Rc::new(SharedRuntime::new(rt));
            let done = Rc::new(Cell::new(0u32));
            let work = move |w: carlos_core::Worker, page: usize| {
                // Fetch a remote page (a multi-millisecond round trip on
                // the 10 Mbit wire), then compute for 5 ms.
                let v = w.read_u32(page * 8192);
                assert_eq!(v, page as u32 + 1);
                w.compute(ms(5));
            };
            for t in 1..threads {
                let shared2 = Rc::clone(&shared);
                let done2 = Rc::clone(&done);
                ctx.spawn_thread(move |tctx| {
                    let w = shared2.worker(t as u32, tctx);
                    work(w, t);
                    done2.set(done2.get() + 1);
                });
            }
            let w = shared.worker(0, ctx.clone());
            work(w, 0);
            done.set(done.get() + 1);
            // Wait for the helper threads, pumping the runtime so their
            // fetches are actually processed.
            let w0 = shared.worker(0, ctx.clone());
            while done.get() < threads as u32 {
                w0.poll();
                let _ = ctx.wait_mailbox(Some(ctx.now() + us(200)));
            }
            w0.send(0, H_DONE, vec![], Annotation::None);
            shared.with(|rt| rt.shutdown());
        });
        c.run().elapsed
    };
    let serial = elapsed_for(1); // One thread, one page + 5 ms.
    let dual = elapsed_for(2); // Two threads, two pages + 2 × 5 ms.
    // Without overlap the two-thread run would cost ~2× the single-thread
    // one (two fetches + 10 ms of serialized compute). With latency hiding
    // the fetch of page 1 overlaps thread 0's compute.
    assert!(
        dual < serial * 2,
        "no latency hiding: single {serial} vs dual {dual}"
    );
}

/// While one thread is blocked on a remote fetch, the node still serves
/// incoming requests through the other thread's polling.
#[test]
fn blocked_thread_does_not_stall_service() {
    let mut c = Cluster::new(SimConfig::fast_test(), 3);
    // Node 0: owner; also the final rendezvous point.
    c.spawn_node(0, |ctx| {
        let mut rt = Runtime::new(ctx, LrcConfig::small_test(3), CoreConfig::fast_test());
        rt.write_u32(0, 11);
        rt.write_u32(64, 22); // A second page.
        let _ = rt.wait_accepted(H_DONE);
        let _ = rt.wait_accepted(H_DONE);
        rt.shutdown();
    });
    // Node 1: two threads; thread 1 blocks on a remote page while the main
    // thread keeps the runtime served.
    c.spawn_node(1, |ctx| {
        let rt = Runtime::new(ctx.clone(), LrcConfig::small_test(3), CoreConfig::fast_test());
        let shared = Rc::new(SharedRuntime::new(rt));
        let done = Rc::new(Cell::new(0u32));
        let shared2 = Rc::clone(&shared);
        let done2 = Rc::clone(&done);
        ctx.spawn_thread(move |tctx| {
            let w = shared2.worker(1, tctx);
            assert_eq!(w.read_u32(0), 11);
            w.send(0, H_DONE, vec![], Annotation::None);
            done2.set(done2.get() + 1);
        });
        let w = shared.worker(0, ctx.clone());
        // The main thread writes its own page, which node 2 will read —
        // requiring node 1 to serve diffs while thread 1 is blocked.
        w.write_u32(128, 33);
        w.send(2, H_DONE, vec![], Annotation::Release);
        while done.get() < 1 {
            w.poll();
            let _ = ctx.wait_mailbox(Some(ctx.now() + us(100)));
        }
        // Stay alive until node 2 confirms.
        let w0 = shared.worker(0, ctx.clone());
        let _ = w0.wait_accepted(H_DONE);
        shared.with(|rt| rt.shutdown());
    });
    // Node 2: reads node 1's write after the release.
    c.spawn_node(2, |ctx| {
        let mut rt = Runtime::new(ctx, LrcConfig::small_test(3), CoreConfig::fast_test());
        let _ = rt.wait_accepted(H_DONE);
        assert_eq!(rt.read_u32(128), 33);
        rt.send(1, H_DONE, vec![], Annotation::None);
        rt.send(0, H_DONE, vec![], Annotation::None);
        rt.shutdown();
    });
    c.run();
}

/// The §4.4 scheduler upcall fires on block/unblock transitions.
#[test]
fn scheduler_upcall_fires() {
    let blocks = Rc::new(Cell::new(0u32));
    let unblocks = Rc::new(Cell::new(0u32));
    let (b2, u2) = (Rc::clone(&blocks), Rc::clone(&unblocks));
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    c.spawn_node(0, |ctx| {
        let mut rt = Runtime::new(ctx, LrcConfig::small_test(2), CoreConfig::fast_test());
        rt.write_u32(0, 1);
        let _ = rt.wait_accepted(H_DONE);
        rt.shutdown();
    });
    c.spawn_node(1, move |ctx| {
        let rt = Runtime::new(ctx.clone(), LrcConfig::small_test(2), CoreConfig::fast_test());
        let shared = SharedRuntime::new(rt);
        shared.set_upcall(Box::new(move |ev| match ev {
            ThreadEvent::Blocked { .. } => b2.set(b2.get() + 1),
            ThreadEvent::Unblocked { .. } => u2.set(u2.get() + 1),
        }));
        let w = shared.worker(0, ctx);
        // The remote read must block at least once (page fetch round trip).
        assert_eq!(w.read_u32(0), 1);
        w.send(0, H_DONE, vec![], Annotation::None);
        shared.with(|rt| rt.shutdown());
    });
    c.run();
    assert!(blocks.get() >= 1, "no Blocked upcall");
    assert_eq!(blocks.get(), unblocks.get(), "every block must unblock");
}

/// `SharedRuntime::with` while a sibling worker is parked inside the
/// runtime (here, in the send overhead of its `send`) is a usage error: it
/// fails the run with a panic attributed to the node. A blocking wait there
/// would hang the one OS thread that runs every proc, so the run goes on a
/// spawned thread under a host-time watchdog, and only its result crosses
/// back.
#[test]
fn with_while_a_worker_is_inside_the_runtime_fails_the_node() {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut c = Cluster::new(SimConfig::fast_test(), 1);
        c.spawn_node(0, |ctx| {
            let rt = Runtime::new(
                ctx.clone(),
                LrcConfig::small_test(1),
                CoreConfig::fast_test(),
            );
            let shared = Rc::new(SharedRuntime::new(rt));
            let shared2 = Rc::clone(&shared);
            ctx.spawn_thread(move |tctx| {
                shared2
                    .worker(1, tctx)
                    .send(0, H_DONE, vec![], Annotation::None);
            });
            // The worker runs first and parks in its 1 µs send overhead,
            // holding the runtime, while this proc wakes 1 ns later.
            ctx.sleep(1);
            shared.with(|rt| rt.shutdown());
        });
        let _ = done_tx.send(c.try_run());
    });
    let outcome = done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("run hung: SharedRuntime::with waited on a parked worker");
    match outcome {
        Err(SimError::NodePanic {
            node: Some(0),
            message,
            ..
        }) => assert!(message.contains("SharedRuntime::with"), "{message}"),
        other => panic!("expected a panic on node 0, got {other:?}"),
    }
}
