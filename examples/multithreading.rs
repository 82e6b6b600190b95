//! §4.4: user-level multithreading hides remote latencies, with scheduler
//! upcalls reporting every block/unblock transition — and a small remote-
//! invocation facility built on active messages, as the paper sketches
//! ("upcalls out of handlers for active messages provide a mechanism for
//! building remote invocation").
//!
//! Node 1 runs 1..4 user threads over one shared CarlOS runtime; each
//! thread repeatedly fetches a remote page, computes on it, and invokes a
//! remote function on node 0 (which increments a counter there). More
//! threads → more overlap → shorter runs, until the wire saturates.
//!
//! Run with `cargo run --release --example multithreading`.

use std::{cell::Cell, rc::Rc};

use carlos::core::{Annotation, CoreConfig, Runtime, SharedRuntime, ThreadEvent};
use carlos::lrc::LrcConfig;
use carlos::sim::time::{ms, to_secs, us};
use carlos::sim::{Cluster, SimConfig};

const H_INVOKE: u32 = 11; // Remote invocation request.
const H_RESULT: u32 = 12; // Remote invocation reply.
const H_DONE: u32 = 13;

const PAGES: usize = 8;
const ROUNDS: usize = 2;

fn run_with(threads: usize) -> (f64, u32, u32) {
    // Every proc of the run is a coroutine on this thread, so plain shared
    // cells are enough: no atomics, no locks.
    let blocks = Rc::new(Cell::new(0u32));
    let b2 = Rc::clone(&blocks);
    let mut cluster = Cluster::new(SimConfig::osdi94(), 2);

    // Node 0: page owner and remote-invocation server. The invoked
    // "function" runs in the active-message handler's extension: it bumps
    // a node-local counter and replies with the new value.
    cluster.spawn_node(0, |ctx| {
        let mut rt = Runtime::new(ctx, LrcConfig::osdi94(2, 1 << 17), CoreConfig::osdi94());
        for p in 0..PAGES {
            rt.write_u32(p * 8192, (p as u32 + 1) * 100);
        }
        let mut invocations = 0u32;
        rt.register(
            H_INVOKE,
            Box::new(move |env, msg| {
                let caller = msg.origin;
                env.accept(msg);
                invocations += 1;
                env.send(
                    caller,
                    H_RESULT,
                    invocations.to_le_bytes().to_vec(),
                    Annotation::None,
                );
            }),
        );
        let _ = rt.wait_accepted(H_DONE);
        rt.shutdown();
    });

    // Node 1: `threads` user threads over one shared runtime.
    cluster.spawn_node(1, move |ctx| {
        let rt = Runtime::new(
            ctx.clone(),
            LrcConfig::osdi94(2, 1 << 17),
            CoreConfig::osdi94(),
        );
        let shared = Rc::new(SharedRuntime::new(rt));
        shared.set_upcall(Box::new(move |ev| {
            if matches!(ev, ThreadEvent::Blocked { .. }) {
                b2.set(b2.get() + 1);
            }
        }));
        let done = Rc::new(Cell::new(0u32));
        let work = |w: carlos::core::Worker, slot: usize| {
            for round in 0..ROUNDS {
                let page = (slot + round * 3) % PAGES;
                let v = w.read_u32(page * 8192);
                assert_eq!(v, (page as u32 + 1) * 100);
                w.compute(ms(3));
                // Remote invocation: ship the function, await the result.
                w.send(0, H_INVOKE, vec![], Annotation::Request);
                let r = w.wait_accepted(H_RESULT);
                assert!(!r.body.is_empty());
            }
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
        let w0 = shared.worker(0, ctx.clone());
        work(shared.worker(0, ctx.clone()), 0);
        done.set(done.get() + 1);
        while done.get() < threads as u32 {
            w0.poll();
            let _ = ctx.wait_mailbox(Some(ctx.now() + us(200)));
        }
        w0.send(0, H_DONE, vec![], Annotation::None);
        shared.with(|rt| rt.shutdown());
    });

    let report = cluster.run();
    (
        to_secs(report.elapsed),
        report.net.messages as u32,
        blocks.get(),
    )
}

fn main() {
    println!("threads | elapsed | messages | Blocked upcalls");
    let mut base = 0.0;
    for threads in 1..=4 {
        let (secs, msgs, blocks) = run_with(threads);
        if threads == 1 {
            base = secs;
        }
        println!(
            "   {threads}    | {secs:5.3}s | {msgs:>6}  | {blocks:>4}   (vs 1 thread x{:.2} work: {:.2}x time)",
            threads,
            secs / base
        );
    }
    println!("\nEach thread does the same amount of work; overlapped fetches and");
    println!("invocations keep the added time well below linear.");
}
