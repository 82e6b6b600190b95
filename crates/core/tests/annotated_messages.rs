//! End-to-end tests of message-driven consistency semantics over the
//! simulated cluster: the paper's Figure 1 scenario, annotation behaviour,
//! forwarding, stored messages, and non-transitive releases.

use std::{cell::Cell, rc::Rc};

use carlos_core::{Annotation, CoreConfig, Runtime};
use carlos_lrc::LrcConfig;
use carlos_sim::{time::ms, Cluster, SimConfig};

const H_GO: u32 = 1;
const H_REPLY: u32 = 2;
const H_FWD: u32 = 3;
const H_NEXT: u32 = 4;

fn mk_runtime(ctx: carlos_sim::NodeCtx, n: usize) -> Runtime {
    Runtime::new(ctx, LrcConfig::small_test(n), CoreConfig::fast_test())
}

#[test]
fn release_makes_write_visible() {
    // The core guarantee (§2): modifications visible at A before it sends a
    // synchronizing message are visible at B when B accepts it.
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    c.spawn_node(0, |ctx| {
        let mut rt = mk_runtime(ctx, 2);
        rt.write_u32(0, 1234);
        rt.send(1, H_GO, vec![], Annotation::Release);
        // Stay alive to serve the diff fetch.
        let _ = rt.wait_accepted(H_REPLY);
        rt.shutdown();
    });
    c.spawn_node(1, |ctx| {
        let mut rt = mk_runtime(ctx, 2);
        let _ = rt.wait_accepted(H_GO);
        assert_eq!(rt.read_u32(0), 1234, "release did not propagate write");
        rt.send(0, H_REPLY, vec![], Annotation::None);
        rt.shutdown();
    });
    c.run();
}

#[test]
fn none_message_does_not_synchronize() {
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    c.spawn_node(0, |ctx| {
        let mut rt = mk_runtime(ctx, 2);
        // Warm node 1's copy first so it holds a (zero) cached page.
        let _ = rt.wait_accepted(H_REPLY);
        rt.write_u32(0, 77);
        rt.send(1, H_GO, vec![], Annotation::None);
        let _ = rt.wait_accepted(H_REPLY);
        rt.shutdown();
    });
    c.spawn_node(1, |ctx| {
        let mut rt = mk_runtime(ctx, 2);
        let v0 = rt.read_u32(0); // Faults the page in (value 0).
        assert_eq!(v0, 0);
        rt.send(0, H_REPLY, vec![], Annotation::None);
        let _ = rt.wait_accepted(H_GO);
        // NONE carries no consistency info: the cached zero stays visible.
        assert_eq!(rt.read_u32(0), 0, "NONE message must not invalidate");
        rt.send(0, H_REPLY, vec![], Annotation::None);
        rt.shutdown();
    });
    c.run();
}

#[test]
fn request_reply_lock_pattern_is_asymmetric() {
    // Figure 1: P2 sends "get lock" (REQUEST) to P1; P1 answers "release
    // lock" (RELEASE). P2 must see P1's write; P1 must NOT have become
    // consistent with P2 (no unintended symmetry).
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    c.spawn_node(0, |ctx| {
        let mut rt = mk_runtime(ctx, 2);
        rt.write_u32(0, 42); // w(x) while "holding the lock".
        let m = rt.wait_accepted(H_GO); // "get lock" REQUEST arrives.
        assert_eq!(m.annotation, Annotation::Request);
        let vt_before = rt.vt().clone();
        rt.send(1, H_REPLY, vec![], Annotation::Release);
        // P1's knowledge OF P2 may have grown, but P1 applied nothing of
        // P2's: its own index for node 1 must still be zero.
        assert_eq!(rt.vt().get(1), vt_before.get(1));
        assert_eq!(rt.vt().get(1), 0, "unintended symmetry: P1 synced with P2");
        let _ = rt.wait_accepted(H_REPLY);
        rt.shutdown();
    });
    c.spawn_node(1, |ctx| {
        let mut rt = mk_runtime(ctx, 2);
        // P2 dirties its own private page (so it HAS intervals P1 could
        // wrongly absorb), then asks for the lock.
        rt.write_u32(256, 7);
        rt.send(0, H_GO, vec![], Annotation::Request);
        let _ = rt.wait_accepted(H_REPLY); // "release lock" accepted.
        assert_eq!(rt.read_u32(0), 42, "r(x) must see P1's write");
        rt.send(0, H_REPLY, vec![], Annotation::None);
        rt.shutdown();
    });
    c.run();
}

#[test]
fn request_piggyback_tailors_release_payload() {
    // After P2's REQUEST carries its timestamp, P1's RELEASE payload must
    // not resend records P2 already has.
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    c.spawn_node(0, |ctx| {
        let mut rt = mk_runtime(ctx, 2);
        rt.write_u32(0, 1);
        rt.send(1, H_GO, vec![], Annotation::Release); // P2 learns interval 1.
        let _ = rt.wait_accepted(H_GO); // P2's REQUEST (with its vt).
        rt.write_u32(8, 2);
        rt.send(1, H_REPLY, vec![], Annotation::Release);
        let _ = rt.wait_accepted(H_REPLY);
        rt.shutdown();
    });
    c.spawn_node(1, |ctx| {
        let mut rt = mk_runtime(ctx, 2);
        let _ = rt.wait_accepted(H_GO);
        rt.send(0, H_GO, vec![], Annotation::Request);
        let _ = rt.wait_accepted(H_REPLY);
        assert_eq!(rt.read_u32(8), 2);
        rt.send(0, H_REPLY, vec![], Annotation::None);
        rt.shutdown();
    });
    let r = c.run();
    // Knowledge tracking plus the piggyback keep payloads tailored; with
    // correct tailoring node 0 ships each interval record exactly once.
    assert_eq!(r.counter_total("carlos.repair_requests"), 0);
}

#[test]
fn forwarding_relays_consistency_to_final_recipient() {
    // Paper §2.2: a RELEASE relayed through an intermediary must make the
    // *final* recipient consistent with the origin, while the intermediary
    // (which only forwards) absorbs nothing.
    let mut c = Cluster::new(SimConfig::fast_test(), 3);
    // Node 0: origin. Writes, then RELEASEs to the manager (node 1).
    c.spawn_node(0, |ctx| {
        let mut rt = mk_runtime(ctx, 3);
        rt.write_u32(0, 99);
        rt.send(1, H_FWD, vec![], Annotation::Release);
        let _ = rt.wait_accepted(H_REPLY);
        rt.shutdown();
    });
    // Node 1: manager. Forwards without accepting.
    c.spawn_node(1, |ctx| {
        let mut rt = mk_runtime(ctx, 3);
        rt.register(
            H_FWD,
            Box::new(|env, msg| {
                let handler = msg.handler;
                env.forward(msg, 2, handler);
            }),
        );
        let _ = rt.wait_accepted(H_REPLY);
        assert_eq!(rt.vt().get(0), 0, "forwarder must not absorb consistency");
        rt.shutdown();
    });
    // Node 2: final recipient.
    c.spawn_node(2, |ctx| {
        let mut rt = mk_runtime(ctx, 3);
        let m = rt.wait_accepted(H_FWD);
        assert_eq!(m.origin, 0, "origin must survive forwarding");
        assert_eq!(m.src, 1, "src must be the forwarder");
        assert_eq!(rt.read_u32(0), 99, "forwarded release lost information");
        rt.send(0, H_REPLY, vec![], Annotation::None);
        rt.send(1, H_REPLY, vec![], Annotation::None);
        rt.shutdown();
    });
    c.run();
}

#[test]
fn stored_messages_forward_later() {
    // The shared work queue pattern (§2.2): the manager stores "enqueued"
    // RELEASE messages and forwards them to dequeuers; it never accepts.
    let mut c = Cluster::new(SimConfig::fast_test(), 3);
    // Node 0: producer.
    c.spawn_node(0, |ctx| {
        let mut rt = mk_runtime(ctx, 3);
        rt.write_u32(0, 555); // The "work item" payload in shared memory.
        rt.send(1, H_FWD, b"item".to_vec(), Annotation::Release);
        let _ = rt.wait_accepted(H_REPLY);
        rt.shutdown();
    });
    // Node 1: queue manager. Stores, then forwards on dequeue request.
    c.spawn_node(1, |ctx| {
        let mut rt = mk_runtime(ctx, 3);
        let stored = std::sync::Arc::new(std::sync::Mutex::new(Vec::<u64>::new()));
        let s1 = std::sync::Arc::clone(&stored);
        rt.register(
            H_FWD,
            Box::new(move |env, msg| {
                let id = env.store(msg);
                s1.lock().unwrap().push(id);
            }),
        );
        let s2 = std::sync::Arc::clone(&stored);
        rt.register(
            H_GO,
            Box::new(move |env, msg| {
                let requester = msg.src;
                env.discard(msg); // The dequeue REQUEST itself.
                let id = s2.lock().unwrap().pop().expect("an item is queued");
                env.forward_stored(id, requester, H_FWD);
            }),
        );
        let _ = rt.wait_accepted(H_REPLY);
        assert_eq!(rt.vt().get(0), 0, "manager must stay unsynchronized");
        rt.shutdown();
    });
    // Node 2: consumer. Requests an item, becomes consistent with node 0.
    c.spawn_node(2, |ctx| {
        let mut rt = mk_runtime(ctx, 3);
        rt.ctx().sleep(ms(5)); // Let the producer enqueue first.
        rt.send(1, H_GO, vec![], Annotation::Request);
        let item = rt.wait_accepted(H_FWD);
        assert_eq!(item.body, b"item");
        assert_eq!(item.origin, 0);
        assert_eq!(rt.read_u32(0), 555, "consumer must see producer's write");
        rt.send(0, H_REPLY, vec![], Annotation::None);
        rt.send(1, H_REPLY, vec![], Annotation::None);
        rt.shutdown();
    });
    c.run();
}

#[test]
fn stored_release_synchronizes_when_accepted_later() {
    // Deferred acceptance (§2.2): a handler stores a RELEASE, and only a
    // later message makes it accept the stored one; the node becomes
    // consistent with the sender then, not on arrival. Accepting is the
    // acquire alone, so the RELEASE never reaches user level; the NONE
    // message sent after `H_GO` (per-pair FIFO orders the two) tells user
    // level that the accept ran.
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    c.spawn_node(0, |ctx| {
        let mut rt = mk_runtime(ctx, 2);
        rt.write_u32(0, 909);
        rt.send(1, H_FWD, b"deferred".to_vec(), Annotation::Release);
        rt.sleep(ms(5));
        rt.send(1, H_GO, vec![], Annotation::None);
        rt.send(1, H_NEXT, vec![], Annotation::None);
        let _ = rt.wait_accepted(H_REPLY);
        rt.shutdown();
    });
    c.spawn_node(1, |ctx| {
        let mut rt = mk_runtime(ctx, 2);
        let token = Rc::new(Cell::new(None));
        let t1 = Rc::clone(&token);
        rt.register(H_FWD, Box::new(move |env, msg| t1.set(Some(env.store(msg)))));
        rt.register(
            H_GO,
            Box::new(move |env, msg| {
                env.accept(msg);
                let stored = token.take().expect("the RELEASE is stored");
                assert!(env.accept_stored(stored), "the RELEASE is complete");
            }),
        );
        rt.sleep(ms(2));
        assert_eq!(rt.ctx().counter("carlos.stored"), 1);
        assert!(rt.try_take_accepted(H_FWD).is_none(), "stored, not accepted");
        assert_eq!(rt.vt().get(0), 0, "a stored RELEASE does not synchronize");
        let _ = rt.wait_accepted(H_NEXT);
        assert_eq!(rt.vt().get(0), 1, "accepting it applies the sender's interval");
        assert_eq!(rt.read_u32(0), 909, "the deferred accept must see the write");
        assert!(rt.try_take_accepted(H_FWD).is_none(), "an accept is not a delivery");
        rt.send(0, H_REPLY, vec![], Annotation::None);
        rt.shutdown();
    });
    c.run();
}

#[test]
fn release_nt_gap_is_repaired() {
    // Node 0 releases to node 1; node 1 then sends a RELEASE_NT to node 2.
    // The NT payload omits node 0's records, so node 2 must detect the gap
    // (required timestamp not covered) and repair from node 1.
    let mut c = Cluster::new(SimConfig::fast_test(), 3);
    c.spawn_node(0, |ctx| {
        let mut rt = mk_runtime(ctx, 3);
        rt.write_u32(0, 10);
        rt.send(1, H_GO, vec![], Annotation::Release);
        let _ = rt.wait_accepted(H_REPLY);
        rt.shutdown();
    });
    c.spawn_node(1, |ctx| {
        let mut rt = mk_runtime(ctx, 3);
        let _ = rt.wait_accepted(H_GO);
        rt.write_u32(64, 20); // Own modification, announced by the NT send.
        rt.send(2, H_GO, vec![], Annotation::ReleaseNt);
        let _ = rt.wait_accepted(H_REPLY);
        rt.shutdown();
    });
    c.spawn_node(2, |ctx| {
        let mut rt = mk_runtime(ctx, 3);
        let _ = rt.wait_accepted(H_GO);
        // Acceptance only completes once the gap is repaired, so both
        // writes are visible now.
        assert_eq!(rt.read_u32(64), 20);
        assert_eq!(rt.read_u32(0), 10);
        rt.send(0, H_REPLY, vec![], Annotation::None);
        rt.send(1, H_REPLY, vec![], Annotation::None);
        rt.shutdown();
    });
    let r = c.run();
    assert!(
        r.counter_total("carlos.repair_requests") >= 1,
        "the NT gap should have forced a repair round"
    );
}

#[test]
fn release_nt_without_foreign_history_needs_no_repair() {
    // A barrier-style NT release whose sender has no foreign records is
    // complete by construction.
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    c.spawn_node(0, |ctx| {
        let mut rt = mk_runtime(ctx, 2);
        rt.write_u32(0, 5);
        rt.send(1, H_GO, vec![], Annotation::ReleaseNt);
        let _ = rt.wait_accepted(H_REPLY);
        rt.shutdown();
    });
    c.spawn_node(1, |ctx| {
        let mut rt = mk_runtime(ctx, 2);
        let _ = rt.wait_accepted(H_GO);
        assert_eq!(rt.read_u32(0), 5);
        rt.send(0, H_REPLY, vec![], Annotation::None);
        rt.shutdown();
    });
    let r = c.run();
    assert_eq!(r.counter_total("carlos.repair_requests"), 0);
}

#[test]
fn transitivity_of_release_chain() {
    // 0 -> 1 -> 2 by full RELEASEs: node 2 sees node 0's write without ever
    // talking to node 0 (the happened-before transitivity of §2).
    let mut c = Cluster::new(SimConfig::fast_test(), 3);
    c.spawn_node(0, |ctx| {
        let mut rt = mk_runtime(ctx, 3);
        rt.write_u32(0, 1111);
        rt.send(1, H_GO, vec![], Annotation::Release);
        let _ = rt.wait_accepted(H_REPLY);
        rt.shutdown();
    });
    c.spawn_node(1, |ctx| {
        let mut rt = mk_runtime(ctx, 3);
        let _ = rt.wait_accepted(H_GO);
        rt.send(2, H_GO, vec![], Annotation::Release);
        let _ = rt.wait_accepted(H_REPLY);
        rt.shutdown();
    });
    c.spawn_node(2, |ctx| {
        let mut rt = mk_runtime(ctx, 3);
        let _ = rt.wait_accepted(H_GO);
        assert_eq!(rt.read_u32(0), 1111, "transitivity broken");
        rt.send(0, H_REPLY, vec![], Annotation::None);
        rt.send(1, H_REPLY, vec![], Annotation::None);
        rt.shutdown();
    });
    let r = c.run();
    assert_eq!(r.counter_total("carlos.repair_requests"), 0);
}

#[test]
fn compute_is_interrupted_by_incoming_traffic() {
    // Node 0 computes for a long virtual stretch; node 1 faults on a page
    // node 0 must serve. With interrupt-style handling the fault is served
    // long before the computation finishes.
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    c.spawn_node(0, |ctx| {
        let mut rt = mk_runtime(ctx, 2);
        rt.write_u32(0, 7);
        rt.send(1, H_GO, vec![], Annotation::Release);
        rt.compute(ms(500)); // Long compute; must still serve diffs.
        let _ = rt.wait_accepted(H_REPLY);
        rt.shutdown();
    });
    c.spawn_node(1, |ctx| {
        let mut rt = mk_runtime(ctx, 2);
        let _ = rt.wait_accepted(H_GO);
        let t0 = rt.ctx().now();
        assert_eq!(rt.read_u32(0), 7);
        let elapsed = rt.ctx().now() - t0;
        assert!(
            elapsed < ms(50),
            "fault service was starved by remote compute: {elapsed} ns"
        );
        rt.send(0, H_REPLY, vec![], Annotation::None);
        rt.shutdown();
    });
    c.run();
}

#[test]
#[should_panic(expected = "without disposing")]
fn undisposed_message_is_a_bug() {
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    c.spawn_node(0, |ctx| {
        let mut rt = mk_runtime(ctx, 2);
        rt.send(1, H_GO, vec![], Annotation::None);
        rt.shutdown();
    });
    c.spawn_node(1, |ctx| {
        let mut rt = mk_runtime(ctx, 2);
        rt.register(H_GO, Box::new(|_env, _msg| { /* forgets to dispose */ }));
        let _ = rt.wait_accepted(H_REPLY); // Never arrives; panics first.
    });
    c.run();
}

#[test]
fn annotation_counters_are_tracked() {
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    c.spawn_node(0, |ctx| {
        let mut rt = mk_runtime(ctx, 2);
        rt.write_u32(0, 1);
        rt.send(1, H_GO, vec![], Annotation::None);
        rt.send(1, H_GO, vec![], Annotation::Request);
        rt.send(1, H_GO, vec![], Annotation::Release);
        rt.send(1, H_GO, vec![], Annotation::ReleaseNt);
        let _ = rt.wait_accepted(H_REPLY);
        rt.shutdown();
    });
    c.spawn_node(1, |ctx| {
        let mut rt = mk_runtime(ctx, 2);
        for _ in 0..4 {
            let _ = rt.wait_accepted(H_GO);
        }
        rt.send(0, H_REPLY, vec![], Annotation::None);
        rt.shutdown();
    });
    let r = c.run();
    assert_eq!(r.node_counters[0].get("carlos.sent.none"), 1);
    assert_eq!(r.node_counters[0].get("carlos.sent.request"), 1);
    assert_eq!(r.node_counters[0].get("carlos.sent.release"), 1);
    assert_eq!(r.node_counters[0].get("carlos.sent.release_nt"), 1);
    assert_eq!(r.node_counters[1].get("carlos.accepted"), 4);
}
