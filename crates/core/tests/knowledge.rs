//! The sender's estimate of what a peer knows (`known[q]`, §2.1's
//! "description of the sending node's knowledge") under the two things
//! that make it wrong: a requester that pipelines, whose REQUEST
//! snapshots are older than replies already on their way to it, and a
//! manager that stores a RELEASE without accepting it, which leaves the
//! releaser's estimate of the manager too high.

use std::sync::{Arc, Mutex};

use carlos_core::{Annotation, CoreConfig, Runtime};
use carlos_lrc::LrcConfig;
use carlos_sim::{
    time::{ms, us},
    Cluster, SimConfig,
};

const H_GO: u32 = 1;
const H_REPLY: u32 = 2;
const H_FWD: u32 = 3;
const H_DEQ: u32 = 4;
const H_DONE: u32 = 5;

fn mk_runtime(ctx: carlos_sim::NodeCtx, n: usize) -> Runtime {
    Runtime::new(ctx, LrcConfig::small_test(n), CoreConfig::fast_test())
}

/// Node 1 sends `k` REQUESTs 100 µs apart over a 10 ms wire, so all are
/// on their way before the first reply is; node 0 writes one word per
/// request as it arrives and answers it with a RELEASE. Returns the
/// notices node 0 created and the notices node 1 was sent.
fn pipelined(k: u32) -> (u64, u64) {
    let sim = SimConfig {
        wire_latency: ms(10),
        ..SimConfig::fast_test()
    };
    let mut c = Cluster::new(sim, 2);
    c.spawn_node(0, move |ctx| {
        let mut rt = mk_runtime(ctx, 2);
        for i in 1..=k {
            let _ = rt.wait_accepted(H_GO);
            rt.write_u32(0, i);
            rt.send(1, H_REPLY, vec![], Annotation::Release);
        }
        let _ = rt.wait_accepted(H_DONE);
        rt.shutdown();
    });
    c.spawn_node(1, move |ctx| {
        let mut rt = mk_runtime(ctx, 2);
        for _ in 0..k {
            rt.send(0, H_GO, vec![], Annotation::Request);
            rt.ctx().sleep(us(100));
        }
        for _ in 0..k {
            let _ = rt.wait_accepted(H_REPLY);
        }
        assert_eq!(rt.read_u32(0), k, "the last reply covers the last write");
        rt.send(0, H_DONE, vec![], Annotation::None);
        rt.shutdown();
    });
    let r = c.run();
    assert_eq!(r.counter_total("carlos.repair_requests"), 0);
    (
        r.node_counters[0].get("lrc.diffs_created"),
        r.node_counters[1].get("carlos.notices_applied"),
    )
}

#[test]
fn a_stale_request_snapshot_does_not_erase_what_was_shipped() {
    // Every snapshot says "nothing of yours yet" and reaches node 0 after
    // the reply before it was built, so a server that took each as the
    // requester's state would ship interval 1 k times, interval 2 k-1
    // times, …: k(k+1)/2 notices for k created.
    for k in [1, 6, 24] {
        assert_eq!(pipelined(k), (u64::from(k), u64::from(k)), "k = {k}");
    }
}

#[test]
fn an_overestimate_after_a_stored_release_is_repaired() {
    // Node 0 releases to the manager (node 1), which stores the message:
    // node 0 now believes the manager has interval 1, and the manager's own
    // REQUEST (a snapshot of nothing) no longer lowers that belief. The
    // RELEASE answering it therefore comes one record short, the accept
    // finds it incomplete, and one SYS_IVAL_REQ round trip completes it.
    // The stored message still brings the consumer (node 2) up to date.
    let mut c = Cluster::new(SimConfig::fast_test(), 3);
    c.spawn_node(0, |ctx| {
        let mut rt = mk_runtime(ctx, 3);
        rt.write_u32(0, 555);
        rt.send(1, H_FWD, b"item".to_vec(), Annotation::Release);
        let _ = rt.wait_accepted(H_GO);
        rt.write_u32(64, 777);
        rt.send(1, H_REPLY, vec![], Annotation::Release);
        for _ in 0..2 {
            let _ = rt.wait_accepted(H_DONE);
        }
        rt.shutdown();
    });
    c.spawn_node(1, |ctx| {
        let mut rt = mk_runtime(ctx, 3);
        let stored = Arc::new(Mutex::new(Vec::<u64>::new()));
        let s1 = Arc::clone(&stored);
        rt.register(
            H_FWD,
            Box::new(move |env, msg| {
                let id = env.store(msg);
                s1.lock().unwrap().push(id);
            }),
        );
        rt.register(
            H_DEQ,
            Box::new(move |env, msg| {
                let requester = msg.src;
                env.discard(msg);
                let id = stored.lock().unwrap().pop().expect("an item is queued");
                env.forward_stored(id, requester, H_FWD);
            }),
        );
        rt.send(0, H_GO, vec![], Annotation::Request);
        let _ = rt.wait_accepted(H_REPLY);
        assert_eq!(rt.vt().get(0), 2, "the repair brought both intervals");
        assert_eq!((rt.read_u32(0), rt.read_u32(64)), (555, 777));
        rt.send(0, H_DONE, vec![], Annotation::None);
        let _ = rt.wait_accepted(H_DONE);
        rt.shutdown();
    });
    c.spawn_node(2, |ctx| {
        let mut rt = mk_runtime(ctx, 3);
        rt.ctx().sleep(ms(5)); // Let the producer enqueue first.
        rt.send(1, H_DEQ, vec![], Annotation::Request);
        let item = rt.wait_accepted(H_FWD);
        assert_eq!((item.origin, &item.body[..]), (0, &b"item"[..]));
        assert_eq!(rt.read_u32(0), 555, "consumer must see producer's write");
        rt.send(0, H_DONE, vec![], Annotation::None);
        rt.send(1, H_DONE, vec![], Annotation::None);
        rt.shutdown();
    });
    let r = c.run();
    assert_eq!(r.node_counters[1].get("carlos.repair_requests"), 1);
    assert_eq!(r.counter_total("carlos.repair_requests"), 1);
}
