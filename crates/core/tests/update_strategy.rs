//! Tests for the update/hybrid coherence strategy (§4.3): RELEASE messages
//! carry the diffs their write notices describe, so receivers' pages stay
//! valid and reads proceed without demand fetches.

use carlos_core::{Annotation, CoreConfig, Runtime};
use carlos_lrc::LrcConfig;
use carlos_sim::{Cluster, SimConfig};

const H_GO: u32 = 1;
const H_REPLY: u32 = 2;

fn mk_update(ctx: carlos_sim::NodeCtx, n: usize) -> Runtime {
    Runtime::new(
        ctx,
        LrcConfig::small_test(n),
        CoreConfig::fast_test().with_update_strategy(),
    )
}

#[test]
fn update_release_keeps_page_valid() {
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    c.spawn_node(0, |ctx| {
        let mut rt = mk_update(ctx, 2);
        // Warm node 1's copy, then modify and release.
        let _ = rt.wait_accepted(H_REPLY);
        rt.write_u32(0, 777);
        rt.send(1, H_GO, vec![], Annotation::Release);
        let _ = rt.wait_accepted(H_REPLY);
        rt.shutdown();
    });
    c.spawn_node(1, |ctx| {
        let mut rt = mk_update(ctx, 2);
        let _ = rt.read_u32(0); // Fault the page in (zero).
        rt.send(0, H_REPLY, vec![], Annotation::None);
        let _ = rt.wait_accepted(H_GO);
        let before = rt.ctx().counter("carlos.diff_requests");
        assert_eq!(rt.read_u32(0), 777, "update diff was not applied");
        let after = rt.ctx().counter("carlos.diff_requests");
        assert_eq!(
            before, after,
            "the read should not have needed a demand fetch"
        );
        rt.send(0, H_REPLY, vec![], Annotation::None);
        rt.shutdown();
    });
    let r = c.run();
    assert!(
        r.counter_total("carlos.update_diffs_received") >= 1,
        "the release should have carried diffs"
    );
}

#[test]
fn update_strategy_matches_invalidate_results() {
    // The same lock-counter workload must produce identical results under
    // both strategies; only the traffic pattern differs.
    // A token circulates 0 → 1 → 2 → 0 …; each holder increments a shared
    // counter and passes the token with a RELEASE (a hand-rolled lock).
    let run = |update: bool| {
        const N: usize = 3;
        const ROUNDS: u32 = 10;
        let mut c = Cluster::new(SimConfig::fast_test(), N);
        for node in 0..N as u32 {
            c.spawn_node(node, move |ctx| {
                let core = if update {
                    CoreConfig::fast_test().with_update_strategy()
                } else {
                    CoreConfig::fast_test()
                };
                let mut rt = Runtime::new(ctx, LrcConfig::small_test(N), core);
                let next = (node + 1) % N as u32;
                for round in 0..ROUNDS {
                    if !(round == 0 && node == 0) {
                        let _ = rt.wait_accepted(H_GO);
                    }
                    let v = rt.read_u32(0);
                    rt.write_u32(0, v + 1);
                    if !(round == ROUNDS - 1 && next == 0) {
                        rt.send(next, H_GO, vec![], Annotation::Release);
                    }
                }
                if node == N as u32 - 1 {
                    // Last holder: verify and let everyone exit.
                    assert_eq!(rt.read_u32(0), ROUNDS * N as u32);
                    for peer in 0..N as u32 - 1 {
                        rt.send(peer, H_REPLY, vec![], Annotation::None);
                    }
                } else {
                    let _ = rt.wait_accepted(H_REPLY);
                }
                rt.shutdown();
            });
        }
        c.run()
    };
    let inv = run(false);
    let upd = run(true);
    // Update mode trades demand fetches for fatter releases.
    assert!(
        upd.counter_total("carlos.diff_requests") < inv.counter_total("carlos.diff_requests"),
        "update mode should need fewer demand diff fetches: {} vs {}",
        upd.counter_total("carlos.diff_requests"),
        inv.counter_total("carlos.diff_requests"),
    );
    assert!(
        upd.net.messages < inv.net.messages,
        "eager diffs should eliminate request/reply pairs: {} vs {} messages",
        upd.net.messages,
        inv.net.messages
    );
}

#[test]
fn update_strategy_partial_coverage_falls_back_to_fetch() {
    // Node 2 receives a release whose diffs it can use only partially (it
    // missed earlier intervals); it must still converge via demand fetches.
    let mut c = Cluster::new(SimConfig::fast_test(), 3);
    c.spawn_node(0, |ctx| {
        let mut rt = mk_update(ctx, 3);
        rt.write_u32(0, 1);
        // First release only to node 1.
        rt.send(1, H_GO, vec![], Annotation::Release);
        let _ = rt.wait_accepted(H_REPLY);
        rt.write_u32(4, 2);
        // Second release to node 2: carries the second diff, and the first
        // interval's record too (node 2 lacks it) with its diff.
        rt.send(2, H_GO, vec![], Annotation::Release);
        let _ = rt.wait_accepted(H_REPLY);
        rt.shutdown();
    });
    c.spawn_node(1, |ctx| {
        let mut rt = mk_update(ctx, 3);
        let _ = rt.wait_accepted(H_GO);
        assert_eq!(rt.read_u32(0), 1);
        rt.send(0, H_REPLY, vec![], Annotation::None);
        rt.shutdown();
    });
    c.spawn_node(2, |ctx| {
        let mut rt = mk_update(ctx, 3);
        let _ = rt.wait_accepted(H_GO);
        assert_eq!(rt.read_u32(0), 1);
        assert_eq!(rt.read_u32(4), 2);
        rt.send(0, H_REPLY, vec![], Annotation::None);
        rt.shutdown();
    });
    c.run();
}

#[test]
fn mixed_strategies_interoperate() {
    // One node running update mode, one running invalidate: the wire
    // format is shared, so they must interoperate (extra diffs are simply
    // never sent by the invalidate-mode node).
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    c.spawn_node(0, |ctx| {
        let mut rt = mk_update(ctx, 2);
        rt.write_u32(0, 5);
        rt.send(1, H_GO, vec![], Annotation::Release);
        let m = rt.wait_accepted(H_GO);
        assert_eq!(m.src, 1);
        assert_eq!(rt.read_u32(4), 6);
        rt.send(1, H_REPLY, vec![], Annotation::None);
        let _ = rt.wait_accepted(H_REPLY);
        rt.shutdown();
    });
    c.spawn_node(1, |ctx| {
        let mut rt = Runtime::new(ctx, LrcConfig::small_test(2), CoreConfig::fast_test());
        let _ = rt.wait_accepted(H_GO);
        assert_eq!(rt.read_u32(0), 5);
        rt.write_u32(4, 6);
        rt.send(0, H_GO, vec![], Annotation::Release);
        let _ = rt.wait_accepted(H_REPLY);
        rt.send(0, H_REPLY, vec![], Annotation::None);
        rt.shutdown();
    });
    c.run();
}

#[test]
fn a_release_ships_again_the_diff_it_fetched() {
    // Under the update strategy a node keeps the diffs it applies, so a
    // RELEASE it sends later carries another writer's diff along with that
    // writer's notice: node 2 learns node 0's write from node 1 and reads
    // it without a demand fetch.
    let mut c = Cluster::new(SimConfig::fast_test(), 3);
    c.spawn_node(0, |ctx| {
        let mut rt = mk_update(ctx, 3);
        let _ = rt.wait_accepted(H_REPLY);
        let _ = rt.wait_accepted(H_REPLY);
        rt.write_u32(0, 777);
        rt.send(1, H_GO, vec![], Annotation::Release);
        let _ = rt.wait_accepted(H_REPLY);
        rt.shutdown();
    });
    for node in [1, 2] {
        c.spawn_node(node, move |ctx| {
            let mut rt = mk_update(ctx, 3);
            assert_eq!(rt.read_u32(0), 0, "a copy from before the write");
            rt.send(0, H_REPLY, vec![], Annotation::None);
            let _ = rt.wait_accepted(H_GO);
            assert_eq!(rt.read_u32(0), 777);
            assert_eq!(rt.ctx().counter("carlos.diff_requests"), 0, "node {node} fetched");
            if node == 1 {
                rt.send(2, H_GO, vec![], Annotation::Release);
            } else {
                rt.send(0, H_REPLY, vec![], Annotation::None);
            }
            rt.shutdown();
        });
    }
    let r = c.run();
    assert_eq!(r.counter_total("carlos.update_diffs_received"), 2);
    // Node 1's bytes on the wire, its RELEASE's 40-byte diff record (node
    // 0, page 0, interval 1, a 3-node clock, one 4-byte run) among them:
    // what it sent when it kept every fetched diff.
    assert_eq!(r.node_counters[1].get("net.sent_bytes"), 148);
}
