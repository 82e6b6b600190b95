//! Tests for the sliding-window reliable transport, including loss recovery.

use std::sync::{
    atomic::{AtomicU64, Ordering},
    Arc,
};

use carlos_sim::{
    time::ms,
    transport::{AckMode, Transport},
    Cluster, SimConfig,
};

const ARQ: AckMode = AckMode::Arq {
    window: 8,
    rto: ms(20),
};

#[test]
fn implicit_mode_delivers_in_order() {
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    c.spawn_node(0, |ctx| {
        let mut t = Transport::new(ctx, AckMode::Implicit);
        for i in 0..50u32 {
            t.send(1, i.to_le_bytes().to_vec());
        }
    });
    c.spawn_node(1, |ctx| {
        let mut t = Transport::new(ctx, AckMode::Implicit);
        for i in 0..50u32 {
            let (src, body) = t.wait(None).expect("message");
            assert_eq!(src, 0);
            assert_eq!(u32::from_le_bytes(body[..].try_into().unwrap()), i);
        }
    });
    let r = c.run();
    assert_eq!(r.net.messages, 50, "implicit mode sends no acks");
}

#[test]
fn arq_delivers_without_loss() {
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    c.spawn_node(0, |ctx| {
        let mut t = Transport::new(ctx, ARQ);
        for i in 0..100u32 {
            t.send(1, i.to_le_bytes().to_vec());
        }
        t.flush();
    });
    c.spawn_node(1, |ctx| {
        let mut t = Transport::new(ctx, ARQ);
        for i in 0..100u32 {
            let (_, body) = t.wait(None).expect("message");
            assert_eq!(u32::from_le_bytes(body[..].try_into().unwrap()), i);
        }
    });
    let r = c.run();
    assert_eq!(r.counter_total("transport.retransmits"), 0);
    assert_eq!(r.counter_total("transport.duplicates"), 0);
}

#[test]
fn arq_recovers_from_heavy_loss() {
    let cfg = SimConfig::fast_test().with_loss(0.3, 1234);
    let received = Arc::new(AtomicU64::new(0));
    let received2 = Arc::clone(&received);
    let mut c = Cluster::new(cfg, 2);
    c.spawn_node(0, |ctx| {
        let mut t = Transport::new(ctx, ARQ);
        for i in 0..200u32 {
            t.send(1, i.to_le_bytes().to_vec());
        }
        t.flush();
    });
    c.spawn_node(1, move |ctx| {
        let mut t = Transport::new(ctx, ARQ);
        for i in 0..200u32 {
            let (_, body) = t.wait(None).expect("reliable delivery despite loss");
            assert_eq!(
                u32::from_le_bytes(body[..].try_into().unwrap()),
                i,
                "delivery out of order"
            );
            received2.fetch_add(1, Ordering::SeqCst);
        }
        // Keep acking retransmitted stragglers until the sender goes quiet.
        while t.wait(Some(t.ctx().now() + ms(100))).is_some() {}
    });
    let r = c.run();
    assert_eq!(received.load(Ordering::SeqCst), 200);
    assert!(
        r.counter_total("transport.retransmits") > 0,
        "30% loss must force retransmissions"
    );
    assert!(r.net.dropped > 0);
}

#[test]
fn arq_exactly_once_under_duplication_pressure() {
    // Loss of acks causes data retransmits, i.e. duplicates at the
    // receiver; they must be suppressed.
    let cfg = SimConfig::fast_test().with_loss(0.4, 99);
    let mut c = Cluster::new(cfg, 2);
    c.spawn_node(0, |ctx| {
        let mut t = Transport::new(ctx, ARQ);
        for i in 0..50u32 {
            t.send(1, i.to_le_bytes().to_vec());
        }
        t.flush();
    });
    c.spawn_node(1, |ctx| {
        let mut t = Transport::new(ctx, ARQ);
        let mut seen = [false; 50];
        for _ in 0..50 {
            let (_, body) = t.wait(None).expect("message");
            let v = u32::from_le_bytes(body[..].try_into().unwrap()) as usize;
            assert!(!seen[v], "duplicate delivery of {v}");
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
        while t.wait(Some(t.ctx().now() + ms(200))).is_some() {}
    });
    c.run();
}

#[test]
fn bidirectional_traffic() {
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    for node in 0..2u32 {
        c.spawn_node(node, move |ctx| {
            let peer = 1 - node;
            let mut t = Transport::new(ctx, ARQ);
            let mut received = 0u32;
            let mut sent = 0u32;
            while received < 30 {
                if sent < 30 {
                    t.send(peer, vec![sent as u8]);
                    sent += 1;
                }
                if let Some((src, body)) = t.wait(Some(t.ctx().now() + ms(1))) {
                    assert_eq!(src, peer);
                    assert_eq!(body[0] as u32, received);
                    received += 1;
                }
            }
            t.flush();
        });
    }
    c.run();
}

#[test]
fn window_blocks_excess_inflight() {
    // With window 2 and no receiver polling initially, only 2 frames can be
    // unacked; the rest queue and flow once acks return.
    let mode = AckMode::Arq {
        window: 2,
        rto: ms(10),
    };
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    c.spawn_node(0, move |ctx| {
        let mut t = Transport::new(ctx, mode);
        for i in 0..20u32 {
            t.send(1, vec![i as u8]);
        }
        assert!(t.has_unacked());
        t.flush();
        assert!(!t.has_unacked());
    });
    c.spawn_node(1, move |ctx| {
        let mut t = Transport::new(ctx, mode);
        for i in 0..20u32 {
            let (_, body) = t.wait(None).expect("message");
            assert_eq!(body[0] as u32, i);
        }
    });
    c.run();
}

#[test]
fn three_party_ordering_per_peer() {
    // Node 2 receives interleaved streams from 0 and 1; each stream must be
    // in order even though the interleaving is arbitrary.
    let mut c = Cluster::new(SimConfig::fast_test(), 3);
    for src in 0..2u32 {
        c.spawn_node(src, move |ctx| {
            let mut t = Transport::new(ctx, ARQ);
            for i in 0..40u32 {
                t.send(2, vec![src as u8, i as u8]);
            }
            t.flush();
        });
    }
    c.spawn_node(2, |ctx| {
        let mut t = Transport::new(ctx, ARQ);
        let mut next = [0u8; 2];
        for _ in 0..80 {
            let (src, body) = t.wait(None).expect("message");
            assert_eq!(body[0], src as u8);
            assert_eq!(body[1], next[src as usize], "per-peer order violated");
            next[src as usize] += 1;
        }
    });
    c.run();
}

#[test]
fn malformed_datagram_is_dropped() {
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    c.spawn_node(0, |ctx| {
        // Raw garbage, below the transport header size.
        ctx.send_datagram(1, vec![9]);
        ctx.send_datagram(1, vec![]);
    });
    c.spawn_node(1, |ctx| {
        let mut t = Transport::new(ctx, ARQ);
        let got = t.wait(Some(t.ctx().now() + ms(10)));
        assert!(got.is_none());
        assert_eq!(t.ctx().counter("transport.malformed"), 2);
    });
    c.run();
}

// ---------------------------------------------------------------------------
// Scripted-fault (chaos) coverage: the ARQ must ride out burst loss and
// partitions, and fail loudly — not silently — when a peer never answers.
// ---------------------------------------------------------------------------

use carlos_sim::{FaultPlan, GeParams};
use carlos_util::cases::cases;

#[test]
fn arq_delivers_through_burst_loss() {
    // A sticky Gilbert–Elliott bad state that eats 90% of its frames.
    let plan = FaultPlan::new(0xBEEF).burst_loss(0, ms(10_000), GeParams::bursty(0.9));
    let cfg = SimConfig::fast_test().with_fault_plan(plan);
    let mut c = Cluster::new(cfg, 2);
    c.spawn_node(0, |ctx| {
        let mut t = Transport::new(ctx, ARQ);
        for i in 0..150u32 {
            t.send(1, i.to_le_bytes().to_vec());
        }
        t.flush();
    });
    c.spawn_node(1, |ctx| {
        let mut t = Transport::new(ctx, ARQ);
        for i in 0..150u32 {
            let (_, body) = t.wait(None).expect("delivery despite burst loss");
            assert_eq!(u32::from_le_bytes(body[..].try_into().unwrap()), i);
        }
        while t.wait(Some(t.ctx().now() + ms(200))).is_some() {}
    });
    let r = c.run();
    assert!(r.net.dropped_burst > 0, "the burst window must bite");
    assert!(r.counter_total("transport.retransmits") > 0);
}

#[test]
fn arq_survives_partition_then_heal() {
    // Nothing crosses the wire between the two sides until the heal; the
    // sender's backoff keeps a retransmit pending across it.
    let plan = FaultPlan::new(3).partition(&[0], &[1], 0, ms(80));
    let cfg = SimConfig::fast_test().with_fault_plan(plan);
    let mut c = Cluster::new(cfg, 2);
    c.spawn_node(0, |ctx| {
        let mut t = Transport::new(ctx, ARQ);
        for i in 0..30u32 {
            t.send(1, i.to_le_bytes().to_vec());
        }
        t.flush();
    });
    c.spawn_node(1, |ctx| {
        let mut t = Transport::new(ctx, ARQ);
        for i in 0..30u32 {
            let (_, body) = t.wait(None).expect("delivery after heal");
            assert_eq!(u32::from_le_bytes(body[..].try_into().unwrap()), i);
        }
        while t.wait(Some(t.ctx().now() + ms(200))).is_some() {}
    });
    let r = c.run();
    assert!(r.net.dropped_partition > 0, "the partition must bite");
    assert!(r.counter_total("transport.retransmits") > 0);
}

#[test]
fn flush_abandons_frames_to_a_dead_link_and_counts_them() {
    // The link never heals and the receiver never answers: flush must give
    // up after sustained silence and account for every abandoned frame.
    let plan = FaultPlan::new(1).link_down(0, 1, 0, ms(3_600_000));
    let cfg = SimConfig::fast_test().with_fault_plan(plan);
    let mut c = Cluster::new(cfg, 2);
    c.spawn_node(0, |ctx| {
        let mut t = Transport::new(ctx, ARQ);
        for i in 0..5u32 {
            t.send(1, i.to_le_bytes().to_vec());
        }
        t.flush();
        assert!(!t.has_unacked(), "give-up must be final");
        assert_eq!(t.ctx().counter("transport.flush_abandoned"), 5);
        assert_eq!(t.ctx().counter("transport.flush_gave_up"), 1);
    });
    c.spawn_node(1, |_ctx| {});
    c.run();
}

#[test]
fn sustained_silence_convicts_the_peer() {
    let plan = FaultPlan::new(2).crash(1, ms(1));
    let cfg = SimConfig::fast_test().with_fault_plan(plan);
    let mut c = Cluster::new(cfg, 2);
    c.spawn_node(0, |ctx| {
        let mut t = Transport::new(ctx, ARQ);
        assert!(!t.peer_down(1));
        t.probe(1);
        // Pump until the probe deadline passes and the detector convicts.
        while !t.peer_down(1) {
            let _ = t.wait(Some(t.ctx().now() + ms(50)));
        }
        assert!(t.peer_down(1));
        assert!(t.ctx().counter("transport.probe_timeouts") >= 1);
    });
    c.spawn_node(1, |ctx| {
        // Park until well past our crash time so the cluster stays alive
        // from the scheduler's point of view until the fault fires.
        ctx.sleep(ms(100));
    });
    let r = c.try_run();
    // Node 1 crashed mid-sleep: the run reports it rather than succeeding.
    match r {
        Ok(rep) => assert_eq!(rep.crashed_nodes, vec![1]),
        Err(e) => assert_eq!(e.crashed_nodes(), vec![1]),
    }
}

/// Every datagram handed to the wire is accounted for exactly once: it is
/// delivered to a mailbox, dropped by loss injection, discarded because the
/// destination crashed (minus the frames that were delivered first and
/// purged at the crash instant), or still in flight when the run ends.
/// A chaos plan exercising all four fates at once must balance the books.
#[test]
fn netstats_conserve_every_datagram_under_chaos() {
    let ge = GeParams {
        p_enter_bad: 0.5,
        p_exit_bad: 0.2,
        loss_good: 0.05,
        loss_bad: 0.9,
    };
    let plan = FaultPlan::new(0xC0FFEE)
        .burst_loss(0, ms(50), ge)
        .partition(&[0], &[1], ms(60), ms(90))
        .pause(1, ms(10), ms(30))
        .crash(2, ms(40));
    let cfg = SimConfig::fast_test().with_fault_plan(plan);
    let mut c = Cluster::new(cfg, 3);
    c.spawn_node(0, |ctx| {
        // Raw datagrams on a fixed schedule spanning every fault window:
        // the burst (0-50ms), node 1's pause (10-30ms), node 2's crash
        // (40ms), and the 0<->1 partition (60-90ms).
        for i in 0..50u32 {
            ctx.send_datagram(1, i.to_le_bytes().to_vec());
            ctx.send_datagram(2, i.to_le_bytes().to_vec());
            ctx.sleep(ms(2));
        }
    });
    // Node 1 never drains its mailbox; delivery accounting is wire-level.
    c.spawn_node(1, |ctx| ctx.sleep(ms(150)));
    // Node 2 parks until well past its crash instant with frames pending
    // in its mailbox, so the crash purges some deliveries.
    c.spawn_node(2, |ctx| ctx.sleep(ms(150)));
    let rep = c.try_run().expect("survivors run to completion");
    assert_eq!(rep.crashed_nodes, vec![2]);
    let n = rep.net;
    // Each fate must actually occur for the balance to mean anything.
    assert!(n.delivered > 0, "some frames must land");
    assert!(n.dropped_burst > 0, "the burst window must bite");
    assert!(n.dropped_partition > 0, "the partition must bite");
    assert!(n.deferred_pause > 0, "the pause must defer deliveries");
    assert!(n.purged_crash > 0, "the crash must purge pending deliveries");
    assert!(
        n.dropped_crash > n.purged_crash,
        "some frames must arrive after the crash"
    );
    assert_eq!(
        n.messages,
        n.delivered + n.dropped + (n.dropped_crash - n.purged_crash) + n.in_flight,
        "datagram conservation violated: {n:?}"
    );
    // Per-class accounting partitions the same ledger: every datagram and
    // every payload byte lands in exactly one message class.
    assert_eq!(n.messages, n.classes.iter().map(|(_, s)| s.sent).sum::<u64>(), "class send totals: {n:?}");
    assert_eq!(
        n.payload_bytes,
        n.classes.iter().map(|(_, s)| s.bytes).sum::<u64>(),
        "class byte totals: {n:?}"
    );
}

/// On a quiet, fault-free run the ledger is trivial: everything handed to
/// the wire is delivered.
#[test]
fn netstats_conservation_without_faults() {
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    c.spawn_node(0, |ctx| {
        for i in 0..20u32 {
            ctx.send_datagram(1, i.to_le_bytes().to_vec());
        }
        ctx.sleep(ms(5));
    });
    c.spawn_node(1, |ctx| ctx.sleep(ms(5)));
    let n = c.run().net;
    assert_eq!(n.messages, 20);
    assert_eq!(n.delivered + n.in_flight, 20);
    assert_eq!(n.dropped, 0);
    assert_eq!(n.dropped_crash, 0);
    assert_eq!(n.purged_crash, 0);
    // Raw 4-byte datagrams are shorter than a transport header, so the
    // classifier files every one of them (and every byte) under `other`.
    assert_eq!(n.classes.other.sent, 20);
    assert_eq!(n.classes.other.bytes, 80);
    assert_eq!(n.messages, n.classes.iter().map(|(_, s)| s.sent).sum::<u64>());
    assert_eq!(n.payload_bytes, n.classes.iter().map(|(_, s)| s.bytes).sum::<u64>());
}

/// Any loss regime short of a total blackout delivers every payload,
/// in order, exactly once.
#[test]
fn arq_delivers_everything_below_blackout() {
    cases("arq_delivers_everything_below_blackout", 12, |g| {
        let (loss_pct, p_exit_pct) = (g.range(0u32..95), g.range(10u32..60));
        let (seed, n_msgs) = (g.u64(), g.range(1usize..48));
        let ge = GeParams {
            p_enter_bad: 0.10,
            p_exit_bad: f64::from(p_exit_pct) / 100.0,
            loss_good: 0.02,
            loss_bad: f64::from(loss_pct) / 100.0,
        };
        let plan = FaultPlan::new(seed).burst_loss(0, ms(60_000), ge);
        let cfg = SimConfig::fast_test().with_fault_plan(plan);
        let mut c = Cluster::new(cfg, 2);
        let n = n_msgs as u32;
        c.spawn_node(0, move |ctx| {
            let mut t = Transport::new(ctx, ARQ);
            for i in 0..n {
                t.send(1, i.to_le_bytes().to_vec());
            }
            t.flush();
        });
        c.spawn_node(1, move |ctx| {
            let mut t = Transport::new(ctx, ARQ);
            for i in 0..n {
                let (_, body) = t.wait(None).expect("delivery below blackout");
                assert_eq!(u32::from_le_bytes(body[..].try_into().unwrap()), i);
            }
            while t.wait(Some(t.ctx().now() + ms(200))).is_some() {}
        });
        c.run();
    });
}
