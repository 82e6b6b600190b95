//! Integration tests for the discrete-event scheduler and wire model.

use std::sync::{
    atomic::{AtomicU64, Ordering},
    Arc,
};

use carlos_sim::{
    time::{ms, us},
    Bucket, Cluster, SimConfig,
};

#[test]
fn single_node_compute_advances_clock() {
    let mut c = Cluster::new(SimConfig::fast_test(), 1);
    c.spawn_node(0, |ctx| {
        assert_eq!(ctx.now(), 0);
        ctx.compute(us(100));
        assert_eq!(ctx.now(), us(100));
        ctx.compute(us(50));
        assert_eq!(ctx.now(), us(150));
    });
    let r = c.run();
    assert_eq!(r.elapsed, us(150));
    assert_eq!(r.node_buckets[0].get(Bucket::User), us(150));
}

#[test]
fn sleep_charges_idle() {
    let mut c = Cluster::new(SimConfig::fast_test(), 1);
    c.spawn_node(0, |ctx| {
        ctx.sleep(ms(2));
        assert_eq!(ctx.now(), ms(2));
    });
    let r = c.run();
    assert_eq!(r.node_buckets[0].get(Bucket::Idle), ms(2));
}

#[test]
fn ping_pong_round_trip() {
    let cfg = SimConfig::fast_test();
    let mut c = Cluster::new(cfg, 2);
    c.spawn_node(0, |ctx| {
        ctx.send_datagram(1, b"ping".to_vec());
        let d = ctx.wait_recv(None).expect("pong arrives");
        assert_eq!(d.payload, b"pong");
        assert_eq!(d.src, 1);
    });
    c.spawn_node(1, |ctx| {
        let d = ctx.wait_recv(None).expect("ping arrives");
        assert_eq!(d.payload, b"ping");
        ctx.send_datagram(0, b"pong".to_vec());
    });
    let r = c.run();
    assert_eq!(r.net.messages, 2);
    assert_eq!(r.net.payload_bytes, 8);
    assert_eq!(r.net.dropped, 0);
}

#[test]
fn determinism_identical_reports() {
    let run = || {
        let mut c = Cluster::new(SimConfig::osdi94(), 3);
        for n in 0..3u32 {
            c.spawn_node(n, move |ctx| {
                for i in 0..20u32 {
                    ctx.compute(us(u64::from(i % 7 + 1)));
                    ctx.send_datagram((n + 1) % 3, vec![0u8; (i as usize * 13) % 97 + 1]);
                    if let Some(_d) = ctx.try_recv() {
                        ctx.compute(us(3));
                    }
                }
                // Drain whatever arrives in the next virtual millisecond.
                let deadline = ctx.now() + ms(1);
                while ctx.wait_recv(Some(deadline)).is_some() {}
            });
        }
        c.run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.net, b.net);
    for i in 0..3 {
        assert_eq!(a.node_buckets[i], b.node_buckets[i]);
    }
}

#[test]
fn wire_serializes_frames() {
    // Two nodes send simultaneously; the shared medium must serialize, so
    // the second delivery is at least one frame-time after the first.
    let cfg = SimConfig {
        send_overhead: 0,
        recv_overhead: 0,
        wire_latency: 0,
        frame_header_bytes: 0,
        bandwidth_bps: 8_000_000, // 1 byte per microsecond
        ..SimConfig::fast_test()
    };
    let mut c = Cluster::new(cfg, 3);
    c.spawn_node(0, |ctx| ctx.send_datagram(2, vec![0u8; 1000]));
    c.spawn_node(1, |ctx| ctx.send_datagram(2, vec![0u8; 1000]));
    c.spawn_node(2, |ctx| {
        let a = ctx.wait_recv(None).expect("first frame");
        let t1 = ctx.now();
        let b = ctx.wait_recv(None).expect("second frame");
        let t2 = ctx.now();
        assert_eq!(a.payload.len(), 1000);
        assert_eq!(b.payload.len(), 1000);
        // Each 1000-byte frame takes 1 ms on the wire; arrivals are serialized.
        assert!(t2 - t1 >= ms(1), "medium did not serialize: {t1} {t2}");
    });
    c.run();
}

#[test]
fn send_charges_unix_bucket() {
    let cfg = SimConfig {
        send_overhead: us(350),
        recv_overhead: us(400),
        ..SimConfig::fast_test()
    };
    let mut c = Cluster::new(cfg, 2);
    c.spawn_node(0, |ctx| {
        ctx.send_datagram(1, vec![1, 2, 3]);
    });
    c.spawn_node(1, |ctx| {
        let _ = ctx.wait_recv(None).expect("message");
    });
    let r = c.run();
    assert_eq!(r.node_buckets[0].get(Bucket::Unix), us(350));
    assert_eq!(r.node_buckets[1].get(Bucket::Unix), us(400));
    // The receiver's wait shows up as idle time.
    assert!(r.node_buckets[1].get(Bucket::Idle) > 0);
}

#[test]
fn wait_recv_timeout_returns_none() {
    let mut c = Cluster::new(SimConfig::fast_test(), 1);
    c.spawn_node(0, |ctx| {
        let start = ctx.now();
        let got = ctx.wait_recv(Some(start + ms(5)));
        assert!(got.is_none());
        assert_eq!(ctx.now(), start + ms(5));
    });
    c.run();
}

#[test]
fn loopback_delivers_without_wire() {
    let mut c = Cluster::new(SimConfig::fast_test(), 1);
    c.spawn_node(0, |ctx| {
        ctx.send_datagram(0, b"self".to_vec());
        let d = ctx.wait_recv(None).expect("loopback arrives");
        assert_eq!(d.payload, b"self");
        assert_eq!(d.src, 0);
    });
    let r = c.run();
    assert_eq!(r.net.messages, 0, "loopback must not count as wire traffic");
    assert_eq!(r.counter_total("net.loopback"), 1);
}

#[test]
fn loss_injection_drops_messages() {
    let cfg = SimConfig::fast_test().with_loss(1.0, 42);
    let mut c = Cluster::new(cfg, 2);
    c.spawn_node(0, |ctx| {
        ctx.send_datagram(1, b"lost".to_vec());
    });
    c.spawn_node(1, |ctx| {
        let got = ctx.wait_recv(Some(ms(50)));
        assert!(got.is_none(), "message should have been dropped");
    });
    let r = c.run();
    assert_eq!(r.net.dropped, 1);
}

#[test]
fn partial_loss_is_deterministic() {
    let run = || {
        let cfg = SimConfig::fast_test().with_loss(0.5, 7);
        let mut c = Cluster::new(cfg, 2);
        c.spawn_node(0, |ctx| {
            for i in 0..100u8 {
                ctx.send_datagram(1, vec![i]);
            }
        });
        c.spawn_node(1, |ctx| {
            let mut got = 0u32;
            while ctx.wait_recv(Some(ms(200))).is_some() {
                got += 1;
            }
            ctx.count("got", u64::from(got));
        });
        c.run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.net.dropped, b.net.dropped);
    assert!(a.net.dropped > 10 && a.net.dropped < 90, "loss rate wildly off");
}

#[test]
#[should_panic(expected = "deadlock")]
fn deadlock_is_detected() {
    let mut c = Cluster::new(SimConfig::fast_test(), 1);
    c.spawn_node(0, |ctx| {
        // Waits forever for a message no one sends.
        let _ = ctx.wait_recv(None);
    });
    c.run();
}

#[test]
#[should_panic(expected = "boom from node code")]
fn node_panic_propagates() {
    let mut c = Cluster::new(SimConfig::fast_test(), 1);
    c.spawn_node(0, |_ctx| {
        panic!("boom from node code");
    });
    c.run();
}

#[test]
#[should_panic(expected = "already has a proc")]
fn a_node_runs_one_proc() {
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    c.spawn_node(0, |ctx| ctx.compute(us(1)));
    c.spawn_node(0, |ctx| ctx.compute(us(1)));
}

#[test]
fn counters_accumulate_per_node() {
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    c.spawn_node(0, |ctx| {
        ctx.count("widgets", 2);
        ctx.count("widgets", 3);
        assert_eq!(ctx.counter("widgets"), 5);
    });
    c.spawn_node(1, |ctx| {
        ctx.count("widgets", 10);
    });
    let r = c.run();
    assert_eq!(r.node_counters[0].get("widgets"), 5);
    assert_eq!(r.node_counters[1].get("widgets"), 10);
    assert_eq!(r.counter_total("widgets"), 15);
}

#[test]
fn report_utilization_matches_definition() {
    // One 1250-byte message over a run that we stretch to a known length.
    let cfg = SimConfig {
        send_overhead: 0,
        recv_overhead: 0,
        ..SimConfig::osdi94()
    };
    let mut c = Cluster::new(cfg, 2);
    c.spawn_node(0, |ctx| {
        ctx.send_datagram(1, vec![0u8; 1250]);
        ctx.sleep(ms(10)); // Stretch elapsed to 10 ms.
    });
    c.spawn_node(1, |ctx| {
        let _ = ctx.wait_recv(None);
    });
    let r = c.run();
    // 1250 B = 10_000 bits over 10 ms at 10 Mbit/s = 10% utilization.
    let util = r.net.utilization(r.elapsed, r.bandwidth_bps);
    assert!((util - 0.10).abs() < 0.01, "{util}");
}

#[test]
fn max_events_safety_valve() {
    let cfg = SimConfig {
        max_events: Some(100),
        ..SimConfig::fast_test()
    };
    let mut c = Cluster::new(cfg, 2);
    c.spawn_node(0, |ctx| loop {
        ctx.send_datagram(1, vec![0]);
        ctx.compute(us(1));
    });
    c.spawn_node(1, |ctx| while ctx.wait_recv(None).is_some() {});
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.run()));
    assert!(result.is_err(), "runaway loop should trip max_events");
}

#[test]
fn many_nodes_all_to_all() {
    let n = 8usize;
    let mut c = Cluster::new(SimConfig::fast_test(), n);
    for id in 0..n as u32 {
        c.spawn_node(id, move |ctx| {
            for other in 0..ctx.num_nodes() as u32 {
                if other != ctx.node_id() {
                    ctx.send_datagram(other, vec![id as u8]);
                }
            }
            let mut got = 0;
            while got < ctx.num_nodes() - 1 {
                let d = ctx.wait_recv(None).expect("peer message");
                assert_eq!(d.payload.len(), 1);
                got += 1;
            }
        });
    }
    let r = c.run();
    assert_eq!(r.net.messages as usize, n * (n - 1));
}

#[test]
fn compute_interruptible_returns_remainder() {
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    c.spawn_node(0, |ctx| {
        // A datagram arrives mid-computation; the remainder is returned.
        let r = ctx.compute_interruptible(Bucket::User, ms(10));
        match r {
            Some(rem) => {
                assert!(rem > 0 && rem < ms(10));
                let d = ctx.try_recv().expect("the interrupting datagram");
                assert_eq!(d.payload, b"interrupt");
                // Finish the remainder undisturbed.
                assert!(ctx.compute_interruptible(Bucket::User, rem).is_none());
            }
            None => panic!("computation should have been interrupted"),
        }
    });
    c.spawn_node(1, |ctx| {
        ctx.compute(ms(2));
        ctx.send_datagram(0, b"interrupt".to_vec());
    });
    let r = c.run();
    // The interrupted node still charged the full 10 ms of user time.
    assert_eq!(r.node_buckets[0].get(Bucket::User), ms(10));
}

#[test]
fn wait_mailbox_does_not_consume() {
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    c.spawn_node(0, |ctx| {
        assert!(ctx.wait_mailbox(None), "delivery should arrive");
        // Nothing was consumed: the datagram is still there.
        let d = ctx.try_recv().expect("datagram still in the mailbox");
        assert_eq!(d.payload, b"peek");
        // Timeout path: nothing further arrives.
        assert!(!ctx.wait_mailbox(Some(ctx.now() + ms(1))));
    });
    c.spawn_node(1, |ctx| {
        ctx.compute(us(100));
        ctx.send_datagram(0, b"peek".to_vec());
    });
    c.run();
}

/// A payload shaped like a transport DATA frame: kind byte 0 followed by
/// the little-endian sequence number, padded to `len` bytes.
fn data_frame(seq: u32, len: usize) -> Vec<u8> {
    let mut p = vec![0u8; len.max(5)];
    p[1..5].copy_from_slice(&seq.to_le_bytes());
    p
}

#[test]
fn schedule_plan_flips_racing_deliveries() {
    use carlos_sim::SchedulePlan;
    let cfg = || SimConfig {
        send_overhead: 0,
        recv_overhead: 0,
        wire_latency: 0,
        frame_header_bytes: 0,
        bandwidth_bps: 8_000_000, // 1 byte per microsecond
        ..SimConfig::fast_test()
    };
    let run = |plan: SchedulePlan| {
        let first = Arc::new(AtomicU64::new(u64::MAX));
        let mut c = Cluster::new(cfg().with_schedule(plan), 3);
        c.spawn_node(0, |ctx| ctx.send_datagram(2, data_frame(0, 1000)));
        c.spawn_node(1, |ctx| ctx.send_datagram(2, data_frame(0, 500)));
        let f = first.clone();
        c.spawn_node(2, move |ctx| {
            let a = ctx.wait_recv(None).expect("first frame");
            let _ = ctx.wait_recv(None).expect("second frame");
            f.store(u64::from(a.src), Ordering::SeqCst);
        });
        c.run();
        first.load(Ordering::SeqCst)
    };
    // Baseline: node 0 grabs the medium first, so its frame lands first.
    assert_eq!(run(SchedulePlan::new()), 0);
    // Delaying node 0's flow past node 1's frame flips the delivery order.
    let plan = SchedulePlan::new().delay(0, 2, 0, ms(5));
    assert_eq!(run(plan), 1);
}

#[test]
fn schedule_plan_preserves_pair_fifo() {
    use carlos_sim::SchedulePlan;
    // Delay only seq 0 on the pair; seq 1 must NOT overtake it.
    let plan = SchedulePlan::new().delay(0, 1, 0, ms(10));
    let mut c = Cluster::new(SimConfig::fast_test().with_schedule(plan), 2);
    c.spawn_node(0, |ctx| {
        ctx.send_datagram(1, data_frame(0, 100));
        ctx.send_datagram(1, data_frame(1, 100));
    });
    c.spawn_node(1, |ctx| {
        let a = ctx.wait_recv(None).expect("first");
        let t1 = ctx.now();
        let b = ctx.wait_recv(None).expect("second");
        let t2 = ctx.now();
        assert_eq!(u32::from_le_bytes(a.payload[1..5].try_into().unwrap()), 0);
        assert_eq!(u32::from_le_bytes(b.payload[1..5].try_into().unwrap()), 1);
        assert!(t1 >= ms(10), "perturbed frame not delayed: {t1}");
        assert!(t2 >= t1, "successor overtook the perturbed frame");
    });
    c.run();
}

#[test]
fn schedule_plan_runs_are_deterministic() {
    use carlos_sim::SchedulePlan;
    let run = || {
        let plan = SchedulePlan::new().delay(0, 1, 1, us(700)).delay(2, 1, 0, us(30));
        let mut c = Cluster::new(SimConfig::fast_test().with_schedule(plan), 3);
        for n in [0u32, 2u32] {
            c.spawn_node(n, move |ctx| {
                for i in 0..4u32 {
                    ctx.compute(us(u64::from(n) + 1));
                    ctx.send_datagram(1, data_frame(i, 64));
                }
            });
        }
        c.spawn_node(1, |ctx| {
            for _ in 0..8 {
                let _ = ctx.wait_recv(None).expect("frame");
            }
        });
        c.run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.net, b.net);
}

#[test]
fn empty_schedule_is_bit_identical_to_no_schedule() {
    use carlos_sim::SchedulePlan;
    let run = |with_knob: bool| {
        let cfg = if with_knob {
            SimConfig::fast_test().with_schedule(SchedulePlan::new())
        } else {
            SimConfig::fast_test()
        };
        let mut c = Cluster::new(cfg, 2);
        c.spawn_node(0, |ctx| {
            for i in 0..6u32 {
                ctx.send_datagram(1, data_frame(i, 256));
                ctx.compute(us(5));
            }
        });
        c.spawn_node(1, |ctx| {
            for _ in 0..6 {
                let _ = ctx.wait_recv(None).expect("frame");
            }
        });
        c.run()
    };
    let a = run(false);
    let b = run(true);
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.net, b.net);
}
