//! The serial scheduler's direct baton hand-off: a parking proc drives the
//! event loop itself and hands the baton straight to its successor, so
//! limits, stalls, panics, aborts, crashes and fresh-proc rendezvous all
//! trip while a *proc* thread is driving and must reach the runner intact.
//!
//! Every pinned value below was recorded on the runner-in-the-middle
//! scheduler this protocol replaced: which thread pops an event must not
//! show in any `SimError` field or fingerprint.

use std::{
    sync::mpsc,
    time::{Duration, Instant},
};

use carlos_sim::{
    time::{ms, us},
    BlockedProc, Cluster, FaultPlan, NodeCtx, SimConfig, SimError, SimReport,
};

/// Two nodes bounce a datagram for ever; only a safety valve ends the run.
/// After the time-0 wakes every event is popped by a parking proc.
fn endless_ping_pong(cfg: SimConfig) -> Result<SimReport, SimError> {
    let mut c = Cluster::new(cfg, 2);
    c.spawn_node(0, |ctx| loop {
        ctx.send_datagram(1, vec![7u8; 32]);
        ctx.wait_recv(None).expect("pong");
        ctx.compute(us(3));
    });
    c.spawn_node(1, |ctx| loop {
        ctx.wait_recv(None).expect("ping");
        ctx.send_datagram(0, vec![9u8; 32]);
    });
    c.try_run()
}

fn fingerprint(r: &SimReport) -> String {
    format!(
        "elapsed={} events={} messages={} delivered={} dropped_crash={} deferred_pause={} crashed={:?}",
        r.elapsed,
        r.events_processed,
        r.net.messages,
        r.net.delivered,
        r.net.dropped_crash,
        r.net.deferred_pause,
        r.crashed_nodes,
    )
}

#[test]
fn max_events_trips_on_a_driving_proc() {
    let cfg = SimConfig {
        max_events: Some(500),
        ..SimConfig::fast_test()
    };
    match endless_ping_pong(cfg) {
        Err(SimError::MaxEvents { limit, at, crashed }) => {
            assert_eq!((limit, at), (500, 1_181_744));
            assert!(crashed.is_empty());
        }
        other => panic!("expected MaxEvents, got {other:?}"),
    }
}

#[test]
fn max_virtual_time_trips_on_a_driving_proc() {
    let cfg = SimConfig {
        max_virtual_time: Some(ms(2)),
        ..SimConfig::fast_test()
    };
    match endless_ping_pong(cfg) {
        Err(SimError::MaxVirtualTime { limit, crashed }) => {
            assert_eq!(limit, ms(2));
            assert!(crashed.is_empty());
        }
        other => panic!("expected MaxVirtualTime, got {other:?}"),
    }
}

#[test]
fn stall_with_every_proc_in_wait_recv_is_reported_from_a_proc() {
    // A ring passes one token round twice, then everybody waits for mail
    // that never comes: the last proc to park finds the queue empty.
    let mut c = Cluster::new(SimConfig::fast_test(), 3);
    for n in 0..3u32 {
        c.spawn_node(n, move |ctx| {
            if n == 0 {
                ctx.send_datagram(1, vec![0]);
            }
            for _ in 0..2 {
                let d = ctx.wait_recv(None).expect("token");
                ctx.compute(us(u64::from(n) + 1));
                if !(n == 0 && d.payload[0] == 5) {
                    ctx.send_datagram((n + 1) % 3, vec![d.payload[0] + 1]);
                }
            }
            let _ = ctx.wait_recv(None);
        });
    }
    match c.try_run() {
        Err(SimError::Stalled {
            at,
            blocked,
            crashed,
        }) => {
            assert_eq!(at, 30_048);
            let want: Vec<BlockedProc> = (0..3)
                .map(|pid| BlockedProc {
                    pid,
                    node: pid as u32,
                    waiting_for_msg: true,
                    at: 30_048,
                })
                .collect();
            assert_eq!(blocked, want);
            assert!(crashed.is_empty());
        }
        other => panic!("expected Stalled, got {other:?}"),
    }
}

/// Node 0 pings; node 1 ends the run from inside its third receive.
fn run_until_node_1(gives_up: fn(&NodeCtx)) -> SimError {
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    c.spawn_node(0, |ctx| loop {
        ctx.send_datagram(1, vec![1]);
        ctx.wait_recv(None).expect("echo");
    });
    c.spawn_node(1, move |ctx| {
        for round in 0.. {
            ctx.wait_recv(None).expect("ping");
            if round == 2 {
                gives_up(&ctx);
            }
            ctx.send_datagram(0, vec![2]);
        }
    });
    c.try_run().expect_err("node 1 never lets the run finish")
}

#[test]
fn app_panic_on_a_handed_off_proc_is_attributed() {
    match run_until_node_1(|_| panic!("boom in round 2")) {
        SimError::NodePanic {
            node,
            message,
            crashed,
        } => {
            assert_eq!(node, Some(1));
            assert_eq!(message, "boom in round 2");
            assert!(crashed.is_empty());
        }
        other => panic!("expected NodePanic, got {other:?}"),
    }
}

#[test]
fn abort_on_a_handed_off_proc_is_attributed() {
    match run_until_node_1(|ctx| carlos_sim::abort(ctx.node_id(), "peer 0 presumed down")) {
        SimError::Aborted {
            node,
            context,
            crashed,
        } => {
            assert_eq!(node, 1);
            assert_eq!(context, "peer 0 presumed down");
            assert!(crashed.is_empty());
        }
        other => panic!("expected Aborted, got {other:?}"),
    }
}

#[test]
fn spawned_threads_rendezvous_through_the_runner() {
    // Node 0 runs three procs. A fresh proc's first wake is the one event
    // a driving proc may not take (its thread may not have parked yet), so
    // it goes back to the runner — whichever way that race falls, the
    // fingerprint must not move.
    let run = || {
        let mut c = Cluster::new(SimConfig::fast_test(), 2);
        c.spawn_node(0, |ctx| {
            for t in 0..2u64 {
                ctx.spawn_thread(move |tctx| {
                    tctx.compute(us(20 + t));
                    let d = tctx.wait_recv(None).expect("one datagram per thread");
                    tctx.send_datagram(1, vec![d.payload[0], t as u8]);
                });
                ctx.compute(us(5));
            }
            ctx.sleep(ms(1));
        });
        c.spawn_node(1, |ctx| {
            ctx.compute(us(50));
            ctx.send_datagram(0, vec![10]);
            ctx.send_datagram(0, vec![11]);
            for _ in 0..2 {
                ctx.wait_recv(None).expect("reply");
            }
        });
        fingerprint(&c.run())
    };
    let first = run();
    assert_eq!(
        first,
        "elapsed=1030000 events=25 messages=4 delivered=4 dropped_crash=0 deferred_pause=0 crashed=[]"
    );
    for _ in 0..20 {
        assert_eq!(run(), first);
    }
}

#[test]
fn crash_and_pause_fire_while_procs_drive() {
    // Node 2 is paused, then fail-stopped, in the middle of a ring
    // exchange. The Crash event is popped by the runner only; the node's
    // proc — marked for termination while parked — must be unparked, or
    // this test hangs instead of failing.
    let plan = FaultPlan::new(1)
        .pause(2, us(150), us(400))
        .crash(2, us(900));
    let mut c = Cluster::new(SimConfig::fast_test().with_fault_plan(plan), 3);
    for n in 0..3u32 {
        c.spawn_node(n, move |ctx| {
            for i in 0..40u8 {
                ctx.send_datagram((n + 1) % 3, vec![i; 16]);
                ctx.compute(us(10));
                let deadline = ctx.now() + us(30);
                while ctx.wait_recv(Some(deadline)).is_some() {}
            }
        });
    }
    let r = c.try_run().expect("survivors finish");
    assert_eq!(
        fingerprint(&r),
        "elapsed=1640000 events=443 messages=102 delivered=84 dropped_crash=18 deferred_pause=6 crashed=[2]"
    );
}

#[test]
fn deadline_wake_that_goes_stale_is_skipped() {
    // Node 0 waits with a deadline, but the datagram arrives first: the
    // deadline wake is still queued when node 0 parks again and must be
    // skipped as stale by whichever proc pops it.
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    c.spawn_node(0, |ctx| {
        let d = ctx.wait_recv(Some(ms(1))).expect("beats the deadline");
        assert_eq!(d.payload, [1]);
        let early = ctx.now();
        assert!(early < ms(1));
        // Parked across the stale wake at 1 ms.
        ctx.sleep(ms(2));
        assert_eq!(ctx.now(), early + ms(2));
        assert!(ctx.wait_recv(Some(ctx.now() + us(10))).is_none());
    });
    c.spawn_node(1, |ctx| {
        ctx.compute(us(40));
        ctx.send_datagram(0, vec![1]);
        ctx.sleep(ms(3));
    });
    let r = c.run();
    assert_eq!(
        fingerprint(&r),
        "elapsed=3041000 events=8 messages=1 delivered=1 dropped_crash=0 deferred_pause=0 crashed=[]"
    );
}

#[test]
fn no_wake_up_is_lost_in_300_back_to_back_clusters() {
    // Every hand-off is unlock, unpark, park: a wake-up lost in that
    // window parks the whole cluster for ever. Run many short clusters
    // under a host-time watchdog so a regression fails instead of hanging.
    let (done_tx, done_rx) = mpsc::channel();
    let soak = std::thread::spawn(move || {
        let mut events = 0;
        for round in 0..300u32 {
            let mut c = Cluster::new(SimConfig::fast_test(), 4);
            for n in 0..4u32 {
                c.spawn_node(n, move |ctx| {
                    let peer = n ^ 1;
                    for i in 0..25u32 {
                        if (n + i + round) % 2 == 0 {
                            ctx.send_datagram(peer, vec![i as u8]);
                            ctx.wait_recv(None).expect("echo");
                        } else {
                            ctx.wait_recv(None).expect("ping");
                            ctx.send_datagram(peer, vec![i as u8]);
                        }
                        ctx.compute(us(u64::from(n)));
                    }
                });
            }
            events += c.run().events_processed;
        }
        let _ = done_tx.send(events);
    });
    let started = Instant::now();
    match done_rx.recv_timeout(Duration::from_secs(120)) {
        Ok(events) => {
            soak.join().expect("soak thread");
            assert!(events > 300 * 4 * 25, "soak did no work: {events} events");
        }
        // Leaves the stuck threads behind: the process exits with the failure.
        Err(_) => panic!(
            "hand-off soak stuck for {:?}: lost wake-up",
            started.elapsed()
        ),
    }
}
