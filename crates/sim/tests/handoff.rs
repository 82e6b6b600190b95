//! The serial scheduler: every proc is a coroutine on the thread that
//! called `run`. A parking proc drives the event loop itself and suspends
//! to the runner when another proc is due, so limits, stalls, panics,
//! aborts and crashes all trip while a *proc* is driving and must reach the
//! runner intact — and a run that ends early must still unwind and free
//! every proc stack.
//!
//! Every pinned value below was recorded on the thread-per-proc,
//! runner-in-the-middle scheduler two designs ago: what executes an event
//! must not show in any `SimError` field or fingerprint.

use std::{
    hint::black_box,
    panic::{catch_unwind, AssertUnwindSafe},
    process::Command,
    sync::{
        atomic::{AtomicUsize, Ordering},
        mpsc, Arc,
    },
    thread,
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
    c.spawn_node(0, |ctx| ping_for_ever(&ctx));
    c.spawn_node(1, |ctx| pong_for_ever(&ctx));
    c.try_run()
}

fn ping_for_ever(ctx: &NodeCtx) -> ! {
    loop {
        ctx.send_datagram(1, vec![7u8; 32]);
        ctx.wait_recv(None).expect("pong");
        ctx.compute(us(3));
    }
}

fn pong_for_ever(ctx: &NodeCtx) -> ! {
    loop {
        ctx.wait_recv(None).expect("ping");
        ctx.send_datagram(0, vec![9u8; 32]);
    }
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
                .map(|node| BlockedProc {
                    node,
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
fn crash_and_pause_fire_while_procs_drive() {
    // Node 2 is paused, then fail-stopped, in the middle of a ring
    // exchange. The Crash event is popped by the runner only; the node's
    // proc — marked for termination while parked — must be resumed and
    // unwound there, or the survivors' run never balances.
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
    // A proc that suspends without its successor recorded, or a runner
    // that resumes nobody, stops the whole cluster for ever. Run many short
    // clusters under a host-time watchdog so a regression fails instead of
    // hanging.
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
        // Leaves the stuck thread behind: the process exits with the failure.
        Err(_) => panic!(
            "hand-off soak stuck for {:?}: lost wake-up",
            started.elapsed()
        ),
    }
}

/// OS threads of this process (`Threads:` in `/proc/self/status`).
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line");
    line.trim().parse().expect("thread count")
}

/// Mappings of this process (lines of `/proc/self/maps`).
fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("procfs")
        .lines()
        .count()
}

/// The harness runs another test of this file beside each of these (one
/// more thread, plus the soak's), so process-wide counts are compared with
/// this much slack — against dozens to thousands when the property fails.
const SLACK: usize = 8;

#[test]
fn no_os_thread_per_proc() {
    const NODES: u32 = 48;
    let runner = thread::current().id();
    let before = os_threads();
    let most = Arc::new(AtomicUsize::new(0));
    let mut c = Cluster::new(SimConfig::fast_test(), NODES as usize);
    for n in 0..NODES {
        let most = Arc::clone(&most);
        c.spawn_node(n, move |ctx| {
            assert_eq!(thread::current().id(), runner);
            // One lap of a token ring: by the time the token is back every
            // proc has run, and none has finished.
            if n == 0 {
                ctx.send_datagram(1, vec![0]);
            }
            ctx.wait_recv(None).expect("token");
            if n != 0 {
                ctx.send_datagram((n + 1) % NODES, vec![0]);
            }
            most.fetch_max(os_threads(), Ordering::Relaxed);
            ctx.sleep(ms(1));
        });
    }
    c.run();
    let most = most.load(Ordering::Relaxed);
    assert!(
        most <= before + SLACK,
        "{before} OS threads before the run, {most} with {NODES} procs live"
    );
}

/// Counts its drops.
struct Guard(Arc<AtomicUsize>);

impl Drop for Guard {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn cluster_dropped_without_run_leaves_nothing_behind() {
    let before = os_threads();
    let drops = Arc::new(AtomicUsize::new(0));
    for _ in 0..50 {
        let mut c = Cluster::new(SimConfig::fast_test(), 4);
        for n in 0..4 {
            let guard = Guard(Arc::clone(&drops));
            c.spawn_node(n, move |ctx| {
                let _guard = guard;
                ctx.compute(us(1));
            });
        }
    }
    assert_eq!(drops.load(Ordering::SeqCst), 200, "queued mains dropped");
    let after = os_threads();
    assert!(
        after <= before + SLACK,
        "{before} OS threads before, {after} after dropping 50 unrun clusters"
    );
}

/// Runs `body` on `n` nodes, each proc's queued body owning a [`Guard`]
/// that moves onto the proc's stack when it starts, and returns the outcome
/// with the number of guards dropped by the time `try_run` returned.
fn run_guarded(cfg: SimConfig, n: u32, body: fn(&NodeCtx)) -> (Result<SimReport, SimError>, usize) {
    let drops = Arc::new(AtomicUsize::new(0));
    let mut c = Cluster::new(cfg, n as usize);
    for node in 0..n {
        let guard = Guard(Arc::clone(&drops));
        c.spawn_node(node, move |ctx| {
            let _on_the_stack = guard;
            body(&ctx);
        });
    }
    let outcome = c.try_run();
    (outcome, drops.load(Ordering::SeqCst))
}

#[test]
fn teardown_unwinds_every_proc_stack() {
    // Stalled: everybody waits for mail that never comes.
    let (r, drops) = run_guarded(SimConfig::fast_test(), 3, |ctx| {
        ctx.compute(us(u64::from(ctx.node_id())));
        let _ = ctx.wait_recv(None);
    });
    assert!(matches!(r, Err(SimError::Stalled { .. })), "{r:?}");
    assert_eq!(drops, 3);

    // MaxEvents, tripping while a proc drives.
    let cfg = SimConfig {
        max_events: Some(500),
        ..SimConfig::fast_test()
    };
    let (r, drops) = run_guarded(cfg, 2, |ctx| match ctx.node_id() {
        0 => ping_for_ever(ctx),
        _ => pong_for_ever(ctx),
    });
    assert!(matches!(r, Err(SimError::MaxEvents { .. })), "{r:?}");
    assert_eq!(drops, 2);

    // An application panic on node 1 at its first wake, while node 0 is
    // parked sending its first ping: node 2's first wake never comes, and
    // its queued body owns the third guard.
    let (r, drops) = run_guarded(SimConfig::fast_test(), 3, |ctx| match ctx.node_id() {
        0 => ping_for_ever(ctx),
        1 => panic!("boom"),
        _ => unreachable!("the run ends before node 2's first wake"),
    });
    assert!(
        matches!(r, Err(SimError::NodePanic { node: Some(1), .. })),
        "{r:?}"
    );
    assert_eq!(drops, 3);

    // An attributed abort.
    let (r, drops) = run_guarded(SimConfig::fast_test(), 2, |ctx| match ctx.node_id() {
        0 => ping_for_ever(ctx),
        _ => {
            ctx.wait_recv(None).expect("ping");
            carlos_sim::abort(1, "giving up")
        }
    });
    assert!(matches!(r, Err(SimError::Aborted { node: 1, .. })), "{r:?}");
    assert_eq!(drops, 2);

    // A scripted crash of node 2, whose mail the survivors wait for: its
    // proc unwinds at the crash, theirs at teardown.
    let plan = FaultPlan::new(1).crash(2, us(100));
    let cfg = SimConfig::fast_test().with_fault_plan(plan);
    let (r, drops) = run_guarded(cfg, 3, |ctx| {
        if ctx.node_id() == 2 {
            ctx.sleep(ms(1));
            ctx.send_datagram(0, vec![1]);
            ctx.send_datagram(1, vec![1]);
        } else {
            ctx.wait_recv(None).expect("never: node 2 is dead");
        }
    });
    match r {
        Err(SimError::Stalled { crashed, .. }) => assert_eq!(crashed, [2]),
        other => panic!("expected Stalled, got {other:?}"),
    }
    assert_eq!(drops, 3);
}

/// Recurses until `floor` bytes of stack lie between `base` and this frame,
/// parks there, and returns the depth reached in bytes.
#[inline(never)]
fn dive(ctx: &NodeCtx, base: usize, floor: usize) -> usize {
    let frame = [0u8; 256];
    let here = black_box(&frame).as_ptr() as usize;
    let used = base - here;
    if used >= floor {
        // Switch away and back with the whole stack live.
        ctx.sleep(us(10));
        return used;
    }
    let deeper = dive(ctx, base, floor);
    black_box(&frame);
    deeper
}

#[test]
fn a_proc_can_use_a_mebibyte_of_stack() {
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    for n in 0..2 {
        c.spawn_node(n, |ctx| {
            let base = [0u8; 8];
            let used = dive(&ctx, black_box(&base).as_ptr() as usize, 1 << 20);
            assert!(used >= 1 << 20);
            ctx.compute(us(1));
        });
    }
    c.run();
}

#[test]
fn proc_stacks_are_unmapped_after_every_kind_of_run() {
    let before = mappings();
    for round in 0..2_000u32 {
        let mut c = Cluster::new(SimConfig::fast_test(), 8);
        for n in 0..8u32 {
            c.spawn_node(n, move |ctx| {
                ctx.send_datagram((n + 1) % 8, vec![n as u8]);
                ctx.wait_recv(None).expect("neighbour's datagram");
                if round % 2 == 1 {
                    let _ = ctx.wait_recv(None);
                }
            });
        }
        match c.try_run() {
            Ok(_) => assert_eq!(round % 2, 0),
            Err(SimError::Stalled { blocked, .. }) => {
                assert_eq!((round % 2, blocked.len()), (1, 8))
            }
            Err(other) => panic!("round {round}: {other:?}"),
        }
    }
    let after = mappings();
    assert!(
        after <= before + 4 * SLACK,
        "/proc/self/maps grew from {before} to {after} lines over 16 000 proc stacks"
    );
}

#[derive(Debug, PartialEq)]
struct Verdict {
    code: u32,
    why: &'static str,
}

#[test]
fn run_reraises_a_typed_panic_payload() {
    let mut c = Cluster::new(SimConfig::fast_test(), 2);
    c.spawn_node(0, |ctx| {
        let _ = ctx.wait_recv(None);
    });
    c.spawn_node(1, |ctx| {
        ctx.compute(us(5));
        std::panic::panic_any(Verdict {
            code: 7,
            why: "typed",
        });
    });
    let payload = catch_unwind(AssertUnwindSafe(|| c.run())).expect_err("run re-raises");
    let verdict = payload
        .downcast::<Verdict>()
        .expect("payload keeps its type");
    assert_eq!(
        *verdict,
        Verdict {
            code: 7,
            why: "typed"
        }
    );
}

#[test]
fn typed_panic_survives_backtrace_printing() {
    // With RUST_BACKTRACE=1 the panic hook walks the panicking proc's stack
    // down to the coroutine's base frame before the unwinder does. The
    // variable is read once per process, so it gets a process of its own:
    // this binary again, running the test above and nothing else.
    let out = Command::new(std::env::current_exe().expect("test binary"))
        .args([
            "--exact",
            "run_reraises_a_typed_panic_payload",
            "--nocapture",
        ])
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("re-run this test binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "child failed:\n{stderr}");
    assert!(
        stderr.contains("stack backtrace:") && stderr.contains("coro::entry"),
        "no backtrace down to the base frame:\n{stderr}"
    );
}
