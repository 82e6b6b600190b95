//! Chaos suite: scripted faults against full application runs.
//!
//! Three claims are pinned here:
//!
//! 1. **Fault transparency** — under recoverable faults (burst loss,
//!    partition-then-heal) the ARQ transport and the protocols above it
//!    deliver the answer `Run::verdict` accepts from a fault-free run: the
//!    optimal tour, the bit-exact SOR grid, a sorted permutation. Faults
//!    may cost virtual time, never correctness; each run's fingerprint
//!    and answer are pinned.
//! 2. **Graceful failure** — unrecoverable faults (a fail-stop crash of a
//!    node another node depends on) end the run with a structured
//!    [`SimError`] naming the crashed node and the operation that gave up,
//!    instead of a hang or an unattributed panic.
//! 3. **Determinism** — the same seed and the same fault plan reproduce
//!    the same simulation, byte for byte, faults included.

use carlos::apps::{
    launch, Answer, App, QsortVariant, Reference, Run, Scale, Spec, Traffic, TspVariant,
};
use carlos::core::{CoreConfig, Runtime, STALL_ROUNDS};
use carlos::lrc::{LrcConfig, PageOwnership};
use carlos::serve::ServeResult;
use carlos::sim::time::{ms, us};
use carlos::sim::transport::{AckMode, PROBE_RTOS};
use carlos::sim::{Bucket, Cluster, FaultPlan, GeParams, NodeCtx, SimConfig, SimError, SimReport};
use carlos::sync::BarrierSpec;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

const ARQ: AckMode = AckMode::Arq {
    window: 16,
    rto: ms(5),
};

/// Serializes every determinism-relevant field of a report (the same shape
/// as the golden tests use, plus the fault-drop accounting).
fn fingerprint(r: &SimReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "elapsed={} events={}", r.elapsed, r.events_processed);
    let _ = writeln!(
        s,
        "net messages={} payload_bytes={} dropped={} burst={} partition={} crash={} deferred={}",
        r.net.messages,
        r.net.payload_bytes,
        r.net.dropped,
        r.net.dropped_burst,
        r.net.dropped_partition,
        r.net.dropped_crash,
        r.net.deferred_pause,
    );
    for (i, b) in r.node_buckets.iter().enumerate() {
        let _ = write!(s, "node{i} buckets");
        for bucket in Bucket::ALL {
            let _ = write!(s, " {}={}", bucket.name(), b.get(bucket));
        }
        let _ = writeln!(s);
        let _ = write!(s, "node{i} counters");
        for (k, v) in r.node_counters[i].iter() {
            let _ = write!(s, " {k}={v}");
        }
        let _ = writeln!(s);
    }
    s
}

/// The FNV-1a hash of `text`, the form in which fingerprints are pinned.
fn fnv(text: &str) -> String {
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("fnv {hash:#018x}")
}

/// `app` on two nodes at test scale, over ARQ, under `plan`.
fn chaos_spec(app: App, plan: FaultPlan) -> Spec {
    Spec {
        sim: Some(SimConfig::fast_test().with_fault_plan(plan).with_ack(ARQ)),
        ..Spec::new(app, 2, Scale::Test)
    }
}

/// Serializes a serving run's accounting: every client and server total,
/// the latency histogram's shape, and the final counters.
fn serve_fingerprint(r: &ServeResult) -> String {
    let t = &r.totals;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "attempted={} completed={} timed_out={} late={} statuses={:?}",
        t.client.attempted,
        t.client.completed,
        t.client.timed_out,
        t.client.late_replies,
        t.client.status_counts,
    );
    let _ = writeln!(
        s,
        "probes={}/{} cas={}/{}/{} served={} mirror={}/{}",
        t.client.probes_answered,
        t.client.probes_attempted,
        t.cas_done,
        t.cas_abandoned,
        t.cas_intents,
        t.ops_served,
        t.mirror_mismatches,
        t.mirror_keys,
    );
    let _ = writeln!(
        s,
        "hist count={} sum={} p50={} p99={} p999={} counters={:?}",
        t.client.hist.count(),
        t.client.hist.sum(),
        t.client.hist.quantile(0.50),
        t.client.hist.quantile(0.99),
        t.client.hist.quantile(0.999),
        r.counters,
    );
    s
}

/// Launches `spec`, asserts the answer is right whatever the faults did,
/// and returns the run with its pin: the fingerprint's hash and the answer.
fn judged(spec: &Spec) -> (Run, String) {
    let run = launch(spec).expect("chaos run");
    assert_eq!(run.verdict(&Reference::of(spec)), Ok(()), "faults changed the answer");
    let answer = match &run.answer {
        Answer::Tsp(r) => format!("best_len={}", r.best_len),
        Answer::Quicksort(r) => format!("sorted={} permutation={}", r.sorted, r.permutation_ok),
        Answer::Sor(r) => format!("checksum={:#018x}", r.checksum.to_bits()),
        Answer::Serve(r) => fnv(&serve_fingerprint(r)),
        Answer::Water(_) => unreachable!("no Water chaos run"),
    };
    let pin = format!("{} {answer}", fnv(&fingerprint(&run.app().report)));
    (run, pin)
}

#[test]
fn tsp_result_identical_under_burst_loss() {
    let plan = FaultPlan::new(0xC4A05).burst_loss(0, ms(60_000), GeParams::bursty(0.7));
    let (run, pin) = judged(&chaos_spec(App::Tsp(TspVariant::Lock), plan));
    assert!(
        run.app().report.net.dropped_burst > 0,
        "the burst window must actually bite"
    );
    assert_eq!(pin, "fnv 0x823c4df38fca9c63 best_len=25972");
}

#[test]
fn sor_checksum_identical_under_partition_then_heal() {
    let plan = FaultPlan::new(11).partition(&[0], &[1], ms(1), ms(40));
    let (run, pin) = judged(&chaos_spec(App::Sor, plan));
    assert!(
        run.app().report.net.dropped_partition > 0,
        "the partition must actually bite"
    );
    // History: "fnv 0xdebd7dfbd4871488" while a page a write left
    // byte-identical was announced with an empty diff.
    assert_eq!(pin, "fnv 0x32605799db8a3a6f checksum=0x4096a841a0000000");
}

#[test]
fn qsort_stays_correct_under_burst_loss() {
    let plan = FaultPlan::new(0x50B7).burst_loss(0, ms(60_000), GeParams::bursty(0.7));
    let (run, pin) = judged(&chaos_spec(App::Quicksort(QsortVariant::Lock), plan));
    assert!(
        run.app().report.net.dropped_burst > 0,
        "the burst window must actually bite"
    );
    // History: "fnv 0x6f5264e7fa3e0aee" while a page a write left
    // byte-identical was announced with an empty diff.
    assert_eq!(pin, "fnv 0xa339ace20c8c2d64 sorted=true permutation=true");
}

/// Node 0's context, kept so its counters can be read after the run.
type Probe = Rc<RefCell<Option<NodeCtx>>>;

/// The bounded-wait rounds node 0 spent, read after its run ended.
fn stall_rounds(node0: &Probe) -> u64 {
    node0.borrow().as_ref().expect("node 0 ran").counter("carlos.stall_rounds")
}

/// A global barrier managed by node 0, whose only client, node 1, crashes
/// at 2 ms before ever arriving. Returns the run's error and node 0's
/// stall rounds.
fn barrier_with_a_crashed_client(core: CoreConfig) -> (SimError, u64) {
    let plan = FaultPlan::new(5).crash(1, ms(2));
    let mut c = Cluster::new(SimConfig::fast_test().with_fault_plan(plan).with_ack(ARQ), 2);
    let node0 = Probe::default();
    let kept = node0.clone();
    c.spawn_node(0, move |ctx| {
        *kept.borrow_mut() = Some(ctx.clone());
        let mut rt = Runtime::new(ctx, LrcConfig::small_test(2), core);
        let sys = carlos::sync::install(&mut rt);
        sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
        unreachable!("the barrier cannot fall with node 1 dead");
    });
    c.spawn_node(1, |ctx| {
        ctx.sleep(ms(100));
    });
    let err = c.try_run().expect_err("the run must fail, not hang");
    (err, stall_rounds(&node0))
}

#[test]
fn crash_with_timeouts_reports_attributed_error() {
    // Node 0, armed with the stall bound and the ARQ failure detector, must
    // give up with an error naming both the operation and the casualty —
    // not hang.
    let core = CoreConfig::fast_test().with_stall_timeout(ms(20));
    let (err, _) = barrier_with_a_crashed_client(core);
    assert_eq!(err.crashed_nodes(), vec![1], "the casualty must be named");
    match &err {
        SimError::Aborted { node, context, .. } => {
            assert_eq!(*node, 0, "node 0 is the one that gave up");
            assert!(
                context.contains("barrier"),
                "the context must name the operation, got: {context}"
            );
            assert!(context.contains("node 1 is down"), "and the casualty: {context}");
        }
        other => panic!("expected an attributed abort, got: {other}"),
    }
}

#[test]
fn crash_without_timeouts_reports_stall_with_casualties() {
    // Legacy configuration (no timeouts, implicit acks): the run cannot
    // recover, but the stall report must still list who crashed and who
    // was left waiting.
    let plan = FaultPlan::new(5).crash(1, ms(2));
    let mut c = Cluster::new(SimConfig::fast_test().with_fault_plan(plan), 2);
    c.spawn_node(0, |ctx| {
        let mut rt = Runtime::new(ctx, LrcConfig::small_test(2), CoreConfig::fast_test());
        let sys = carlos::sync::install(&mut rt);
        sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
        unreachable!("the barrier cannot fall with node 1 dead");
    });
    c.spawn_node(1, |ctx| {
        ctx.sleep(ms(100));
    });
    let err = c.try_run().expect_err("the run must fail, not hang");
    assert_eq!(err.crashed_nodes(), vec![1]);
    match &err {
        SimError::Stalled { blocked, .. } => {
            assert!(
                blocked.iter().any(|b| b.node == 0),
                "node 0 must be listed as blocked, got: {blocked:?}"
            );
            assert!(err.to_string().contains("deadlock"));
        }
        other => panic!("expected a stall report, got: {other}"),
    }
}

/// A read whose serving node crashed before the reader's first copy.
/// Node 1 owns every page; node 0 first reads page 3 after node 1 died.
/// Returns the run's error and the reader's stall rounds.
fn read_from_a_crashed_server(core: CoreConfig) -> (SimError, u64) {
    let plan = FaultPlan::new(5).crash(1, ms(2));
    let mut c = Cluster::new(SimConfig::fast_test().with_fault_plan(plan).with_ack(ARQ), 2);
    let lrc = LrcConfig {
        ownership: PageOwnership::SingleOwner(1),
        ..LrcConfig::small_test(2)
    };
    let page_size = lrc.page_size;
    let (reader_lrc, server_lrc) = (lrc.clone(), lrc);
    let server_core = core.clone();
    let node0 = Probe::default();
    let kept = node0.clone();
    c.spawn_node(0, move |ctx| {
        *kept.borrow_mut() = Some(ctx.clone());
        let mut rt = Runtime::new(ctx, reader_lrc, core);
        rt.sleep(ms(5));
        let _ = rt.read_u32(3 * page_size);
        unreachable!("page 3 cannot arrive with node 1 dead");
    });
    c.spawn_node(1, move |ctx| {
        let mut rt = Runtime::new(ctx, server_lrc, server_core);
        rt.sleep(ms(100));
    });
    let err = c.try_run().expect_err("the run must fail, not hang");
    (err, stall_rounds(&node0))
}

#[test]
fn stall_timeout_attributes_a_crashed_server() {
    // Armed: the reader's quiet rounds probe the server, the ARQ failure
    // detector convicts it, and the fetch gives up naming reader and page.
    let (err, _) = read_from_a_crashed_server(CoreConfig::fast_test().with_stall_timeout(ms(10)));
    assert_eq!(err.crashed_nodes(), vec![1], "the casualty must be named");
    match &err {
        SimError::Aborted { node, context, .. } => {
            assert_eq!(*node, 0, "the reader is the one that gave up");
            assert!(context.contains("page 3"), "the context must name the page: {context}");
            assert!(context.contains("node 1 is down"), "and the dead server: {context}");
        }
        other => panic!("expected an attributed abort, got: {other}"),
    }
    // Unarmed: the reader waits forever. Its transport keeps retransmitting
    // the request to the dead server (the ARQ never gives up on a peer, so
    // that a healed partition recovers), so the run is not a stall: it
    // ends at the virtual-time valve, unattributed but listing the casualty.
    let (err, rounds) = read_from_a_crashed_server(CoreConfig::fast_test());
    assert_eq!(err.crashed_nodes(), vec![1]);
    assert!(
        matches!(err, SimError::MaxVirtualTime { .. }),
        "expected the virtual-time valve, got: {err}"
    );
    assert_eq!(rounds, 0, "an unarmed wait has no rounds");
}

#[test]
fn a_silent_peer_is_abandoned_after_the_round_budget() {
    // A stall bound far below the probe's conviction time (PROBE_RTOS
    // RTOs): the silent peer is never flagged down, so a fetch and a sync
    // op each give up on the round budget alone, after exactly
    // STALL_ROUNDS rounds, calling the peer unresponsive.
    let bound = us(250);
    let AckMode::Arq { rto, .. } = ARQ else {
        unreachable!("the chaos transport is ARQ")
    };
    assert!(u64::from(STALL_ROUNDS) * bound < u64::from(PROBE_RTOS) * rto);
    let core = CoreConfig::fast_test().with_stall_timeout(bound);
    for ((err, rounds), what) in [
        (read_from_a_crashed_server(core.clone()), "page 3 fetch"),
        (barrier_with_a_crashed_client(core), "barrier 9"),
    ] {
        match &err {
            SimError::Aborted { node, context, .. } => {
                assert_eq!(*node, 0);
                assert_eq!(context, &format!("{what} abandoned: node 1 is unresponsive"));
            }
            other => panic!("expected an attributed abort, got: {other}"),
        }
        assert_eq!(rounds, u64::from(STALL_ROUNDS), "{what}: the budget is exact");
    }
}

#[test]
fn crashed_node_is_reported_even_when_the_run_completes() {
    // Node 1 finishes its (empty) work before the crash fires; the run
    // succeeds, but the report still records the casualty.
    let plan = FaultPlan::new(5).crash(1, ms(50));
    let mut c = Cluster::new(SimConfig::fast_test().with_fault_plan(plan), 2);
    c.spawn_node(0, |ctx| {
        ctx.sleep(ms(100));
    });
    c.spawn_node(1, |ctx| {
        ctx.sleep(ms(100));
    });
    let rep = c.try_run().expect("only sleepers; the crash kills one");
    assert_eq!(rep.crashed_nodes, vec![1]);
}

#[test]
fn same_seed_and_plan_reproduce_the_same_simulation() {
    let plan = || {
        FaultPlan::new(0xD1CE)
            .burst_loss(0, ms(60_000), GeParams::bursty(0.6))
            .pause(1, ms(3), ms(6))
    };
    let spec = chaos_spec(App::Tsp(TspVariant::Lock), plan());
    let (a, a_pin) = judged(&spec);
    let (b, b_pin) = judged(&spec);
    assert_eq!(
        fingerprint(&a.app().report),
        fingerprint(&b.app().report),
        "chaos must be scripted, not random"
    );
    assert_eq!(a_pin, b_pin);
    let (Answer::Tsp(a), Answer::Tsp(b)) = (&a.answer, &b.answer) else {
        unreachable!("TSP runs");
    };
    assert_eq!(a.expansions, b.expansions);
}

/// Chaos serving: under burst loss plus a partition-then-heal window the
/// open-loop KV service *sheds load instead of corrupting it*. Yield drops
/// below 1.0 with every drop attributed — `attempted == completed +
/// timed_out`, latency observations match completions, replies that beat
/// the ARQ but missed their deadline are counted as late rather than
/// silently discarded — while everything that did complete stays correct
/// (the verdict: value self-tags intact, server mirrors agreeing with the
/// DSM, every CAS intent landed at most once). And the whole degraded run
/// is reproducible byte for byte from its seed.
#[test]
fn serve_chaos_is_attributed_and_reproducible() {

    let spec = Spec::new(App::Serve(Traffic::Chaos), 4, Scale::Test);
    let (run, a_pin) = judged(&spec);
    let Answer::Serve(a) = &run.answer else { unreachable!("a serving run") };
    let t = &a.totals;
    // The fault plan must actually bite.
    assert!(a.app.report.net.dropped_burst > 0, "burst window never fired");
    assert!(
        a.app.report.net.dropped_partition > 0,
        "partition window never fired"
    );
    // Load was shed, and every shed op is attributed (the verdict demands
    // `attempted == completed + timed_out`).
    assert!(t.yield_fraction() < 1.0, "chaos must cost yield");
    assert!(t.client.timed_out > 0);
    assert_eq!(
        t.client.hist.count(),
        t.client.completed,
        "one latency observation per completion"
    );
    assert!(
        t.client.late_replies > 0,
        "ARQ retransmits past the deadline must surface as late replies"
    );
    // Harvest was probed during the partition and is degraded.
    assert!(t.client.probes_attempted > 0);
    assert!(t.harvest() < 1.0, "the probe window straddles the partition");
    // Some CAS intents were abandoned. One whose request reached the server
    // before the client gave up still lands (only the reply was lost), so
    // the verdict bounds the counter totals by — not equates them to — the
    // client-confirmed count; they never exceed the intents issued, because
    // nothing is ever retried blind.
    assert!(t.cas_abandoned > 0);

    // Same seed, same fault plan: byte-identical simulation and accounting.
    let (b, b_pin) = judged(&spec);
    assert_eq!(
        fingerprint(&run.app().report),
        fingerprint(&b.app().report),
        "chaos serving must be scripted, not random"
    );
    assert_eq!(a_pin, b_pin);
    // History: "fnv 0x51ebe539110b2017 fnv 0xef741612b45c5677" while servers
    // pushed slot-header diffs to clients that held no copy of them, then
    // "fnv 0xf842defeef293ea4 fnv 0xf6d6497635f6ee5a" while a page a write
    // left byte-identical was announced with an empty diff.
    assert_eq!(a_pin, "fnv 0x15aa16301e17db0d fnv 0xcf77ba929edc55b5");
}
