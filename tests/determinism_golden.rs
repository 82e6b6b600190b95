//! Golden-value determinism regression tests.
//!
//! The hot-path work (word-level diffing, one-allocation frames, fast-path
//! page access) is host-performance only: it must not perturb the
//! simulated virtual-time results. These tests pin the full
//! [`SimReport`] fingerprint — virtual times, message counts, byte
//! counts, per-node buckets and counters — of fixed-seed runs to literal
//! golden values, so any change to what the simulation *computes* (as
//! opposed to how fast the host computes it) fails loudly.
//!
//! If a future PR intentionally changes protocol behavior (and therefore
//! these fingerprints), regenerate the goldens by running the test and
//! copying the `actual fingerprint:` block from the failure message.

use carlos::check::Checker;
use carlos::trace::Tracer;
use carlos::core::{CoreConfig, Runtime};
use carlos::lrc::{LrcConfig, RegionSpec};
use carlos::sim::time::{ms, us};
use carlos::sim::transport::AckMode;
use carlos::sim::{Bucket, Cluster, SimConfig, SimReport};
use carlos::sync::{BarrierSpec, LockSpec};
use std::fmt::Write as _;

/// Serializes every determinism-relevant field of a report into one
/// comparable, diffable string.
fn fingerprint(r: &SimReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "elapsed={} events={}", r.elapsed, r.events_processed);
    let _ = writeln!(
        s,
        "net messages={} payload_bytes={} dropped={}",
        r.net.messages, r.net.payload_bytes, r.net.dropped
    );
    // Fault-drop accounting: only emitted when faults fired, so fault-free
    // goldens are byte-identical to their pre-fault-subsystem values.
    let faults = r.net.dropped_burst + r.net.dropped_partition + r.net.dropped_crash
        + r.net.deferred_pause;
    if faults > 0 {
        let _ = writeln!(
            s,
            "net faults burst={} partition={} crash={} deferred={}",
            r.net.dropped_burst, r.net.dropped_partition, r.net.dropped_crash,
            r.net.deferred_pause
        );
    }
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

/// A fixed 2-node lock/barrier workload over shared pages: enough traffic
/// to exercise diff creation/application, page fetches, interval records,
/// and the wire codec end to end.
fn two_node_run(check: Option<Checker>, trace: Option<Tracer>) -> SimReport {
    two_node_run_regions(check, trace, Vec::new())
}

fn two_node_run_regions(
    check: Option<Checker>,
    trace: Option<Tracer>,
    regions: Vec<RegionSpec>,
) -> SimReport {
    const N: usize = 2;
    let mut cluster = Cluster::new(SimConfig::osdi94(), N);
    if let Some(check) = &check {
        check.attach(&mut cluster);
    }
    if let Some(trace) = &trace {
        trace.attach(&mut cluster);
    }
    for node in 0..N as u32 {
        let check = check.clone();
        let trace = trace.clone();
        let regions = regions.clone();
        cluster.spawn_node(node, move |ctx| {
            let mut lrc = LrcConfig::osdi94(N, 1 << 15);
            lrc.regions = regions.clone();
            let mut rt = Runtime::new(ctx, lrc, CoreConfig::osdi94());
            if let Some(check) = &check {
                check.install(&mut rt);
            }
            if let Some(trace) = &trace {
                trace.install(&mut rt);
            }
            let sys = carlos::sync::install(&mut rt);
            let lock = LockSpec::new(1, 0);
            let b = BarrierSpec::global(9, 0);
            for i in 0..12u32 {
                sys.acquire(&mut rt, lock);
                let slot = (i as usize % 6) * 8;
                let v = rt.read_u32(slot);
                rt.write_u32(slot, v + node + 1);
                sys.release(&mut rt, lock);
                rt.compute(us(70));
            }
            sys.barrier(&mut rt, b, 0);
            let mut sum = 0;
            for slot in 0..6 {
                sum += rt.read_u32(slot * 8);
            }
            assert_eq!(sum, 12 * (1 + 2));
            sys.barrier(&mut rt, b, 1);
            rt.shutdown();
        });
    }
    cluster.run()
}

/// Same shape, but with packet loss and the ARQ transport, so retransmit
/// paths are part of the pinned behavior too.
fn two_node_lossy_run(check: Option<Checker>, trace: Option<Tracer>) -> SimReport {
    two_node_lossy_run_regions(check, trace, Vec::new())
}

fn two_node_lossy_run_regions(
    check: Option<Checker>,
    trace: Option<Tracer>,
    regions: Vec<RegionSpec>,
) -> SimReport {
    const N: usize = 2;
    let cfg = SimConfig::fast_test().with_loss(0.10, 77);
    let mut cluster = Cluster::new(cfg, N);
    if let Some(check) = &check {
        check.attach(&mut cluster);
    }
    if let Some(trace) = &trace {
        trace.attach(&mut cluster);
    }
    for node in 0..N as u32 {
        let check = check.clone();
        let trace = trace.clone();
        let regions = regions.clone();
        cluster.spawn_node(node, move |ctx| {
            let ack = AckMode::Arq {
                window: 16,
                rto: ms(5),
            };
            let mut lrc = LrcConfig::small_test(N);
            lrc.regions = regions.clone();
            let mut rt = Runtime::with_ack_mode(ctx, lrc, CoreConfig::fast_test(), ack);
            if let Some(check) = &check {
                check.install(&mut rt);
            }
            if let Some(trace) = &trace {
                trace.install(&mut rt);
            }
            let sys = carlos::sync::install(&mut rt);
            let lock = LockSpec::new(1, 0);
            for _ in 0..6 {
                sys.acquire(&mut rt, lock);
                let v = rt.read_u32(0);
                rt.write_u32(0, v + 1);
                sys.release(&mut rt, lock);
            }
            sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
            assert_eq!(rt.read_u32(0), 12);
            sys.barrier(&mut rt, BarrierSpec::global(9, 0), 1);
            rt.shutdown();
        });
    }
    cluster.run()
}

/// The lossy workload again, with a scripted fault plan layered on top of
/// the uniform loss: a Gilbert–Elliott burst window and a node pause. Pins
/// the fault subsystem's behavior — GE chain consumption, deferred
/// deliveries, ARQ recovery — not just its absence.
fn two_node_chaos_run(check: Option<Checker>, trace: Option<Tracer>) -> SimReport {
    two_node_chaos_run_regions(check, trace, Vec::new())
}

fn two_node_chaos_run_regions(
    check: Option<Checker>,
    trace: Option<Tracer>,
    regions: Vec<RegionSpec>,
) -> SimReport {
    use carlos::sim::{FaultPlan, GeParams};
    const N: usize = 2;
    let plan = FaultPlan::new(0xC4A05)
        .burst_loss(
            0,
            ms(60_000),
            GeParams {
                p_enter_bad: 0.30,
                p_exit_bad: 0.25,
                loss_good: 0.0,
                loss_bad: 0.7,
            },
        )
        .pause(1, us(20), ms(12));
    let cfg = SimConfig::fast_test().with_loss(0.05, 77).with_fault_plan(plan);
    let mut cluster = Cluster::new(cfg, N);
    if let Some(check) = &check {
        check.attach(&mut cluster);
    }
    if let Some(trace) = &trace {
        trace.attach(&mut cluster);
    }
    for node in 0..N as u32 {
        let check = check.clone();
        let trace = trace.clone();
        let regions = regions.clone();
        cluster.spawn_node(node, move |ctx| {
            let ack = AckMode::Arq {
                window: 16,
                rto: ms(5),
            };
            let mut lrc = LrcConfig::small_test(N);
            lrc.regions = regions.clone();
            let mut rt = Runtime::with_ack_mode(ctx, lrc, CoreConfig::fast_test(), ack);
            if let Some(check) = &check {
                check.install(&mut rt);
            }
            if let Some(trace) = &trace {
                trace.install(&mut rt);
            }
            let sys = carlos::sync::install(&mut rt);
            let lock = LockSpec::new(1, 0);
            for _ in 0..6 {
                sys.acquire(&mut rt, lock);
                let v = rt.read_u32(0);
                rt.write_u32(0, v + 1);
                sys.release(&mut rt, lock);
            }
            sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
            assert_eq!(rt.read_u32(0), 12);
            sys.barrier(&mut rt, BarrierSpec::global(9, 0), 1);
            rt.shutdown();
        });
    }
    cluster.run()
}

fn assert_matches_golden(actual: &SimReport, golden: &str, what: &str) {
    let fp = fingerprint(actual);
    assert_eq!(
        fp.trim(),
        golden.trim(),
        "{what}: simulated results diverged from the pinned golden.\n\
         If this change is *intended* to alter protocol behavior, update\n\
         the golden below; if it is a host-performance change, it has a bug.\n\
         actual fingerprint:\n{fp}"
    );
}

const GOLDEN_TWO_NODE: &str = "\
elapsed=92339996 events=373
net messages=98 payload_bytes=21738 dropped=0
node0 buckets User=840000 Unix=55500000 CarlOS=3855098 Idle=31508298
node0 counters barrier.waits=2 carlos.accepted=14 carlos.diff_requests=12 carlos.diff_requests_served=11 carlos.discarded=13 carlos.forwarded=23 carlos.notices_applied=12 carlos.page_requests_served=1 carlos.sent=50 carlos.sent.release=15 carlos.sent.request=35 carlos.sent.system=24 lock.acquires=12 lock.releases=12 lrc.diffs_applied=12 lrc.diffs_created=12 lrc.intervals_created=12 lrc.notices_applied=12 lrc.pages_installed=0 lrc.records_resident=48 lrc.remote_faults=12 lrc.write_faults=12 net.loopback=25 net.sent=49 net.sent_bytes=14959
node1 buckets User=840000 Unix=36750000 CarlOS=2310098 Idle=52439898
node1 counters barrier.waits=2 carlos.accepted=14 carlos.diff_requests=11 carlos.diff_requests_served=12 carlos.discarded=11 carlos.notices_applied=12 carlos.page_requests=1 carlos.sent=25 carlos.sent.release=11 carlos.sent.release_nt=2 carlos.sent.request=12 carlos.sent.system=24 lock.acquires=12 lock.releases=12 lrc.diffs_applied=11 lrc.diffs_created=12 lrc.intervals_created=12 lrc.notices_applied=12 lrc.pages_installed=1 lrc.records_resident=47 lrc.remote_faults=12 lrc.write_faults=12 net.sent=49 net.sent_bytes=6779";

const GOLDEN_TWO_NODE_LOSSY: &str = "\
elapsed=5045320 events=61
net messages=21 payload_bytes=672 dropped=2
node0 buckets User=0 Unix=26000 CarlOS=0 Idle=5019320
node0 counters barrier.waits=2 carlos.accepted=3 carlos.diff_requests=1 carlos.discarded=2 carlos.forwarded=1 carlos.notices_applied=1 carlos.page_requests_served=1 carlos.sent=6 carlos.sent.release=4 carlos.sent.request=2 carlos.sent.system=2 lock.acquires=1 lock.local_reacquires=5 lock.releases=6 lrc.diffs_applied=1 lrc.diffs_created=1 lrc.intervals_created=1 lrc.notices_applied=1 lrc.pages_installed=0 lrc.records_resident=4 lrc.remote_faults=1 lrc.write_faults=1 net.loopback=3 net.sent=11 net.sent_bytes=412 transport.acks=5 transport.retransmits=1
node1 buckets User=0 Unix=20000 CarlOS=0 Idle=5023280
node1 counters barrier.waits=2 carlos.accepted=3 carlos.diff_requests_served=1 carlos.notices_applied=1 carlos.page_requests=1 carlos.sent=3 carlos.sent.release_nt=2 carlos.sent.request=1 carlos.sent.system=2 lock.acquires=1 lock.local_reacquires=5 lock.releases=6 lrc.diffs_applied=0 lrc.diffs_created=1 lrc.intervals_created=1 lrc.notices_applied=1 lrc.pages_installed=1 lrc.records_resident=3 lrc.remote_faults=1 lrc.write_faults=1 net.sent=10 net.sent_bytes=260 transport.acks=5";

const GOLDEN_TWO_NODE_CHAOS: &str = "\
elapsed=203708874 events=93
net messages=43 payload_bytes=1575 dropped=19
net faults burst=17 partition=0 crash=0 deferred=1
node0 buckets User=0 Unix=45000 CarlOS=0 Idle=203663874
node0 counters barrier.waits=2 carlos.accepted=3 carlos.diff_requests=1 carlos.discarded=2 carlos.forwarded=1 carlos.notices_applied=1 carlos.page_requests_served=1 carlos.sent=6 carlos.sent.release=4 carlos.sent.request=2 carlos.sent.system=2 lock.acquires=1 lock.local_reacquires=5 lock.releases=6 lrc.diffs_applied=1 lrc.diffs_created=1 lrc.intervals_created=1 lrc.notices_applied=1 lrc.pages_installed=0 lrc.records_resident=4 lrc.remote_faults=1 lrc.write_faults=1 net.loopback=3 net.sent=27 net.sent_bytes=961 transport.acks=8 transport.duplicates=3 transport.flush_abandoned=1 transport.flush_gave_up=1 transport.retransmits=14
node1 buckets User=0 Unix=25000 CarlOS=0 Idle=43683914
node1 counters barrier.waits=2 carlos.accepted=3 carlos.diff_requests_served=1 carlos.notices_applied=1 carlos.page_requests=1 carlos.sent=3 carlos.sent.release_nt=2 carlos.sent.request=1 carlos.sent.system=2 lock.acquires=1 lock.local_reacquires=5 lock.releases=6 lrc.diffs_applied=0 lrc.diffs_created=1 lrc.intervals_created=1 lrc.notices_applied=1 lrc.pages_installed=1 lrc.records_resident=3 lrc.remote_faults=1 lrc.write_faults=1 net.sent=16 net.sent_bytes=614 transport.acks=5 transport.retransmits=6";

#[test]
fn two_node_chaos_report_is_pinned() {
    assert_matches_golden(
        &two_node_chaos_run(None, None),
        GOLDEN_TWO_NODE_CHAOS,
        "2-node chaos (burst loss + pause) workload",
    );
}

#[test]
fn two_node_report_is_pinned() {
    assert_matches_golden(
        &two_node_run(None, None),
        GOLDEN_TWO_NODE,
        "2-node osdi94 workload",
    );
}

#[test]
fn two_node_lossy_report_is_pinned() {
    assert_matches_golden(
        &two_node_lossy_run(None, None),
        GOLDEN_TWO_NODE_LOSSY,
        "2-node lossy ARQ workload",
    );
}

/// Hinting regions at the legacy default granule must be indistinguishable
/// from no hints at all: the region table resolves to the same granule
/// boundaries as plain paging, so all three pinned fingerprints stay
/// bit-identical even though the hinted fault-batching machinery is armed
/// (each access range still spans exactly one granule).
#[test]
fn default_granule_regions_leave_goldens_pinned() {
    // osdi94 layout: 32 KiB region, 8 KiB pages — split into two hinted
    // regions that both use the default 8 KiB granule.
    let osdi = vec![
        RegionSpec::new(0, 1 << 14, 8192),
        RegionSpec::new(1 << 14, 1 << 14, 8192),
    ];
    assert_matches_golden(
        &two_node_run_regions(None, None, osdi),
        GOLDEN_TWO_NODE,
        "2-node osdi94 workload with default-granule regions",
    );
    // small_test layout: 4 KiB region, 64 B pages.
    let small = vec![
        RegionSpec::new(0, 2048, 64),
        RegionSpec::new(2048, 2048, 64),
    ];
    assert_matches_golden(
        &two_node_lossy_run_regions(None, None, small.clone()),
        GOLDEN_TWO_NODE_LOSSY,
        "2-node lossy ARQ workload with default-granule regions",
    );
    assert_matches_golden(
        &two_node_chaos_run_regions(None, None, small),
        GOLDEN_TWO_NODE_CHAOS,
        "2-node chaos workload with default-granule regions",
    );
}

const GOLDEN_TSP_MIXED_GRANULARITY: &str = "\
elapsed=38476116 events=728
net messages=126 payload_bytes=9973 dropped=0
node0 buckets User=37578500 Unix=246000 CarlOS=0 Idle=649256
node0 counters app.done_ns=38467036 barrier.waits=3 carlos.accepted=33 carlos.batch_requests_served=1 carlos.discarded=30 carlos.forwarded=56 carlos.notices_applied=39 carlos.page_requests_served=5 carlos.sent=119 carlos.sent.release=33 carlos.sent.request=86 carlos.sent.system=4 carlos.update_diffs_received=28 lock.acquires=30 lock.local_reacquires=20 lock.releases=50 lrc.diffs_applied=39 lrc.diffs_created=41 lrc.intervals_created=30 lrc.notices_applied=39 lrc.pages_installed=0 lrc.records_resident=138 lrc.remote_faults=0 lrc.write_faults=41 net.loopback=60 net.sent=63 net.sent_bytes=5248 tsp.expansions=71157
node1 buckets User=37701500 Unix=126000 CarlOS=0 Idle=648616
node1 counters app.done_ns=38469396 barrier.waits=3 carlos.accepted=31 carlos.batch_requests=1 carlos.batched_fetches=2 carlos.discarded=28 carlos.notices_applied=41 carlos.page_requests=5 carlos.sent=59 carlos.sent.release=28 carlos.sent.release_nt=3 carlos.sent.request=28 carlos.sent.system=4 carlos.update_diffs_dropped=7 carlos.update_diffs_received=29 lock.acquires=28 lock.local_reacquires=18 lock.releases=46 lrc.diffs_applied=34 lrc.diffs_created=39 lrc.intervals_created=28 lrc.notices_applied=41 lrc.pages_installed=5 lrc.records_resident=131 lrc.remote_faults=4 lrc.write_faults=39 net.sent=63 net.sent_bytes=4725 tsp.expansions=71403";

const GOLDEN_SOR_MIXED_GRANULARITY: &str = "\
elapsed=5191904 events=130
net messages=54 payload_bytes=5464 dropped=0
node0 buckets User=5030800 Unix=54000 CarlOS=0 Idle=104744
node0 counters app.done_ns=5167584 barrier.waits=10 carlos.accepted=10 carlos.batch_requests=1 carlos.batched_fetches=12 carlos.diff_requests=8 carlos.diff_requests_served=7 carlos.notices_applied=88 carlos.page_requests=12 carlos.page_requests_served=1 carlos.sent=10 carlos.sent.release=10 carlos.sent.system=17 lrc.diffs_applied=8 lrc.diffs_created=89 lrc.intervals_created=9 lrc.notices_applied=88 lrc.pages_installed=12 lrc.records_resident=114 lrc.remote_faults=9 lrc.write_faults=89 net.sent=27 net.sent_bytes=2025
node1 buckets User=30800 Unix=54000 CarlOS=0 Idle=5107104
node1 counters app.done_ns=5170472 barrier.waits=10 carlos.accepted=10 carlos.batch_requests_served=1 carlos.diff_requests=7 carlos.diff_requests_served=8 carlos.notices_applied=89 carlos.page_requests=1 carlos.page_requests_served=12 carlos.sent=10 carlos.sent.release_nt=10 carlos.sent.system=17 lrc.diffs_applied=7 lrc.diffs_created=88 lrc.intervals_created=8 lrc.notices_applied=89 lrc.pages_installed=1 lrc.records_resident=112 lrc.remote_faults=8 lrc.write_faults=88 net.sent=27 net.sent_bytes=3439";

/// Mixed-granularity runs are pinned too: TSP with 64 B fine granules on
/// its hot scalars and SOR with row-sized granules, both with fetch
/// coalescing and write-notice aggregation switched on. These fingerprints
/// define the variable-granularity protocol's behavior; they are expected
/// to differ from the legacy goldens (that is the point), but must never
/// drift run to run.
#[test]
fn mixed_granularity_reports_are_pinned() {
    let mut tsp = carlos::apps::tsp::TspConfig::test(2, carlos::apps::tsp::TspVariant::Lock);
    tsp.granularity_hints = true;
    tsp.core = tsp.core.with_coalesced_fetches().with_aggregated_notices();
    let r = carlos::apps::tsp::run_tsp(&tsp);
    assert_matches_golden(
        &r.app.report,
        GOLDEN_TSP_MIXED_GRANULARITY,
        "mixed-granularity 2-node TSP",
    );

    let mut sor = carlos::apps::sor::SorConfig::test(2);
    sor.granularity_hints = true;
    sor.core = sor.core.with_coalesced_fetches().with_aggregated_notices();
    let r = carlos::apps::sor::run_sor(&sor);
    assert_matches_golden(
        &r.app.report,
        GOLDEN_SOR_MIXED_GRANULARITY,
        "mixed-granularity 2-node SOR",
    );
}

/// The only pins of a cluster larger than the paper's four nodes: 8-node
/// TSP and SOR, by their wire-level totals and the application's answer.
#[test]
fn eight_node_reports_are_pinned() {
    let totals = |r: &SimReport| {
        format!(
            "elapsed={} events={} messages={} payload_bytes={}",
            r.elapsed, r.events_processed, r.net.messages, r.net.payload_bytes
        )
    };
    let tsp = carlos::apps::tsp::run_tsp(&carlos::apps::tsp::TspConfig::test(
        8,
        carlos::apps::tsp::TspVariant::Lock,
    ));
    assert_eq!(
        format!("{} best_len={}", totals(&tsp.app.report), tsp.best_len),
        "elapsed=13523020 events=4616 messages=1219 payload_bytes=106900 best_len=25972"
    );
    let sor = carlos::apps::sor::run_sor(&carlos::apps::sor::SorConfig::test(8));
    assert_eq!(
        format!("{} checksum={:#018x}", totals(&sor.app.report), sor.checksum.to_bits()),
        "elapsed=5498056 events=1358 messages=380 payload_bytes=43665 checksum=0x4096a841a0000000"
    );
}

/// The consistency oracle is a pure observer: installing it on every node
/// and attaching it to the wire must leave the pinned fingerprints —
/// virtual times, event and message counts, every per-node counter —
/// bit-identical, while the oracle itself reports a clean run.
#[test]
fn checker_is_invisible_to_the_goldens() {
    for (run, golden, what) in [
        (
            two_node_run as fn(Option<Checker>, Option<Tracer>) -> SimReport,
            GOLDEN_TWO_NODE,
            "checked 2-node osdi94 workload",
        ),
        (
            two_node_lossy_run,
            GOLDEN_TWO_NODE_LOSSY,
            "checked 2-node lossy ARQ workload",
        ),
        (
            two_node_chaos_run,
            GOLDEN_TWO_NODE_CHAOS,
            "checked 2-node chaos workload",
        ),
    ] {
        let check = Checker::new(2);
        assert_matches_golden(&run(Some(check.clone()), None), golden, what);
        check.assert_clean();
    }
}

/// The tracer, too, is a pure observer: with it installed on every node,
/// attached to the wire, and recording flows, spans, and metrics, the
/// pinned fingerprints — including the chaos workload's retransmit and
/// fault accounting — stay bit-identical, while the tracer itself comes
/// back non-empty.
#[test]
fn tracer_is_invisible_to_the_goldens() {
    for (run, golden, what) in [
        (
            two_node_run as fn(Option<Checker>, Option<Tracer>) -> SimReport,
            GOLDEN_TWO_NODE,
            "traced 2-node osdi94 workload",
        ),
        (
            two_node_lossy_run,
            GOLDEN_TWO_NODE_LOSSY,
            "traced 2-node lossy ARQ workload",
        ),
        (
            two_node_chaos_run,
            GOLDEN_TWO_NODE_CHAOS,
            "traced 2-node chaos workload",
        ),
    ] {
        let trace = Tracer::new(2);
        assert_matches_golden(&run(None, Some(trace.clone())), golden, what);
        assert!(!trace.flows().is_empty(), "{what}: tracer saw no flows");
        assert!(
            trace.metrics().counter("msg.sent.REQUEST") > 0,
            "{what}: tracer saw no REQUEST sends"
        );
    }
}

