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

use carlos::apps::{
    launch, Answer, App, QsortVariant, Scale, Spec, Traffic, TspVariant, Tweak, WaterVariant,
};
use carlos::check::Checker;
use carlos::trace::Tracer;
use carlos::core::{CoreConfig, Runtime};
use carlos::lrc::{LrcConfig, RegionSpec};
use carlos::sim::time::{ms, us};
use carlos::sim::transport::AckMode;
use carlos::sim::{Bucket, Cluster, SimConfig, SimReport};
use carlos::sync::{BarrierSpec, LockSpec};
use carlos::util::event::{Event, Sink};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

/// The transport of the lossy and chaos workloads.
const ARQ: AckMode = AckMode::Arq {
    window: 16,
    rto: ms(5),
};

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

/// A cluster of two nodes whose event stream feeds `sink`, if any.
fn observed(cfg: SimConfig, sink: Option<Rc<dyn Sink>>) -> Cluster {
    let mut cluster = Cluster::new(cfg, 2);
    if let Some(sink) = sink {
        cluster.observe(sink);
    }
    cluster
}

/// A fixed 2-node lock/barrier workload over shared pages: enough traffic
/// to exercise diff creation/application, page fetches, interval records,
/// and the wire codec end to end.
fn two_node_run(sink: Option<Rc<dyn Sink>>) -> SimReport {
    two_node_run_regions(sink, Vec::new())
}

fn two_node_run_regions(sink: Option<Rc<dyn Sink>>, regions: Vec<RegionSpec>) -> SimReport {
    const N: usize = 2;
    let mut cluster = observed(SimConfig::osdi94(), sink);
    for node in 0..N as u32 {
        let regions = regions.clone();
        cluster.spawn_node(node, move |ctx| {
            let mut lrc = LrcConfig::osdi94(N, 1 << 15);
            lrc.regions = regions.clone();
            let mut rt = Runtime::new(ctx, lrc, CoreConfig::osdi94());
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
fn two_node_lossy_run(sink: Option<Rc<dyn Sink>>) -> SimReport {
    two_node_lossy_run_regions(sink, Vec::new())
}

fn two_node_lossy_run_regions(sink: Option<Rc<dyn Sink>>, regions: Vec<RegionSpec>) -> SimReport {
    const N: usize = 2;
    let cfg = SimConfig::fast_test().with_loss(0.10, 77).with_ack(ARQ);
    let mut cluster = observed(cfg, sink);
    for node in 0..N as u32 {
        let regions = regions.clone();
        cluster.spawn_node(node, move |ctx| {
            let mut lrc = LrcConfig::small_test(N);
            lrc.regions = regions.clone();
            let mut rt = Runtime::new(ctx, lrc, CoreConfig::fast_test());
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
fn two_node_chaos_run(sink: Option<Rc<dyn Sink>>) -> SimReport {
    two_node_chaos_run_regions(sink, Vec::new())
}

fn two_node_chaos_run_regions(sink: Option<Rc<dyn Sink>>, regions: Vec<RegionSpec>) -> SimReport {
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
    let cfg = SimConfig::fast_test()
        .with_loss(0.05, 77)
        .with_fault_plan(plan)
        .with_ack(ARQ);
    let mut cluster = observed(cfg, sink);
    for node in 0..N as u32 {
        let regions = regions.clone();
        cluster.spawn_node(node, move |ctx| {
            let mut lrc = LrcConfig::small_test(N);
            lrc.regions = regions.clone();
            let mut rt = Runtime::new(ctx, lrc, CoreConfig::fast_test());
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
        &two_node_chaos_run(None),
        GOLDEN_TWO_NODE_CHAOS,
        "2-node chaos (burst loss + pause) workload",
    );
}

#[test]
fn two_node_report_is_pinned() {
    assert_matches_golden(
        &two_node_run(None),
        GOLDEN_TWO_NODE,
        "2-node osdi94 workload",
    );
}

#[test]
fn two_node_lossy_report_is_pinned() {
    assert_matches_golden(
        &two_node_lossy_run(None),
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
        &two_node_run_regions(None, osdi),
        GOLDEN_TWO_NODE,
        "2-node osdi94 workload with default-granule regions",
    );
    // small_test layout: 4 KiB region, 64 B pages.
    let small = vec![
        RegionSpec::new(0, 2048, 64),
        RegionSpec::new(2048, 2048, 64),
    ];
    assert_matches_golden(
        &two_node_lossy_run_regions(None, small.clone()),
        GOLDEN_TWO_NODE_LOSSY,
        "2-node lossy ARQ workload with default-granule regions",
    );
    assert_matches_golden(
        &two_node_chaos_run_regions(None, small),
        GOLDEN_TWO_NODE_CHAOS,
        "2-node chaos workload with default-granule regions",
    );
}

/// History: before an owner stopped shipping eager diffs to a node it never
/// served the granule (node 1 dropped 7 of them), `elapsed=38476116
/// events=728`, `messages=126 payload_bytes=9973`, node 1 installing 5
/// pages; the shorter releases re-time the branch-and-bound search. Then
/// `payload_bytes=9819`, node 0 creating 48 diffs and node 1 applying 41,
/// while a page a write left byte-identical was announced with an empty
/// diff.
const GOLDEN_TSP_MIXED_GRANULARITY: &str = "\
elapsed=38309308 events=721
net messages=128 payload_bytes=9789 dropped=0
node0 buckets User=37410500 Unix=242000 CarlOS=0 Idle=654448
node0 counters app.done_ns=38300228 barrier.waits=3 carlos.accepted=32 carlos.batch_requests_served=1 carlos.discarded=29 carlos.forwarded=55 carlos.notices_applied=34 carlos.page_requests_served=6 carlos.sent=116 carlos.sent.release=32 carlos.sent.request=84 carlos.sent.system=5 carlos.update_diffs_received=27 lock.acquires=29 lock.local_reacquires=25 lock.releases=54 lrc.diffs_applied=34 lrc.diffs_created=47 lrc.intervals_created=29 lrc.notices_applied=34 lrc.pages_installed=0 lrc.records_resident=138 lrc.remote_faults=0 lrc.write_faults=48 net.loopback=57 net.sent=64 net.sent_bytes=5406 tsp.expansions=70821
node1 buckets User=37524000 Unix=128000 CarlOS=0 Idle=657308
node1 counters app.done_ns=38302588 barrier.waits=3 carlos.accepted=31 carlos.batch_requests=1 carlos.batched_fetches=2 carlos.discarded=28 carlos.notices_applied=47 carlos.page_requests=6 carlos.sent=59 carlos.sent.release=28 carlos.sent.release_nt=3 carlos.sent.request=28 carlos.sent.system=5 carlos.update_diffs_received=26 lock.acquires=28 lock.local_reacquires=16 lock.releases=44 lrc.diffs_applied=40 lrc.diffs_created=34 lrc.intervals_created=28 lrc.notices_applied=47 lrc.pages_installed=6 lrc.records_resident=131 lrc.remote_faults=5 lrc.write_faults=34 net.sent=64 net.sent_bytes=4383 tsp.expansions=71048";

/// History: `elapsed=5191904 events=130`, `messages=54 payload_bytes=5464`,
/// node 0 creating 89 diffs and node 1 88, while a page a write left
/// byte-identical was announced with an empty diff: node 1's writes leave
/// every page it writes as it was, so it now announces none.
const GOLDEN_SOR_MIXED_GRANULARITY: &str = "\
elapsed=5124872 events=74
net messages=26 payload_bytes=3581 dropped=0
node0 buckets User=5030800 Unix=26000 CarlOS=0 Idle=65712
node0 counters app.done_ns=5100928 barrier.waits=10 carlos.accepted=10 carlos.batch_requests=1 carlos.batched_fetches=11 carlos.notices_applied=0 carlos.page_requests=12 carlos.page_requests_served=1 carlos.sent=10 carlos.sent.release=10 carlos.sent.system=3 lrc.diffs_applied=0 lrc.diffs_created=37 lrc.intervals_created=9 lrc.notices_applied=0 lrc.pages_installed=12 lrc.records_resident=54 lrc.remote_faults=2 lrc.write_faults=89 net.sent=13 net.sent_bytes=1166
node1 buckets User=30800 Unix=26000 CarlOS=0 Idle=5068072
node1 counters app.done_ns=5103720 barrier.waits=10 carlos.accepted=10 carlos.batch_requests_served=1 carlos.notices_applied=37 carlos.page_requests=1 carlos.page_requests_served=12 carlos.sent=10 carlos.sent.release_nt=10 carlos.sent.system=3 lrc.diffs_applied=0 lrc.diffs_created=0 lrc.intervals_created=8 lrc.notices_applied=37 lrc.pages_installed=1 lrc.records_resident=17 lrc.remote_faults=1 lrc.write_faults=88 net.sent=13 net.sent_bytes=2415";

/// Mixed-granularity runs are pinned too: TSP with 64 B fine granules on
/// its hot scalars and SOR with row-sized granules, both with fetch
/// coalescing and write-notice aggregation switched on. These fingerprints
/// define the variable-granularity protocol's behavior; they are expected
/// to differ from the legacy goldens (that is the point), but must never
/// drift run to run. `CoreConfig::variable_granularity` is the whole mode:
/// for every application, `Tweak::Vg` and the switch set on a `Spec`'s
/// core give the same fingerprint, and one that differs from the plain run.
#[test]
fn mixed_granularity_reports_are_pinned() {
    let vg = |app| Spec {
        tweak: Tweak::Vg,
        ..Spec::new(app, 2, Scale::Test)
    };
    for app in [
        App::Tsp(TspVariant::Lock),
        App::Quicksort(QsortVariant::Hybrid1),
        App::Water(WaterVariant::Lock),
        App::Sor,
    ] {
        let switched = Spec {
            core: Some(CoreConfig::fast_test().with_variable_granularity()),
            ..Spec::new(app, 2, Scale::Test)
        };
        let [tweaked, switched, plain] = [vg(app), switched, Spec::new(app, 2, Scale::Test)]
            .map(|spec| fingerprint(&launch(&spec).expect("run").app().report));
        assert_eq!(tweaked, switched, "{}: Tweak::Vg is not the core switch", app.name());
        assert_ne!(tweaked, plain, "{}: the switch changed nothing", app.name());
    }

    let r = launch(&vg(App::Tsp(TspVariant::Lock))).expect("TSP run");
    assert_matches_golden(
        &r.app().report,
        GOLDEN_TSP_MIXED_GRANULARITY,
        "mixed-granularity 2-node TSP",
    );

    let r = launch(&vg(App::Sor)).expect("SOR run");
    assert_matches_golden(
        &r.app().report,
        GOLDEN_SOR_MIXED_GRANULARITY,
        "mixed-granularity 2-node SOR",
    );
}

/// The only pins of a cluster larger than the paper's four nodes: 8-node
/// TSP, SOR and fault-free KV serving, by their wire-level totals and the
/// application's answer. History: KV was `elapsed=104984582 events=10815
/// payload_bytes=384554` while servers pushed slot-header diffs to clients
/// that held no copy of them. While a page a write left byte-identical was
/// announced with an empty diff, SOR was `elapsed=5498056 events=1358
/// messages=380 payload_bytes=43665` and KV `elapsed=104857126
/// payload_bytes=319828`.
#[test]
fn eight_node_reports_are_pinned() {
    let totals = |r: &SimReport| {
        format!(
            "elapsed={} events={} messages={} payload_bytes={}",
            r.elapsed, r.events_processed, r.net.messages, r.net.payload_bytes
        )
    };
    let launched = |app| launch(&Spec::new(app, 8, Scale::Test)).expect("8-node run");
    let tsp = launched(App::Tsp(TspVariant::Lock));
    let Answer::Tsp(t) = &tsp.answer else { unreachable!("a TSP run") };
    assert_eq!(
        format!("{} best_len={}", totals(&tsp.app().report), t.best_len),
        "elapsed=13523020 events=4616 messages=1219 payload_bytes=106900 best_len=25972"
    );
    let sor = launched(App::Sor);
    let Answer::Sor(s) = &sor.answer else { unreachable!("a SOR run") };
    assert_eq!(
        format!("{} checksum={:#018x}", totals(&sor.app().report), s.checksum.to_bits()),
        "elapsed=5380870 events=729 messages=210 payload_bytes=32278 checksum=0x4096a841a0000000"
    );
    let kv = launched(App::Serve(Traffic::Steady));
    let Answer::Serve(kv) = &kv.answer else { unreachable!("a serving run") };
    assert_eq!(
        format!(
            "{} completed={}/{} counters={:?}",
            totals(&kv.app.report),
            kv.totals.client.completed,
            kv.totals.client.attempted,
            kv.counters
        ),
        "elapsed=104856006 events=10831 messages=3332 payload_bytes=319484 completed=1630/1630 counters=[48, 48]"
    );
}

/// One pinned 2-node workload, run with an optional sink.
type Workload = fn(Option<Rc<dyn Sink>>) -> SimReport;

/// The three pinned 2-node workloads, each with its golden and its name.
const WORKLOADS: [(Workload, &str, &str); 3] = [
    (two_node_run, GOLDEN_TWO_NODE, "2-node osdi94 workload"),
    (two_node_lossy_run, GOLDEN_TWO_NODE_LOSSY, "2-node lossy ARQ workload"),
    (two_node_chaos_run, GOLDEN_TWO_NODE_CHAOS, "2-node chaos workload"),
];

/// What the observers of one run saw: the checker's delivery count and the
/// tracer's metrics JSON and flows, for whichever of the two was attached.
type Seen = (Option<usize>, Option<(String, Vec<carlos::trace::Flow>)>);

/// Runs the three pinned workloads with the checker, the tracer, or both
/// attached as one sink. The checker and the tracer are pure consumers of
/// the event stream: the pinned fingerprints — virtual times, event and
/// message counts, every per-node counter, the chaos workload's retransmit
/// and fault accounting — stay bit-identical, the oracle reports a clean
/// run, and the tracer (recording flows and metrics) comes back
/// non-empty. Returns what each observer saw, one entry per workload.
fn observe_goldens(checked: bool, traced: bool) -> Vec<Seen> {
    let mut seen = Vec::new();
    for (run, golden, what) in WORKLOADS {
        let check = checked.then(|| Checker::new(2));
        let trace = traced.then(|| Tracer::metrics_only(2));
        let what = format!("{what}, checked {checked}, traced {traced}");
        let report = run(Some(Rc::new((check.clone(), trace.clone()))));
        assert_matches_golden(&report, golden, &what);
        let deliveries = check.map(|check| {
            check.assert_clean();
            check.deliveries().len()
        });
        let trace = trace.map(|trace| {
            assert!(!trace.flows().is_empty(), "{what}: tracer saw no flows");
            assert!(
                trace.metrics().counter("msg.sent.REQUEST") > 0,
                "{what}: tracer saw no REQUEST sends"
            );
            (trace.metrics().to_json(), trace.flows())
        });
        seen.push((deliveries, trace));
    }
    seen
}

#[test]
fn checker_is_invisible_to_the_goldens() {
    observe_goldens(true, false);
}

#[test]
fn tracer_is_invisible_to_the_goldens() {
    observe_goldens(false, true);
}

/// With both attached, the goldens still hold, and each observer sees
/// beside the other exactly what it sees alone.
#[test]
fn observers_are_invisible_to_the_goldens() {
    let checked = observe_goldens(true, false);
    let traced = observe_goldens(false, true);
    let both = observe_goldens(true, true);
    for (i, (_, _, what)) in WORKLOADS.into_iter().enumerate() {
        assert_eq!(both[i].0, checked[i].0, "{what}: deliveries beside the tracer");
        assert_eq!(both[i].1, traced[i].1, "{what}: trace beside the checker");
    }
}

/// A third consumer of the stream: the FNV-1a hash of every event's `Debug`
/// form, in stream order, and the number of events.
#[derive(Clone)]
struct Digest(Rc<RefCell<(u64, u64, String)>>);

impl Digest {
    fn new() -> Self {
        Self(Rc::new(RefCell::new((0xcbf2_9ce4_8422_2325, 0, String::new()))))
    }

    fn value(&self) -> String {
        let (hash, events, _) = &*self.0.borrow();
        format!("{events} events, fnv {hash:#018x}")
    }
}

impl Sink for Digest {
    fn event(&self, ev: &Event<'_>) {
        let (hash, events, buf) = &mut *self.0.borrow_mut();
        buf.clear();
        let _ = write!(buf, "{ev:?}");
        for b in buf.bytes() {
            *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        *events += 1;
    }
}

/// The whole event stream of each pinned workload, hashed: it repeats
/// run to run, it is the same when the checker and the tracer share the
/// stream with the digest (a three-way fan-out), and it is pinned. It
/// moves when any event, or the order of any two, does.
#[test]
fn event_stream_digests_are_pinned() {
    let pinned = [
        "1184 events, fnv 0x6b730073ddd760bc",
        "156 events, fnv 0x4308ae32a8e05e70",
        "222 events, fnv 0xc4cb95082fa5373d",
    ];
    for ((run, golden, what), pin) in WORKLOADS.into_iter().zip(pinned) {
        let digest = |sink: fn(Digest) -> Rc<dyn Sink>| {
            let d = Digest::new();
            assert_matches_golden(&run(Some(sink(d.clone()))), golden, what);
            d.value()
        };
        let first = digest(|d| Rc::new(d));
        assert_eq!(digest(|d| Rc::new(d)), first, "{what}: stream differs run to run");
        let fanned = digest(|d| Rc::new((Checker::new(2), (Tracer::metrics_only(2), d))));
        assert_eq!(fanned, first, "{what}: stream differs beside the checker and tracer");
        assert_eq!(first, pin, "{what}: event stream digest moved");
    }
}
