//! End-to-end tracer tests: a real two-node DSM program with locks,
//! barriers, and demand fetches, traced, with the metrics export
//! validated by the crate's own JSON parser.

use std::rc::Rc;

use carlos_core::{Annotation, CoreConfig, MsgClass, Runtime};
use carlos_lrc::LrcConfig;
use carlos_sim::{time::ms, AckMode, Cluster, SimConfig};

const ARQ: AckMode = AckMode::Arq {
    window: 8,
    rto: ms(20),
};
use carlos_sync::{BarrierSpec, LockSpec};
use carlos_trace::json::{self, JsonValue};
use carlos_trace::Tracer;

/// Two nodes increment a shared counter under a lock, then meet at a
/// barrier; node 1's reads demand-fetch node 0's writes. Exercises every
/// hook class: sends, dispatches, costs, fetches, and sync waits.
fn traced_run(tracer: &Tracer, ack: AckMode) -> carlos_sim::SimReport {
    let mut cluster = Cluster::new(SimConfig::fast_test().with_ack(ack), 2);
    cluster.observe(Rc::new(tracer.clone()));
    for node in 0..2u32 {
        cluster.spawn_node(node, move |ctx| {
            let mut rt = Runtime::new(ctx, LrcConfig::small_test(2), CoreConfig::osdi94());
            let sys = carlos_sync::install(&mut rt);
            let lock = LockSpec::new(1, 0);
            let barrier = BarrierSpec::global(900, 0);
            for _ in 0..3 {
                sys.acquire(&mut rt, lock);
                let v = rt.read_u32(0);
                rt.write_u32(0, v + 1);
                sys.release(&mut rt, lock);
            }
            sys.barrier(&mut rt, barrier, 1);
            assert_eq!(rt.read_u32(0), 6);
            sys.barrier(&mut rt, barrier, 2);
            rt.shutdown();
        });
    }
    cluster.run()
}

#[test]
fn tracer_records_flows_and_metrics() {
    let tracer = Tracer::metrics_only(2);
    traced_run(&tracer, AckMode::Implicit);

    // Flows: plenty of cross-node traffic, all of it correlated.
    let flows = tracer.flows();
    assert!(flows.len() > 10, "only {} flows", flows.len());
    let classified = flows.iter().filter(|f| f.class.is_some()).count();
    assert_eq!(
        classified,
        flows.len(),
        "every data frame should pair with a core send intent"
    );
    for f in &flows {
        // Timestamps are causally ordered along the flow.
        let msg = f.msg_at.expect("send intent");
        let sent = f.sent_at.expect("transport send");
        assert!(msg <= sent, "send intent after transport send");
        if let Some(ready) = f.ready_at {
            assert!(sent <= ready, "delivered before sent");
            if let Some(disp) = f.dispatched_at {
                assert!(ready <= disp, "dispatched before delivered");
            }
        }
        assert_eq!(f.retransmits, 0, "lossless run retransmitted");
        assert_eq!(f.drops, 0, "lossless run dropped");
    }

    // Metrics: message-class accounting is self-consistent.
    let m = tracer.metrics();
    let sent: u64 = MsgClass::ALL
        .iter()
        .map(|c| m.counter(&format!("msg.sent.{}", c.name())))
        .sum();
    let dispatched: u64 = MsgClass::ALL
        .iter()
        .map(|c| m.counter(&format!("msg.dispatched.{}", c.name())))
        .sum();
    assert!(sent > 0, "no sends recorded");
    assert_eq!(sent, dispatched, "every sent message must dispatch");
    assert!(m.counter("msg.sent.REQUEST") > 0, "lock protocol sends REQUESTs");
    assert!(m.counter("msg.sent.RELEASE") > 0, "lock handoff sends RELEASEs");
    assert!(m.histogram("wait.lock acquire").is_some());
    assert!(m.histogram("wait.barrier").is_some());
    assert!(m.histograms().any(|(k, _)| k.starts_with("cost.")));
    assert!(m.histogram("wire.latency").is_some());
    assert!(m.counter("fetch.diffs") + m.counter("fetch.page") > 0);
}

#[test]
fn metrics_json_is_well_formed() {
    let tracer = Tracer::metrics_only(2);
    traced_run(&tracer, AckMode::Implicit);
    let mj = tracer.metrics().to_json();
    let doc = json::parse(&mj).expect("metrics JSON must parse");
    let counters = doc
        .get("counters")
        .and_then(JsonValue::as_object)
        .expect("counters");
    assert!(!counters.is_empty());
    assert!(doc.get("histograms").and_then(JsonValue::as_object).is_some());
}

/// Wire frames are counted by their transport kind; a payload too short
/// for a transport header is "other".
#[test]
fn wire_frames_are_counted_by_kind() {
    use carlos_util::event::{Event, Sink};
    let tracer = Tracer::metrics_only(2);
    for payload in [&[0u8, 0, 0, 0, 0][..], &[1, 0, 0, 0, 0], &[0, 0, 0, 0]] {
        tracer.event(&Event::WireSent { src: 0, dst: 1, at: 0, payload });
    }
    let m = tracer.metrics();
    let counts = ["data", "ack", "ping", "other"].map(|k| m.counter(&format!("wire.sent.{k}")));
    assert_eq!(counts, [1, 1, 0, 1]);
}

#[test]
fn traced_exports_are_deterministic() {
    let a = Tracer::metrics_only(2);
    traced_run(&a, ARQ);
    let b = Tracer::metrics_only(2);
    traced_run(&b, ARQ);
    assert_eq!(a.flows(), b.flows());
    assert_eq!(a.metrics().to_json(), b.metrics().to_json());
}

/// The tracer must not perturb the simulation: fingerprints with and
/// without it are identical. (The root-level golden test covers the pinned
/// goldens; this covers an arbitrary ARQ program.)
#[test]
fn traced_and_untraced_reports_match() {
    let traced = {
        let t = Tracer::metrics_only(2);
        traced_run(&t, ARQ)
    };
    let untraced = {
        let mut cluster = Cluster::new(SimConfig::fast_test().with_ack(ARQ), 2);
        for node in 0..2u32 {
            cluster.spawn_node(node, move |ctx| {
                let mut rt = Runtime::new(ctx, LrcConfig::small_test(2), CoreConfig::osdi94());
                let sys = carlos_sync::install(&mut rt);
                let lock = LockSpec::new(1, 0);
                let barrier = BarrierSpec::global(900, 0);
                for _ in 0..3 {
                    sys.acquire(&mut rt, lock);
                    let v = rt.read_u32(0);
                    rt.write_u32(0, v + 1);
                    sys.release(&mut rt, lock);
                }
                sys.barrier(&mut rt, barrier, 1);
                assert_eq!(rt.read_u32(0), 6);
                sys.barrier(&mut rt, barrier, 2);
                rt.shutdown();
            });
        }
        cluster.run()
    };
    assert_eq!(traced.elapsed, untraced.elapsed);
    assert_eq!(traced.events_processed, untraced.events_processed);
    assert_eq!(traced.net, untraced.net);
    assert_eq!(traced.node_buckets, untraced.node_buckets);
    assert_eq!(traced.node_counters, untraced.node_counters);
}

/// A raw `send` with a `None` annotation still traces end to end, and the
/// sink stays alive across the run.
#[test]
fn none_annotated_sends_trace_too() {
    let tracer = Tracer::metrics_only(2);
    let mut cluster = Cluster::new(SimConfig::fast_test(), 2);
    cluster.observe(Rc::new(tracer.clone()));
    cluster.spawn_node(0, move |ctx| {
        let mut rt = Runtime::new(ctx, LrcConfig::small_test(2), CoreConfig::fast_test());
        for i in 0..4u32 {
            rt.send(1, 7, i.to_le_bytes().to_vec(), Annotation::None);
        }
        let _ = rt.wait_accepted(8);
        rt.shutdown();
    });
    cluster.spawn_node(1, move |ctx| {
        let mut rt = Runtime::new(ctx, LrcConfig::small_test(2), CoreConfig::fast_test());
        for _ in 0..4 {
            let _ = rt.wait_accepted(7);
        }
        rt.send(0, 8, vec![], Annotation::None);
        rt.shutdown();
    });
    cluster.run();
    let m = tracer.metrics();
    assert!(m.counter("msg.sent.NONE") >= 5);
    assert_eq!(
        m.counter("msg.sent.NONE"),
        m.counter("msg.dispatched.NONE")
    );
    let none_flows = tracer
        .flows()
        .into_iter()
        .filter(|f| f.class == Some(MsgClass::None) && f.handler == Some(7))
        .count();
    assert_eq!(none_flows, 4, "all four payload sends flow-tracked");
}
