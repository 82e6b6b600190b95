//! Causal event tracing and cost attribution for the CarlOS simulator.
//!
//! `carlos-trace` attaches a [`Tracer`] to a simulated cluster and keeps,
//! as the run unfolds, two things its readers read:
//!
//! - **A flow table** ([`Tracer::flows`]) — every transport data frame is
//!   identified by `(src, dst, seq)` and threaded from the core's send
//!   intent through wire transmission, loss, ARQ retransmission, in-order
//!   delivery, and handler dispatch. No trace id is added to the wire: the
//!   id is the transport sequence number already in the frame header, so
//!   traced runs keep bit-identical wire traffic.
//! - **A metrics registry** ([`Metrics`]) of deterministic counters and
//!   virtual-time histograms keyed by message class and protocol phase —
//!   demand fetches, lock/barrier/queue waits and every protocol-cost
//!   charge among them — reproducing the paper's §5.4 microcost
//!   accounting (REQUEST−NONE, RELEASE−NONE + per-write-notice, ...). It
//!   renders as JSON via [`Metrics::to_json`].
//!
//! Like `carlos-check`, the tracer is a pure consumer of the run's event
//! stream ([`carlos_util::event`]): it charges no virtual time, consumes no
//! randomness, and sends no messages, so a traced run produces a
//! bit-identical [`carlos_sim::SimReport`] fingerprint to the same run
//! without it (see the `observers_are_invisible_to_the_goldens` test).
//!
//! # Usage
//!
//! ```no_run
//! use std::rc::Rc;
//! use carlos_trace::Tracer;
//! # let mut cluster = carlos_sim::Cluster::new(carlos_sim::SimConfig::default(), 2);
//! let tracer = Tracer::metrics_only(2);
//! cluster.observe(Rc::new(tracer.clone())); // every layer of every node
//! let report = cluster.run();
//! println!("{} flows, {}", tracer.flows().len(), tracer.metrics().to_json());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;

use std::{cell::RefCell, collections::BTreeMap, collections::VecDeque, fmt, rc::Rc};

use carlos_sim::{
    transport::{frame_header, KIND_ACK, KIND_DATA, KIND_PING, KIND_PONG},
    NodeId, Ns,
};
use carlos_util::event::{CostPhase, Event, FetchKind, GranuleClass, MsgClass, Sink};

/// The workspace's JSON module, re-exported because `benchmark/` imports it
/// as `carlos::trace::json`.
pub use carlos_util::json;
pub use metrics::{Metrics, VtHistogram};

/// Identity of one transport data frame: the causal flow id. Unique per
/// run because per-(sender, receiver) sequence numbers never repeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FlowKey {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Transport sequence number on that (src, dst) pair.
    pub seq: u32,
}

/// The life of one message, send intent through handler dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flow {
    /// Causal identity.
    pub key: FlowKey,
    /// Message class, when the sender's core reported the send (None for
    /// raw transport traffic).
    pub class: Option<MsgClass>,
    /// Destination handler id, when known.
    pub handler: Option<u32>,
    /// Sealed wire-frame length in bytes.
    pub bytes: usize,
    /// Virtual time of the core's send intent ([`Event::MsgSent`]).
    pub msg_at: Option<Ns>,
    /// First transport transmission time.
    pub sent_at: Option<Ns>,
    /// Wire transmission attempts observed (initial + retransmits that
    /// reached the wire; loopback frames never touch the wire).
    pub wire_sends: u32,
    /// Go-back-N retransmissions of this frame.
    pub retransmits: u32,
    /// Wire-level drops of this frame (loss injection).
    pub drops: u32,
    /// Duplicate deliveries suppressed by the receiver.
    pub duplicates: u32,
    /// First arrival in the destination mailbox.
    pub delivered_at: Option<Ns>,
    /// Released to the application in order by the receiving transport.
    pub ready_at: Option<Ns>,
    /// Decoded and dispatched by the receiving runtime.
    pub dispatched_at: Option<Ns>,
}

impl Flow {
    fn new(key: FlowKey, bytes: usize) -> Self {
        Self {
            key,
            class: None,
            handler: None,
            bytes,
            msg_at: None,
            sent_at: None,
            wire_sends: 0,
            retransmits: 0,
            drops: 0,
            duplicates: 0,
            delivered_at: None,
            ready_at: None,
            dispatched_at: None,
        }
    }
}

/// FIFO correlation queues keyed by a (node, peer) pair.
type PendingFifo<T> = BTreeMap<(NodeId, NodeId), VecDeque<T>>;

struct State {
    flows: BTreeMap<(NodeId, NodeId, u32), Flow>,
    /// Core send intents not yet paired with a transport `DataSent`,
    /// FIFO per (node, dst). Pairing is exact because the transport
    /// assigns sequence numbers in the order the core hands messages over.
    pending_send: PendingFifo<(MsgClass, u32, Ns)>,
    /// Frames released in order but not yet dispatched, FIFO per
    /// (node, src).
    pending_dispatch: PendingFifo<(NodeId, NodeId, u32)>,
    /// Start times of open sync waits, a stack per (node, op, id).
    open_waits: BTreeMap<(NodeId, &'static str, u32), Vec<Ns>>,
    /// Open demand fetches per (node, server, page).
    open_fetches: BTreeMap<(NodeId, NodeId, u32), (FetchKind, Ns)>,
    metrics: Metrics,
}

impl State {
    fn flow(&mut self, src: NodeId, dst: NodeId, seq: u32, bytes: usize) -> &mut Flow {
        self.flows
            .entry((src, dst, seq))
            .or_insert_with(|| Flow::new(FlowKey { src, dst, seq }, bytes))
    }
}

/// The causal tracer: a [`Sink`] of the run's event stream. Cheap to clone
/// (all clones share one state); attach it to the cluster before the run
/// (`Cluster::observe`).
#[derive(Clone)]
pub struct Tracer {
    inner: Rc<RefCell<State>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tracer({} flows)", self.inner.borrow().flows.len())
    }
}

impl Tracer {
    /// A tracer keeping the metrics registry and the flow table. The node
    /// count is unread (nothing is sized by it); the argument stays until
    /// the benchmark harness, which calls `metrics_only(n)`, is refreshed.
    #[must_use]
    pub fn metrics_only(_n_nodes: usize) -> Self {
        Self {
            inner: Rc::new(RefCell::new(State {
                flows: BTreeMap::new(),
                pending_send: BTreeMap::new(),
                pending_dispatch: BTreeMap::new(),
                open_waits: BTreeMap::new(),
                open_fetches: BTreeMap::new(),
                metrics: Metrics::default(),
            })),
        }
    }

    /// Snapshot of all recorded flows, in `(src, dst, seq)` order.
    #[must_use]
    pub fn flows(&self) -> Vec<Flow> {
        self.inner.borrow().flows.values().cloned().collect()
    }

    /// Snapshot of the metrics registry.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        self.inner.borrow().metrics.clone()
    }
}

// Pre-interned metric keys for the per-message hot paths. Building each
// key with `format!` costs a heap allocation per message, which dominated
// the tracer's overhead; every key is drawn from a small finite enum
// product, so an exhaustive match returns a `&'static str` with no
// allocation. The matches are compiler-checked against the enums
// in `carlos_util::event`: adding a variant fails the build here instead of
// silently minting a new runtime string.

fn msg_sent_key(class: MsgClass) -> &'static str {
    match class {
        MsgClass::None => "msg.sent.NONE",
        MsgClass::Request => "msg.sent.REQUEST",
        MsgClass::Release => "msg.sent.RELEASE",
        MsgClass::ReleaseNt => "msg.sent.RELEASE_NT",
        MsgClass::System => "msg.sent.SYSTEM",
    }
}

fn msg_dispatched_key(class: MsgClass) -> &'static str {
    match class {
        MsgClass::None => "msg.dispatched.NONE",
        MsgClass::Request => "msg.dispatched.REQUEST",
        MsgClass::Release => "msg.dispatched.RELEASE",
        MsgClass::ReleaseNt => "msg.dispatched.RELEASE_NT",
        MsgClass::System => "msg.dispatched.SYSTEM",
    }
}

fn flow_latency_key(class: MsgClass) -> &'static str {
    match class {
        MsgClass::None => "flow.latency.NONE",
        MsgClass::Request => "flow.latency.REQUEST",
        MsgClass::Release => "flow.latency.RELEASE",
        MsgClass::ReleaseNt => "flow.latency.RELEASE_NT",
        MsgClass::System => "flow.latency.SYSTEM",
    }
}

fn cost_key(class: MsgClass, phase: CostPhase) -> &'static str {
    use CostPhase as P;
    use MsgClass as M;
    match (class, phase) {
        (M::None, P::Send) => "cost.NONE.send",
        (M::None, P::Recv) => "cost.NONE.recv",
        (M::None, P::Accept) => "cost.NONE.accept",
        (M::None, P::DiffCreate) => "cost.NONE.diff_create",
        (M::None, P::DiffApply) => "cost.NONE.diff_apply",
        (M::None, P::PageCopy) => "cost.NONE.page_copy",
        (M::None, P::NoticeApply) => "cost.NONE.notice_apply",
        (M::Request, P::Send) => "cost.REQUEST.send",
        (M::Request, P::Recv) => "cost.REQUEST.recv",
        (M::Request, P::Accept) => "cost.REQUEST.accept",
        (M::Request, P::DiffCreate) => "cost.REQUEST.diff_create",
        (M::Request, P::DiffApply) => "cost.REQUEST.diff_apply",
        (M::Request, P::PageCopy) => "cost.REQUEST.page_copy",
        (M::Request, P::NoticeApply) => "cost.REQUEST.notice_apply",
        (M::Release, P::Send) => "cost.RELEASE.send",
        (M::Release, P::Recv) => "cost.RELEASE.recv",
        (M::Release, P::Accept) => "cost.RELEASE.accept",
        (M::Release, P::DiffCreate) => "cost.RELEASE.diff_create",
        (M::Release, P::DiffApply) => "cost.RELEASE.diff_apply",
        (M::Release, P::PageCopy) => "cost.RELEASE.page_copy",
        (M::Release, P::NoticeApply) => "cost.RELEASE.notice_apply",
        (M::ReleaseNt, P::Send) => "cost.RELEASE_NT.send",
        (M::ReleaseNt, P::Recv) => "cost.RELEASE_NT.recv",
        (M::ReleaseNt, P::Accept) => "cost.RELEASE_NT.accept",
        (M::ReleaseNt, P::DiffCreate) => "cost.RELEASE_NT.diff_create",
        (M::ReleaseNt, P::DiffApply) => "cost.RELEASE_NT.diff_apply",
        (M::ReleaseNt, P::PageCopy) => "cost.RELEASE_NT.page_copy",
        (M::ReleaseNt, P::NoticeApply) => "cost.RELEASE_NT.notice_apply",
        (M::System, P::Send) => "cost.SYSTEM.send",
        (M::System, P::Recv) => "cost.SYSTEM.recv",
        (M::System, P::Accept) => "cost.SYSTEM.accept",
        (M::System, P::DiffCreate) => "cost.SYSTEM.diff_create",
        (M::System, P::DiffApply) => "cost.SYSTEM.diff_apply",
        (M::System, P::PageCopy) => "cost.SYSTEM.page_copy",
        (M::System, P::NoticeApply) => "cost.SYSTEM.notice_apply",
    }
}

fn fetch_count_key(kind: FetchKind) -> &'static str {
    match kind {
        FetchKind::Diffs => "fetch.diffs",
        FetchKind::Page => "fetch.page",
    }
}

fn fetch_latency_key(kind: FetchKind) -> &'static str {
    match kind {
        FetchKind::Diffs => "fetch.latency.diffs",
        FetchKind::Page => "fetch.latency.page",
    }
}

fn fetch_class_key(class: GranuleClass) -> &'static str {
    match class {
        GranuleClass::Fine => "fetch.class.fine",
        GranuleClass::Page => "fetch.class.page",
        GranuleClass::Bulk => "fetch.class.bulk",
    }
}

fn fetch_bytes_key(class: GranuleClass) -> &'static str {
    match class {
        GranuleClass::Fine => "fetch.bytes.fine",
        GranuleClass::Page => "fetch.bytes.page",
        GranuleClass::Bulk => "fetch.bytes.bulk",
    }
}

/// Interned `wait.{what}` keys for the sync ops the sync library reports
/// today; unknown names fall back to an allocated key so future ops stay
/// correct (just not allocation-free) until added here.
fn wait_key(what: &'static str) -> Option<&'static str> {
    match what {
        "barrier" => Some("wait.barrier"),
        "lock acquire" => Some("wait.lock acquire"),
        "semaphore P" => Some("wait.semaphore P"),
        _ => None,
    }
}

impl Sink for Tracer {
    fn event(&self, ev: &Event<'_>) {
        self.inner.borrow_mut().on(ev);
    }
}

impl State {
    fn on(&mut self, ev: &Event<'_>) {
        match *ev {
            Event::ReleaseSent { .. } => self.metrics.count("protocol.release_sent", 1),
            Event::ReleaseAccepted { complete, .. } => {
                self.metrics.count("protocol.release_accepted", 1);
                if !complete {
                    self.metrics.count("protocol.release_incomplete", 1);
                }
            }
            Event::RepairRequested { .. } => self.metrics.count("protocol.repair_requested", 1),
            Event::MsgSent { node, dst, class, handler, at } => {
                self.metrics.count(msg_sent_key(class), 1);
                self.pending_send
                    .entry((node, dst))
                    .or_default()
                    .push_back((class, handler, at));
            }
            Event::MsgDispatched { node, src, class, handler, bytes, at } => {
                self.metrics.count(msg_dispatched_key(class), 1);
                if let Some(key) = self
                    .pending_dispatch
                    .get_mut(&(node, src))
                    .and_then(VecDeque::pop_front)
                {
                    let flow = self.flows.get_mut(&key).expect("pending flow exists");
                    flow.dispatched_at = Some(at);
                    if flow.class.is_none() {
                        flow.class = Some(class);
                        flow.handler = Some(handler);
                        flow.bytes = bytes;
                    }
                    if let (Some(sent), Some(cls)) = (flow.msg_at.or(flow.sent_at), flow.class) {
                        let lat = at.saturating_sub(sent);
                        self.metrics.observe(flow_latency_key(cls), lat);
                    }
                }
            }
            Event::ProtocolCost { class, phase, ns, .. } => {
                self.metrics.observe(cost_key(class, phase), ns);
            }
            Event::FetchStarted { node, server, page, kind, at } => {
                self.metrics.count(fetch_count_key(kind), 1);
                self.open_fetches.insert((node, server, page), (kind, at));
            }
            Event::FetchFinished { node, server, page, at } => {
                if let Some((kind, began)) = self.open_fetches.remove(&(node, server, page)) {
                    self.metrics
                        .observe(fetch_latency_key(kind), at.saturating_sub(began));
                }
            }
            Event::FetchFulfilled { granule, bytes, .. } => {
                self.metrics.count(fetch_class_key(granule), 1);
                self.metrics.count(fetch_bytes_key(granule), bytes as u64);
            }
            Event::SyncWait { node, what, id, begin: true, at } => {
                self.open_waits.entry((node, what, id)).or_default().push(at);
            }
            Event::SyncWait { node, what, id, begin: false, at } => {
                let Some(began) = self.open_waits.get_mut(&(node, what, id)).and_then(Vec::pop)
                else {
                    return;
                };
                let elapsed = at.saturating_sub(began);
                match wait_key(what) {
                    Some(key) => self.metrics.observe(key, elapsed),
                    None => self.metrics.observe(&format!("wait.{what}"), elapsed),
                }
            }
            Event::DataSent { node, dst, seq, bytes, at } => {
                let intent = self
                    .pending_send
                    .get_mut(&(node, dst))
                    .and_then(VecDeque::pop_front);
                let flow = self.flow(node, dst, seq, bytes);
                flow.sent_at = Some(at);
                flow.bytes = bytes;
                if let Some((class, handler, msg_at)) = intent {
                    flow.class = Some(class);
                    flow.handler = Some(handler);
                    flow.msg_at = Some(msg_at);
                    let delay = at.saturating_sub(msg_at);
                    self.metrics.observe("flow.send_delay", delay);
                }
            }
            Event::DataQueued { .. } => self.metrics.count("transport.queued", 1),
            Event::DataRetransmitted { node, dst, seq, .. } => {
                self.metrics.count("transport.retransmits", 1);
                if let Some(f) = self.flows.get_mut(&(node, dst, seq)) {
                    f.retransmits += 1;
                }
            }
            Event::DataDelivered { node, src, seq, bytes, at } => {
                let flow = self.flow(src, node, seq, bytes);
                flow.ready_at = Some(at);
                let key = flow.key;
                self.pending_dispatch
                    .entry((node, src))
                    .or_default()
                    .push_back((key.src, key.dst, key.seq));
            }
            Event::DataDuplicate { node, src, seq, .. } => {
                self.metrics.count("transport.duplicates", 1);
                if let Some(f) = self.flows.get_mut(&(src, node, seq)) {
                    f.duplicates += 1;
                }
            }
            Event::WireSent { src, dst, payload, .. } => match frame_header(payload) {
                Some((KIND_DATA, seq)) => {
                    self.metrics.count("wire.sent.data", 1);
                    // Only annotate flows the transport's `DataSent`
                    // created: foreign traffic that merely looks like a
                    // data frame must not fabricate flow entries.
                    if let Some(f) = self.flows.get_mut(&(src, dst, seq)) {
                        f.wire_sends += 1;
                    }
                }
                Some((KIND_ACK, _)) => self.metrics.count("wire.sent.ack", 1),
                Some((KIND_PING, _)) => self.metrics.count("wire.sent.ping", 1),
                Some((KIND_PONG, _)) => self.metrics.count("wire.sent.pong", 1),
                _ => self.metrics.count("wire.sent.other", 1),
            },
            Event::WireDropped { src, dst, payload, .. } => {
                self.metrics.count("wire.dropped", 1);
                if let Some((KIND_DATA, seq)) = frame_header(payload) {
                    if let Some(f) = self.flows.get_mut(&(src, dst, seq)) {
                        f.drops += 1;
                    }
                }
            }
            Event::WireDelivered { src, dst, sent_at, delivered_at, payload } => {
                self.metrics
                    .observe("wire.latency", delivered_at.saturating_sub(sent_at));
                if let Some((KIND_DATA, seq)) = frame_header(payload) {
                    if let Some(f) = self.flows.get_mut(&(src, dst, seq)) {
                        if f.delivered_at.is_none() {
                            f.delivered_at = Some(delivered_at);
                        }
                    }
                }
            }
            Event::IntervalClosed { rec, .. } => {
                self.metrics.count("lrc.intervals_closed", 1);
                self.metrics.count("lrc.write_notices", rec.pages.len() as u64);
            }
            Event::RecordApplied { .. } => self.metrics.count("lrc.records_applied", 1),
            Event::PageInstalled { .. } => self.metrics.count("lrc.pages_installed", 1),
            Event::MemRead { .. } | Event::MemWrite { .. } => {}
        }
    }
}
