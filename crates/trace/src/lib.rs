//! Causal event tracing and cost attribution for the CarlOS simulator.
//!
//! `carlos-trace` attaches a [`Tracer`] to a simulated cluster and records,
//! as the run unfolds, a causal picture of every message and every unit of
//! consistency work:
//!
//! - **Causal flows** — every transport data frame is identified by
//!   `(src, dst, seq)` and threaded from the core's send intent through
//!   wire transmission, loss, ARQ retransmission, in-order delivery, and
//!   handler dispatch. No trace id is added to the wire: the id is the
//!   transport sequence number already in the frame header, so traced runs
//!   keep bit-identical wire traffic.
//! - **Spans** — demand fetches (diff/page), lock/barrier/queue waits, and
//!   every protocol-cost charge become virtual-time spans attributed to a
//!   node and a message class.
//! - **A metrics registry** ([`Metrics`]) of deterministic counters and
//!   virtual-time histograms keyed by message class and protocol phase,
//!   reproducing the paper's §5.4 microcost accounting (REQUEST−NONE,
//!   RELEASE−NONE + per-write-notice, ...).
//!
//! Recorded data exports as Chrome trace-event JSON (load in
//! `chrome://tracing` or Perfetto) via [`Tracer::chrome_trace`], as a
//! causal DOT graph via [`Tracer::dot_graph`], and as metrics JSON via
//! [`Metrics::to_json`].
//!
//! Like `carlos-check`, the tracer is a pure observer: its hooks charge no
//! virtual time, consume no randomness, and send no messages, so a run
//! with a tracer installed produces a bit-identical
//! [`carlos_sim::SimReport`] fingerprint to the same run without one (see
//! the `tracer_is_invisible_to_the_goldens` test).
//!
//! # Usage
//!
//! ```no_run
//! use carlos_trace::Tracer;
//! # let mut cluster = carlos_sim::Cluster::new(carlos_sim::SimConfig::default(), 2);
//! let tracer = Tracer::new(2);
//! tracer.attach(&mut cluster); // wire observer
//! // ... inside each node closure:
//! // tracer.install(&mut rt);  // probe + engine + transport observers
//! let report = cluster.run();
//! std::fs::write("trace.json", tracer.chrome_trace()).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
pub mod json;
mod metrics;

use std::{cell::RefCell, collections::BTreeMap, collections::VecDeque, fmt, rc::Rc};

use carlos_core::{CoreProbe, CostPhase, FetchKind, GranuleClass, MsgClass, Runtime};
use carlos_lrc::{EngineObserver, IntervalRecord, Vc};
use carlos_sim::{Cluster, NodeId, Ns, TransportObserver, WireObserver};

pub use json::JsonValue;
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

impl FlowKey {
    /// Parses a wire frame into its causal flow identity. Returns the
    /// transport kind byte alongside the key; `None` for payloads too short
    /// to carry a transport header. Only DATA frames (kind 0) have
    /// per-pair sequence numbers that identify a unique flow; control
    /// frames reuse the field for ack/sequence bookkeeping.
    #[must_use]
    pub fn from_frame(src: NodeId, dst: NodeId, payload: &[u8]) -> Option<(u8, FlowKey)> {
        let (kind, seq) = wire_header(payload)?;
        Some((kind, FlowKey { src, dst, seq }))
    }
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
    /// Virtual time of the core's send intent ([`CoreProbe::msg_sent`]).
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

    /// Display label: class name or "DATA" for raw transport traffic.
    #[must_use]
    pub fn label(&self) -> &'static str {
        self.class.map_or("DATA", MsgClass::name)
    }
}

/// A completed virtual-time span attributed to one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Node the span ran on.
    pub node: NodeId,
    /// Display name.
    pub name: String,
    /// Category: "cost", "fetch", or "sync".
    pub cat: &'static str,
    /// Start of the span (virtual ns).
    pub start: Ns,
    /// End of the span (virtual ns, `>= start`).
    pub end: Ns,
}

/// A point event attributed to one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstantEvent {
    /// Node the event happened on.
    pub node: NodeId,
    /// Display name.
    pub name: String,
    /// Category: "lrc" or "protocol".
    pub cat: &'static str,
    /// Virtual time of the event.
    pub at: Ns,
}

/// FIFO correlation queues keyed by a (node, peer) pair.
type PendingFifo<T> = BTreeMap<(NodeId, NodeId), VecDeque<T>>;

struct State {
    n_nodes: usize,
    record_events: bool,
    flows: BTreeMap<(NodeId, NodeId, u32), Flow>,
    spans: Vec<Span>,
    instants: Vec<InstantEvent>,
    /// Core send intents not yet paired with a transport `data_sent`,
    /// FIFO per (node, dst). Pairing is exact because the transport
    /// assigns sequence numbers in the order the core hands messages over.
    pending_send: PendingFifo<(MsgClass, u32, Ns)>,
    /// Frames released in order but not yet dispatched, FIFO per
    /// (node, src).
    pending_dispatch: PendingFifo<(NodeId, NodeId, u32)>,
    /// Open sync-wait spans, a stack per (node, op, id).
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

    fn push_span(&mut self, span: Span) {
        if self.record_events {
            self.spans.push(span);
        }
    }

    fn push_instant(&mut self, ev: InstantEvent) {
        if self.record_events {
            self.instants.push(ev);
        }
    }
}

/// The causal tracer. Cheap to clone (all clones share one state);
/// [`install`](Tracer::install) it on every node's runtime and
/// [`attach`](Tracer::attach) it to the cluster before the run.
#[derive(Clone)]
pub struct Tracer {
    inner: Rc<RefCell<State>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.borrow();
        write!(
            f,
            "Tracer({} flows, {} spans, {} instants)",
            st.flows.len(),
            st.spans.len(),
            st.instants.len()
        )
    }
}

impl Tracer {
    /// A tracer for an `n_nodes`-node cluster, recording flows, spans, and
    /// metrics.
    #[must_use]
    pub fn new(n_nodes: usize) -> Self {
        Self::build(n_nodes, true)
    }

    /// A tracer that keeps only the metrics registry and flow table —
    /// span/instant event lists stay empty, bounding memory on long runs.
    #[must_use]
    pub fn metrics_only(n_nodes: usize) -> Self {
        Self::build(n_nodes, false)
    }

    fn build(n_nodes: usize, record_events: bool) -> Self {
        Self {
            inner: Rc::new(RefCell::new(State {
                n_nodes,
                record_events,
                flows: BTreeMap::new(),
                spans: Vec::new(),
                instants: Vec::new(),
                pending_send: BTreeMap::new(),
                pending_dispatch: BTreeMap::new(),
                open_waits: BTreeMap::new(),
                open_fetches: BTreeMap::new(),
                metrics: Metrics::default(),
            })),
        }
    }

    /// Install the core probe, engine observer, and transport observer on
    /// one node's runtime. Call from the node closure, before the
    /// application sends messages.
    pub fn install(&self, rt: &mut Runtime) {
        rt.set_probe(Rc::new(self.clone()));
        rt.set_engine_observer(Rc::new(self.clone()));
        rt.set_transport_observer(Rc::new(self.clone()));
    }

    /// Attach the wire observer to the cluster (transmission, loss, and
    /// mailbox-delivery events).
    pub fn attach(&self, cluster: &mut Cluster) {
        cluster.set_observer(Rc::new(self.clone()));
    }

    /// Snapshot of all recorded flows, in `(src, dst, seq)` order.
    #[must_use]
    pub fn flows(&self) -> Vec<Flow> {
        self.inner.borrow().flows.values().cloned().collect()
    }

    /// Snapshot of all completed spans, in completion order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }

    /// Snapshot of all instant events, in observation order.
    #[must_use]
    pub fn instants(&self) -> Vec<InstantEvent> {
        self.inner.borrow().instants.clone()
    }

    /// Snapshot of the metrics registry.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        self.inner.borrow().metrics.clone()
    }

    /// Renders everything recorded as Chrome trace-event JSON (the format
    /// `chrome://tracing` and Perfetto load). Deterministic output.
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        export::chrome_trace(&self.inner.borrow())
    }

    /// Renders the causal message graph in Graphviz DOT: one node per
    /// send/receive endpoint, wire edges between them, program-order
    /// edges along each simulated node. Deterministic output.
    #[must_use]
    pub fn dot_graph(&self) -> String {
        export::dot_graph(&self.inner.borrow())
    }
}

/// Transport frame header layout (mirrors `carlos_sim::transport`): 1 kind
/// byte + 4-byte LE sequence number. Returns `(kind, seq)`, or `None` for
/// payloads too short to carry a header. Public so schedule-exploration
/// tooling can name flows without re-deriving the wire format.
#[must_use]
pub fn wire_header(payload: &[u8]) -> Option<(u8, u32)> {
    if payload.len() < 5 {
        return None;
    }
    let seq = u32::from_le_bytes(payload[1..5].try_into().ok()?);
    Some((payload[0], seq))
}

// Pre-interned metric keys for the per-message hot paths. Building each
// key with `format!` costs a heap allocation per message, which dominated
// the metrics-only tracer's overhead; every key is drawn from a small
// finite enum product, so an exhaustive match returns a `&'static str`
// with no allocation. The matches are compiler-checked against the enums
// in `carlos-core`: adding a variant fails the build here instead of
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

impl CoreProbe for Tracer {
    fn release_sent(&self, _node: NodeId, _dst: NodeId, _required: &Vc) {
        self.inner
            .borrow_mut()
            .metrics
            .count("protocol.release_sent", 1);
    }

    fn release_accepted(&self, _node: NodeId, _origin: NodeId, _required: &Vc, complete: bool) {
        let mut st = self.inner.borrow_mut();
        st.metrics.count("protocol.release_accepted", 1);
        if !complete {
            st.metrics.count("protocol.release_incomplete", 1);
        }
    }

    fn repair_requested(&self, _node: NodeId, _origin: NodeId, _have: &Vc, _want: &Vc) {
        self.inner
            .borrow_mut()
            .metrics
            .count("protocol.repair_requested", 1);
    }

    fn msg_sent(&self, node: NodeId, dst: NodeId, class: MsgClass, handler: u32, at: Ns) {
        let mut st = self.inner.borrow_mut();
        st.metrics.count(msg_sent_key(class), 1);
        st.pending_send
            .entry((node, dst))
            .or_default()
            .push_back((class, handler, at));
    }

    fn msg_dispatched(
        &self,
        node: NodeId,
        src: NodeId,
        class: MsgClass,
        handler: u32,
        bytes: usize,
        at: Ns,
    ) {
        let mut st = self.inner.borrow_mut();
        st.metrics.count(msg_dispatched_key(class), 1);
        if st.record_events {
            st.push_instant(InstantEvent {
                node,
                name: format!("dispatch {} h{handler:#x} from n{src}", class.name()),
                cat: "protocol",
                at,
            });
        }
        if let Some(key) = st
            .pending_dispatch
            .get_mut(&(node, src))
            .and_then(VecDeque::pop_front)
        {
            let flow = st.flows.get_mut(&key).expect("pending flow exists");
            flow.dispatched_at = Some(at);
            if flow.class.is_none() {
                flow.class = Some(class);
                flow.handler = Some(handler);
                flow.bytes = bytes;
            }
            if let (Some(sent), Some(cls)) = (flow.msg_at.or(flow.sent_at), flow.class) {
                let lat = at.saturating_sub(sent);
                st.metrics.observe(flow_latency_key(cls), lat);
            }
        }
    }

    fn protocol_cost(&self, node: NodeId, class: MsgClass, phase: CostPhase, ns: Ns, at: Ns) {
        let mut st = self.inner.borrow_mut();
        st.metrics.observe(cost_key(class, phase), ns);
        if st.record_events {
            st.push_span(Span {
                node,
                name: format!("{} {}", phase.name(), class.name()),
                cat: "cost",
                start: at,
                end: at + ns,
            });
        }
    }

    fn fetch_started(&self, node: NodeId, server: NodeId, page: u32, kind: FetchKind, at: Ns) {
        let mut st = self.inner.borrow_mut();
        st.metrics.count(fetch_count_key(kind), 1);
        st.open_fetches.insert((node, server, page), (kind, at));
    }

    fn fetch_finished(&self, node: NodeId, server: NodeId, page: u32, at: Ns) {
        let mut st = self.inner.borrow_mut();
        if let Some((kind, began)) = st.open_fetches.remove(&(node, server, page)) {
            st.metrics
                .observe(fetch_latency_key(kind), at.saturating_sub(began));
            if st.record_events {
                let what = match kind {
                    FetchKind::Diffs => "diffs",
                    FetchKind::Page => "page",
                };
                st.push_span(Span {
                    node,
                    name: format!("fetch {what} p{page} <- n{server}"),
                    cat: "fetch",
                    start: began,
                    end: at.max(began),
                });
            }
        }
    }

    fn fetch_fulfilled(
        &self,
        _node: NodeId,
        _server: NodeId,
        _page: u32,
        class: GranuleClass,
        bytes: usize,
        _at: Ns,
    ) {
        let mut st = self.inner.borrow_mut();
        st.metrics.count(fetch_class_key(class), 1);
        st.metrics.count(fetch_bytes_key(class), bytes as u64);
    }

    fn sync_wait(&self, node: NodeId, what: &'static str, id: u32, begin: bool, at: Ns) {
        let mut st = self.inner.borrow_mut();
        if begin {
            st.open_waits.entry((node, what, id)).or_default().push(at);
            return;
        }
        if let Some(began) = st
            .open_waits
            .get_mut(&(node, what, id))
            .and_then(Vec::pop)
        {
            let elapsed = at.saturating_sub(began);
            match wait_key(what) {
                Some(key) => st.metrics.observe(key, elapsed),
                None => st.metrics.observe(&format!("wait.{what}"), elapsed),
            }
            if st.record_events {
                st.push_span(Span {
                    node,
                    name: format!("wait {what} #{id}"),
                    cat: "sync",
                    start: began,
                    end: at.max(began),
                });
            }
        }
    }
}

impl TransportObserver for Tracer {
    fn data_sent(&self, node: NodeId, dst: NodeId, seq: u32, bytes: usize, at: Ns) {
        let mut st = self.inner.borrow_mut();
        let intent = st
            .pending_send
            .get_mut(&(node, dst))
            .and_then(VecDeque::pop_front);
        let flow = st.flow(node, dst, seq, bytes);
        flow.sent_at = Some(at);
        flow.bytes = bytes;
        if let Some((class, handler, msg_at)) = intent {
            flow.class = Some(class);
            flow.handler = Some(handler);
            flow.msg_at = Some(msg_at);
            let delay = at.saturating_sub(msg_at);
            st.metrics.observe("flow.send_delay", delay);
        }
    }

    fn data_queued(&self, node: NodeId, dst: NodeId, _bytes: usize, _at: Ns) {
        let _ = (node, dst);
        self.inner.borrow_mut().metrics.count("transport.queued", 1);
    }

    fn data_retransmitted(&self, node: NodeId, dst: NodeId, seq: u32, _bytes: usize, _at: Ns) {
        let mut st = self.inner.borrow_mut();
        st.metrics.count("transport.retransmits", 1);
        if let Some(f) = st.flows.get_mut(&(node, dst, seq)) {
            f.retransmits += 1;
        }
    }

    fn data_delivered(&self, node: NodeId, src: NodeId, seq: u32, bytes: usize, at: Ns) {
        let mut st = self.inner.borrow_mut();
        let flow = st.flow(src, node, seq, bytes);
        flow.ready_at = Some(at);
        let key = flow.key;
        st.pending_dispatch
            .entry((node, src))
            .or_default()
            .push_back((key.src, key.dst, key.seq));
    }

    fn data_duplicate(&self, node: NodeId, src: NodeId, seq: u32, _at: Ns) {
        let mut st = self.inner.borrow_mut();
        st.metrics.count("transport.duplicates", 1);
        if let Some(f) = st.flows.get_mut(&(src, node, seq)) {
            f.duplicates += 1;
        }
    }
}

impl WireObserver for Tracer {
    fn frame_delivered(
        &self,
        _src: NodeId,
        _dst: NodeId,
        _sent_at: Ns,
        _delivered_at: Ns,
        _bytes: usize,
    ) {
        // The payload-carrying companion below does the work.
    }

    fn frame_sent(&self, src: NodeId, dst: NodeId, _at: Ns, payload: &[u8]) {
        let mut st = self.inner.borrow_mut();
        match wire_header(payload) {
            Some((0, seq)) => {
                st.metrics.count("wire.sent.data", 1);
                // Only annotate flows the transport observer created:
                // foreign traffic that merely looks like a data frame must
                // not fabricate flow entries.
                if let Some(f) = st.flows.get_mut(&(src, dst, seq)) {
                    f.wire_sends += 1;
                }
            }
            Some((1, _)) => st.metrics.count("wire.sent.ack", 1),
            Some((2, _)) => st.metrics.count("wire.sent.ping", 1),
            Some((3, _)) => st.metrics.count("wire.sent.pong", 1),
            _ => st.metrics.count("wire.sent.other", 1),
        }
    }

    fn frame_dropped(&self, src: NodeId, dst: NodeId, _at: Ns, payload: &[u8]) {
        let mut st = self.inner.borrow_mut();
        st.metrics.count("wire.dropped", 1);
        if let Some((0, seq)) = wire_header(payload) {
            if let Some(f) = st.flows.get_mut(&(src, dst, seq)) {
                f.drops += 1;
            }
        }
    }

    fn frame_delivered_payload(
        &self,
        src: NodeId,
        dst: NodeId,
        sent_at: Ns,
        delivered_at: Ns,
        payload: &[u8],
    ) {
        let mut st = self.inner.borrow_mut();
        st.metrics
            .observe("wire.latency", delivered_at.saturating_sub(sent_at));
        if let Some((0, seq)) = wire_header(payload) {
            if let Some(f) = st.flows.get_mut(&(src, dst, seq)) {
                if f.delivered_at.is_none() {
                    f.delivered_at = Some(delivered_at);
                }
            }
        }
    }
}

impl EngineObserver for Tracer {
    fn interval_closed(&self, _node: u32, rec: &IntervalRecord) {
        let mut st = self.inner.borrow_mut();
        st.metrics.count("lrc.intervals_closed", 1);
        st.metrics
            .count("lrc.write_notices", rec.pages.len() as u64);
    }

    fn record_applied(&self, _node: u32, _rec: &IntervalRecord) {
        self.inner
            .borrow_mut()
            .metrics
            .count("lrc.records_applied", 1);
    }

    fn page_installed(&self, _node: u32, _page: carlos_lrc::PageId, _applied: &Vc) {
        self.inner
            .borrow_mut()
            .metrics
            .count("lrc.pages_installed", 1);
    }
}
