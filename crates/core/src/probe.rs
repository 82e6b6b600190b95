//! Passive runtime observation hooks for external consistency checkers.
//!
//! A [`CoreProbe`] sees the runtime's release/acquire protocol events —
//! releases sent, releases accepted (complete or pending on repair), and
//! repair requests — without influencing them. Like the engine-level
//! [`carlos_lrc::EngineObserver`], probing is off by default and charges no
//! simulated time, so probed runs are bit-identical to unprobed ones.

use carlos_lrc::Vc;
use carlos_sim::{NodeId, Ns};

/// Message class for cost attribution, mirroring the paper's §5.4 microcost
/// accounting: the four user-message annotations plus internal
/// consistency-protocol traffic (diff/page/interval requests and replies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MsgClass {
    /// Annotation NONE — plain message, no consistency processing.
    None,
    /// Annotation REQUEST — carries the sender's timestamp.
    Request,
    /// Annotation RELEASE — carries timestamp, records, and diffs.
    Release,
    /// Annotation RELEASE_NT — non-transitive release.
    ReleaseNt,
    /// Internal SYS_* protocol traffic (diff/page/interval fetch).
    System,
}

impl MsgClass {
    /// All classes, in display order.
    pub const ALL: [MsgClass; 5] = [
        MsgClass::None,
        MsgClass::Request,
        MsgClass::Release,
        MsgClass::ReleaseNt,
        MsgClass::System,
    ];

    /// Display name matching the paper's annotation names.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MsgClass::None => "NONE",
            MsgClass::Request => "REQUEST",
            MsgClass::Release => "RELEASE",
            MsgClass::ReleaseNt => "RELEASE_NT",
            MsgClass::System => "SYSTEM",
        }
    }

    /// The class of a user message with annotation `a`.
    #[must_use]
    pub fn of(a: crate::Annotation) -> Self {
        match a {
            crate::Annotation::None => MsgClass::None,
            crate::Annotation::Request => MsgClass::Request,
            crate::Annotation::Release => MsgClass::Release,
            crate::Annotation::ReleaseNt => MsgClass::ReleaseNt,
        }
    }
}

/// The protocol phase a virtual-time charge belongs to (per-message-class
/// cost breakdown, §5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CostPhase {
    /// Sender-side marshalling: timestamp, records, diff creation at send.
    Send,
    /// Receiver-side unmarshalling and timestamp bookkeeping.
    Recv,
    /// Acquire-side acceptance of a release (record application).
    Accept,
    /// Creating a diff to serve a fetch.
    DiffCreate,
    /// Applying a fetched or carried diff to a local page.
    DiffApply,
    /// Copying a whole page to serve (or install from) a page fetch.
    PageCopy,
    /// Applying write notices from fetched interval records.
    NoticeApply,
}

impl CostPhase {
    /// Display name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CostPhase::Send => "send",
            CostPhase::Recv => "recv",
            CostPhase::Accept => "accept",
            CostPhase::DiffCreate => "diff_create",
            CostPhase::DiffApply => "diff_apply",
            CostPhase::PageCopy => "page_copy",
            CostPhase::NoticeApply => "notice_apply",
        }
    }
}

/// What a demand fetch is asking the owner for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FetchKind {
    /// Diffs for a page this node holds an old copy of.
    Diffs,
    /// A full page copy (first access).
    Page,
}

/// Coherence-granule size class of a fetched unit, relative to the
/// cluster's base page size (variable-granularity coherence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GranuleClass {
    /// Sub-page granule (fine-grained shared data).
    Fine,
    /// Exactly the base page size (the legacy unit).
    Page,
    /// Super-page granule (bulk array regions).
    Bulk,
}

impl GranuleClass {
    /// All classes, in display order.
    pub const ALL: [GranuleClass; 3] = [GranuleClass::Fine, GranuleClass::Page, GranuleClass::Bulk];

    /// Classifies a granule of `granule_len` bytes against `page_size`.
    #[must_use]
    pub fn of(granule_len: usize, page_size: usize) -> Self {
        match granule_len.cmp(&page_size) {
            std::cmp::Ordering::Less => GranuleClass::Fine,
            std::cmp::Ordering::Equal => GranuleClass::Page,
            std::cmp::Ordering::Greater => GranuleClass::Bulk,
        }
    }

    /// Display name for reports and counters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GranuleClass::Fine => "fine",
            GranuleClass::Page => "page",
            GranuleClass::Bulk => "bulk",
        }
    }
}

/// Receiver of runtime protocol notifications.
///
/// All methods default to no-ops. Implementations run synchronously on the
/// observed node's proc thread; they may record state (and may panic or
/// abort to escalate a violation) but must not call back into the runtime.
pub trait CoreProbe {
    /// `node` sent a RELEASE (or RELEASE_NT) to `dst` whose required
    /// timestamp is `required` (the sender's timestamp after closing the
    /// release interval).
    fn release_sent(&self, node: NodeId, dst: NodeId, required: &Vc) {
        let _ = (node, dst, required);
    }

    /// `node` ran the acquire side for a RELEASE originated by `origin`.
    /// `complete` is false when the carried records left a causal gap and
    /// the accept is parked pending repair.
    fn release_accepted(&self, node: NodeId, origin: NodeId, required: &Vc, complete: bool) {
        let _ = (node, origin, required, complete);
    }

    /// `node` asked `origin` for the interval records between its own
    /// timestamp `have` and the unmet `want` (the SYS_IVAL_REQ repair).
    fn repair_requested(&self, node: NodeId, origin: NodeId, have: &Vc, want: &Vc) {
        let _ = (node, origin, have, want);
    }

    /// `node` is handing a message of `class` for handler `handler` to its
    /// transport toward `dst`. Fires immediately before the transport-level
    /// send, so a trace layer can pair it with the next
    /// [`carlos_sim::TransportObserver::data_sent`] on the same (node, dst)
    /// pair.
    fn msg_sent(&self, node: NodeId, dst: NodeId, class: MsgClass, handler: u32, at: Ns) {
        let _ = (node, dst, class, handler, at);
    }

    /// `node` decoded an in-order message from `src` and is about to run
    /// its consistency processing and handler. Pairs with the preceding
    /// [`carlos_sim::TransportObserver::data_delivered`] on (node, src).
    fn msg_dispatched(
        &self,
        node: NodeId,
        src: NodeId,
        class: MsgClass,
        handler: u32,
        bytes: usize,
        at: Ns,
    ) {
        let _ = (node, src, class, handler, bytes, at);
    }

    /// `node` charged `ns` of virtual time to protocol work of `phase` on
    /// behalf of a message of `class`. The charge begins at `at`. Summing
    /// these per (class, phase) reproduces the paper's §5.4 microcost
    /// table.
    fn protocol_cost(&self, node: NodeId, class: MsgClass, phase: CostPhase, ns: Ns, at: Ns) {
        let _ = (node, class, phase, ns, at);
    }

    /// `node` issued a demand fetch for `page` to `server` (a page fault
    /// needing diffs or a full copy). Ends at the matching
    /// [`CoreProbe::fetch_finished`].
    fn fetch_started(&self, node: NodeId, server: NodeId, page: u32, kind: FetchKind, at: Ns) {
        let _ = (node, server, page, kind, at);
    }

    /// The reply for `node`'s outstanding fetch of `page` from `server`
    /// arrived and was applied.
    fn fetch_finished(&self, node: NodeId, server: NodeId, page: u32, at: Ns) {
        let _ = (node, server, page, at);
    }

    /// A fetch reply delivered `bytes` of payload (diff bytes or a full
    /// granule copy) for `page`, a granule of size class `class`. Fires
    /// once per fulfilled demand — including each sub-reply of a coalesced
    /// batch — so summing per class reproduces the per-granule-class
    /// traffic columns of the report tables.
    fn fetch_fulfilled(
        &self,
        node: NodeId,
        server: NodeId,
        page: u32,
        class: GranuleClass,
        bytes: usize,
        at: Ns,
    ) {
        let _ = (node, server, page, class, bytes, at);
    }

    /// `node` entered (`begin` true) or left (`begin` false) a blocking
    /// synchronization wait: `what` names the operation ("lock",
    /// "barrier", ...) and `id` the object. Emitted by the sync layer.
    fn sync_wait(&self, node: NodeId, what: &'static str, id: u32, begin: bool, at: Ns) {
        let _ = (node, what, id, begin, at);
    }
}
