//! One typed stream of protocol events, and the sinks that consume it.
//!
//! Every layer of a run reports what it does as an [`Event`] into the
//! run's one [`Sink`]: the simulator's wire, each node's transport, LRC
//! engine and runtime, and the sync library above them. The consistency
//! checker and the causal tracer are two consumers of the same stream; a
//! pair `(A, B)` of sinks fans every event out to both, in declaration
//! order. A run is single-threaded, so the stream has exactly one total
//! order.
//!
//! Emission is passive: a sink charges no virtual time, draws no
//! randomness and sends nothing, so an observed run is event-for-event
//! identical to an unobserved one. Each layer holds an
//! `Option<Rc<dyn Sink>>`; with nothing attached an emission point costs
//! one branch and builds no event ([`emit`]).
//!
//! Node ids are `u32`, virtual times `u64` nanoseconds, and vector times
//! travel as `&[u32]` slices (component `i` is node `i`'s interval index),
//! so this crate stays below every crate that emits.

use std::{fmt, rc::Rc};

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
}

/// The protocol phase a virtual-time charge belongs to (per-message-class
/// cost breakdown, §5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CostPhase {
    /// Sender-side marshalling: timestamp, records and carried diffs.
    Send,
    /// Receiver-side unmarshalling and timestamp bookkeeping.
    Recv,
    /// Acquire-side acceptance of a release (record application).
    Accept,
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

/// An interval record as the stream carries it: who created it, its index
/// in the creator's sequence, the creator's vector time at creation, and
/// the pages modified in it (its write notices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval<'a> {
    /// Creating node.
    pub creator: u32,
    /// 1-based index within the creator's interval sequence.
    pub index: u32,
    /// Creator's vector time at creation (`vt[creator] == index`).
    pub vt: &'a [u32],
    /// The write notices.
    pub pages: &'a [u32],
}

/// One protocol event. `node` is always the node the event happened on;
/// each variant's doc names what its other fields carry.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event<'a> {
    /// LRC engine: a read of `data.len()` bytes at `addr` completed,
    /// returning `data`, at the node's vector time `vt`.
    MemRead { node: u32, addr: usize, data: &'a [u8], vt: &'a [u32] },
    /// LRC engine: a write of `data` at `addr` completed at vector time
    /// `vt`; it belongs to the still-open interval `vt[node] + 1`.
    MemWrite { node: u32, addr: usize, data: &'a [u8], vt: &'a [u32] },
    /// LRC engine: the node closed an interval (a release or acquire
    /// endpoint with at least one dirty page), creating `rec`.
    IntervalClosed { node: u32, rec: Interval<'a> },
    /// LRC engine: the node applied the remote record `rec` (the acquire
    /// side), advancing its vector time to cover it.
    RecordApplied { node: u32, rec: Interval<'a> },
    /// LRC engine: a collection round moved the node's clock for `creator`
    /// to `index` without applying that creator's records in between: each
    /// names only pages the node holds no copy of, and the round's discard
    /// erases them everywhere.
    ClockAdvanced { node: u32, creator: u32, index: u32 },
    /// LRC engine: the node installed a full copy of `page` reflecting the
    /// modifications in `applied`.
    PageInstalled { node: u32, page: u32, applied: &'a [u32] },
    /// Runtime: a RELEASE (or RELEASE_NT) to `dst` requires `required`, the
    /// sender's vector time after closing the release interval.
    ReleaseSent { node: u32, dst: u32, required: &'a [u32] },
    /// Runtime: the acquire side of a RELEASE from `origin` ran; with
    /// `complete` false the carried records left a causal gap and the
    /// accept waits on repair.
    ReleaseAccepted { node: u32, origin: u32, required: &'a [u32], complete: bool },
    /// Runtime: the node asked `origin` for the records between its own
    /// vector time `have` and the unmet `want` (the SYS_IVAL_REQ repair).
    RepairRequested { node: u32, origin: u32, have: &'a [u32], want: &'a [u32] },
    /// Runtime: a message of `class` for `handler` is handed to the
    /// transport toward `dst`, immediately before the transport's
    /// [`Event::DataSent`] on the same (node, dst) pair.
    MsgSent { node: u32, dst: u32, class: MsgClass, handler: u32, at: u64 },
    /// Runtime: an in-order message of `bytes` from `src` was decoded and
    /// is about to be processed; it pairs with the preceding
    /// [`Event::DataDelivered`] on (node, src).
    MsgDispatched { node: u32, src: u32, class: MsgClass, handler: u32, bytes: usize, at: u64 },
    /// Runtime: `ns` of virtual time, starting at `at`, charged to
    /// protocol work of `phase` for a message of `class`. Summed per
    /// (class, phase) this is the paper's §5.4 microcost table.
    ProtocolCost { node: u32, class: MsgClass, phase: CostPhase, ns: u64, at: u64 },
    /// Runtime: a demand fetch of `page` went to `server`; it ends at the
    /// matching [`Event::FetchFinished`].
    FetchStarted { node: u32, server: u32, page: u32, kind: FetchKind, at: u64 },
    /// Runtime: the reply to the node's outstanding fetch of `page` from
    /// `server` arrived and was applied.
    FetchFinished { node: u32, server: u32, page: u32, at: u64 },
    /// Runtime: a fetch reply delivered `bytes` of payload for `page`, a
    /// granule of class `granule`; once per fulfilled demand, each
    /// sub-reply of a coalesced batch included.
    FetchFulfilled {
        node: u32, server: u32, page: u32, granule: GranuleClass, bytes: usize, at: u64,
    },
    /// Sync library: the node entered (`begin`) or left a blocking wait on
    /// object `id` of operation `what` ("lock acquire", "barrier", ...).
    SyncWait { node: u32, what: &'static str, id: u32, begin: bool, at: u64 },
    /// Transport: data frame `seq` of `bytes` (sealed, header included)
    /// went to the wire toward `dst`, loopback included. `(node, dst, seq)`
    /// names the frame for the whole run.
    DataSent { node: u32, dst: u32, seq: u32, bytes: usize, at: u64 },
    /// Transport: a message of `bytes` could not enter the ARQ window and
    /// was queued unsealed; its [`Event::DataSent`] comes later.
    DataQueued { node: u32, dst: u32, bytes: usize, at: u64 },
    /// Transport: a go-back-N timeout retransmitted frame `seq`.
    DataRetransmitted { node: u32, dst: u32, seq: u32, bytes: usize, at: u64 },
    /// Transport: frame `seq` from `src` was released to the node in order
    /// (`bytes` is the body, header stripped).
    DataDelivered { node: u32, src: u32, seq: u32, bytes: usize, at: u64 },
    /// Transport: a duplicate of an already-delivered frame was suppressed.
    DataDuplicate { node: u32, src: u32, seq: u32, at: u64 },
    /// Wire: a datagram from `src` went onto the wire toward `dst` (it may
    /// still be dropped). Loopback datagrams skip the wire and are not
    /// reported by any wire event.
    WireSent { src: u32, dst: u32, at: u64, payload: &'a [u8] },
    /// Wire: loss injection (uniform, burst or partition) dropped the
    /// datagram just sent.
    WireDropped { src: u32, dst: u32, at: u64, payload: &'a [u8] },
    /// Wire: a datagram from `src` was appended to `dst`'s mailbox. The
    /// event loop emits it, outside any node, with the kernel borrowed: a
    /// sink must only record it.
    WireDelivered { src: u32, dst: u32, sent_at: u64, delivered_at: u64, payload: &'a [u8] },
}

/// A consumer of the event stream. It is called synchronously where the
/// event happens; it may record (and, for events a node emits, panic or
/// abort the node to escalate a violation) but must not call back into the
/// layer that emitted.
pub trait Sink {
    /// Consumes one event.
    fn event(&self, ev: &Event<'_>);
}

/// Fan-out: `A` sees every event first, then `B`.
impl<A: Sink, B: Sink> Sink for (A, B) {
    fn event(&self, ev: &Event<'_>) {
        self.0.event(ev);
        self.1.event(ev);
    }
}

/// An absent consumer ignores the stream.
impl<S: Sink> Sink for Option<S> {
    fn event(&self, ev: &Event<'_>) {
        if let Some(s) = self {
            s.event(ev);
        }
    }
}

impl fmt::Debug for dyn Sink + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sink")
    }
}

/// Reports the event `ev` builds to `sink`; with no sink attached, `ev` is
/// never called, so an unobserved emission point is one branch.
#[inline]
pub fn emit<'a>(sink: &Option<Rc<dyn Sink>>, ev: impl FnOnce() -> Event<'a>) {
    if let Some(s) = sink {
        s.event(&ev());
    }
}
