//! The per-node CarlOS runtime: annotated messaging over the LRC engine.
//!
//! One [`Runtime`] runs on each node's proc. It owns the reliable
//! transport, the LRC engine, the active-message handler table, the
//! per-peer knowledge used to tailor RELEASE payloads, and the system
//! protocol (diff/page fetches and inadequate-consistency repair).
//!
//! Low-level handlers registered with [`Runtime::register`] run at message
//! delivery, receive an [`Env`] (the capabilities a non-blocking handler
//! may use), and must dispose of the message: [`Env::accept`],
//! [`Env::forward`], or [`Env::store`]. Application code above the
//! handlers blocks with [`Runtime::wait_accepted`] and accesses coherent
//! memory through [`Runtime::read_bytes`] / [`Runtime::write_bytes`] and
//! the typed helpers.

use std::{
    collections::{BTreeMap, BTreeSet, HashMap, VecDeque},
    rc::Rc,
};

use carlos_lrc::{Demand, IntervalRecord, LrcConfig, LrcEngine, Vc};
use carlos_sim::{
    time::Ns,
    transport::{AckMode, ArqTuning, Transport},
    Bucket, NodeCtx, NodeId,
};
use carlos_util::codec::{Decoder, Encoder, Wire};

use crate::{
    annotation::Annotation,
    config::CoreConfig,
    message::{AcceptedMsg, Consistency, Message},
    probe::{CoreProbe, CostPhase, FetchKind, GranuleClass, MsgClass},
};

/// First handler id reserved for the system protocol; user handlers must
/// stay below this value.
pub const SYS_HANDLER_BASE: u32 = 0xFFFF_FF00;

const SYS_DIFF_REQ: u32 = SYS_HANDLER_BASE;
const SYS_DIFF_REPLY: u32 = SYS_HANDLER_BASE + 1;
const SYS_PAGE_REQ: u32 = SYS_HANDLER_BASE + 2;
const SYS_PAGE_REPLY: u32 = SYS_HANDLER_BASE + 3;
const SYS_IVAL_REQ: u32 = SYS_HANDLER_BASE + 4;
const SYS_IVAL_REPLY: u32 = SYS_HANDLER_BASE + 5;
const SYS_BATCH_REQ: u32 = SYS_HANDLER_BASE + 6;
const SYS_BATCH_REPLY: u32 = SYS_HANDLER_BASE + 7;

/// A low-level active-message handler.
pub type HandlerFn = Box<dyn FnMut(&mut Env<'_>, Message)>;

/// How many times a pending accept may re-request missing consistency
/// information before the runtime declares a protocol bug.
const MAX_REPAIR_ROUNDS: u32 = 64;

/// How many consecutive fetch-timeout rounds a demand fetch survives
/// before the runtime gives up even without a failure-detector verdict.
const MAX_FETCH_ROUNDS: u32 = 8;

struct PendingAccept {
    msg: Message,
    required: Vc,
    rounds: u32,
}

/// One demand inside a coalesced SYS_BATCH_REQ (kind 0 = diffs, 1 = page;
/// `after`/`through`/`force` are meaningful for diff entries only).
struct BatchEntry {
    kind: u8,
    page: u32,
    after: u32,
    through: u32,
    force: bool,
}

/// The server-side result of one demand fetch: either the diff chain or a
/// full granule copy (first touch, or the TreadMarks page-instead-of-diffs
/// substitution).
enum SubReply {
    /// The server's own diffs for `page` over `(after, through]`; encoded
    /// straight from the engine's store, never cloned.
    Diffs { page: u32, after: u32, through: u32 },
    Page {
        page: u32,
        data: Vec<u8>,
        applied: Vc,
    },
}

impl SubReply {
    /// Appends the reply proper — the whole body of a SYS_DIFF_REPLY or
    /// SYS_PAGE_REPLY, and what follows the kind tag in a batch — after
    /// reserving its exact size, so the buffer grows at most once.
    fn encode_body(&self, enc: &mut Encoder, engine: &LrcEngine) {
        match *self {
            SubReply::Diffs {
                page,
                after,
                through,
            } => {
                let (count, len) = engine
                    .own_diffs(page, after, through)
                    .fold((0, 0), |(count, len), r| (count + 1, len + r.wire_len()));
                enc.reserve(8 + len);
                enc.put_u32(page);
                enc.put_u32(count);
                for r in engine.own_diffs(page, after, through) {
                    r.encode(enc);
                }
            }
            SubReply::Page {
                page,
                ref data,
                ref applied,
            } => {
                enc.reserve(8 + data.len() + applied.wire_len());
                enc.put_u32(page);
                enc.put_bytes(data);
                applied.encode(enc);
            }
        }
    }

    /// Appends this sub-reply to a SYS_BATCH_REPLY body.
    fn encode_into(&self, enc: &mut Encoder, engine: &LrcEngine) {
        enc.put_u8(match self {
            SubReply::Diffs { .. } => 0,
            SubReply::Page { .. } => 1,
        });
        self.encode_body(enc, engine);
    }
}

/// Internal state reachable from handlers (everything except the handler
/// table itself, so dispatch can hold the table disjointly).
struct Core {
    ctx: NodeCtx,
    transport: Transport,
    engine: LrcEngine,
    cfg: CoreConfig,
    /// `known[q]`: this node's belief about node `q`'s vector timestamp,
    /// used to tailor RELEASE payloads ("a description of the sending
    /// node's knowledge of the state of shared memory", §2.1).
    known: Vec<Vc>,
    /// Messages accepted and awaiting user-level consumption.
    accepted: VecDeque<AcceptedMsg>,
    /// Messages stored for deferred disposition (§2.2).
    stored: BTreeMap<u64, Message>,
    next_store_id: u64,
    /// Accepts blocked on inadequate consistency information (§4.3).
    pending_accepts: Vec<PendingAccept>,
    /// Outstanding memory-system requests: (page, serving node).
    inflight: BTreeSet<(u32, NodeId)>,
    /// Diff records received for a page while other requests for the same
    /// page are still outstanding. Diffs from concurrent writers must be
    /// applied together in causal order, so application is deferred until
    /// the page's last outstanding reply arrives.
    pending_diffs: BTreeMap<u32, Vec<carlos_lrc::DiffRecord>>,
    /// `(page, node)` pairs whose page-instead-of-diffs substitution was
    /// rejected as stale; retries demand plain diffs to guarantee progress.
    force_diffs: BTreeSet<(u32, NodeId)>,
    /// Passive protocol-event probe (checker instrumentation); `None` by
    /// default, and never charged for.
    probe: Option<Rc<dyn CoreProbe>>,
}

impl Core {
    fn node(&self) -> NodeId {
        self.ctx.node_id()
    }

    fn charge(&self, dt: Ns) {
        if dt > 0 {
            self.ctx.charge(Bucket::Carlos, dt);
        }
    }

    /// Reports a protocol-work charge to the probe before it lands, so the
    /// probe's `at` marks the start of the charged work. Free when no probe
    /// is installed or nothing is charged.
    fn probe_cost(&self, class: MsgClass, phase: CostPhase, ns: Ns) {
        if ns == 0 {
            return;
        }
        if let Some(p) = &self.probe {
            p.protocol_cost(self.node(), class, phase, ns, self.ctx.now());
        }
    }

    /// Encodes and transmits `msg` to `dst`, charging send-side costs.
    fn transmit(&mut self, dst: NodeId, msg: &Message) {
        let mut cost = self.cfg.effective_msg_send();
        if msg.annotation.carries_timestamp() {
            cost += self.cfg.vt_send;
        }
        if msg.annotation.is_release() {
            if let Consistency::Release { records, diffs, .. } = &msg.consistency {
                cost += self.cfg.release_send + self.cfg.per_record * records.len() as u64;
                // Update strategy: marshalling the attached diffs costs the
                // sender roughly what applying them costs the receiver.
                for d in diffs {
                    cost += self.cfg.diff_apply_cost(d.diff.modified_bytes());
                }
            }
        }
        let class = MsgClass::of(msg.annotation);
        self.probe_cost(class, CostPhase::Send, cost);
        self.charge(cost);
        self.ctx.count("carlos.sent", 1);
        match msg.annotation {
            Annotation::None => self.ctx.count("carlos.sent.none", 1),
            Annotation::Request => self.ctx.count("carlos.sent.request", 1),
            Annotation::Release => self.ctx.count("carlos.sent.release", 1),
            Annotation::ReleaseNt => self.ctx.count("carlos.sent.release_nt", 1),
        }
        if let Some(p) = &self.probe {
            p.msg_sent(self.node(), dst, class, msg.handler, self.ctx.now());
        }
        let pad = self.cfg.wire_header_pad;
        #[cfg(any(test, feature = "seeded-bugs"))]
        if self.cfg.seeded_bug == Some(crate::config::SeededBug::DropNoticeClock)
            && self.cfg.aggregate_notices
        {
            if let Some(mutated) = seeded_drop_notice_clock(msg) {
                self.ctx.count("carlos.seeded_bug_fired", 1);
                self.transport.send(dst, mutated.to_framed_with(pad, true));
                return;
            }
        }
        self.transport
            .send(dst, msg.to_framed_with(pad, self.cfg.aggregate_notices));
    }

    /// Builds a user message from this node with the given annotation,
    /// performing the release-side consistency work when required.
    fn build_message(
        &mut self,
        dst: NodeId,
        handler: u32,
        body: Vec<u8>,
        annotation: Annotation,
    ) -> Message {
        let node = self.node();
        let consistency = match annotation {
            Annotation::None => Consistency::None,
            Annotation::Request => Consistency::Request {
                vt: self.engine.vt().clone(),
            },
            Annotation::Release | Annotation::ReleaseNt => {
                // Sending a RELEASE is a release event: close the interval.
                self.engine.close_interval();
                let required = self.engine.vt().clone();
                if let Some(p) = &self.probe {
                    p.release_sent(node, dst, &required);
                }
                let have = &self.known[dst as usize];
                let records = if annotation == Annotation::Release {
                    self.engine.records_newer_than(have)
                } else {
                    self.engine.own_records_newer_than(have)
                };
                // Update knowledge: once accepted, dst covers what we sent.
                if annotation == Annotation::Release {
                    self.known[dst as usize].join(&required);
                } else {
                    let own = required.get(node);
                    if own > self.known[dst as usize].get(node) {
                        self.known[dst as usize].set(node, own);
                    }
                }
                // Update strategy: ship the diffs the notices describe, so
                // the receiver's pages can stay valid (§4.3). Only locally
                // stored diffs are attached; anything missing is fetched
                // lazily by the receiver exactly as under invalidation.
                //
                // Eager region hints get the same treatment per granule even
                // under the invalidate strategy: data the receiver is certain
                // to re-read travels with its write notices ("the actual data
                // transmission occurs eagerly and asynchronously when the
                // notification message is sent", §3), killing the fetch round
                // trip. Granules whose diffs the sender does not hold are
                // batch-fetched by the receiver right after the notices apply.
                let update_all = self.cfg.strategy == crate::config::Strategy::Update;
                let mut diffs = Vec::new();
                if update_all || self.engine.granules().has_eager() {
                    let mut seen = std::collections::BTreeSet::new();
                    for rec in &records {
                        for &p in &rec.pages {
                            if !update_all && !self.engine.granules().eager_granule(p) {
                                continue;
                            }
                            if let Some(d) = self.engine.stored_diff(rec.node, p, rec.index) {
                                if seen.insert((d.node, d.page, d.first, d.last)) {
                                    diffs.push(d.clone());
                                }
                            }
                        }
                    }
                }
                Consistency::Release {
                    required,
                    records,
                    diffs,
                }
            }
        };
        Message {
            src: node,
            origin: node,
            handler,
            annotation,
            body,
            consistency,
        }
    }

    /// Sends a system-protocol message (NONE annotation, reserved handler).
    fn send_sys(&mut self, dst: NodeId, handler: u32, body: Vec<u8>) {
        let node = self.node();
        let msg = Message {
            src: node,
            origin: node,
            handler,
            annotation: Annotation::None,
            body,
            consistency: Consistency::None,
        };
        self.ctx.count("carlos.sent.system", 1);
        if let Some(p) = &self.probe {
            p.msg_sent(node, dst, MsgClass::System, handler, self.ctx.now());
        }
        let pad = self.cfg.wire_header_pad;
        self.transport.send(dst, msg.to_framed(pad));
    }

    /// Sends `reply` as a message of its own (the unbatched fetch protocol).
    fn send_sub_reply(&mut self, dst: NodeId, reply: &SubReply) {
        let handler = match reply {
            SubReply::Diffs { .. } => SYS_DIFF_REPLY,
            SubReply::Page { .. } => SYS_PAGE_REPLY,
        };
        let mut body = Encoder::with_capacity(0);
        reply.encode_body(&mut body, &self.engine);
        self.send_sys(dst, handler, body.finish_vec());
    }

    /// Performs the acquire side for an accepted message. Returns `true`
    /// when acceptance completed (the message may be queued to user level),
    /// `false` when it is pending on missing consistency information.
    ///
    /// Takes the message by `&mut` so carried records and diffs move into
    /// the interval log and the per-page buffer instead of being cloned.
    fn do_accept(&mut self, msg: &mut Message) -> bool {
        let origin = msg.origin;
        let class = MsgClass::of(msg.annotation);
        match &mut msg.consistency {
            Consistency::None | Consistency::Request { .. } => true,
            Consistency::Release {
                required,
                records,
                diffs,
            } => {
                // Accepting a RELEASE is an acquire: close the current
                // interval, apply the carried write notices, check coverage.
                self.engine.close_interval();
                let notices: usize = records.iter().map(|r| r.pages.len()).sum();
                let cost = self.cfg.release_accept
                    + self.cfg.per_record * records.len() as u64
                    + self.cfg.per_notice * notices as u64;
                self.probe_cost(class, CostPhase::Accept, cost);
                self.charge(cost);
                self.ctx.count("carlos.notices_applied", notices as u64);
                self.engine.apply_records(std::mem::take(records));
                // The gap check must precede any buffered-diff application:
                // a non-dominated required timestamp proves records are
                // missing, and diffs must not apply against a notice set
                // that is not transitively closed.
                let complete = self.engine.vt().dominates(required);
                if let Some(p) = &self.probe {
                    p.release_accepted(self.ctx.node_id(), origin, required, complete);
                }
                if !diffs.is_empty() {
                    // Update strategy: the carried diffs revalidate pages
                    // whose coverage they complete. They go through the
                    // same per-page buffer as fetched diffs so causal
                    // ordering holds across sources.
                    let mut apply_cost = 0;
                    let mut pages: std::collections::BTreeSet<u32> =
                        std::collections::BTreeSet::new();
                    for d in std::mem::take(diffs) {
                        apply_cost += self.cfg.diff_apply_cost(d.diff.modified_bytes());
                        pages.insert(d.page);
                        self.pending_diffs.entry(d.page).or_default().push(d);
                    }
                    self.probe_cost(class, CostPhase::DiffApply, apply_cost);
                    self.charge(apply_cost);
                    self.ctx.count("carlos.update_diffs_received", 1);
                    // Seeded bug EagerSkipRevalidate: apply the carried
                    // eager diffs even when the accept is incomplete — the
                    // release's required cut is not dominated, so write
                    // notices causally below these diffs may be missing,
                    // and applying now can revalidate a page with bytes a
                    // not-yet-seen record should have superseded. The slip
                    // fires only when the cut is short by exactly one
                    // interval (an off-by-one in the revalidation gate):
                    // a surgically flipped delivery produces precisely
                    // that state, while coarse random jitter usually tears
                    // the cut open much wider.
                    #[cfg(any(test, feature = "seeded-bugs"))]
                    let bug_eager = !complete
                        && self.cfg.seeded_bug
                            == Some(crate::config::SeededBug::EagerSkipRevalidate)
                        && {
                            let vt = self.engine.vt();
                            (0..vt.len() as u32)
                                .map(|n| u64::from(required.get(n).saturating_sub(vt.get(n))))
                                .sum::<u64>()
                                == 1
                        };
                    #[cfg(not(any(test, feature = "seeded-bugs")))]
                    let bug_eager = false;
                    if bug_eager {
                        self.ctx.count("carlos.seeded_bug_fired", 1);
                    }
                    if complete || bug_eager {
                        for p in pages {
                            self.maybe_apply_buffered(p);
                        }
                    }
                }
                if complete {
                    true
                } else {
                    // Inadequate consistency information (forwarded or
                    // non-transitive message): ask the original sender.
                    self.ctx.count("carlos.repair_requests", 1);
                    if let Some(p) = &self.probe {
                        p.repair_requested(self.ctx.node_id(), origin, self.engine.vt(), required);
                    }
                    let mut body = Encoder::new();
                    self.engine.vt().encode(&mut body);
                    required.encode(&mut body);
                    self.send_sys(origin, SYS_IVAL_REQ, body.finish_vec());
                    false
                }
            }
        }
    }

    /// Runs the acquire side for `msg`, then either queues it for user
    /// level or parks it as a pending accept awaiting repair.
    fn finish_or_pend(&mut self, mut msg: Message) {
        if self.do_accept(&mut msg) {
            self.complete_accept(msg);
        } else {
            let required = msg
                .consistency
                .required()
                .cloned()
                .expect("only releases can pend");
            self.pending_accepts.push(PendingAccept {
                msg,
                required,
                rounds: 0,
            });
        }
    }

    fn complete_accept(&mut self, msg: Message) {
        self.ctx.count("carlos.accepted", 1);
        self.accepted.push_back(AcceptedMsg {
            src: msg.src,
            origin: msg.origin,
            handler: msg.handler,
            annotation: msg.annotation,
            body: msg.body,
        });
    }

    /// Handles an incoming system message.
    fn handle_sys(&mut self, msg: Message) {
        match msg.handler {
            SYS_DIFF_REQ => {
                let mut dec = Decoder::new(&msg.body);
                let page = dec.get_u32().expect("diff request page");
                let after = dec.get_u32().expect("diff request after");
                let through = dec.get_u32().expect("diff request through");
                let force_diffs = dec.get_u8().unwrap_or(0) != 0;
                let reply = self.serve_diff_demand(page, after, through, force_diffs);
                self.send_sub_reply(msg.src, &reply);
            }
            SYS_DIFF_REPLY => {
                let mut dec = Decoder::new(&msg.body);
                let page = dec.get_u32().expect("diff reply page");
                let records = dec.get_seq(carlos_lrc::DiffRecord::decode).expect("diff records");
                self.accept_diff_reply(msg.src, page, records);
                self.maybe_apply_buffered(page);
            }
            SYS_PAGE_REQ => {
                let mut dec = Decoder::new(&msg.body);
                let page = dec.get_u32().expect("page request id");
                let reply = self.serve_page_demand(page);
                self.send_sub_reply(msg.src, &reply);
            }
            SYS_PAGE_REPLY => {
                let mut dec = Decoder::new(&msg.body);
                let page = dec.get_u32().expect("page reply id");
                let data = dec.get_bytes().expect("page data");
                let applied = Vc::decode(&mut dec).expect("page applied vc");
                self.accept_page_reply(msg.src, page, data, applied);
                self.maybe_apply_buffered(page);
            }
            SYS_BATCH_REQ => {
                let mut dec = Decoder::new(&msg.body);
                let n = dec.get_u32().expect("batch request count");
                self.ctx.count("carlos.batch_requests_served", 1);
                // Seeded bug SkipBatchGranule: answer an oversized batch one
                // sub-reply short, modeling an off-by-one at a reply-buffer
                // capacity boundary — batches this large only form when a
                // release is held back long enough for many invalidations
                // to pile up, so the slip is schedule-dependent. The reply
                // is well-formed, so the requester accepts it — and then
                // waits forever for the granule that never comes.
                #[cfg(any(test, feature = "seeded-bugs"))]
                let n = if self.cfg.seeded_bug
                    == Some(crate::config::SeededBug::SkipBatchGranule)
                    && n >= 14
                {
                    self.ctx.count("carlos.seeded_bug_fired", 1);
                    n - 1
                } else {
                    n
                };
                let mut body = Encoder::new();
                body.put_u32(n);
                for _ in 0..n {
                    let kind = dec.get_u8().expect("batch entry kind");
                    let page = dec.get_u32().expect("batch entry page");
                    let after = dec.get_u32().expect("batch entry after");
                    let through = dec.get_u32().expect("batch entry through");
                    let force = dec.get_u8().expect("batch entry force") != 0;
                    let reply = match kind {
                        0 => self.serve_diff_demand(page, after, through, force),
                        1 => self.serve_page_demand(page),
                        other => panic!("unknown batch entry kind {other}"),
                    };
                    reply.encode_into(&mut body, &self.engine);
                }
                self.send_sys(msg.src, SYS_BATCH_REPLY, body.finish_vec());
            }
            SYS_BATCH_REPLY => {
                let mut dec = Decoder::new(&msg.body);
                let n = dec.get_u32().expect("batch reply count");
                let mut pages: BTreeSet<u32> = BTreeSet::new();
                for _ in 0..n {
                    let kind = dec.get_u8().expect("batch sub-reply kind");
                    let page = dec.get_u32().expect("batch sub-reply page");
                    pages.insert(page);
                    match kind {
                        0 => {
                            let records = dec
                                .get_seq(carlos_lrc::DiffRecord::decode)
                                .expect("batch diff records");
                            self.accept_diff_reply(msg.src, page, records);
                        }
                        1 => {
                            let data = dec.get_bytes().expect("batch page data");
                            let applied = Vc::decode(&mut dec).expect("batch page applied vc");
                            self.accept_page_reply(msg.src, page, data, applied);
                        }
                        other => panic!("unknown batch sub-reply kind {other}"),
                    }
                }
                // Buffered-diff application runs once per distinct page,
                // after every inflight key this reply settles is removed —
                // the same condition the singleton handlers reach, checked
                // once instead of per entry.
                for p in pages {
                    self.maybe_apply_buffered(p);
                }
            }
            SYS_IVAL_REQ => {
                let mut dec = Decoder::new(&msg.body);
                let have = Vc::decode(&mut dec).expect("ival request have");
                let want = Vc::decode(&mut dec).expect("ival request want");
                let records = self.engine.records_between(&have, &want);
                self.ctx.count("carlos.repair_served", 1);
                let mut body = Encoder::new();
                body.put_seq(&records, |e, r| r.encode(e));
                self.send_sys(msg.src, SYS_IVAL_REPLY, body.finish_vec());
            }
            SYS_IVAL_REPLY => {
                let mut dec = Decoder::new(&msg.body);
                let records = dec
                    .get_seq(IntervalRecord::decode)
                    .expect("ival reply records");
                let notices: usize = records.iter().map(|r| r.pages.len()).sum();
                let apply_cost = self.cfg.per_notice * notices as u64;
                self.probe_cost(MsgClass::System, CostPhase::NoticeApply, apply_cost);
                self.charge(apply_cost);
                self.engine.apply_records(records);
                self.retry_pending_accepts();
            }
            other => panic!("unknown system handler id {other:#x}"),
        }
    }

    /// Serves one diff demand: the stored diff chain for `page` after
    /// interval `after` through `through` (captured when each interval
    /// closed, so nothing is created or charged for here), subject to the
    /// TreadMarks heuristic — when the chain outweighs the granule itself,
    /// ship the whole granule instead (unless the requester demanded plain
    /// diffs).
    fn serve_diff_demand(&mut self, page: u32, after: u32, through: u32, force_diffs: bool) -> SubReply {
        let page_bytes = self.engine.granule_len(page);
        self.ctx.count("carlos.diff_requests_served", 1);
        let total: usize = self
            .engine
            .own_diffs(page, after, through)
            .map(|r| r.diff.modified_bytes())
            .sum();
        if total > page_bytes && !force_diffs {
            let (data, applied) = self.engine.serve_page(page);
            let copy_cost = self.cfg.page_copy_cost(data.len());
            self.probe_cost(MsgClass::System, CostPhase::PageCopy, copy_cost);
            self.charge(copy_cost);
            self.ctx.count("carlos.page_instead_of_diffs", 1);
            return SubReply::Page {
                page,
                data,
                applied,
            };
        }
        SubReply::Diffs {
            page,
            after,
            through,
        }
    }

    /// Serves one whole-granule demand (first touch), charging copy costs.
    fn serve_page_demand(&mut self, page: u32) -> SubReply {
        let (data, applied) = self.engine.serve_page(page);
        let copy_cost = self.cfg.page_copy_cost(data.len());
        self.probe_cost(MsgClass::System, CostPhase::PageCopy, copy_cost);
        self.charge(copy_cost);
        self.ctx.count("carlos.page_requests_served", 1);
        SubReply::Page {
            page,
            data,
            applied,
        }
    }

    /// Receive side of one diff (sub-)reply: charges apply costs, buffers
    /// the records, and settles the inflight key. The caller runs
    /// [`Core::maybe_apply_buffered`] once all sibling sub-replies landed.
    fn accept_diff_reply(&mut self, src: NodeId, page: u32, records: Vec<carlos_lrc::DiffRecord>) {
        let mut cost = 0;
        let mut bytes = 0;
        for r in &records {
            bytes += r.diff.modified_bytes();
            cost += self.cfg.diff_apply_cost(r.diff.modified_bytes());
        }
        self.probe_cost(MsgClass::System, CostPhase::DiffApply, cost);
        self.charge(cost);
        self.pending_diffs.entry(page).or_default().extend(records);
        self.fetch_done(src, page, bytes);
    }

    /// Receive side of one whole-granule (sub-)reply: charges copy costs,
    /// installs the granule, and settles the inflight key.
    fn accept_page_reply(&mut self, src: NodeId, page: u32, data: Vec<u8>, applied: Vc) {
        let copy_cost = self.cfg.page_copy_cost(data.len());
        self.probe_cost(MsgClass::System, CostPhase::PageCopy, copy_cost);
        self.charge(copy_cost);
        let bytes = data.len();
        if !self.engine.install_page(page, data, applied) {
            // The substituted page was stale relative to our copy:
            // retries for this (page, server) must use plain diffs,
            // or the request/substitute cycle would never converge.
            self.force_diffs.insert((page, src));
            self.ctx.count("carlos.page_substitute_rejected", 1);
        }
        self.fetch_done(src, page, bytes);
    }

    /// Removes the `(page, src)` inflight key and reports fetch completion
    /// (with the granule's size class) to the probe.
    fn fetch_done(&mut self, src: NodeId, page: u32, bytes: usize) {
        if self.inflight.remove(&(page, src)) {
            if let Some(p) = &self.probe {
                p.fetch_finished(self.node(), src, page, self.ctx.now());
            }
        }
        if let Some(p) = &self.probe {
            let class = GranuleClass::of(
                self.engine.granule_len(page),
                self.engine.config().page_size,
            );
            p.fetch_fulfilled(self.node(), src, page, class, bytes, self.ctx.now());
        }
    }

    /// Applies the diffs buffered for `page` once (a) no request for the
    /// page is outstanding and (b) the buffered records together with the
    /// already-applied coverage account for every known write notice.
    /// Applying earlier would split causally ordered records across
    /// batches, which the per-batch sort cannot repair.
    fn maybe_apply_buffered(&mut self, page: u32) {
        if self.inflight.iter().any(|&(p, _)| p == page) {
            return;
        }
        // Seeded bug EagerSkipRevalidate: apply buffered eager diffs
        // without the revalidation gates below — neither the
        // transitively-closed-cut guard nor the coverage check runs, so a
        // page can revalidate with stale bytes.
        #[cfg(any(test, feature = "seeded-bugs"))]
        let bug_eager = self.cfg.seeded_bug == Some(crate::config::SeededBug::EagerSkipRevalidate);
        #[cfg(not(any(test, feature = "seeded-bugs")))]
        let bug_eager = false;
        // A pending accept means our write-notice knowledge is not a
        // transitively closed cut: the message's required timestamp proves
        // records exist that we have not seen, and some of them may carry
        // notices for this page that causally precede diffs already in the
        // buffer. Applying now could order a causally-later diff first and
        // let its bytes be overwritten when the missing records arrive, so
        // hold everything until the repair completes.
        if !self.pending_accepts.is_empty() && !bug_eager {
            return;
        }
        if self.engine.page_state(page) == carlos_lrc::PageState::Missing {
            // No base to apply onto: eager update diffs for a page this
            // node has never touched are useless here — a later first
            // touch fetches the whole page (and any newer diffs) anyway.
            if self.pending_diffs.remove(&page).is_some() {
                self.ctx.count("carlos.update_diffs_dropped", 1);
            }
            return;
        }
        let complete = match self.pending_diffs.get(&page) {
            None => return,
            Some(recs) => self.engine.covers_with_claims(page, recs),
        };
        if bug_eager && !complete {
            self.ctx.count("carlos.seeded_bug_fired", 1);
        }
        let complete = complete || bug_eager;
        if complete {
            if let Some(all) = self.pending_diffs.remove(&page) {
                self.engine.apply_diff_records(page, all);
            }
        }
        // Incomplete coverage: the fault-resolution loop re-issues the
        // missing requests (with the plain-diff flag where a page
        // substitution was rejected) and we apply when they arrive.
    }

    fn retry_pending_accepts(&mut self) {
        let mut still_pending = Vec::new();
        let pending = std::mem::take(&mut self.pending_accepts);
        let had_pending = !pending.is_empty();
        for mut p in pending {
            if self.engine.vt().dominates(&p.required) {
                let msg = p.msg;
                self.complete_accept(msg);
            } else {
                p.rounds += 1;
                assert!(
                    p.rounds < MAX_REPAIR_ROUNDS,
                    "consistency repair not converging (node {}, required {:?}, have {:?})",
                    self.node(),
                    p.required,
                    self.engine.vt()
                );
                if let Some(probe) = &self.probe {
                    probe.repair_requested(
                        self.ctx.node_id(),
                        p.msg.origin,
                        self.engine.vt(),
                        &p.required,
                    );
                }
                let mut body = Encoder::new();
                self.engine.vt().encode(&mut body);
                p.required.encode(&mut body);
                self.send_sys(p.msg.origin, SYS_IVAL_REQ, body.finish_vec());
                still_pending.push(p);
            }
        }
        self.pending_accepts.extend(still_pending);
        if had_pending && self.pending_accepts.is_empty() {
            // Knowledge is a closed cut again: buffered diffs may now form
            // complete, causally sortable batches.
            let pages: Vec<u32> = self.pending_diffs.keys().copied().collect();
            for p in pages {
                self.maybe_apply_buffered(p);
            }
        }
    }

    /// Receive-side preamble: charges costs and updates peer knowledge.
    fn note_incoming(&mut self, msg: &Message) {
        let mut cost = self.cfg.effective_msg_recv();
        if msg.annotation.carries_timestamp() {
            cost += self.cfg.vt_recv;
        }
        self.probe_cost(MsgClass::of(msg.annotation), CostPhase::Recv, cost);
        self.charge(cost);
        match &msg.consistency {
            Consistency::None => {}
            Consistency::Request { vt } => {
                // Rule: a REQUEST's timestamp joins the estimate. It is a
                // snapshot of the *origin's* state (which matters after a
                // forward) taken at `send`, and a peer's vector time only
                // grows, so it is a lower bound on what the origin has by
                // now — never a reason to forget what `build_message`
                // recorded as shipped. A pipelining requester's snapshots
                // predate replies of ours still in flight or queued behind
                // a busy wire (FIFO orders arrivals, not what a snapshot
                // has seen); taken as exact, each has the same records
                // shipped again, bytes growing with latency and latency
                // with bytes. An estimate that stays high (a RELEASE we
                // sent to a manager that only stored it was never accepted)
                // is safe: the incomplete accept repairs itself through
                // `SYS_IVAL_REQ`, which bounds the cost to one round trip.
                self.known[msg.origin as usize].join(vt);
            }
            Consistency::Release { required, .. } => {
                // The origin's timestamp was exactly `required` at send.
                // This arm overwrites: that lowers an overestimate before
                // our next RELEASE to the origin, and joining here too was
                // measured at +0.1…+5.3 % `wire_msgs` on `qsort-hybrid-4`
                // (repairs after stored enqueues).
                self.known[msg.origin as usize] = required.clone();
            }
        }
    }
}

/// The capabilities available to a low-level active-message handler.
///
/// Handlers run as extensions of message delivery: they must not block and
/// must not touch coherent shared memory (§4.3). `Env` enforces this by
/// construction — it exposes no blocking or memory operations.
pub struct Env<'a> {
    core: &'a mut Core,
    disposed: bool,
}

impl Env<'_> {
    /// This node's id.
    #[must_use]
    pub fn node_id(&self) -> NodeId {
        self.core.node()
    }

    /// Number of nodes in the cluster.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.core.ctx.num_nodes()
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> Ns {
        self.core.ctx.now()
    }

    /// Accepts `msg`: performs the acquire actions its annotation requires
    /// and delivers it to user level (possibly later, if consistency
    /// information must first be repaired).
    pub fn accept(&mut self, msg: Message) {
        self.disposed = true;
        self.core.finish_or_pend(msg);
    }

    /// Consumes `msg` without delivering it to user level and without any
    /// memory-consistency action.
    ///
    /// This is the usual disposition for protocol-internal REQUEST/NONE
    /// messages whose content the handler has fully absorbed (e.g. a lock
    /// request that only updates the manager's queue). Discarding a RELEASE
    /// is permitted — its consistency information is simply dropped — but
    /// protocols should do so only when nothing depends on accepting it.
    pub fn discard(&mut self, msg: Message) {
        self.disposed = true;
        self.core.ctx.count("carlos.discarded", 1);
        drop(msg);
    }

    /// Forwards `msg` and its encapsulated consistency information to
    /// another node, without performing any memory-consistency action here.
    pub fn forward(&mut self, mut msg: Message, dst: NodeId) {
        self.disposed = true;
        self.core.ctx.count("carlos.forwarded", 1);
        msg.src = self.core.node(); // Origin and payload stay intact.
        self.core.transmit(dst, &msg);
    }

    /// Forwards `msg` like [`Env::forward`], but re-targets it at a
    /// different handler id on the destination (protocols often dispatch a
    /// relayed message to a distinct entry point — e.g. a lock request hits
    /// the manager under one id and the previous holder under another).
    pub fn forward_as(&mut self, mut msg: Message, dst: NodeId, handler: u32) {
        assert!(handler < SYS_HANDLER_BASE, "handler id in reserved range");
        self.disposed = true;
        self.core.ctx.count("carlos.forwarded", 1);
        msg.src = self.core.node();
        msg.handler = handler;
        self.core.transmit(dst, &msg);
    }

    /// Stores `msg` for deferred disposition; returns a token for
    /// [`Env::forward_stored`] / [`Env::accept_stored`].
    pub fn store(&mut self, msg: Message) -> u64 {
        self.disposed = true;
        let id = self.core.next_store_id;
        self.core.next_store_id += 1;
        self.core.ctx.count("carlos.stored", 1);
        self.core.stored.insert(id, msg);
        id
    }

    /// Forwards a previously stored message to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown (already disposed).
    pub fn forward_stored(&mut self, id: u64, dst: NodeId) {
        let mut msg = self
            .core
            .stored
            .remove(&id)
            .expect("forward_stored: unknown store token");
        self.core.ctx.count("carlos.forwarded", 1);
        msg.src = self.core.node();
        self.core.transmit(dst, &msg);
    }

    /// Forwards a stored message to `dst`, re-targeted at `handler`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or `handler` is in the reserved range.
    pub fn forward_stored_as(&mut self, id: u64, dst: NodeId, handler: u32) {
        assert!(handler < SYS_HANDLER_BASE, "handler id in reserved range");
        let mut msg = self
            .core
            .stored
            .remove(&id)
            .expect("forward_stored_as: unknown store token");
        self.core.ctx.count("carlos.forwarded", 1);
        msg.src = self.core.node();
        msg.handler = handler;
        self.core.transmit(dst, &msg);
    }

    /// Number of messages currently stored for deferred disposition.
    #[must_use]
    pub fn stored_count(&self) -> usize {
        self.core.stored.len()
    }

    /// Accepts a previously stored message.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown (already disposed).
    pub fn accept_stored(&mut self, id: u64) {
        let msg = self
            .core
            .stored
            .remove(&id)
            .expect("accept_stored: unknown store token");
        self.core.finish_or_pend(msg);
    }

    /// Sends a new user message (handlers may reply or notify third
    /// parties; this is ordinary, non-blocking sending).
    pub fn send(&mut self, dst: NodeId, handler: u32, body: Vec<u8>, annotation: Annotation) {
        assert!(handler < SYS_HANDLER_BASE, "handler id in reserved range");
        let msg = self.core.build_message(dst, handler, body, annotation);
        self.core.transmit(dst, &msg);
    }

    /// Adds to a node-level counter (diagnostics).
    pub fn count(&self, name: &'static str, v: u64) {
        self.core.ctx.count(name, v);
    }
}

/// The per-node CarlOS runtime.
pub struct Runtime {
    core: Core,
    handlers: HashMap<u32, HandlerFn>,
}

impl Runtime {
    /// Creates the runtime for the node behind `ctx`.
    #[must_use]
    pub fn new(ctx: NodeCtx, lrc_cfg: LrcConfig, cfg: CoreConfig) -> Self {
        Self::with_ack_mode(ctx, lrc_cfg, cfg, AckMode::Implicit)
    }

    /// Creates the runtime with an explicit transport acknowledgement mode.
    ///
    /// # Panics
    ///
    /// Panics if the LRC cluster size disagrees with the simulated one.
    #[must_use]
    pub fn with_ack_mode(
        ctx: NodeCtx,
        lrc_cfg: LrcConfig,
        cfg: CoreConfig,
        ack: AckMode,
    ) -> Self {
        assert_eq!(
            lrc_cfg.n_nodes,
            ctx.num_nodes(),
            "LRC config cluster size must match the simulated cluster"
        );
        let n = ctx.num_nodes();
        let node = ctx.node_id();
        let transport = Transport::new(ctx.clone(), ack);
        Self {
            core: Core {
                ctx,
                transport,
                engine: LrcEngine::new(node, lrc_cfg),
                cfg,
                known: (0..n).map(|_| Vc::new(n)).collect(),
                accepted: VecDeque::new(),
                stored: BTreeMap::new(),
                next_store_id: 1,
                pending_accepts: Vec::new(),
                inflight: BTreeSet::new(),
                pending_diffs: BTreeMap::new(),
                force_diffs: BTreeSet::new(),
                probe: None,
            },
            handlers: HashMap::new(),
        }
    }

    /// Installs a passive [`CoreProbe`] notified of release/acquire/repair
    /// protocol events. Probing never alters runtime behavior.
    pub fn set_probe(&mut self, probe: Rc<dyn CoreProbe>) {
        self.core.probe = Some(probe);
    }

    /// Installs a passive [`carlos_lrc::EngineObserver`] on the underlying
    /// LRC engine (memory accesses, interval closes, record application).
    pub fn set_engine_observer(&mut self, obs: Rc<dyn carlos_lrc::EngineObserver>) {
        self.core.engine.set_observer(obs);
    }

    /// Installs a passive [`carlos_sim::TransportObserver`] on the
    /// underlying transport endpoint (per-frame send/deliver/retransmit
    /// events, used by trace layers to build causal flows).
    pub fn set_transport_observer(&mut self, obs: Rc<dyn carlos_sim::TransportObserver>) {
        self.core.transport.set_observer(obs);
    }

    /// The installed [`CoreProbe`], if any. Layers above the runtime (the
    /// sync library) clone this handle to report their own events — e.g.
    /// [`CoreProbe::sync_wait`] spans — through the same probe.
    #[must_use]
    pub fn probe(&self) -> Option<Rc<dyn CoreProbe>> {
        self.core.probe.clone()
    }

    /// This node's id.
    #[must_use]
    pub fn node_id(&self) -> NodeId {
        self.core.node()
    }

    /// Number of nodes in the cluster.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.core.ctx.num_nodes()
    }

    /// The underlying simulator context.
    #[must_use]
    pub fn ctx(&self) -> &NodeCtx {
        &self.core.ctx
    }

    /// Installs `ctx` as the proc context all runtime operations park and
    /// charge through. Required when several user threads share a runtime
    /// (§4.4): each thread installs its own context before operating, so
    /// blocking parks the calling thread's proc.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` belongs to a different node.
    pub fn set_active_ctx(&mut self, ctx: NodeCtx) {
        assert_eq!(
            ctx.node_id(),
            self.core.ctx.node_id(),
            "runtime context must stay on its node"
        );
        self.core.transport.set_ctx(ctx.clone());
        self.core.ctx = ctx;
    }

    /// Current vector timestamp (diagnostics/tests).
    #[must_use]
    pub fn vt(&self) -> &Vc {
        self.core.engine.vt()
    }

    /// Immutable access to the LRC engine (diagnostics/tests).
    #[must_use]
    pub fn engine(&self) -> &LrcEngine {
        &self.core.engine
    }

    /// Registers the low-level handler for user messages with id `handler`.
    /// Unregistered ids get the default disposition: accept.
    ///
    /// # Panics
    ///
    /// Panics if `handler` is in the reserved system range.
    pub fn register(&mut self, handler: u32, f: HandlerFn) {
        assert!(handler < SYS_HANDLER_BASE, "handler id in reserved range");
        self.handlers.insert(handler, f);
    }

    /// Sends a user message with the given annotation. Asynchronous.
    ///
    /// # Panics
    ///
    /// Panics if `handler` is in the reserved system range.
    pub fn send(&mut self, dst: NodeId, handler: u32, body: Vec<u8>, annotation: Annotation) {
        assert!(handler < SYS_HANDLER_BASE, "handler id in reserved range");
        let msg = self.core.build_message(dst, handler, body, annotation);
        self.core.transmit(dst, &msg);
    }

    /// Processes every message currently deliverable, without blocking.
    pub fn poll(&mut self) {
        while let Some((src, bytes)) = self.core.transport.poll() {
            self.dispatch(src, &bytes);
        }
    }

    /// Blocks until at least one message has been processed (or `deadline`
    /// passes), then drains whatever else is deliverable.
    pub fn pump(&mut self, deadline: Option<Ns>) -> bool {
        match self.core.transport.wait(deadline) {
            Some((src, bytes)) => {
                self.dispatch(src, &bytes);
                self.poll();
                true
            }
            None => false,
        }
    }

    fn dispatch(&mut self, src: NodeId, bytes: &[u8]) {
        let msg = match Message::from_wire_bytes(src, bytes) {
            Ok(m) => m,
            Err(e) => {
                // The real system logs and drops malformed datagrams.
                self.core.ctx.count("carlos.malformed", 1);
                let _ = e;
                return;
            }
        };
        if let Some(p) = &self.core.probe {
            let class = if msg.handler >= SYS_HANDLER_BASE {
                MsgClass::System
            } else {
                MsgClass::of(msg.annotation)
            };
            p.msg_dispatched(
                self.core.node(),
                src,
                class,
                msg.handler,
                bytes.len(),
                self.core.ctx.now(),
            );
        }
        if msg.handler >= SYS_HANDLER_BASE {
            self.core.handle_sys(msg);
            self.eager_fetch_invalidated();
            return;
        }
        self.core.note_incoming(&msg);
        // Take the handler out so it can borrow the core via Env.
        if let Some(mut h) = self.handlers.remove(&msg.handler) {
            let handler_id = msg.handler;
            let mut env = Env {
                core: &mut self.core,
                disposed: false,
            };
            h(&mut env, msg);
            assert!(
                env.disposed,
                "handler {handler_id} returned without disposing of its message"
            );
            self.handlers.insert(handler_id, h);
        } else {
            // Default disposition: accept.
            let mut env = Env {
                core: &mut self.core,
                disposed: false,
            };
            env.accept(msg);
        }
        self.eager_fetch_invalidated();
    }

    /// Takes the first accepted message for `handler`, if one is queued.
    pub fn try_take_accepted(&mut self, handler: u32) -> Option<AcceptedMsg> {
        self.poll();
        let pos = self.core.accepted.iter().position(|m| m.handler == handler)?;
        self.core.accepted.remove(pos)
    }

    /// Blocks until a message for `handler` has been accepted, processing
    /// all other traffic (including serving remote requests) meanwhile.
    pub fn wait_accepted(&mut self, handler: u32) -> AcceptedMsg {
        loop {
            if let Some(m) = self.try_take_accepted(handler) {
                return m;
            }
            self.pump(None);
        }
    }

    /// Like [`Runtime::wait_accepted`] for any of several handler ids.
    pub fn wait_accepted_any(&mut self, handlers: &[u32]) -> AcceptedMsg {
        loop {
            self.poll();
            if let Some(pos) = self
                .core
                .accepted
                .iter()
                .position(|m| handlers.contains(&m.handler))
            {
                return self.core.accepted.remove(pos).expect("position valid");
            }
            self.pump(None);
        }
    }

    /// Like [`Runtime::wait_accepted`], but gives up when the absolute
    /// virtual-time `deadline` passes, returning `None`. Traffic for other
    /// handlers is still serviced while waiting.
    pub fn wait_accepted_until(&mut self, handler: u32, deadline: Ns) -> Option<AcceptedMsg> {
        self.wait_accepted_any_until(&[handler], deadline)
    }

    /// Like [`Runtime::wait_accepted_any`] with an absolute deadline.
    pub fn wait_accepted_any_until(
        &mut self,
        handlers: &[u32],
        deadline: Ns,
    ) -> Option<AcceptedMsg> {
        loop {
            self.poll();
            if let Some(pos) = self
                .core
                .accepted
                .iter()
                .position(|m| handlers.contains(&m.handler))
            {
                return self.core.accepted.remove(pos);
            }
            if self.core.ctx.now() >= deadline {
                return None;
            }
            self.pump(Some(deadline));
        }
    }

    /// Whether the transport's failure detector currently considers `peer`
    /// dead (see [`carlos_sim::transport::Transport::peer_down`]). Always
    /// `false` in Implicit ack mode.
    #[must_use]
    pub fn peer_down(&self, peer: NodeId) -> bool {
        self.core.transport.peer_down(peer)
    }

    /// Sends a liveness probe to `peer` (no-op in Implicit ack mode, for
    /// self, or while a probe is already outstanding). An unanswered probe
    /// flags the peer down after [`ArqTuning::probe_rtos`] RTOs.
    pub fn probe_peer(&mut self, peer: NodeId) {
        self.core.transport.probe(peer);
    }

    /// Replaces the transport's retransmission/failure-detection tuning.
    pub fn set_arq_tuning(&mut self, tuning: ArqTuning) {
        self.core.transport.set_tuning(tuning);
    }

    /// Sleeps for `dt` of virtual time while continuing to service
    /// incoming messages (handlers run as interrupt extensions in CarlOS,
    /// so a sleeping application still serves lock forwards, diff
    /// requests, and the like).
    pub fn sleep(&mut self, dt: Ns) {
        let deadline = self.core.ctx.now() + dt;
        loop {
            let now = self.core.ctx.now();
            if now >= deadline {
                return;
            }
            if !self.pump(Some(deadline)) {
                return; // Timed out: deadline reached.
            }
        }
    }

    /// Charges `dt` of application computation, processing incoming
    /// messages promptly (interrupt-style) while computing.
    pub fn compute(&mut self, dt: Ns) {
        let mut remaining = dt;
        loop {
            match self.core.ctx.compute_interruptible(Bucket::User, remaining) {
                None => return,
                Some(rem) => {
                    self.poll();
                    remaining = rem;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Coherent shared memory access.
    // ------------------------------------------------------------------

    /// Reads `buf.len()` bytes of coherent memory at `addr`, transparently
    /// performing any faults (diff/page fetches) required.
    pub fn read_bytes(&mut self, addr: usize, buf: &mut [u8]) {
        loop {
            match self.core.engine.read(addr, buf) {
                Ok(()) => return,
                Err(demands) => self.resolve_demands(demands),
            }
        }
    }

    /// Writes `data` to coherent memory at `addr`, transparently performing
    /// any faults required (including twin creation).
    pub fn write_bytes(&mut self, addr: usize, data: &[u8]) {
        loop {
            match self.core.engine.write(addr, data) {
                Ok(()) => return,
                Err(demands) => self.resolve_demands(demands),
            }
        }
    }

    /// Reads a little-endian `u32` from coherent memory.
    #[must_use = "reading coherent memory has no side effects worth discarding"]
    pub fn read_u32(&mut self, addr: usize) -> u32 {
        let mut b = [0u8; 4];
        self.read_bytes(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian `u32` to coherent memory.
    pub fn write_u32(&mut self, addr: usize, v: u32) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Reads a little-endian `u64` from coherent memory.
    #[must_use = "reading coherent memory has no side effects worth discarding"]
    pub fn read_u64(&mut self, addr: usize) -> u64 {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` to coherent memory.
    pub fn write_u64(&mut self, addr: usize, v: u64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Reads an `f64` from coherent memory.
    #[must_use = "reading coherent memory has no side effects worth discarding"]
    pub fn read_f64(&mut self, addr: usize) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64` to coherent memory.
    pub fn write_f64(&mut self, addr: usize, v: f64) {
        self.write_u64(addr, v.to_bits());
    }

    /// Fires non-blocking fetches for eager-region granules the message just
    /// dispatched invalidated (via its carried or repaired write notices).
    /// One RELEASE's interval closure typically invalidates many granules at
    /// once, so with fetch coalescing the whole set leaves as one batched
    /// request per serving node; replies apply through the ordinary
    /// buffered-diff machinery while the application keeps running, and a
    /// later access fault on a still-inflight granule simply waits on the
    /// request already in the air. No-op without eager region hints.
    fn eager_fetch_invalidated(&mut self) {
        let pages = self.core.engine.take_eager_invalid();
        if pages.is_empty() {
            return;
        }
        let mut demands = Vec::new();
        for p in pages {
            demands.extend(self.core.engine.fault_demands(p));
        }
        if !demands.is_empty() {
            self.core.ctx.count("carlos.eager_fetches", demands.len() as u64);
            let _ = self.issue_demands(demands);
        }
    }

    /// Sends the protocol requests for `demands` (deduplicated against
    /// requests already in flight) and returns the `(page, server)` keys
    /// whose replies the caller may wait on.
    fn issue_demands(&mut self, demands: Vec<Demand>) -> Vec<(u32, NodeId)> {
        let coalesce = self.core.cfg.coalesce_fetches;
        // With coalescing, demands not yet in flight are grouped by serving
        // node and same-destination groups of two or more share one batched
        // round trip; singletons keep the legacy wire exchange. Without it,
        // every request goes out inline, in demand order, exactly as the
        // historical protocol did (pinned by the golden fingerprints).
        let mut fresh: BTreeMap<NodeId, Vec<BatchEntry>> = BTreeMap::new();
        let mut waiting: Vec<(u32, NodeId)> = Vec::new();
        for d in demands {
            match d {
                Demand::Diffs {
                    to,
                    page,
                    after,
                    through,
                } => {
                    waiting.push((page, to));
                    if self.core.inflight.insert((page, to)) {
                        self.core.ctx.count("carlos.diff_requests", 1);
                        if let Some(p) = &self.core.probe {
                            p.fetch_started(
                                self.core.node(),
                                to,
                                page,
                                FetchKind::Diffs,
                                self.core.ctx.now(),
                            );
                        }
                        let force = self.core.force_diffs.contains(&(page, to));
                        if coalesce {
                            fresh.entry(to).or_default().push(BatchEntry {
                                kind: 0,
                                page,
                                after,
                                through,
                                force,
                            });
                        } else {
                            self.send_diff_req(to, page, after, through, force);
                        }
                    }
                }
                Demand::Page { to, page } => {
                    waiting.push((page, to));
                    if self.core.inflight.insert((page, to)) {
                        self.core.ctx.count("carlos.page_requests", 1);
                        if let Some(p) = &self.core.probe {
                            p.fetch_started(
                                self.core.node(),
                                to,
                                page,
                                FetchKind::Page,
                                self.core.ctx.now(),
                            );
                        }
                        if coalesce {
                            fresh.entry(to).or_default().push(BatchEntry {
                                kind: 1,
                                page,
                                after: 0,
                                through: 0,
                                force: false,
                            });
                        } else {
                            let mut body = Encoder::new();
                            body.put_u32(page);
                            self.core.send_sys(to, SYS_PAGE_REQ, body.finish_vec());
                        }
                    }
                }
            }
        }
        for (to, entries) in fresh {
            if entries.len() == 1 {
                let e = &entries[0];
                if e.kind == 0 {
                    self.send_diff_req(to, e.page, e.after, e.through, e.force);
                } else {
                    let mut body = Encoder::new();
                    body.put_u32(e.page);
                    self.core.send_sys(to, SYS_PAGE_REQ, body.finish_vec());
                }
                continue;
            }
            self.core.ctx.count("carlos.batch_requests", 1);
            self.core
                .ctx
                .count("carlos.batched_fetches", entries.len() as u64);
            let mut body = Encoder::new();
            body.put_u32(entries.len() as u32);
            for e in &entries {
                body.put_u8(e.kind);
                body.put_u32(e.page);
                body.put_u32(e.after);
                body.put_u32(e.through);
                body.put_u8(u8::from(e.force));
            }
            self.core.send_sys(to, SYS_BATCH_REQ, body.finish_vec());
        }
        waiting
    }

    /// Sends one legacy (singleton) diff request.
    fn send_diff_req(&mut self, to: NodeId, page: u32, after: u32, through: u32, force: bool) {
        let mut body = Encoder::new();
        body.put_u32(page);
        body.put_u32(after);
        body.put_u32(through);
        body.put_u8(u8::from(force));
        self.core.send_sys(to, SYS_DIFF_REQ, body.finish_vec());
    }

    fn resolve_demands(&mut self, demands: Vec<Demand>) {
        let waiting = self.issue_demands(demands);
        let Some(timeout) = self.core.cfg.fetch_timeout else {
            // Historical wait-forever path: no timer events, so fault-free
            // runs are event-for-event identical with and without this code.
            while waiting.iter().any(|k| self.core.inflight.contains(k)) {
                self.pump(None);
            }
            return;
        };
        let mut rounds: u32 = 0;
        while waiting.iter().any(|k| self.core.inflight.contains(k)) {
            let deadline = self.core.ctx.now() + timeout;
            let mut progressed = false;
            while self.core.ctx.now() < deadline {
                if self.pump(Some(deadline)) {
                    progressed = true;
                    break;
                }
            }
            if progressed {
                continue;
            }
            rounds += 1;
            self.core.ctx.count("carlos.fetch_timeouts", 1);
            for &(page, server) in waiting.iter().filter(|k| self.core.inflight.contains(k)) {
                if self.core.transport.peer_down(server) || rounds > MAX_FETCH_ROUNDS {
                    carlos_sim::abort(
                        self.core.ctx.node_id(),
                        format!(
                            "page {page} fetch from node {server} abandoned after \
                             {rounds} timeout rounds (peer {})",
                            if self.core.transport.peer_down(server) {
                                "is down"
                            } else {
                                "unresponsive"
                            }
                        ),
                    );
                }
                self.core.transport.probe(server);
            }
        }
    }

    /// Non-blocking read: returns `true` and fills `buf` when every page is
    /// accessible, or issues the outstanding fetches and returns `false`.
    /// Used by user threads that must not block the shared runtime while a
    /// fault is in flight (§4.4 latency hiding).
    pub fn try_read_bytes(&mut self, addr: usize, buf: &mut [u8]) -> bool {
        self.poll();
        match self.core.engine.read(addr, buf) {
            Ok(()) => true,
            Err(demands) => {
                let _ = self.issue_demands(demands);
                false
            }
        }
    }

    /// Non-blocking write: the mirror of [`Runtime::try_read_bytes`].
    pub fn try_write_bytes(&mut self, addr: usize, data: &[u8]) -> bool {
        self.poll();
        match self.core.engine.write(addr, data) {
            Ok(()) => true,
            Err(demands) => {
                let _ = self.issue_demands(demands);
                false
            }
        }
    }

    // ------------------------------------------------------------------
    // Garbage collection support (orchestrated by carlos-sync).
    // ------------------------------------------------------------------

    /// True when this node's consistency-record storage exceeds the GC
    /// threshold.
    #[must_use]
    pub fn gc_needed(&self) -> bool {
        self.core.engine.gc_needed()
    }

    /// Phase 2 of a global GC: validate every invalid page by fetching the
    /// outstanding diffs. Phase 1 (equalizing timestamps) is a plain
    /// RELEASE exchange run by the coordinator.
    pub fn gc_validate_all(&mut self) {
        loop {
            let demands = self.core.engine.gc_validate_demands();
            if demands.is_empty() {
                return;
            }
            self.resolve_demands(demands);
        }
    }

    /// Phase 3 of a global GC: discard interval and diff records. All nodes
    /// must have equal timestamps and fully valid pages.
    pub fn gc_discard(&mut self) {
        self.core.engine.gc_discard();
        // Everyone is mutually consistent now; knowledge reflects that.
        let vt = self.core.engine.vt().clone();
        for k in &mut self.core.known {
            k.join(&vt);
        }
        self.core.ctx.count("carlos.gcs", 1);
    }

    /// Flushes transport state and publishes engine statistics as node
    /// counters; call once at the end of a node's main.
    pub fn shutdown(&mut self) {
        self.core.transport.flush();
        let s = self.core.engine.stats();
        let c = &self.core.ctx;
        c.count("lrc.intervals_created", s.intervals_created);
        c.count("lrc.diffs_created", s.diffs_created);
        c.count("lrc.diffs_applied", s.diffs_applied);
        c.count("lrc.notices_applied", s.notices_applied);
        c.count("lrc.write_faults", s.write_faults);
        c.count("lrc.remote_faults", s.remote_faults);
        c.count("lrc.pages_installed", s.pages_installed);
        c.count("lrc.records_resident", self.core.engine.record_count() as u64);
    }
}

/// Seeded bug `DropNoticeClock`: produce a copy of a RELEASE message with
/// one changed non-creator vector-clock component of a delta-coded record
/// reverted to its group predecessor's value — byte-identical to the
/// aggregated encoder silently dropping that delta on the wire. Returns
/// `None` when the message has no delta-coded record with such a
/// component (the encoding would carry every record in full, so there is
/// nothing to drop).
#[cfg(any(test, feature = "seeded-bugs"))]
fn seeded_drop_notice_clock(msg: &Message) -> Option<Message> {
    let Consistency::Release { records, .. } = &msg.consistency else {
        return None;
    };
    for i in 1..records.len() {
        let (prev, rec) = (&records[i - 1], &records[i]);
        if prev.node != rec.node {
            continue;
        }
        let target = rec
            .vc
            .iter()
            .find(|&(n, v)| n != rec.node && v != prev.vc.get(n));
        if let Some((n, _)) = target {
            let mut mutated = msg.clone();
            if let Consistency::Release { records, .. } = &mut mutated.consistency {
                let reverted = records[i - 1].vc.get(n);
                records[i].vc.set(n, reverted);
            }
            return Some(mutated);
        }
    }
    None
}
