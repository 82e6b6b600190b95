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
    collections::{btree_map::Entry, BTreeMap, BTreeSet, HashMap, VecDeque},
    rc::Rc,
};

use carlos_lrc::{Demand, Diffs, LrcConfig, LrcEngine, Records, Vc};
use carlos_sim::{time::Ns, transport::Transport, Bucket, NodeCtx, NodeId};
use carlos_util::{
    codec::{Decoder, Encoder, Wire},
    event::{emit, CostPhase, Event, FetchKind, GranuleClass, MsgClass, Sink},
};

use crate::{
    annotation::Annotation,
    config::CoreConfig,
    message::{AcceptedMsg, Consistency, Message},
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

/// Kind tag of a demand fetch and of its reply: the diffs for a granule,
/// or a whole copy of it.
const KIND_DIFFS: u8 = 0;
const KIND_PAGE: u8 = 1;

/// One demand fetch (`after`/`through`/`force` are meaningful for diff
/// entries only). Sent alone it is a SYS_DIFF_REQ or SYS_PAGE_REQ; two or
/// more to one server go as one SYS_BATCH_REQ.
struct BatchEntry {
    kind: u8,
    page: u32,
    after: u32,
    through: u32,
    force: bool,
}

impl BatchEntry {
    fn new(kind: u8, page: u32) -> Self {
        Self {
            kind,
            page,
            after: 0,
            through: 0,
            force: false,
        }
    }

    /// Appends the entry after its kind tag. A lone page request carries
    /// only the page; every other form carries all four fields.
    fn encode(&self, enc: &mut Encoder, batched: bool) {
        enc.put_u32(self.page);
        if batched || self.kind == KIND_DIFFS {
            enc.put_u32(self.after);
            enc.put_u32(self.through);
            enc.put_u8(u8::from(self.force));
        }
    }

    /// Decodes an entry of `kind` that [`BatchEntry::encode`] appended.
    fn decode(dec: &mut Decoder<'_>, kind: u8, batched: bool) -> Self {
        let mut e = Self::new(kind, dec.get_u32().expect("demand page"));
        if batched || kind == KIND_DIFFS {
            e.after = dec.get_u32().expect("demand after");
            e.through = dec.get_u32().expect("demand through");
            e.force = dec.get_u8().expect("demand force") != 0;
        }
        e
    }
}

/// The server-side result of one demand fetch: either the diff chain or a
/// full granule copy (first touch, or the TreadMarks page-instead-of-diffs
/// substitution).
enum SubReply {
    /// The server's own diffs for `page` over `(after, through]`, `count`
    /// records of `len` encoded bytes; encoded straight from views of the
    /// engine's store, never cloned.
    Diffs {
        page: u32,
        after: u32,
        through: u32,
        count: u32,
        len: usize,
    },
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
                count,
                len,
            } => {
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

    /// The kind tag a SYS_BATCH_REPLY puts before this sub-reply.
    fn kind(&self) -> u8 {
        match self {
            SubReply::Diffs { .. } => KIND_DIFFS,
            SubReply::Page { .. } => KIND_PAGE,
        }
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
    pending_diffs: BTreeMap<u32, Diffs>,
    /// `(page, node)` pairs whose page-instead-of-diffs substitution was
    /// rejected as stale; retries demand plain diffs to guarantee progress.
    force_diffs: BTreeSet<(u32, NodeId)>,
    /// The cluster's event sink; `None` unless attached, and never
    /// charged for.
    sink: Option<Rc<dyn Sink>>,
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

    /// Reports a protocol-work charge before it lands, so the event's `at`
    /// marks the start of the charged work. Free when no sink is attached
    /// or nothing is charged.
    fn note_cost(&self, class: MsgClass, phase: CostPhase, ns: Ns) {
        if ns == 0 {
            return;
        }
        emit(&self.sink, || Event::ProtocolCost {
            node: self.node(),
            class,
            phase,
            ns,
            at: self.ctx.now(),
        });
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
                for d in diffs.iter().flat_map(Diffs::iter) {
                    cost += self.cfg.diff_apply_cost(d.modified_bytes());
                }
            }
        }
        let class = msg.annotation.class();
        self.note_cost(class, CostPhase::Send, cost);
        self.charge(cost);
        self.ctx.count("carlos.sent", 1);
        match msg.annotation {
            Annotation::None => self.ctx.count("carlos.sent.none", 1),
            Annotation::Request => self.ctx.count("carlos.sent.request", 1),
            Annotation::Release => self.ctx.count("carlos.sent.release", 1),
            Annotation::ReleaseNt => self.ctx.count("carlos.sent.release_nt", 1),
        }
        emit(&self.sink, || Event::MsgSent {
            node: self.node(),
            dst,
            class,
            handler: msg.handler,
            at: self.ctx.now(),
        });
        let pad = self.cfg.wire_header_pad;
        #[cfg(any(test, feature = "seeded-bugs"))]
        if self.cfg.seeded_bug == Some(crate::config::SeededBug::DropNoticeClock)
            && self.cfg.variable_granularity
        {
            if let Some(mutated) = seeded_drop_notice_clock(msg) {
                self.ctx.count("carlos.seeded_bug_fired", 1);
                self.transport.send(dst, mutated.to_framed_with(pad, true));
                return;
            }
        }
        self.transport
            .send(dst, msg.to_framed_with(pad, self.cfg.variable_granularity));
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
                emit(&self.sink, || Event::ReleaseSent {
                    node,
                    dst,
                    required: required.as_slice(),
                });
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
                let mut diffs = Diffs::new();
                if update_all || self.engine.granules().has_eager() {
                    // Each stored diff covers one interval, so no notice
                    // finds one twice. Sized first: one allocation per array.
                    let engine = &self.engine;
                    let shipped = || {
                        records.iter().flat_map(move |rec| {
                            rec.pages
                                .iter()
                                .filter(move |&&p| update_all || engine.granules().eager_granule(p))
                                .filter_map(move |&p| engine.stored_diff(rec.creator, p, rec.index))
                        })
                    };
                    let (count, bytes) =
                        shipped().fold((0, 0), |(c, b), d| (c + 1, b + d.run_bytes()));
                    diffs.reserve(required.len(), count, bytes);
                    shipped().for_each(|d| diffs.push(d));
                }
                Consistency::Release {
                    required,
                    records,
                    diffs: if diffs.is_empty() { Vec::new() } else { vec![diffs] },
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
        emit(&self.sink, || Event::MsgSent {
            node,
            dst,
            class: MsgClass::System,
            handler,
            at: self.ctx.now(),
        });
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
        let class = msg.annotation.class();
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
                let notices = records.notice_count();
                let cost = self.cfg.release_accept
                    + self.cfg.per_record * records.len() as u64
                    + self.cfg.per_notice * notices as u64;
                self.note_cost(class, CostPhase::Accept, cost);
                self.charge(cost);
                self.ctx.count("carlos.notices_applied", notices as u64);
                self.engine.apply_records(&std::mem::take(records));
                // The gap check must precede any buffered-diff application:
                // a non-dominated required timestamp proves records are
                // missing, and diffs must not apply against a notice set
                // that is not transitively closed.
                let complete = self.engine.vt().dominates(required);
                emit(&self.sink, || Event::ReleaseAccepted {
                    node: self.node(),
                    origin,
                    required: required.as_slice(),
                    complete,
                });
                if !diffs.is_empty() {
                    // Update strategy: the carried diffs revalidate pages
                    // whose coverage they complete. They go through the
                    // same per-page buffer as fetched diffs so causal
                    // ordering holds across sources.
                    let mut apply_cost = 0;
                    let mut pages: std::collections::BTreeSet<u32> =
                        std::collections::BTreeSet::new();
                    for batch in std::mem::take(diffs) {
                        for d in batch.iter() {
                            apply_cost += self.cfg.diff_apply_cost(d.modified_bytes());
                            pages.insert(d.page);
                        }
                        self.buffer_diffs(batch);
                    }
                    self.note_cost(class, CostPhase::DiffApply, apply_cost);
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
                    self.note_repair(origin, required);
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
            SYS_DIFF_REQ | SYS_PAGE_REQ => {
                let kind = if msg.handler == SYS_DIFF_REQ { KIND_DIFFS } else { KIND_PAGE };
                let entry = BatchEntry::decode(&mut Decoder::new(&msg.body), kind, false);
                let reply = self.serve_demand(&entry);
                self.send_sub_reply(msg.src, &reply);
            }
            SYS_DIFF_REPLY | SYS_PAGE_REPLY => {
                let kind = if msg.handler == SYS_DIFF_REPLY { KIND_DIFFS } else { KIND_PAGE };
                let page = self.accept_sub_reply(msg.src, kind, &mut Decoder::new(&msg.body));
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
                    let reply = self.serve_demand(&BatchEntry::decode(&mut dec, kind, true));
                    body.put_u8(reply.kind());
                    reply.encode_body(&mut body, &self.engine);
                }
                self.send_sys(msg.src, SYS_BATCH_REPLY, body.finish_vec());
            }
            SYS_BATCH_REPLY => {
                let mut dec = Decoder::new(&msg.body);
                let n = dec.get_u32().expect("batch reply count");
                let mut pages: BTreeSet<u32> = BTreeSet::new();
                for _ in 0..n {
                    let kind = dec.get_u8().expect("batch sub-reply kind");
                    pages.insert(self.accept_sub_reply(msg.src, kind, &mut dec));
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
                let mut body = Encoder::with_capacity(records.wire_len());
                records.encode(&mut body);
                self.send_sys(msg.src, SYS_IVAL_REPLY, body.finish_vec());
            }
            SYS_IVAL_REPLY => {
                let mut dec = Decoder::new(&msg.body);
                let records = Records::decode(&mut dec).expect("ival reply records");
                let apply_cost = self.cfg.per_notice * records.notice_count() as u64;
                self.note_cost(MsgClass::System, CostPhase::NoticeApply, apply_cost);
                self.charge(apply_cost);
                self.engine.apply_records(&records);
                self.retry_pending_accepts();
            }
            other => panic!("unknown system handler id {other:#x}"),
        }
    }

    /// Serves one demand fetch, of either kind.
    fn serve_demand(&mut self, e: &BatchEntry) -> SubReply {
        match e.kind {
            KIND_DIFFS => self.serve_diff_demand(e.page, e.after, e.through, e.force),
            KIND_PAGE => self.serve_page_demand(e.page),
            other => panic!("unknown demand kind {other}"),
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
        let (count, len, total) = self.engine.own_diffs(page, after, through).fold(
            (0, 0, 0),
            |(count, len, total), r| (count + 1, len + r.wire_len(), total + r.modified_bytes()),
        );
        if total > page_bytes && !force_diffs {
            let (data, applied) = self.engine.serve_page(page);
            let copy_cost = self.cfg.page_copy_cost(data.len());
            self.note_cost(MsgClass::System, CostPhase::PageCopy, copy_cost);
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
            count,
            len,
        }
    }

    /// Serves one whole-granule demand (first touch), charging copy costs.
    fn serve_page_demand(&mut self, page: u32) -> SubReply {
        let (data, applied) = self.engine.serve_page(page);
        let copy_cost = self.cfg.page_copy_cost(data.len());
        self.note_cost(MsgClass::System, CostPhase::PageCopy, copy_cost);
        self.charge(copy_cost);
        self.ctx.count("carlos.page_requests_served", 1);
        SubReply::Page {
            page,
            data,
            applied,
        }
    }

    /// Decodes and accepts one (sub-)reply of `kind` from `src`, returning
    /// its page.
    fn accept_sub_reply(&mut self, src: NodeId, kind: u8, dec: &mut Decoder<'_>) -> u32 {
        let page = dec.get_u32().expect("reply page");
        match kind {
            KIND_DIFFS => {
                let records = Diffs::decode(dec).expect("diff records");
                self.accept_diff_reply(src, page, records);
            }
            KIND_PAGE => {
                let data = dec.get_bytes().expect("page data");
                let applied = Vc::decode(dec).expect("page applied vc");
                self.accept_page_reply(src, page, data, applied);
            }
            other => panic!("unknown reply kind {other}"),
        }
        page
    }

    /// Receive side of one diff (sub-)reply: charges apply costs, buffers
    /// the records, and settles the inflight key. The caller runs
    /// [`Core::maybe_apply_buffered`] once all sibling sub-replies landed.
    fn accept_diff_reply(&mut self, src: NodeId, page: u32, records: Diffs) {
        let mut cost = 0;
        let mut bytes = 0;
        for r in records.iter() {
            bytes += r.modified_bytes();
            cost += self.cfg.diff_apply_cost(r.modified_bytes());
        }
        self.note_cost(MsgClass::System, CostPhase::DiffApply, cost);
        self.charge(cost);
        self.buffer_page_diffs(page, records);
        self.fetch_done(src, page, bytes);
    }

    /// Adds `batch`, whose records are all for `page`, to the page's
    /// buffer: it becomes the buffer, or is appended to it, whole.
    fn buffer_page_diffs(&mut self, page: u32, batch: Diffs) {
        match self.pending_diffs.entry(page) {
            Entry::Vacant(e) => {
                e.insert(batch);
            }
            Entry::Occupied(mut e) => e.get_mut().extend(&batch),
        }
    }

    /// Adds a RELEASE's `batch` to the per-page buffers: whole when it
    /// holds one page's diffs, record by record otherwise.
    fn buffer_diffs(&mut self, batch: Diffs) {
        let page = batch.get(0).page;
        if batch.iter().all(|d| d.page == page) {
            self.buffer_page_diffs(page, batch);
        } else {
            for d in batch.iter() {
                self.pending_diffs.entry(d.page).or_default().push(d);
            }
        }
    }

    /// Receive side of one whole-granule (sub-)reply: charges copy costs,
    /// installs the granule, and settles the inflight key.
    fn accept_page_reply(&mut self, src: NodeId, page: u32, data: Vec<u8>, applied: Vc) {
        let copy_cost = self.cfg.page_copy_cost(data.len());
        self.note_cost(MsgClass::System, CostPhase::PageCopy, copy_cost);
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
    /// (with the granule's size class).
    fn fetch_done(&mut self, src: NodeId, page: u32, bytes: usize) {
        if self.inflight.remove(&(page, src)) {
            emit(&self.sink, || Event::FetchFinished {
                node: self.node(),
                server: src,
                page,
                at: self.ctx.now(),
            });
        }
        emit(&self.sink, || Event::FetchFulfilled {
            node: self.node(),
            server: src,
            page,
            granule: GranuleClass::of(
                self.engine.granule_len(page),
                self.engine.config().page_size,
            ),
            bytes,
            at: self.ctx.now(),
        });
    }

    /// Reports a demand fetch of `page` going to `server`.
    fn note_fetch(&self, server: NodeId, page: u32, kind: FetchKind) {
        emit(&self.sink, || Event::FetchStarted {
            node: self.node(),
            server,
            page,
            kind,
            at: self.ctx.now(),
        });
    }

    /// Reports a repair request to `origin` for the records up to `want`.
    fn note_repair(&self, origin: NodeId, want: &Vc) {
        emit(&self.sink, || Event::RepairRequested {
            node: self.node(),
            origin,
            have: self.engine.vt().as_slice(),
            want: want.as_slice(),
        });
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
                self.engine.apply_diff_records(page, &all);
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
                self.note_repair(p.msg.origin, &p.required);
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
        self.note_cost(msg.annotation.class(), CostPhase::Recv, cost);
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
    /// Creates the runtime for the node behind `ctx`, its transport
    /// acknowledging in the cluster's mode ([`NodeCtx::ack`]).
    ///
    /// # Panics
    ///
    /// Panics if the LRC cluster size disagrees with the simulated one.
    #[must_use]
    pub fn new(ctx: NodeCtx, lrc_cfg: LrcConfig, cfg: CoreConfig) -> Self {
        assert_eq!(
            lrc_cfg.n_nodes,
            ctx.num_nodes(),
            "LRC config cluster size must match the simulated cluster"
        );
        let n = ctx.num_nodes();
        let sink = ctx.sink();
        let mut engine = LrcEngine::new(ctx.node_id(), lrc_cfg);
        if cfg.strategy == crate::config::Strategy::Update {
            engine.keep_fetched_diffs();
        }
        if let Some(s) = &sink {
            engine.set_sink(Rc::clone(s));
        }
        let transport = Transport::new(ctx.clone(), ctx.ack());
        Self {
            core: Core {
                ctx,
                transport,
                engine,
                cfg,
                known: (0..n).map(|_| Vc::new(n)).collect(),
                accepted: VecDeque::new(),
                stored: BTreeMap::new(),
                next_store_id: 1,
                pending_accepts: Vec::new(),
                inflight: BTreeSet::new(),
                pending_diffs: BTreeMap::new(),
                force_diffs: BTreeSet::new(),
                sink,
            },
            handlers: HashMap::new(),
        }
    }

    /// Reports the event `ev` builds to the cluster's sink, if one is
    /// attached; layers above the runtime (the sync library's waits) emit
    /// through here.
    pub fn emit<'a>(&self, ev: impl FnOnce() -> Event<'a>) {
        emit(&self.core.sink, ev);
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
        emit(&self.core.sink, || Event::MsgDispatched {
            node: self.core.node(),
            src,
            class: if msg.handler >= SYS_HANDLER_BASE {
                MsgClass::System
            } else {
                msg.annotation.class()
            },
            handler: msg.handler,
            bytes: bytes.len(),
            at: self.core.ctx.now(),
        });
        if msg.handler >= SYS_HANDLER_BASE {
            self.core.handle_sys(msg);
            self.eager_fetch_invalidated();
            return;
        }
        self.core.note_incoming(&msg);
        // The handler borrows its slot and the core (via Env) side by side:
        // one lookup per message, nothing removed or re-inserted.
        if let Some(h) = self.handlers.get_mut(&msg.handler) {
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
    /// flags the peer down after [`carlos_sim::ArqTuning::probe_rtos`] RTOs.
    pub fn probe_peer(&mut self, peer: NodeId) {
        self.core.transport.probe(peer);
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
    ///
    /// Without coalescing, every request goes out alone as it is made, in
    /// demand order (pinned by the golden fingerprints). With it, requests
    /// are grouped by serving node and each group goes out as one request.
    fn issue_demands(&mut self, demands: Vec<Demand>) -> Vec<(u32, NodeId)> {
        let coalesce = self.core.cfg.variable_granularity;
        let mut fresh: BTreeMap<NodeId, Vec<BatchEntry>> = BTreeMap::new();
        let mut waiting: Vec<(u32, NodeId)> = Vec::new();
        for d in demands {
            let (to, mut entry) = match d {
                Demand::Diffs {
                    to,
                    page,
                    after,
                    through,
                } => (to, BatchEntry { after, through, ..BatchEntry::new(KIND_DIFFS, page) }),
                Demand::Page { to, page } => (to, BatchEntry::new(KIND_PAGE, page)),
            };
            let key = (entry.page, to);
            waiting.push(key);
            if !self.core.inflight.insert(key) {
                continue;
            }
            if entry.kind == KIND_DIFFS {
                self.core.ctx.count("carlos.diff_requests", 1);
                self.core.note_fetch(to, entry.page, FetchKind::Diffs);
                entry.force = self.core.force_diffs.contains(&key);
            } else {
                self.core.ctx.count("carlos.page_requests", 1);
                self.core.note_fetch(to, entry.page, FetchKind::Page);
            }
            if coalesce {
                fresh.entry(to).or_default().push(entry);
            } else {
                self.send_demands(to, &[entry]);
            }
        }
        for (to, entries) in fresh {
            self.send_demands(to, &entries);
        }
        waiting
    }

    /// Sends `entries` to `to`: one entry as SYS_DIFF_REQ or SYS_PAGE_REQ,
    /// two or more as one SYS_BATCH_REQ.
    fn send_demands(&mut self, to: NodeId, entries: &[BatchEntry]) {
        let mut body = Encoder::new();
        let handler = if let [e] = entries {
            e.encode(&mut body, false);
            if e.kind == KIND_DIFFS {
                SYS_DIFF_REQ
            } else {
                SYS_PAGE_REQ
            }
        } else {
            self.core.ctx.count("carlos.batch_requests", 1);
            self.core.ctx.count("carlos.batched_fetches", entries.len() as u64);
            body.put_u32(entries.len() as u32);
            for e in entries {
                body.put_u8(e.kind);
                e.encode(&mut body, true);
            }
            SYS_BATCH_REQ
        };
        self.core.send_sys(to, handler, body.finish_vec());
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
                            "page {page} fetch abandoned after {rounds} timeout rounds: \
                             node {server} is {}",
                            if self.core.transport.peer_down(server) {
                                "down"
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
    let (i, n) = (1..records.len()).find_map(|i| {
        let (prev, rec) = (records.get(i - 1), records.get(i));
        if prev.creator != rec.creator {
            return None;
        }
        let changed = |&n: &usize| n != rec.creator as usize && rec.vt[n] != prev.vt[n];
        (0..rec.vt.len()).find(changed).map(|n| (i, n))
    })?;
    let mut mutated = msg.clone();
    if let Consistency::Release { records, .. } = &mut mutated.consistency {
        *records = records
            .iter()
            .enumerate()
            .map(|(j, rec)| {
                let mut rec = carlos_lrc::IntervalRecord::from(rec);
                if j == i {
                    rec.vc.set(n as u32, records.get(i - 1).vt[n]);
                }
                rec
            })
            .collect();
    }
    Some(mutated)
}
