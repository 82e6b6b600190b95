//! Reliable, in-order message delivery over datagrams.
//!
//! CarlOS messages "are implemented using UDP/IP datagrams supplemented with
//! a sliding window protocol to assure reliable, in-order delivery" (§4.3).
//! [`Transport`] implements that protocol: per-peer sequence numbers, a
//! bounded in-flight window, cumulative acknowledgements, go-back-N
//! retransmission on timeout, duplicate suppression, and a reorder buffer.
//!
//! Two modes are provided:
//!
//! - [`AckMode::Implicit`] — no acknowledgement traffic. Correct only on a
//!   loss-free FIFO wire (which the simulated shared Ethernet is when loss
//!   injection is off). The benchmark harnesses use this mode so message
//!   counts match the paper's tables, which were measured on an isolated
//!   Ethernet without retransmissions.
//! - [`AckMode::Arq`] — the full sliding-window protocol, exercised by the
//!   loss-injection tests.

use std::{
    collections::{BTreeMap, VecDeque},
    ops::Deref,
    rc::Rc,
};

use carlos_util::{
    event::{emit, Event, Sink},
    rng::SplitMix64,
};

use crate::{
    cluster::NodeCtx,
    time::{NodeId, Ns},
};

/// Acknowledgement strategy for a [`Transport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckMode {
    /// No acks, no retransmission. Requires a loss-free in-order wire.
    Implicit,
    /// Sliding window with cumulative acks and go-back-N retransmission.
    Arq {
        /// Maximum unacknowledged data messages per peer.
        window: u32,
        /// Retransmission timeout.
        rto: Ns,
    },
}

/// Wire header: 1 byte kind + 4 bytes sequence/ack number.
pub(crate) const HEADER_BYTES: usize = 5;
/// Frame kind of an application message; its header field is the per-pair
/// sequence number that names the frame's flow.
pub const KIND_DATA: u8 = 0;
/// Frame kind of a cumulative acknowledgement (header field: the ack).
pub const KIND_ACK: u8 = 1;
/// Frame kind of a failure-detector probe.
pub const KIND_PING: u8 = 2;
/// Frame kind of the answer to a probe.
pub const KIND_PONG: u8 = 3;

/// Decodes a frame's transport header into `(kind, seq)`: the kind byte,
/// then the 4-byte little-endian sequence (or ack) number. `None` for a
/// payload too short to carry a header.
#[must_use]
pub fn frame_header(payload: &[u8]) -> Option<(u8, u32)> {
    let seq = payload.get(1..HEADER_BYTES)?;
    Some((payload[0], u32::from_le_bytes(seq.try_into().ok()?)))
}

/// Cap on the ARQ backoff shift: after the `attempts`-th consecutive
/// timeout the retransmit interval is `rto << min(attempts - 1,
/// MAX_BACKOFF_EXP)`, plus a small deterministic per-(node, peer, attempt)
/// jitter that decorrelates retransmit storms between nodes without
/// breaking run-to-run determinism.
const MAX_BACKOFF_EXP: u32 = 6;

/// Consecutive retransmission timeouts without ack progress after which
/// the peer is flagged down ([`Transport::peer_down`]). Retransmission
/// continues at the capped interval so a healed partition still recovers.
const MAX_ATTEMPTS: u32 = 30;

/// RTOs an explicit [`Transport::probe`] waits for any sign of life
/// before flagging the peer down.
pub const PROBE_RTOS: u32 = 8;

/// An outgoing message body with transport-header headroom in front.
///
/// Framing writes the 5-byte header into the headroom in place, so the
/// buffer a sender encoded into is the datagram that crosses the wire: one
/// allocation per frame. The frame is owned all the way to the receiving
/// transport, which reads the body past the header ([`Body`]). Only ARQ's
/// go-back-N queue holds a second copy of a frame. Senders that already
/// encode through [`carlos_util::codec::Encoder`] should reserve
/// [`FrameBuf::HEADROOM`] placeholder bytes up front and wrap the result
/// with [`FrameBuf::from_reserved`]; anything else (tests, raw byte
/// payloads) converts via `From<Vec<u8>>` / [`FrameBuf::from_body`], which
/// pays one copy.
#[derive(Debug)]
pub struct FrameBuf(Vec<u8>);

impl FrameBuf {
    /// Placeholder bytes a pre-reserved buffer must carry in front of the
    /// payload (the transport header is written over them).
    pub const HEADROOM: usize = HEADER_BYTES;

    /// Wraps a buffer whose first [`Self::HEADROOM`] bytes are placeholder
    /// header space (the payload starts at byte [`Self::HEADROOM`]).
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than the headroom.
    #[must_use]
    pub fn from_reserved(buf: Vec<u8>) -> Self {
        assert!(
            buf.len() >= Self::HEADROOM,
            "frame buffer missing header headroom"
        );
        Self(buf)
    }

    /// Copies `body` into a fresh buffer behind header headroom.
    #[must_use]
    pub fn from_body(body: &[u8]) -> Self {
        let mut buf = Vec::with_capacity(Self::HEADROOM + body.len());
        buf.extend_from_slice(&[0u8; Self::HEADROOM]);
        buf.extend_from_slice(body);
        Self(buf)
    }

    /// Fills in the header and hands the frame over for the wire.
    fn seal(mut self, kind: u8, seq: u32) -> Vec<u8> {
        self.0[0] = kind;
        self.0[1..HEADER_BYTES].copy_from_slice(&seq.to_le_bytes());
        self.0
    }
}

impl From<Vec<u8>> for FrameBuf {
    fn from(body: Vec<u8>) -> Self {
        Self::from_body(&body)
    }
}

impl From<&[u8]> for FrameBuf {
    fn from(body: &[u8]) -> Self {
        Self::from_body(body)
    }
}

/// A delivered message: the received data frame, read past its transport
/// header (the header is skipped, not copied away).
#[derive(Debug)]
pub struct Body(Vec<u8>);

impl Deref for Body {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0[HEADER_BYTES..]
    }
}

fn frame_ack(cum: u32) -> Vec<u8> {
    FrameBuf::from_body(&[]).seal(KIND_ACK, cum)
}

fn frame_ping() -> Vec<u8> {
    FrameBuf::from_body(&[]).seal(KIND_PING, 0)
}

fn frame_pong() -> Vec<u8> {
    FrameBuf::from_body(&[]).seal(KIND_PONG, 0)
}

#[derive(Debug, Default)]
struct PeerTx {
    next_seq: u32,
    /// Sent but unacknowledged `(seq, sealed frame)` in seq order: a copy
    /// of each frame sent, so a retransmission re-sends the same bytes
    /// without re-framing.
    unacked: VecDeque<(u32, Vec<u8>)>,
    /// Waiting for window space (not yet framed: no sequence number yet).
    queued: VecDeque<FrameBuf>,
    /// Absolute deadline of the pending retransmission timer.
    rto_at: Option<Ns>,
    /// Consecutive retransmission timeouts without ack progress.
    attempts: u32,
    /// Failure-detector verdict: the peer has gone `MAX_ATTEMPTS` timeouts
    /// (or an unanswered probe) without any sign of life. Cleared the
    /// moment anything arrives from the peer.
    down: bool,
    /// Deadline by which an outstanding [`Transport::probe`] ping must be
    /// answered (by any datagram from the peer).
    probe_deadline: Option<Ns>,
}

#[derive(Debug, Default)]
struct PeerRx {
    next_seq: u32,
    /// Out-of-order arrivals awaiting the gap to fill.
    reorder: BTreeMap<u32, Body>,
}

/// Reliable in-order transport endpoint for one node.
///
/// All methods run on the owning node's proc. Incoming datagrams are read
/// from the node mailbox; user messages come out of [`Transport::wait`] /
/// [`Transport::poll`] in per-sender order, exactly once.
pub struct Transport {
    ctx: NodeCtx,
    mode: AckMode,
    tx: Vec<PeerTx>,
    rx: Vec<PeerRx>,
    ready: VecDeque<(NodeId, Body)>,
    /// The cluster's event sink, taken from the context at creation.
    sink: Option<Rc<dyn Sink>>,
}

impl Transport {
    /// Creates the endpoint for the node behind `ctx`; it reports its data
    /// frames to the cluster's event sink, if one is attached. Sequence
    /// numbers are per (sender, receiver) pair, so `(node, dst, seq)` names
    /// one data frame for the whole run (the tracer's flow id).
    #[must_use]
    pub fn new(ctx: NodeCtx, mode: AckMode) -> Self {
        let n = ctx.num_nodes();
        Self {
            sink: ctx.sink(),
            ctx,
            mode,
            tx: (0..n).map(|_| PeerTx::default()).collect(),
            rx: (0..n).map(|_| PeerRx::default()).collect(),
            ready: VecDeque::new(),
        }
    }

    /// The node context this transport runs on.
    #[must_use]
    pub fn ctx(&self) -> &NodeCtx {
        &self.ctx
    }

    /// Whether the failure detector currently considers `peer` dead: it has
    /// gone `MAX_ATTEMPTS` (30) consecutive retransmission timeouts, or an
    /// unanswered [`Transport::probe`], without any datagram arriving from
    /// it. Any later arrival clears the verdict (and counts
    /// `transport.peer_revived`), so a healed partition recovers.
    #[must_use]
    pub fn peer_down(&self, peer: NodeId) -> bool {
        self.tx
            .get(peer as usize)
            .is_some_and(|p| p.down)
    }

    /// Sends a liveness probe (ping) to `peer` unless one is already
    /// outstanding. If nothing — pong, ack, or data — arrives from the peer
    /// within [`PROBE_RTOS`] RTOs, the failure detector flags it down.
    /// No-op in Implicit mode and for self.
    ///
    /// Probes ride the normal datagram path, so they also serve as traffic
    /// that re-opens a healed link: the peer's pong resets this node's
    /// backoff state immediately.
    pub fn probe(&mut self, peer: NodeId) {
        let AckMode::Arq { rto, .. } = self.mode else {
            return;
        };
        if peer == self.ctx.node_id() || self.tx[peer as usize].probe_deadline.is_some() {
            return;
        }
        let wait = rto * Ns::from(PROBE_RTOS);
        self.tx[peer as usize].probe_deadline = Some(self.ctx.now() + wait);
        self.ctx.count("transport.pings", 1);
        self.ctx.send_datagram(peer, frame_ping());
    }

    /// Sends `msg` to `dst` reliably and in order. Asynchronous: returns
    /// after local send processing, not delivery.
    pub fn send(&mut self, dst: NodeId, msg: impl Into<FrameBuf>) {
        let msg = msg.into();
        if dst == self.ctx.node_id() {
            // Loopback delivery is lossless and in order by construction,
            // and a node never acknowledges itself — putting loopback
            // frames in the ARQ window would retransmit them forever.
            let seq = self.tx[dst as usize].next_seq;
            self.tx[dst as usize].next_seq += 1;
            let sealed = msg.seal(KIND_DATA, seq);
            self.note_sent(dst, seq, sealed.len());
            self.ctx.send_datagram(dst, sealed);
            return;
        }
        match self.mode {
            AckMode::Implicit => {
                let seq = self.tx[dst as usize].next_seq;
                self.tx[dst as usize].next_seq += 1;
                let sealed = msg.seal(KIND_DATA, seq);
                self.note_sent(dst, seq, sealed.len());
                self.ctx.send_datagram(dst, sealed);
            }
            AckMode::Arq { window, rto } => {
                let peer = &mut self.tx[dst as usize];
                if (peer.unacked.len() as u32) < window {
                    let seq = peer.next_seq;
                    peer.next_seq += 1;
                    let sealed = msg.seal(KIND_DATA, seq);
                    peer.unacked.push_back((seq, sealed.clone()));
                    if peer.rto_at.is_none() {
                        peer.rto_at = Some(self.ctx.now() + rto);
                    }
                    self.note_sent(dst, seq, sealed.len());
                    self.ctx.send_datagram(dst, sealed);
                } else {
                    emit(&self.sink, || Event::DataQueued {
                        node: self.ctx.node_id(),
                        dst,
                        bytes: msg.0.len(),
                        at: self.ctx.now(),
                    });
                    peer.queued.push_back(msg);
                }
            }
        }
    }

    /// Returns the next ready user message without blocking, after draining
    /// any datagrams already in the mailbox.
    pub fn poll(&mut self) -> Option<(NodeId, Body)> {
        self.drain_mailbox();
        self.ready.pop_front()
    }

    /// Blocks until a user message is available or `deadline` (absolute
    /// virtual time) passes. Drives retransmission timers while waiting.
    pub fn wait(&mut self, deadline: Option<Ns>) -> Option<(NodeId, Body)> {
        loop {
            if let Some(m) = self.poll() {
                return Some(m);
            }
            let now = self.ctx.now();
            if let Some(dl) = deadline {
                if now >= dl {
                    return None;
                }
            }
            let rto = self.earliest_timer();
            let wait_until = match (deadline, rto) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (Some(a), None) => Some(a),
                (None, b) => b,
            };
            match self.ctx.wait_recv(wait_until) {
                Some(d) => self.handle_datagram(d.src, d.payload),
                None => self.fire_timeouts(),
            }
        }
    }

    /// True if any peer has unacknowledged or queued data (Arq mode).
    #[must_use]
    pub fn has_unacked(&self) -> bool {
        self.tx
            .iter()
            .any(|p| !p.unacked.is_empty() || !p.queued.is_empty())
    }

    /// Blocks until all sent data has been acknowledged (no-op in Implicit
    /// mode), bounded to 32 retransmission timeouts per call.
    ///
    /// The bound matters at shutdown: if this node's final acknowledgement
    /// to a peer was lost after the peer already exited, no ack will ever
    /// arrive and an unbounded flush would retransmit forever. Real stacks
    /// bound connection teardown the same way.
    pub fn flush(&mut self) {
        let AckMode::Arq { rto, .. } = self.mode else {
            return;
        };
        // Progress-based bound: each incoming datagram (ack or data) pushes
        // the give-up deadline out again, so heavy loss merely slows the
        // flush; only total silence — a peer that already exited — ends it.
        let mut deadline = self.ctx.now() + rto * 32;
        while self.has_unacked() {
            if self.ctx.now() >= deadline {
                // Count what is being abandoned — every frame still unacked
                // or never sent — then drop it all so the give-up is final
                // (and a later flush is an immediate no-op) instead of
                // silently retaining frames that will never be delivered.
                let abandoned: usize = self
                    .tx
                    .iter()
                    .map(|p| p.unacked.len() + p.queued.len())
                    .sum();
                self.ctx
                    .count("transport.flush_abandoned", abandoned as u64);
                self.ctx.count("transport.flush_gave_up", 1);
                for p in &mut self.tx {
                    p.unacked.clear();
                    p.queued.clear();
                    p.rto_at = None;
                }
                return;
            }
            let next = self.earliest_timer().map_or(deadline, |t| t.min(deadline));
            match self.ctx.wait_recv(Some(next)) {
                Some(d) => {
                    self.handle_datagram(d.src, d.payload);
                    deadline = self.ctx.now() + rto * 32;
                }
                None => self.fire_timeouts(),
            }
        }
    }

    fn drain_mailbox(&mut self) {
        while let Some(d) = self.ctx.try_recv() {
            self.handle_datagram(d.src, d.payload);
        }
    }

    /// Earliest pending transport timer: retransmission or probe deadline.
    fn earliest_timer(&self) -> Option<Ns> {
        self.tx
            .iter()
            .flat_map(|p| [p.rto_at, p.probe_deadline])
            .flatten()
            .min()
    }

    /// Backoff interval after the `attempts`-th consecutive timeout to
    /// `dst`: `rto << min(attempts - 1, cap)` plus a deterministic jitter of
    /// up to interval/8 derived from (node, peer, attempt) — two nodes
    /// retransmitting to each other never stay phase-locked, yet the same
    /// run replays identically.
    fn backoff_interval(&self, dst: NodeId, attempts: u32, rto: Ns) -> Ns {
        let base = rto << attempts.saturating_sub(1).min(MAX_BACKOFF_EXP);
        let me = u64::from(self.ctx.node_id());
        let seed = me ^ (u64::from(dst) << 16) ^ (u64::from(attempts) << 32);
        base + SplitMix64::new(seed).next_u64() % (base / 8 + 1)
    }

    fn fire_timeouts(&mut self) {
        let AckMode::Arq { rto, .. } = self.mode else {
            return;
        };
        let now = self.ctx.now();
        for dst in 0..self.tx.len() {
            // An expired probe deadline means the ping went unanswered.
            if self.tx[dst].probe_deadline.is_some_and(|t| t <= now) {
                self.tx[dst].probe_deadline = None;
                self.ctx.count("transport.probe_timeouts", 1);
                if !self.tx[dst].down {
                    self.tx[dst].down = true;
                    self.ctx.count("transport.peer_down", 1);
                }
            }
            let due = self.tx[dst].rto_at.is_some_and(|t| t <= now);
            if !due {
                continue;
            }
            // Go-back-N: retransmit everything unacknowledged. The frames
            // were sealed at first transmission, so each retransmit is a
            // copy of the original bytes. Retransmission continues even
            // once the peer is flagged down — at the capped backoff
            // interval it doubles as a cheap reprobe, so a healed partition
            // recovers without explicit reconnection.
            let frames: Vec<(u32, Vec<u8>)> = self.tx[dst].unacked.iter().cloned().collect();
            for (seq, payload) in frames {
                self.ctx.count("transport.retransmits", 1);
                emit(&self.sink, || Event::DataRetransmitted {
                    node: self.ctx.node_id(),
                    dst: dst as NodeId,
                    seq,
                    bytes: payload.len(),
                    at: self.ctx.now(),
                });
                self.ctx.send_datagram(dst as NodeId, payload);
            }
            if self.tx[dst].unacked.is_empty() {
                self.tx[dst].rto_at = None;
                continue;
            }
            let attempts = self.tx[dst].attempts.saturating_add(1);
            self.tx[dst].attempts = attempts;
            if attempts >= MAX_ATTEMPTS && !self.tx[dst].down {
                self.tx[dst].down = true;
                self.ctx.count("transport.peer_down", 1);
            }
            let interval = self.backoff_interval(dst as NodeId, attempts, rto);
            self.tx[dst].rto_at = Some(self.ctx.now() + interval);
        }
    }

    /// Any datagram from `src` is proof of life: it clears the failure
    /// detector's verdict and any outstanding probe.
    fn note_heard(&mut self, src: NodeId) {
        let peer = &mut self.tx[src as usize];
        peer.probe_deadline = None;
        if peer.down {
            peer.down = false;
            peer.attempts = 0;
            self.ctx.count("transport.peer_revived", 1);
        }
    }

    fn handle_datagram(&mut self, src: NodeId, payload: Vec<u8>) {
        let Some((kind, seq)) = frame_header(&payload) else {
            // Corrupt or foreign datagram; the real system would log and drop.
            self.ctx.count("transport.malformed", 1);
            return;
        };
        self.note_heard(src);
        match kind {
            KIND_DATA => self.handle_data(src, seq, Body(payload)),
            KIND_ACK => self.handle_ack(src, seq),
            KIND_PING => {
                self.ctx.count("transport.pings_answered", 1);
                if src != self.ctx.node_id() {
                    self.ctx.send_datagram(src, frame_pong());
                }
            }
            KIND_PONG => {}
            _ => self.ctx.count("transport.malformed", 1),
        }
    }

    fn handle_data(&mut self, src: NodeId, seq: u32, body: Body) {
        let me = self.ctx.node_id();
        let rx = &mut self.rx[src as usize];
        let delivered = |seq, bytes| Event::DataDelivered {
            node: me,
            src,
            seq,
            bytes,
            at: self.ctx.now(),
        };
        if seq < rx.next_seq {
            self.ctx.count("transport.duplicates", 1);
            emit(&self.sink, || Event::DataDuplicate {
                node: me,
                src,
                seq,
                at: self.ctx.now(),
            });
        } else if seq == rx.next_seq {
            rx.next_seq += 1;
            emit(&self.sink, || delivered(seq, body.len()));
            self.ready.push_back((src, body));
            // Drain any buffered successors.
            while let Some(b) = rx.reorder.remove(&rx.next_seq) {
                emit(&self.sink, || delivered(rx.next_seq, b.len()));
                rx.next_seq += 1;
                self.ready.push_back((src, b));
            }
        } else {
            rx.reorder.insert(seq, body);
            self.ctx.count("transport.reordered", 1);
        }
        if matches!(self.mode, AckMode::Arq { .. }) && src != self.ctx.node_id() {
            let cum = self.rx[src as usize].next_seq;
            self.ctx.count("transport.acks", 1);
            self.ctx.send_datagram(src, frame_ack(cum));
        }
    }

    fn handle_ack(&mut self, src: NodeId, cum: u32) {
        let AckMode::Arq { window, rto } = self.mode else {
            return;
        };
        let peer = &mut self.tx[src as usize];
        let before = peer.unacked.len();
        while peer.unacked.front().is_some_and(|(s, _)| *s < cum) {
            peer.unacked.pop_front();
        }
        if peer.unacked.len() < before {
            // Ack progress: the path works again; restart backoff from rto.
            peer.attempts = 0;
        }
        peer.rto_at = if peer.unacked.is_empty() {
            None
        } else {
            Some(self.ctx.now() + rto)
        };
        // Window space may have opened; seal and send queued data.
        let mut to_send = Vec::new();
        while (peer.unacked.len() as u32) < window {
            let Some(msg) = peer.queued.pop_front() else {
                break;
            };
            let seq = peer.next_seq;
            peer.next_seq += 1;
            let sealed = msg.seal(KIND_DATA, seq);
            peer.unacked.push_back((seq, sealed.clone()));
            to_send.push(sealed);
        }
        if !to_send.is_empty() && self.tx[src as usize].rto_at.is_none() {
            self.tx[src as usize].rto_at = Some(self.ctx.now() + rto);
        }
        for sealed in to_send {
            // The frame's sequence number sits in its sealed header.
            let (_, seq) = frame_header(&sealed).expect("a sealed frame has a header");
            self.note_sent(src, seq, sealed.len());
            self.ctx.send_datagram(src, sealed);
        }
    }

    /// Reports data frame `seq` of `bytes` going out to `dst`.
    fn note_sent(&self, dst: NodeId, seq: u32, bytes: usize) {
        emit(&self.sink, || Event::DataSent {
            node: self.ctx.node_id(),
            dst,
            seq,
            bytes,
            at: self.ctx.now(),
        });
    }
}
