//! Wire-delivery log: message-level vector clocks and racing-pair queries.
//!
//! The checker's oracle and interval mirror track the *protocol's* vector
//! timestamps; the schedule explorer needs something lower-level — the
//! happens-before relation over raw wire deliveries, independent of what
//! the protocol claims. This module derives it from the wire events the
//! checker already observes:
//!
//! - every frame **send** is an event at the sender (bump the sender's own
//!   clock component, snapshot the clock into the in-flight frame);
//! - every frame **delivery** is an event at the receiver (join the
//!   carried send clock, then bump the receiver's own component).
//!
//! Two deliveries at the same node then *race* — their order could flip
//! under a different schedule without violating causality — exactly when
//! the later frame's send does not causally depend on the earlier
//! delivery, which reduces to one component comparison
//! ([`DeliveryEvent::flip_unordered`]). This is the classic
//! message-passing DPOR condition: co-enabled receives at one endpoint
//! whose sends are concurrent.
//!
//! Loopback datagrams never produce wire events, which is harmless:
//! both endpoints are the same node, and intra-node program order is
//! already captured by that node's own clock component.

use std::collections::{BTreeMap, VecDeque};

use carlos_sim::{
    transport::{frame_header, KIND_DATA},
    NodeId, Ns,
};

/// One wire delivery, annotated with message-level vector clocks.
///
/// `send_clock` is the sender's clock at the moment the frame was handed
/// to the wire (own component already bumped for this send);
/// `deliver_clock` is the receiver's clock just after absorbing the frame
/// (join + own bump). Clock components count wire events per node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveryEvent {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Transport kind byte (0 = DATA; [`u8::MAX`] for unframed payloads).
    pub kind: u8,
    /// Transport sequence number on the (src, dst) pair (DATA frames).
    pub seq: u32,
    /// Virtual time the frame was handed to the wire.
    pub sent_at: Ns,
    /// Virtual time the frame reached the destination mailbox.
    pub delivered_at: Ns,
    /// Sender's message clock at send (own component included).
    pub send_clock: Vec<u64>,
    /// Receiver's message clock after this delivery.
    pub deliver_clock: Vec<u64>,
}

impl DeliveryEvent {
    /// True for transport DATA frames — the only frames a
    /// [`carlos_sim::SchedulePlan`] can name.
    #[must_use]
    pub fn is_data(&self) -> bool {
        self.kind == KIND_DATA
    }

    /// True when delivering `later` *before* `self` would still respect
    /// causality: both frames target the same node, come from different
    /// senders, and the later frame's send does not causally depend on
    /// this delivery. Such a pair is a racing-delivery frontier candidate
    /// — perturbing this frame's flow can realize the flipped order.
    #[must_use]
    pub fn flip_unordered(&self, later: &DeliveryEvent) -> bool {
        self.dst == later.dst
            && self.src != later.src
            && later.send_clock[self.dst as usize] < self.deliver_clock[self.dst as usize]
    }
}

/// A frame handed to the wire but not yet delivered or dropped.
#[derive(Debug)]
struct InFlight {
    seq: u32,
    sent_at: Ns,
    clock: Vec<u64>,
}

/// Accumulates wire events into ordered [`DeliveryEvent`]s.
#[derive(Debug)]
pub(crate) struct DeliveryLog {
    /// Per-node message-level vector clock (wire events only).
    node_clock: Vec<Vec<u64>>,
    /// Frames on the wire, per (src, dst) pair, in send order.
    in_flight: BTreeMap<(NodeId, NodeId), VecDeque<InFlight>>,
    /// Deliveries in observation (virtual-time) order.
    events: Vec<DeliveryEvent>,
}

/// `(kind, seq)` of a frame; a payload too short for a transport header is
/// recorded as kind [`u8::MAX`], sequence 0.
fn header(payload: &[u8]) -> (u8, u32) {
    frame_header(payload).unwrap_or((u8::MAX, 0))
}

fn join(into: &mut [u64], from: &[u64]) {
    for (a, b) in into.iter_mut().zip(from) {
        *a = (*a).max(*b);
    }
}

impl DeliveryLog {
    pub fn new(n_nodes: usize) -> Self {
        Self {
            node_clock: vec![vec![0; n_nodes]; n_nodes],
            in_flight: BTreeMap::new(),
            events: Vec::new(),
        }
    }

    /// A frame left `src` toward `dst` (it may still be dropped).
    pub fn on_sent(&mut self, src: NodeId, dst: NodeId, at: Ns, payload: &[u8]) {
        let (_, seq) = header(payload);
        let clock = &mut self.node_clock[src as usize];
        clock[src as usize] += 1;
        let snapshot = clock.clone();
        self.in_flight.entry((src, dst)).or_default().push_back(InFlight {
            seq,
            sent_at: at,
            clock: snapshot,
        });
    }

    /// Loss injection dropped the frame sent at `at` (fired immediately
    /// after its `on_sent`, so it is the newest in-flight entry).
    pub fn on_dropped(&mut self, src: NodeId, dst: NodeId, at: Ns, payload: &[u8]) {
        let (_, seq) = header(payload);
        if let Some(q) = self.in_flight.get_mut(&(src, dst)) {
            if let Some(pos) = q
                .iter()
                .rposition(|f| f.sent_at == at && f.seq == seq)
            {
                q.remove(pos);
            }
        }
    }

    /// A frame reached `dst`'s mailbox: join clocks and record the event.
    pub fn on_delivered(
        &mut self,
        src: NodeId,
        dst: NodeId,
        sent_at: Ns,
        delivered_at: Ns,
        payload: &[u8],
    ) {
        let (kind, seq) = header(payload);
        // Deliveries are FIFO per pair except under seeded reordering, so
        // match by identity rather than assuming the queue front.
        let sent = self.in_flight.get_mut(&(src, dst)).and_then(|q| {
            q.iter()
                .position(|f| f.sent_at == sent_at && f.seq == seq)
                .and_then(|pos| q.remove(pos))
        });
        let send_clock = match sent {
            Some(f) => f.clock,
            // Sink attached mid-run or unmatched retransmit: fall back
            // to the sender's current clock (conservative over-ordering).
            None => self.node_clock[src as usize].clone(),
        };
        let clock = &mut self.node_clock[dst as usize];
        join(clock, &send_clock);
        clock[dst as usize] += 1;
        self.events.push(DeliveryEvent {
            src,
            dst,
            kind,
            seq,
            sent_at,
            delivered_at,
            send_clock,
            deliver_clock: clock.clone(),
        });
    }

    pub fn events(&self) -> &[DeliveryEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(seq: u32) -> Vec<u8> {
        let mut p = vec![0u8; 16];
        p[1..5].copy_from_slice(&seq.to_le_bytes());
        p
    }

    #[test]
    fn independent_sends_race_at_common_destination() {
        let mut log = DeliveryLog::new(3);
        log.on_sent(0, 2, 10, &data(0));
        log.on_sent(1, 2, 11, &data(0));
        log.on_delivered(0, 2, 10, 20, &data(0));
        log.on_delivered(1, 2, 11, 25, &data(0));
        let ev = log.events();
        assert_eq!(ev.len(), 2);
        // Node 1's send never saw node 0's delivery: the pair races.
        assert!(ev[0].flip_unordered(&ev[1]));
    }

    #[test]
    fn causal_chain_orders_the_pair() {
        let mut log = DeliveryLog::new(3);
        // 0 -> 2 delivered, then 2 -> 1, then 1 -> 2: the second delivery
        // at node 2 causally follows the first.
        log.on_sent(0, 2, 10, &data(0));
        log.on_delivered(0, 2, 10, 20, &data(0));
        log.on_sent(2, 1, 21, &data(0));
        log.on_delivered(2, 1, 21, 30, &data(0));
        log.on_sent(1, 2, 31, &data(0));
        log.on_delivered(1, 2, 31, 40, &data(0));
        let ev = log.events();
        assert_eq!(ev.len(), 3);
        assert!(!ev[0].flip_unordered(&ev[2]), "chained deliveries must not race");
    }

    #[test]
    fn same_source_deliveries_do_not_race() {
        let mut log = DeliveryLog::new(2);
        log.on_sent(0, 1, 10, &data(0));
        log.on_sent(0, 1, 12, &data(1));
        log.on_delivered(0, 1, 10, 20, &data(0));
        log.on_delivered(0, 1, 12, 22, &data(1));
        let ev = log.events();
        assert!(!ev[0].flip_unordered(&ev[1]), "per-pair FIFO is not a race");
    }

    #[test]
    fn dropped_frames_leave_no_event() {
        let mut log = DeliveryLog::new(2);
        log.on_sent(0, 1, 10, &data(0));
        log.on_dropped(0, 1, 10, &data(0));
        log.on_sent(0, 1, 12, &data(1));
        log.on_delivered(0, 1, 12, 22, &data(1));
        assert_eq!(log.events().len(), 1);
        assert_eq!(log.events()[0].seq, 1);
    }

    #[test]
    fn a_payload_too_short_for_a_header_is_raw() {
        let mut log = DeliveryLog::new(2);
        log.on_sent(0, 1, 10, &[KIND_DATA, 7, 0, 0]);
        log.on_delivered(0, 1, 10, 20, &[KIND_DATA, 7, 0, 0]);
        log.on_sent(0, 1, 30, &data(7));
        log.on_delivered(0, 1, 30, 40, &data(7));
        let ev = log.events();
        assert_eq!((ev[0].kind, ev[0].seq, ev[0].is_data()), (u8::MAX, 0, false));
        assert_eq!((ev[1].kind, ev[1].seq, ev[1].is_data()), (KIND_DATA, 7, true));
    }
}
