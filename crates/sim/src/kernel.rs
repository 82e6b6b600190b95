//! Scheduler internals: the event queue, node states, and the wire model.
//!
//! One global [`Kernel`] sits in a `RefCell`. Each node runs at most one
//! proc, a coroutine on the thread that called `Cluster::run` (the
//! *runner*), so exactly one piece of simulation code executes at any
//! instant, and all virtual-time ordering comes from the event queue: runs
//! are deterministic.
//!
//! # Who drives the event loop
//!
//! Whoever gives up the CPU drives [`Kernel::drive`]. The runner starts. A
//! proc that parks pops events itself, through the kernel borrow it already
//! holds — `Deliver`s are handled inline, stale wakes are skipped, its own
//! wake resumes it in place without a switch — and when the next live wake
//! names another proc it leaves that proc in `running`, drops the borrow
//! and suspends to the runner, which resumes the named coroutine.
//!
//! `drive` only ever pops a plain, in-limits `Wake` or `Deliver`. Anything
//! else — a captured panic, no live procs, an empty queue, the event that
//! would trip `max_events` / `max_virtual_time`, a `Crash` — is left
//! un-popped and `drive` returns `None`: the runner is the only place that
//! builds a `SimError` or a report, or executes a crash.
//!
//! Event order, `ord` numbering, RNG draws and every kernel mutation are a
//! function of the queue alone; which stack executes them never shows.

use std::{
    any::Any,
    cmp::Reverse,
    collections::{BTreeMap, BinaryHeap, VecDeque},
    rc::Rc,
};

use carlos_util::{
    event::{self, emit, Sink},
    rng::{SplitMix64, Xoshiro256},
};

use crate::{
    cluster::{Datagram, NodeCtx},
    config::SimConfig,
    fault::{DropCause, FaultState},
    stats::{Counters, NetStats, TimeBuckets},
    time::{NodeId, Ns},
    transport::{frame_header, KIND_DATA},
};

/// The body of a proc, queued until the run starts it.
pub(crate) type ProcMain = Box<dyn FnOnce(NodeCtx)>;

/// What a scheduled event does when it fires.
#[derive(Debug)]
pub(crate) enum EvKind {
    /// Run `node`'s proc next, provided it is still parked with park
    /// ticket `seq` (stale wakes are ignored).
    Wake { node: NodeId, seq: u64 },
    /// Append a datagram to `dst`'s mailbox and wake its proc if it waits
    /// for mail.
    Deliver { dst: NodeId, dgram: Datagram },
    /// Fail-stop `node` per the fault plan: discard its mailbox, terminate
    /// its proc, drop all future deliveries to it.
    Crash { node: NodeId },
}

#[derive(Debug)]
pub(crate) struct Event {
    pub time: Ns,
    /// Global insertion sequence number: ties on `time` fire in push order,
    /// which keeps runs deterministic.
    pub ord: u64,
    pub kind: EvKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.ord == other.ord
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.ord).cmp(&(other.time, other.ord))
    }
}

/// Per-node state: its proc's scheduling state, mailbox, and statistics.
///
/// A node has at most one proc, so the proc's clock is the node's CPU: a
/// charge starts at `now` and nothing else on the node runs meanwhile.
pub(crate) struct NodeState {
    /// The proc's body, from `spawn_proc` until the runner builds its
    /// coroutine.
    pub main: Option<ProcMain>,
    /// True between park and the wake that selects the proc.
    pub parked: bool,
    /// The node has no proc, or its proc's main returned (or panicked).
    pub finished: bool,
    /// Ticket incremented on every park; wake events must match it.
    pub park_seq: u64,
    /// Parked specifically waiting for a mailbox delivery.
    pub waiting_for_msg: bool,
    pub mailbox: VecDeque<Datagram>,
    pub buckets: TimeBuckets,
    pub counters: Counters,
}

impl NodeState {
    fn new() -> Self {
        Self {
            main: None,
            parked: false,
            finished: true,
            park_seq: 0,
            waiting_for_msg: false,
            mailbox: VecDeque::new(),
            buckets: TimeBuckets::default(),
            counters: Counters::default(),
        }
    }
}

/// The global simulation state, borrowed by one stack at a time.
pub(crate) struct Kernel {
    pub config: SimConfig,
    pub now: Ns,
    pub queue: BinaryHeap<Reverse<Event>>,
    pub next_ord: u64,
    pub nodes: Vec<NodeState>,
    /// The node whose proc is executing, or that the last `drive` selected
    /// to execute next (None: the runner itself).
    pub running: Option<NodeId>,
    /// Number of spawned procs whose main has not finished.
    pub live_procs: usize,
    /// Wire statistics of the run so far.
    pub net: NetStats,
    /// Virtual time at which the shared Ethernet becomes free.
    pub medium_busy_until: Ns,
    pub loss_rng: Xoshiro256,
    /// Per-source-node delivery-jitter streams, each deterministically
    /// reseeded from `(jitter_seed, src)`. Sharding by sender makes a
    /// pair's jitter sequence a function of that sender's own traffic
    /// order alone — independent of how transmissions from other nodes
    /// interleave on the shared wire. Only consulted when
    /// `config.jitter_max > 0`, so jitter-free configs draw nothing and
    /// stay bit-identical.
    pub jitter_rngs: Vec<Xoshiro256>,
    /// Last scheduled delivery time per (src, dst) pair, used to clamp
    /// jittered deliveries so per-pair FIFO order is preserved. Empty (and
    /// never touched) while jitter is disabled.
    pub pair_last_delivery: BTreeMap<(NodeId, NodeId), Ns>,
    /// Scripted-fault runtime state compiled from the config's plan.
    pub fault: FaultState,
    /// The run's event sink (`Cluster::observe`). Charges no virtual time.
    pub sink: Option<Rc<dyn Sink>>,
    /// First panic payload captured from a proc, re-thrown by the runner.
    pub panic: Option<Box<dyn Any + Send>>,
    /// Node of the proc whose panic was captured.
    pub panic_node: Option<NodeId>,
    /// Set when the run is being torn down; parked procs abort.
    pub poisoned: bool,
    /// Events processed so far (for the runaway safety valve).
    pub events_processed: u64,
    /// Virtual time when the last proc finished.
    pub end_time: Ns,
}

impl Kernel {
    pub fn new(config: SimConfig, n_nodes: usize) -> Self {
        let loss_rng = Xoshiro256::new(config.loss_seed);
        let jitter_rngs = (0..n_nodes)
            .map(|src| Xoshiro256::new(jitter_shard_seed(config.jitter_seed, src as u64)))
            .collect();
        let fault = FaultState::new(&config.fault_plan, n_nodes);
        let crashes: Vec<(NodeId, Ns)> = config.fault_plan.crash_times().collect();
        let mut k = Self {
            config,
            now: 0,
            queue: BinaryHeap::new(),
            next_ord: 0,
            nodes: (0..n_nodes).map(|_| NodeState::new()).collect(),
            running: None,
            live_procs: 0,
            net: NetStats::default(),
            medium_busy_until: 0,
            loss_rng,
            jitter_rngs,
            pair_last_delivery: BTreeMap::new(),
            fault,
            sink: None,
            panic: None,
            panic_node: None,
            poisoned: false,
            events_processed: 0,
            end_time: 0,
        };
        for (node, at) in crashes {
            k.push_event(at, EvKind::Crash { node });
        }
        k
    }

    pub fn push_event(&mut self, time: Ns, kind: EvKind) {
        let ord = self.next_ord;
        self.next_ord += 1;
        self.queue.push(Reverse(Event { time, ord, kind }));
    }

    /// Registers the proc of `node`, which first runs at time 0. It is born
    /// parked with ticket 1, the ticket of the wake queued for it here.
    ///
    /// # Panics
    ///
    /// Panics if `node` already has a proc.
    pub fn spawn_proc(&mut self, node: NodeId, main: ProcMain) {
        let n = &mut self.nodes[node as usize];
        assert!(n.finished, "node {node} already has a proc");
        n.main = Some(main);
        n.parked = true;
        n.finished = false;
        n.park_seq = 1;
        self.live_procs += 1;
        self.push_event(0, EvKind::Wake { node, seq: 1 });
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Ns> {
        self.queue.peek().map(|Reverse(e)| e.time)
    }

    /// The event loop, run by the runner or by a parking proc.
    ///
    /// Pops and executes plain events until a live `Wake` names the node
    /// whose proc executes next: it is recorded in `running` and returned (a
    /// parking proc resumes in place if it is the one, otherwise suspends to
    /// the runner). Returns `None`, with the offending event still at the
    /// head of the queue, for everything only the runner may handle — see
    /// the module doc for the list.
    pub fn drive(&mut self) -> Option<NodeId> {
        loop {
            if self.panic.is_some() || self.live_procs == 0 {
                return None;
            }
            let Reverse(head) = self.queue.peek()?;
            let over_events = self
                .config
                .max_events
                .is_some_and(|max| self.events_processed >= max);
            let over_time = self
                .config
                .max_virtual_time
                .is_some_and(|max| self.now.max(head.time) > max);
            if over_events || over_time || matches!(head.kind, EvKind::Crash { .. }) {
                return None;
            }
            let Reverse(ev) = self.queue.pop().expect("peeked above");
            self.events_processed += 1;
            debug_assert!(ev.time >= self.now, "event queue went backwards in time");
            self.now = self.now.max(ev.time);
            match ev.kind {
                EvKind::Wake { node, seq } => {
                    let p = &mut self.nodes[node as usize];
                    if p.finished || !p.parked || p.park_seq != seq {
                        continue; // Stale wake.
                    }
                    p.parked = false;
                    p.waiting_for_msg = false;
                    self.running = Some(node);
                    return Some(node);
                }
                EvKind::Deliver { dst, dgram } => self.deliver(dst, dgram),
                EvKind::Crash { .. } => unreachable!("crashes are left to the runner"),
            }
        }
    }

    /// Lands `dgram` in `dst`'s mailbox (or drops / defers it per the fault
    /// state) and schedules a wake for the node's proc if it waits for mail.
    fn deliver(&mut self, dst: NodeId, dgram: Datagram) {
        let node = dst as usize;
        if self.fault.is_crashed(dst) {
            // The frame crossed the wire but nobody is home.
            self.net.dropped_crash += 1;
            return;
        }
        if let Some(until) = self.fault.pause_until(dst, self.now) {
            // The node is in a scripted pause: it drains nothing until the
            // pause ends. Re-deliver at that instant.
            self.net.deferred_pause += 1;
            self.push_event(until, EvKind::Deliver { dst, dgram });
            return;
        }
        if dgram.src != dst {
            self.net.delivered += 1;
            emit(&self.sink, || event::Event::WireDelivered {
                src: dgram.src,
                dst,
                sent_at: dgram.sent_at,
                delivered_at: self.now,
                payload: &dgram.payload,
            });
        }
        let n = &mut self.nodes[node];
        n.mailbox.push_back(dgram);
        if n.parked && n.waiting_for_msg {
            let seq = n.park_seq;
            self.push_event(self.now, EvKind::Wake { node: dst, seq });
        }
    }

    /// Models the shared wire carrying `bytes` of payload from `src` to
    /// `dst` starting no earlier than `ready_at`. Returns
    /// `Some(delivery_time)` or `None` if loss injection — uniform or
    /// scripted (burst window, partition) — dropped the frame. The wire is
    /// occupied either way.
    ///
    /// The fault evaluation is additive and deterministic: the scripted
    /// fault state is advanced for every frame (its Gilbert–Elliott streams
    /// depend only on traffic order, not on the uniform-loss RNG), and the
    /// uniform-loss draw is short-circuited when `loss_probability` is zero,
    /// so fault-free configs see bit-identical RNG consumption with or
    /// without this code path.
    pub fn wire_transmit(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        ready_at: Ns,
    ) -> Option<Ns> {
        let start = self.medium_busy_until.max(ready_at);
        let ft = self.config.frame_time(bytes);
        self.medium_busy_until = start + ft;
        let base_drop = self.config.loss_probability > 0.0
            && self.loss_rng.next_f64() < self.config.loss_probability;
        let fault_drop = self.fault.frame_fate(src, dst, start);
        if base_drop {
            self.net.dropped += 1;
            return None;
        }
        match fault_drop {
            Some(DropCause::Burst) => {
                self.net.dropped += 1;
                self.net.dropped_burst += 1;
                None
            }
            Some(DropCause::Partition) => {
                self.net.dropped += 1;
                self.net.dropped_partition += 1;
                None
            }
            None => {
                let mut at = start + ft + self.config.wire_latency;
                if self.config.jitter_max > 0 {
                    // Receiver-side scheduling variance: delay the delivery
                    // event without occupying the medium longer. Clamping to
                    // the pair's previous delivery time preserves per-pair
                    // FIFO (which the transport and `known`-snapshot logic
                    // rely on); cross-pair reordering is the point.
                    at += self.jitter_rngs[src as usize].next_below(self.config.jitter_max + 1)
                        as Ns;
                    let last = self
                        .pair_last_delivery
                        .entry((src, dst))
                        .or_insert(0);
                    at = at.max(*last);
                    *last = at;
                }
                Some(at)
            }
        }
    }

    /// [`Kernel::wire_transmit`] plus targeted schedule-plan perturbation.
    ///
    /// Inspects the frame's wire header to identify its flow: DATA frames
    /// carry the per-(src, dst) transport sequence number, and if the
    /// config's [`crate::SchedulePlan`] names the `(src, dst, seq)` flow,
    /// the plan's extra delay is added to the delivery time. The per-pair
    /// FIFO clamp then runs for *every* frame on the wire (not just
    /// perturbed ones) whenever a plan is installed, mirroring the jitter
    /// path: delaying one DATA frame must also hold back its successors on
    /// the same pair, or the transport's in-order assumption breaks.
    ///
    /// With the empty plan this is exactly `wire_transmit`: no header
    /// parsing, no clamp bookkeeping, bit-identical timing.
    pub fn wire_transmit_frame(
        &mut self,
        src: NodeId,
        dst: NodeId,
        payload: &[u8],
        ready_at: Ns,
    ) -> Option<Ns> {
        let base = self.wire_transmit(src, dst, payload.len(), ready_at)?;
        if self.config.schedule.is_empty() {
            return Some(base);
        }
        let mut at = base;
        // A plan names DATA frames by their transport sequence number.
        if let Some((KIND_DATA, seq)) = frame_header(payload) {
            if let Some(extra) = self.config.schedule.get(src, dst, seq) {
                at += extra;
                // Seeded bug (FifoReorder): on the configured pair a
                // perturbed frame skips the FIFO clamp below and leaves no
                // record of its delivery time, so the pair's next frame can
                // overtake it — the checker's FIFO mirror flags the swap.
                #[cfg(any(test, feature = "seeded-bugs"))]
                if self.config.seeded_fifo_pair == Some((src, dst)) {
                    return Some(at);
                }
            }
        }
        let last = self.pair_last_delivery.entry((src, dst)).or_insert(0);
        at = at.max(*last);
        *last = at;
        Some(at)
    }
}

/// Deterministic per-source seed for a jitter shard: a SplitMix64 hop from
/// the user seed mixed with the source node id, so shards are decorrelated
/// even for adjacent seeds/nodes while staying a pure function of
/// `(seed, src)`.
fn jitter_shard_seed(seed: u64, src: u64) -> u64 {
    SplitMix64::new(seed ^ (src + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::SchedulePlan;

    fn frame(seq: u32) -> Vec<u8> {
        let mut p = vec![0u8; 64];
        p[1..5].copy_from_slice(&seq.to_le_bytes());
        p
    }

    #[test]
    fn plan_clamp_holds_back_successors() {
        let cfg = SimConfig::fast_test()
            .with_schedule(SchedulePlan::new().delay(0, 1, 0, crate::time::ms(10)));
        let mut k = Kernel::new(cfg, 2);
        let t0 = k.wire_transmit_frame(0, 1, &frame(0), 0).unwrap();
        let t1 = k.wire_transmit_frame(0, 1, &frame(1), 0).unwrap();
        assert!(t0 >= crate::time::ms(10));
        assert!(t1 >= t0, "FIFO clamp failed: {t1} < {t0}");
    }

    #[test]
    fn jitter_shards_are_interleaving_independent() {
        // One node's jitter draws must not depend on how often *other*
        // nodes transmit in between: the draws come from per-source
        // streams seeded by (jitter_seed, src).
        let cfg = || SimConfig::fast_test().with_jitter(crate::time::us(200), 42);
        let draws = |k: &mut Kernel, n: usize| -> Vec<Ns> {
            (0..n)
                .map(|_| k.jitter_rngs[0].next_below(1000))
                .collect()
        };
        let mut alone = Kernel::new(cfg(), 3);
        let expect = draws(&mut alone, 4);
        let mut busy = Kernel::new(cfg(), 3);
        let mut got = Vec::new();
        for _ in 0..4 {
            // Interleave traffic from src 1 and 2; src 0's stream is its own.
            let _ = busy.wire_transmit(1, 2, 64, 0);
            let _ = busy.wire_transmit(2, 1, 64, 0);
            got.push(busy.jitter_rngs[0].next_below(1000));
        }
        assert_eq!(got, expect);
        // Different sources draw from decorrelated streams.
        let mut k = Kernel::new(cfg(), 3);
        let a: Vec<u64> = (0..4).map(|_| k.jitter_rngs[1].next_below(1000)).collect();
        let b: Vec<u64> = (0..4).map(|_| k.jitter_rngs[2].next_below(1000)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn seeded_fifo_pair_lets_successor_overtake() {
        let mut cfg = SimConfig::fast_test()
            .with_schedule(SchedulePlan::new().delay(0, 1, 0, crate::time::ms(10)));
        cfg.seeded_fifo_pair = Some((0, 1));
        let mut k = Kernel::new(cfg, 2);
        let t0 = k.wire_transmit_frame(0, 1, &frame(0), 0).unwrap();
        let t1 = k.wire_transmit_frame(0, 1, &frame(1), 0).unwrap();
        assert!(t1 < t0, "seeded bug should let seq 1 overtake: {t1} {t0}");
        // The bug is pair-scoped: other pairs still clamp.
        let u0 = k.wire_transmit_frame(1, 0, &frame(0), 0).unwrap();
        let u1 = k.wire_transmit_frame(1, 0, &frame(1), 0).unwrap();
        assert!(u1 >= u0);
    }
}
