//! Public simulator API: [`Cluster`], [`NodeCtx`], and [`SimReport`].

use std::{
    cell::{RefCell, RefMut},
    cmp::Reverse,
    panic::{catch_unwind, resume_unwind, AssertUnwindSafe},
    rc::Rc,
};

use carlos_util::event::{emit, Event, Sink};

use crate::{
    config::SimConfig,
    coro::{self, Coroutine},
    error::{AbortInfo, BlockedProc, SimError},
    kernel::{EvKind, Kernel, ProcMain},
    stats::{Bucket, Counters, NetStats, TimeBuckets},
    time::{NodeId, Ns},
    transport::AckMode,
};

/// A datagram as seen by a receiving node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// Sending node.
    pub src: NodeId,
    /// Payload bytes (transport headers included; wire frame headers not).
    /// The sender's buffer itself: it moves through the event queue and
    /// the mailbox without being copied.
    pub payload: Vec<u8>,
    /// Virtual time at which the sender handed the datagram to the wire.
    pub sent_at: Ns,
}

/// Why the event loop stopped without a report.
enum RunFailure {
    /// A proc panicked; the payload is re-thrown (or stringified) later.
    Panic {
        payload: Box<dyn std::any::Any + Send>,
        /// Node of the panicking proc, when attributable.
        node: Option<NodeId>,
    },
    /// The runner itself detected a failure (deadlock, safety valve).
    Error(SimError),
}

/// A deterministic simulated cluster.
///
/// Create one, spawn each node's proc with [`Cluster::spawn_node`], then
/// call [`Cluster::run`], which runs the event loop and every proc to
/// completion on the calling thread and returns a [`SimReport`]. Nothing
/// executes, and no thread or stack exists, before that call. A cluster,
/// its procs and its observers live on one thread: build it on the thread
/// that runs it.
pub struct Cluster {
    kernel: Rc<RefCell<Kernel>>,
    n_nodes: usize,
}

impl Cluster {
    /// Creates a cluster of `n_nodes` nodes (node ids `0..n_nodes`).
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes == 0`.
    #[must_use]
    pub fn new(config: SimConfig, n_nodes: usize) -> Self {
        assert!(n_nodes > 0, "a cluster needs at least one node");
        install_quiet_unwind_hook();
        Self {
            kernel: Rc::new(RefCell::new(Kernel::new(config, n_nodes))),
            n_nodes,
        }
    }

    /// Spawns the proc of `node`, running `main` from virtual time 0. A
    /// node runs one proc; a node never spawned only receives.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or already has a proc.
    pub fn spawn_node(&mut self, node: NodeId, main: impl FnOnce(NodeCtx) + 'static) {
        assert!(
            (node as usize) < self.n_nodes,
            "node {node} out of range (cluster has {} nodes)",
            self.n_nodes
        );
        self.kernel.borrow_mut().spawn_proc(node, Box::new(main));
    }

    /// Attaches `sink` to the run's event stream: the wire reports to it,
    /// and so does every transport, engine and runtime built on a
    /// [`NodeCtx`] of this cluster ([`NodeCtx::sink`]). Attach before
    /// [`Cluster::run`]; observation adds zero virtual-time cost.
    pub fn observe(&mut self, sink: Rc<dyn Sink>) {
        self.kernel.borrow_mut().sink = Some(sink);
    }

    /// Runs the simulation to completion and returns the report.
    ///
    /// # Panics
    ///
    /// Re-raises any panic from a proc (so test assertions inside node code
    /// fail the test), and panics on deadlock (all procs parked with no
    /// pending events) or when a configured safety valve trips. Use
    /// [`Cluster::try_run`] to receive those failures as a [`SimError`]
    /// value instead.
    pub fn run(self) -> SimReport {
        match self.execute() {
            Ok(report) => report,
            // Runner-synthesized failures re-panic with panic! so the
            // message actually prints; proc panics already printed.
            Err(RunFailure::Error(e)) => panic!("{e}"),
            Err(RunFailure::Panic { payload, .. }) => match payload.downcast::<AbortInfo>() {
                Ok(a) => panic!("{a}"),
                Err(other) => resume_unwind(other),
            },
        }
    }

    /// Runs the simulation to completion, returning failures as values.
    ///
    /// Unlike [`Cluster::run`], a deadlock, safety-valve trip, proc panic,
    /// or protocol-layer [`crate::abort`] does not panic here: it comes back
    /// as the corresponding [`SimError`] variant, with the fault plan's
    /// crashed nodes attached so callers can attribute the failure.
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] describing how the run failed.
    pub fn try_run(self) -> Result<SimReport, SimError> {
        let outcome = self.execute();
        let crashed = self.kernel.borrow().fault.crashed_nodes();
        match outcome {
            Ok(report) => Ok(report),
            Err(RunFailure::Error(e)) => Err(e),
            Err(RunFailure::Panic { payload, node }) => match payload.downcast::<AbortInfo>() {
                Ok(a) => Err(SimError::Aborted {
                    node: a.node,
                    context: a.context,
                    crashed,
                }),
                Err(other) => Err(SimError::NodePanic {
                    node,
                    message: payload_message(&other),
                    crashed,
                }),
            },
        }
    }

    /// Runs the event loop, then ends every proc the run left unfinished.
    fn execute(&self) -> Result<SimReport, RunFailure> {
        let mut procs = Procs {
            kernel: &self.kernel,
            coros: (0..self.n_nodes).map(|_| None).collect(),
        };
        let outcome = procs.event_loop();
        let mut k = self.kernel.borrow_mut();
        // Teardown: every proc that is still suspended (or never ran) is
        // resumed unselected, sees the flag and unwinds, so each destructor
        // on a proc stack runs before the stack is unmapped.
        debug_assert!(k.running.is_none(), "the loop returns from the runner's own turn");
        k.poisoned = true;
        for node in 0..self.n_nodes as NodeId {
            while !k.nodes[node as usize].finished {
                k = procs.resume(k, node);
            }
        }
        outcome
    }
}

/// The procs of one run: a coroutine each, indexed by node, on the runner's
/// thread.
struct Procs<'a> {
    kernel: &'a Rc<RefCell<Kernel>>,
    coros: Vec<Option<Coroutine>>,
}

impl<'a> Procs<'a> {
    /// Switches to `node`'s proc with the kernel borrow released (the proc
    /// borrows it itself) and borrows it again when the proc suspends or
    /// finishes. A proc gets its coroutine on its first resumption.
    fn resume(&mut self, mut k: RefMut<'a, Kernel>, node: NodeId) -> RefMut<'a, Kernel> {
        let coro = self.coros[node as usize].get_or_insert_with(|| {
            let main = k.nodes[node as usize]
                .main
                .take()
                .expect("a spawned proc has a body");
            let ctx = NodeCtx {
                kernel: Rc::clone(self.kernel),
                node,
                n_nodes: k.nodes.len(),
            };
            Coroutine::new(move || proc_body(ctx, main))
        });
        drop(k);
        coro.resume();
        self.kernel.borrow_mut()
    }

    fn event_loop(&mut self) -> Result<SimReport, RunFailure> {
        let mut k = self.kernel.borrow_mut();
        loop {
            // A parking proc leaves its successor in `running`; otherwise
            // run plain events here until a wake names a proc. Control comes
            // back when that proc parks or finishes.
            if let Some(node) = k.running.or_else(|| k.drive()) {
                k = self.resume(k, node);
                continue;
            }
            if let Some(p) = k.panic.take() {
                let node = k.panic_node.take();
                return Err(RunFailure::Panic { payload: p, node });
            }
            if k.live_procs == 0 {
                return Ok(build_report(&k));
            }
            let Some(Reverse(ev)) = k.queue.pop() else {
                return Err(RunFailure::Error(SimError::Stalled {
                    at: k.now,
                    blocked: blocked_procs(&k),
                    crashed: k.fault.crashed_nodes(),
                }));
            };
            k.events_processed += 1;
            if let Some(max) = k.config.max_events {
                if k.events_processed > max {
                    return Err(RunFailure::Error(SimError::MaxEvents {
                        limit: max,
                        at: k.now,
                        crashed: k.fault.crashed_nodes(),
                    }));
                }
            }
            debug_assert!(ev.time >= k.now, "event queue went backwards in time");
            k.now = k.now.max(ev.time);
            if let Some(max) = k.config.max_virtual_time {
                if k.now > max {
                    return Err(RunFailure::Error(SimError::MaxVirtualTime {
                        limit: max,
                        crashed: k.fault.crashed_nodes(),
                    }));
                }
            }
            let EvKind::Crash { node } = ev.kind else {
                unreachable!("drive() leaves no plain in-limits event behind");
            };
            if k.fault.is_crashed(node) {
                continue;
            }
            k.fault.mark_crashed(node);
            let pending = k.nodes[node as usize].mailbox.len() as u64;
            k.net.dropped_crash += pending;
            // Conservation bookkeeping: purged frames were already
            // counted as delivered (when non-loopback), so record
            // them to keep `messages` balanceable.
            k.net.purged_crash += k.nodes[node as usize]
                .mailbox
                .iter()
                .filter(|d| d.src != node)
                .count() as u64;
            k.nodes[node as usize].mailbox.clear();
            k.nodes[node as usize].counters.add("node.crashed", 1);
            // Terminate the node's proc: it is resumed unselected,
            // observes the crash flag, and unwinds with a CrashUnwind
            // payload (not captured as a panic), finishing its bookkeeping
            // so live_procs and the queue are consistent before the next
            // event.
            while !k.nodes[node as usize].finished {
                k = self.resume(k, node);
            }
        }
    }
}

fn blocked_procs(k: &Kernel) -> Vec<BlockedProc> {
    (0..)
        .zip(&k.nodes)
        .filter(|(_, n)| !n.finished)
        .map(|(node, n)| BlockedProc {
            node,
            waiting_for_msg: n.waiting_for_msg,
            at: k.now,
        })
        .collect()
}

fn payload_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn build_report(k: &Kernel) -> SimReport {
    let mut net = k.net;
    // Events already popped are gone from the queue, so what remains is
    // exactly the set of deliveries that were scheduled but never landed.
    net.in_flight = k
        .queue
        .iter()
        .filter(|ev| matches!(&ev.0.kind, EvKind::Deliver { dst, dgram } if dgram.src != *dst))
        .count() as u64;
    SimReport {
        elapsed: k.end_time,
        node_buckets: k.nodes.iter().map(|n| n.buckets).collect(),
        node_counters: k.nodes.iter().map(|n| n.counters.clone()).collect(),
        net,
        bandwidth_bps: k.config.bandwidth_bps,
        events_processed: k.events_processed,
        crashed_nodes: k.fault.crashed_nodes(),
    }
}

/// Body of a proc's coroutine: `main`, then the bookkeeping of its
/// end. Returns (no panic leaves it) to the coroutine's base frame.
fn proc_body(ctx: NodeCtx, main: ProcMain) {
    let kernel = Rc::clone(&ctx.kernel);
    let node = ctx.node;
    let result = catch_unwind(AssertUnwindSafe(|| {
        // The first resumption is like any other: the time-0 wake, or a
        // fail-stop or teardown before the proc ever ran.
        ctx.check_selected(&kernel.borrow());
        main(ctx);
    }));
    let mut k = kernel.borrow_mut();
    let n = &mut k.nodes[node as usize];
    n.finished = true;
    n.parked = false;
    k.live_procs -= 1;
    k.end_time = k.end_time.max(k.now);
    if let Err(payload) = result {
        if !is_poison_unwind(&*payload) && !payload.is::<CrashUnwind>() && k.panic.is_none() {
            k.panic = Some(payload);
            k.panic_node = Some(node);
        }
    }
    // A proc resumed only to be terminated was never `running`.
    if k.running == Some(node) {
        k.running = None;
    }
}

fn is_poison_unwind(payload: &(dyn std::any::Any + Send)) -> bool {
    payload
        .downcast_ref::<&'static str>()
        .is_some_and(|s| *s == POISON_MSG)
        || payload
            .downcast_ref::<String>()
            .is_some_and(|s| s == POISON_MSG)
}

const POISON_MSG: &str = "carlos-sim: run torn down while proc was parked";

/// Installs (once per process) a panic hook that silences the *expected*
/// unwinds the simulator uses for control flow — scripted crashes
/// ([`CrashUnwind`]), attributed aborts ([`AbortInfo`]), and the poison
/// unwind that tears down parked procs. Without this, the default hook
/// prints `Box<dyn Any>` plus a backtrace to stderr every time a fault
/// plan crashes a node, even though the unwind is caught and handled.
/// Every other panic still reaches the previously installed hook.
fn install_quiet_unwind_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if !(p.is::<CrashUnwind>() || p.is::<AbortInfo>() || is_poison_unwind(p)) {
                prev(info);
            }
        }));
    });
}

/// Zero-sized panic payload used to unwind the proc of a fail-stopped
/// node. Recognized (and discarded) by the proc epilogue so a scripted
/// crash is never mistaken for an application panic.
struct CrashUnwind;

/// Handle through which simulated node code interacts with the cluster.
///
/// Cloneable; all clones refer to the node's one proc. Every method that charges
/// time advances the virtual clock, so node code observes a consistent
/// timeline through [`NodeCtx::now`].
#[derive(Clone)]
pub struct NodeCtx {
    kernel: Rc<RefCell<Kernel>>,
    node: NodeId,
    n_nodes: usize,
}

impl NodeCtx {
    /// This node's id.
    #[must_use]
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Number of nodes in the cluster.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.n_nodes
    }

    /// How this cluster's transports acknowledge frames
    /// ([`SimConfig::ack`]).
    #[must_use]
    pub fn ack(&self) -> AckMode {
        self.kernel.borrow().config.ack
    }

    /// The sink attached to this cluster's event stream, if any
    /// ([`Cluster::observe`]).
    #[must_use]
    pub fn sink(&self) -> Option<Rc<dyn Sink>> {
        self.kernel.borrow().sink.clone()
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> Ns {
        self.kernel.borrow().now
    }

    /// Charges `dt` of application computation (the `User` bucket) and
    /// advances virtual time.
    pub fn compute(&self, dt: Ns) {
        self.charge(Bucket::User, dt);
    }

    /// Charges `dt` of CPU time to `bucket` and advances virtual time.
    pub fn charge(&self, bucket: Bucket, dt: Ns) {
        self.advance(self.kernel.borrow_mut(), bucket, dt);
    }

    /// Charges up to `dt` of CPU time to `bucket`, but returns early if a
    /// datagram arrives at this node, modeling interrupt-driven message
    /// handling during computation.
    ///
    /// Returns `Some(remaining)` when interrupted with `remaining > 0` time
    /// still to charge (the mailbox is non-empty), `None` when the full
    /// `dt` elapsed. Callers loop: handle the message, then continue with
    /// the remainder.
    pub fn compute_interruptible(&self, bucket: Bucket, dt: Ns) -> Option<Ns> {
        let mut k = self.kernel.borrow_mut();
        if !k.nodes[self.node as usize].mailbox.is_empty() {
            return Some(dt); // Pending work: handle it before computing.
        }
        let node = self.node as usize;
        let start = k.now;
        let wake_at = start + dt;
        if k.peek_time().is_none_or(|t| t >= wake_at) {
            // Nothing can arrive before we finish; run to completion.
            k.nodes[node].buckets.charge(bucket, dt);
            k.now = wake_at;
            return None;
        }
        k.nodes[node].waiting_for_msg = true;
        k = self.park_until(k, wake_at);
        // Either the timer fired (now == wake_at) or a delivery woke us.
        let ran = (k.now - start).min(dt);
        k.nodes[node].buckets.charge(bucket, ran);
        // A datagram arrived, or the wake was spurious (e.g. a stale
        // timer): either way report the remainder so the caller continues.
        (ran < dt).then(|| dt - ran)
    }

    /// Sleeps for `dt` without using the CPU; the time is charged to `Idle`.
    pub fn sleep(&self, dt: Ns) {
        let mut k = self.kernel.borrow_mut();
        let wake_at = k.now + dt;
        k.nodes[self.node as usize].buckets.charge(Bucket::Idle, dt);
        self.park_until(k, wake_at);
    }

    /// Adds `v` to this node's counter `name`.
    pub fn count(&self, name: &'static str, v: u64) {
        let mut k = self.kernel.borrow_mut();
        k.nodes[self.node as usize].counters.add(name, v);
    }

    /// Reads this node's counter `name`.
    #[must_use]
    pub fn counter(&self, name: &'static str) -> u64 {
        self.kernel.borrow().nodes[self.node as usize]
            .counters
            .get(name)
    }

    /// Sends a datagram to `dst`.
    ///
    /// Charges the per-datagram send overhead to `Unix`, then occupies the
    /// shared wire. Loopback (`dst == self`) skips the wire and is not
    /// counted in network statistics. The call is asynchronous: it returns
    /// once the local send processing is done, not when the datagram
    /// arrives.
    pub fn send_datagram(&self, dst: NodeId, payload: Vec<u8>) {
        assert!(
            (dst as usize) < self.n_nodes,
            "datagram to unknown node {dst}"
        );
        let k = self.kernel.borrow_mut();
        let send_overhead = k.config.send_overhead;
        let mut k = self.advance(k, Bucket::Unix, send_overhead);
        let now = k.now;
        let dgram = Datagram {
            src: self.node,
            payload,
            sent_at: now,
        };
        if dst == self.node {
            k.nodes[self.node as usize].counters.add("net.loopback", 1);
            k.push_event(now, EvKind::Deliver { dst, dgram });
            return;
        }
        k.net.messages += 1;
        k.net.payload_bytes += dgram.payload.len() as u64;
        k.net.classes.note(&dgram.payload);
        k.nodes[self.node as usize].counters.add("net.sent", 1);
        k.nodes[self.node as usize]
            .counters
            .add("net.sent_bytes", dgram.payload.len() as u64);
        let src = self.node;
        emit(&k.sink, || Event::WireSent { src, dst, at: now, payload: &dgram.payload });
        if let Some(deliver_at) = k.wire_transmit_frame(src, dst, &dgram.payload, now) {
            k.push_event(deliver_at, EvKind::Deliver { dst, dgram });
        } else {
            emit(&k.sink, || Event::WireDropped { src, dst, at: now, payload: &dgram.payload });
        }
    }

    /// Pops the next mailbox datagram without blocking.
    ///
    /// Charges the per-datagram receive overhead (`Unix`) when a datagram is
    /// returned.
    pub fn try_recv(&self) -> Option<Datagram> {
        let mut k = self.kernel.borrow_mut();
        let d = k.nodes[self.node as usize].mailbox.pop_front()?;
        let recv_overhead = k.config.recv_overhead;
        self.advance(k, Bucket::Unix, recv_overhead);
        Some(d)
    }

    /// Blocks until a datagram arrives (or `deadline` passes), charging the
    /// wait to `Idle` and the receive processing to `Unix`.
    ///
    /// Returns `None` on timeout. `deadline` is an absolute virtual time.
    pub fn wait_recv(&self, deadline: Option<Ns>) -> Option<Datagram> {
        if self.wait_mailbox(deadline) {
            self.try_recv()
        } else {
            None
        }
    }

    /// Parks until the node's mailbox is non-empty (or `deadline` passes)
    /// **without consuming anything**. Returns whether the mailbox has a
    /// datagram.
    pub fn wait_mailbox(&self, deadline: Option<Ns>) -> bool {
        let node = self.node;
        let mut k = self.kernel.borrow_mut();
        loop {
            if !k.nodes[node as usize].mailbox.is_empty() {
                return true;
            }
            if let Some(dl) = deadline {
                if k.now >= dl {
                    return false;
                }
            }
            let park_start = k.now;
            k.nodes[node as usize].waiting_for_msg = true;
            if let Some(dl) = deadline {
                let seq = k.nodes[node as usize].park_seq + 1;
                k.push_event(dl, EvKind::Wake { node, seq });
            }
            k = self.park(k);
            let waited = k.now - park_start;
            k.nodes[node as usize].buckets.charge(Bucket::Idle, waited);
        }
    }

    /// Advances time by `dt` charged to `bucket`. Fast-paths the common
    /// case where no other event intervenes. Like every parking method, it
    /// takes the kernel borrow and hands it back: a switch in between
    /// releases it.
    fn advance<'k>(
        &'k self,
        mut k: RefMut<'k, Kernel>,
        bucket: Bucket,
        dt: Ns,
    ) -> RefMut<'k, Kernel> {
        let wake_at = k.now + dt;
        k.nodes[self.node as usize].buckets.charge(bucket, dt);
        if k.peek_time().is_none_or(|t| t >= wake_at) {
            // Nothing can observably interleave; advance the clock in place.
            k.now = wake_at;
            return k;
        }
        self.park_until(k, wake_at)
    }

    /// Schedules a wake at `wake_at` and parks until it fires.
    fn park_until<'k>(&'k self, mut k: RefMut<'k, Kernel>, wake_at: Ns) -> RefMut<'k, Kernel> {
        let node = self.node;
        let seq = k.nodes[node as usize].park_seq + 1;
        k.push_event(wake_at, EvKind::Wake { node, seq });
        self.park(k)
    }

    /// Parks this proc until a wake event selects it. The proc drives the
    /// event loop itself: its own wake resumes it in place; on a wake for
    /// another node, or on anything `drive` leaves to the runner, it drops
    /// the kernel borrow, suspends to the runner and borrows again when
    /// resumed.
    fn park<'k>(&'k self, mut k: RefMut<'k, Kernel>) -> RefMut<'k, Kernel> {
        let p = &mut k.nodes[self.node as usize];
        p.parked = true;
        p.park_seq += 1;
        k.running = None;
        if k.drive() == Some(self.node) {
            return k;
        }
        drop(k);
        coro::suspend();
        let k = self.kernel.borrow_mut();
        self.check_selected(&k);
        k
    }

    /// After a resumption: returns if a wake selected this proc. The runner
    /// resumes an unselected proc only to end it, so otherwise this unwinds
    /// — out of a torn-down run, or out of a fail-stopped node without being
    /// treated as an application panic.
    fn check_selected(&self, k: &Kernel) {
        if k.running == Some(self.node) {
            return;
        }
        if k.poisoned {
            panic!("{POISON_MSG}");
        }
        assert!(
            k.fault.is_crashed(self.node),
            "proc resumed without a wake, a crash or a teardown"
        );
        std::panic::panic_any(CrashUnwind)
    }
}

/// Results of a completed simulation.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Virtual time at which the last proc finished.
    pub elapsed: Ns,
    /// Per-node time buckets, indexed by node id.
    pub node_buckets: Vec<TimeBuckets>,
    /// Per-node counters, indexed by node id.
    pub node_counters: Vec<Counters>,
    /// Wire-level statistics.
    pub net: NetStats,
    /// Bandwidth the run was configured with (for utilization).
    pub bandwidth_bps: u64,
    /// Kernel events processed (a determinism fingerprint).
    pub events_processed: u64,
    /// Nodes fail-stopped by the fault plan during the run, in id order.
    /// Empty for fault-free runs (and absent from fingerprints).
    pub crashed_nodes: Vec<NodeId>,
}

impl SimReport {
    /// Sum of a bucket across all nodes.
    #[must_use]
    pub fn bucket_total(&self, bucket: Bucket) -> Ns {
        self.node_buckets.iter().map(|b| b.get(bucket)).sum()
    }

    /// Cluster-wide counter sum.
    #[must_use]
    pub fn counter_total(&self, name: &str) -> u64 {
        self.node_counters.iter().map(|c| c.get(name)).sum()
    }

    /// Average per-node time in `bucket` in seconds.
    #[must_use]
    pub fn bucket_avg_secs(&self, bucket: Bucket) -> f64 {
        if self.node_buckets.is_empty() {
            return 0.0;
        }
        self.bucket_total(bucket) as f64 / 1e9 / self.node_buckets.len() as f64
    }
}
