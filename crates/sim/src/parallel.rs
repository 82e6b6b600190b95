//! Conservative parallel runner with bit-identical virtual time.
//!
//! The serial scheduler in [`crate::cluster`] runs every proc as a coroutine
//! on one OS thread; all host-CPU work (the applications' real computation
//! between simulator calls) therefore serializes too. This
//! module keeps *every kernel transition* — event order, `ord` assignment,
//! RNG draws, statistics, `events_processed` — byte-for-byte identical to
//! the serial runner while letting procs on different nodes burn host CPU
//! concurrently.
//!
//! # Architecture: op-log + authoritative serial replay
//!
//! In parallel mode a proc thread **never touches the kernel**. Instead it
//! appends *operations* (advance, send, recv, …) to a per-proc channel and
//! keeps running whenever the operation's outcome is provable locally
//! ("fire-and-forget"). The runner thread holds the kernel for the whole
//! run and executes the ordinary serial event loop, except that where the
//! serial loop would resume a proc, the parallel loop *replays*
//! that proc's logged operations against the kernel — same pushes, same
//! park-ticket arithmetic, same fast-path decisions. Determinism is by
//! construction: there is exactly one kernel mutator, and it performs the
//! serial algorithm.
//!
//! # Lookahead: per-pair channel clocks
//!
//! A proc may run ahead of the replay only while its interactions are
//! provably unaffected. The wire model guarantees that any datagram handed
//! to the wire at `σ` is delivered no earlier than
//! `σ + frame_time(0) + wire_latency` (frame time is monotone in payload
//! size, jitter only adds delay, and the FIFO clamp only raises delivery
//! times), and handing it to the wire itself costs `send_overhead` first.
//! So with `I = send_overhead + frame_time(0) + wire_latency` (the
//! *influence delay*), a node `n` can receive no delivery before
//!
//! ```text
//! quiet(n) = min( earliest queued delivery for n,
//!                 this lane's earliest pending loopback delivery,
//!                 min over chans c on other nodes of
//!                     min(clock(c), send_min(c → n)) + I )
//! ```
//!
//! `clock(c)` is `c`'s lane clock — pinned at the issuing time of `c`'s
//! oldest *rendezvous* op until the replay publishes its outcome, so every
//! wire effect of ops `c` has not finished issuing is covered. Logged
//! fire-and-forget sends advance the clock past their issue time, so each
//! one leaves a per-destination promise: `send_min(c → n)` is the issue
//! time of `c`'s oldest logged-but-unreplayed fire-and-forget send to `n`
//! (`u64::MAX` when none), removed only after the replay has handed that
//! datagram to the wire and published the resulting delivery into `n`'s
//! queued-delivery bound. Per-pair promises are what let a lane blocked on
//! traffic to node A keep lanes that only talk to B running: `c`'s
//! unreplayed sends to A never lower `quiet(B)`.
//!
//! One refinement keeps pinned clocks from strangling the bound: when the
//! replay parks a proc *inside* a rendezvous op that has no pending wire
//! effect (`wait_recv`, `wait_mailbox`, recv overhead, sync advance,
//! interruptible compute), that lane is blocked until its outcome is
//! published at replay time `k.now` — so its next send cannot be issued
//! before `k.now` either. The runner flags such chans (`rv_parked`) and
//! publishes a monotone `replay_now`; quiet readers lift a flagged chan's
//! clock to the floor. Parked *sends* are never flagged: their datagram
//! reaches the wire priced off the old pinned clock, which is the only
//! term covering it. This floor is what makes the post-wait `try_recv`
//! poll storm in message-pump loops resolve locally — right after a
//! genuine wait, the poller's clock sits within one influence delay of
//! `replay_now`, and every other lane is either running (clock advanced)
//! or blocked (clock lifted).
//!
//! Stale reads are safe by ordering, not luck: a reader samples `clock`
//! before `send_min` for each chan (a fire-and-forget send lowers
//! `send_min` *before* raising `clock`, both releases, so seeing the new
//! clock implies seeing the promise), reads the queued-delivery bound
//! *last* (the replay lowers it before raising `send_min` or the loopback
//! head, so seeing a promise retired implies seeing its delivery queued),
//! and consults the mailbox mirror after all of the above (the bound is
//! only re-raised after the delivered datagram reached the mirror).
//! Every handoff between covering terms is therefore visible in the order
//! the reader needs.
//!
//! Each single-proc node also keeps a *mirror* of its mailbox, appended by
//! the replay at the authoritative delivery instant. Because the replay
//! can never advance past a lane's own unreplayed operations, every mirror
//! entry is at or before the lane's clock — which makes a non-empty mirror
//! a provable `recv` hit and an empty mirror plus a high `quiet` bound a
//! provable miss. Loopback sends on single-proc lanes are fire-and-forget
//! too: the lane tracks its own pending loopback delivery times (the
//! `loop_head` term above) and the replay delivers into the mirror exactly
//! like a remote datagram, so a self-send followed by `wait_recv` runs
//! without a rendezvous. Everything else rendezvouses with the replay (the
//! proc blocks until the runner publishes the outcome), which degrades to
//! the serial schedule but never to a wrong one.
//!
//! Nodes that spawn extra user threads share `cpu_free` between procs, so
//! their lanes lose the "advance ends at `clock + dt`" invariant; such
//! lanes disable the mirror and run every operation as a rendezvous.
//!
//! # Batched replay
//!
//! The runner drains a lane's whole op channel into a private buffer in
//! one lock acquisition (and at most one wakeup in each direction), then
//! replays ops lock-free from the buffer; per-op locking only remains on
//! the rendezvous path. Promises (`send_min`, loopback heads) are retired
//! at wire-handoff time, not drain time, so a drained-but-unreplayed send
//! stays covered. Condvar signals are skipped entirely unless the other
//! side is actually parked (tracked by flags under the channel lock),
//! which removes two futex syscalls from the per-op fast path.

use std::{
    any::Any,
    collections::{BTreeMap, VecDeque},
    panic::{catch_unwind, AssertUnwindSafe},
    sync::{
        atomic::{AtomicBool, AtomicU64, Ordering},
        Arc,
    },
    thread::JoinHandle,
};

use bytes::Bytes;
use parking_lot::{Condvar, Mutex, RwLock};

use crate::{
    cluster::{
        build_report, is_poison_unwind, CrashUnwind, Datagram, NodeCtx, RunFailure, Shared,
        POISON_MSG,
    },
    config::SimConfig,
    error::{BlockedProc, SimError},
    kernel::{EvKind, Kernel, ProcId, ProcMain},
    stats::Bucket,
    time::{NodeId, Ns},
};

/// One logged operation plus the lane clock at which it was issued. The
/// replay consumes the op when kernel time reaches exactly `pre_clock`
/// (asserted), so the log doubles as a lockstep self-check.
struct OpMsg {
    pre_clock: Ns,
    op: Op,
}

/// Operations a proc can log. Fire-and-forget ops carry everything the
/// replay needs and publish no outcome; rendezvous ops block the lane until
/// the replay publishes an [`Outcome`].
enum Op {
    /// `charge`/`compute`: advance the lane CPU by `dt` in `bucket`.
    /// `sync` is set by multi-proc lanes, which cannot predict the end time
    /// (CPU serialization) and need the resulting clock published.
    Advance {
        bucket: Bucket,
        dt: Ns,
        sync: bool,
    },
    /// `sleep(dt)`: park until `pre_clock + dt` (no CPU).
    Sleep { dt: Ns },
    /// `count(name, v)`: counter bump, no time.
    Count { name: &'static str, v: u64 },
    /// `counter(name)` read — rendezvous (another proc of the node may
    /// still have pending bumps only the replay serializes).
    CounterRead { name: &'static str },
    /// `send_datagram`: send overhead then the wire. Multi-proc lanes set
    /// `sync`; single-proc lanes fire-and-forget everything, including
    /// loopback (covered by the lane's own pending-loopback head).
    Send {
        dst: NodeId,
        payload: Bytes,
        sync: bool,
    },
    /// Lane-proved uninterrupted `compute_interruptible`: the full `dt`
    /// elapses with no delivery before `pre_clock + dt`.
    QuietCompute { bucket: Bucket, dt: Ns },
    /// Unprovable `compute_interruptible` — rendezvous.
    Interruptible { bucket: Bucket, dt: Ns },
    /// Lane-proved mailbox hit: the mirror head (identified by
    /// `src`/`sent_at`/`len`) is popped and the recv overhead charged.
    RecvHit {
        src: NodeId,
        sent_at: Ns,
        len: usize,
    },
    /// Lane-proved timeout of `wait_recv`/`wait_mailbox`: park until
    /// `deadline` with no delivery at or before it.
    QuietTimeout { deadline: Ns },
    /// Unprovable `try_recv` — rendezvous.
    TryRecv,
    /// Unprovable `wait_recv` — rendezvous.
    WaitRecv { deadline: Option<Ns> },
    /// Unprovable `wait_mailbox` — rendezvous.
    WaitMailbox { deadline: Option<Ns> },
    /// Unprovable `mailbox_nonempty` — rendezvous.
    MailboxProbe,
    /// `spawn_thread`: register a sibling proc — rendezvous (the lane
    /// becomes multi-proc).
    Spawn {
        main: Box<dyn FnOnce(NodeCtx) + Send>,
    },
    /// The proc's main returned (or panicked with `payload`).
    Finished {
        panic: Option<Box<dyn Any + Send>>,
    },
}

/// Outcome of a rendezvous op, carrying the authoritative post-op clock.
enum Outcome {
    Clock(Ns),
    Recv(Option<Datagram>, Ns),
    Interrupt(Option<Ns>, Ns),
    Flag(bool, Ns),
    Value(u64, Ns),
}

impl Outcome {
    fn clock(&self) -> Ns {
        match self {
            Outcome::Clock(c)
            | Outcome::Recv(_, c)
            | Outcome::Interrupt(_, c)
            | Outcome::Flag(_, c)
            | Outcome::Value(_, c) => *c,
        }
    }
}

struct ChanQ {
    ops: VecDeque<OpMsg>,
    outcome: Option<Outcome>,
    /// Issue times (`pre_clock`) of logged-but-unretired fire-and-forget
    /// sends, per destination node; fronts are mirrored into
    /// `ProcChan::send_min`. Entries retire at wire-handoff time, not
    /// drain time, so a drained-but-unreplayed send stays covered.
    send_minq: Vec<VecDeque<Ns>>,
    /// Delivery times (`pre_clock + send_overhead`) of pending
    /// fire-and-forget loopback sends; front mirrored into
    /// `ProcChan::loop_head`.
    loop_pending: VecDeque<Ns>,
    /// Runner is parked on `ops_cv` waiting for ops; a pushing lane only
    /// pays the wakeup syscall when set.
    runner_waiting: bool,
    /// The lane thread is parked on `out_cv` (for log space or a
    /// rendezvous outcome); the runner only signals when set.
    lane_waiting: bool,
}

/// Per-proc channel between a lane thread and the replay.
pub(crate) struct ProcChan {
    pub(crate) node: NodeId,
    q: Mutex<ChanQ>,
    /// Signaled when an op is appended (runner waits here).
    ops_cv: Condvar,
    /// Signaled when an outcome is published or log space frees up.
    out_cv: Condvar,
    /// The lane's current virtual clock (reads back as `NodeCtx::now`).
    /// Pinned at the issue time of the oldest pending rendezvous op until
    /// the replay publishes its outcome, so it conservatively covers every
    /// wire effect the lane has not finished issuing; `u64::MAX` once the
    /// proc is finished or crashed. Fire-and-forget sends advance it past
    /// their issue time and leave a `send_min`/`loop_head` promise behind
    /// instead.
    pub(crate) clock: AtomicU64,
    /// Per-destination promise: issue time of the oldest unretired
    /// fire-and-forget send to that node (`u64::MAX` when none). Lowered
    /// *before* `clock` is raised on push; raised only after the replay
    /// queued the resulting delivery into the destination's
    /// `queued_head` bound.
    send_min: Vec<AtomicU64>,
    /// Earliest pending fire-and-forget loopback delivery time
    /// (`u64::MAX` when none); same retire protocol as `send_min`, read
    /// only by this lane's own quiet bound.
    loop_head: AtomicU64,
    /// Set by the replay when it parks this proc *inside a rendezvous op
    /// that has no pending wire effect* (`wait_recv`, `wait_mailbox`,
    /// recv-overhead, sync advance, interruptible compute). While set, the
    /// lane is blocked on the outcome and all its promises are retired, so
    /// its next send cannot be issued before the replay's current time:
    /// quiet readers may lift this chan's clock to `ParCtrl::replay_now`.
    /// Cleared (before the outcome) by every publish. Never set for parked
    /// sends — their datagram reaches the wire at the *old* pinned clock.
    rv_parked: AtomicBool,
    /// Set when the proc's node fail-stops; lane unwinds at the next call.
    dead: AtomicBool,
}

impl ProcChan {
    fn new(node: NodeId, n_nodes: usize) -> Self {
        Self {
            node,
            q: Mutex::new(ChanQ {
                ops: VecDeque::new(),
                outcome: None,
                send_minq: (0..n_nodes).map(|_| VecDeque::new()).collect(),
                loop_pending: VecDeque::new(),
                runner_waiting: false,
                lane_waiting: false,
            }),
            ops_cv: Condvar::new(),
            out_cv: Condvar::new(),
            clock: AtomicU64::new(0),
            send_min: (0..n_nodes).map(|_| AtomicU64::new(u64::MAX)).collect(),
            loop_head: AtomicU64::new(u64::MAX),
            rv_parked: AtomicBool::new(false),
            dead: AtomicBool::new(false),
        }
    }
}

struct Mirror {
    /// `(delivery_time, datagram)` in mailbox order; appended by the replay
    /// at the authoritative delivery instant, popped by the lane on proved
    /// hits and by the replay on rendezvous pops.
    q: VecDeque<(Ns, Datagram)>,
    /// Mirrors are only maintained for single-proc lanes.
    enabled: bool,
}

/// Per-node state shared between lane threads and the replay.
pub(crate) struct LaneShared {
    /// Earliest queued `Deliver` time for this node (`u64::MAX` when none).
    /// Lowered before the corresponding event is pushed; raised only after
    /// any resulting mailbox append has reached the mirror.
    queued_head: AtomicU64,
    crashed: AtomicBool,
    multi: AtomicBool,
    mirror: Mutex<Mirror>,
}

impl LaneShared {
    fn new() -> Self {
        Self {
            queued_head: AtomicU64::new(u64::MAX),
            crashed: AtomicBool::new(false),
            multi: AtomicBool::new(false),
            mirror: Mutex::new(Mirror {
                q: VecDeque::new(),
                enabled: true,
            }),
        }
    }
}

/// Control block for one parallel run, owned by [`Shared`].
pub(crate) struct ParCtrl {
    chans: RwLock<Vec<Arc<ProcChan>>>,
    lanes: Vec<LaneShared>,
    poisoned: AtomicBool,
    send_overhead: Ns,
    recv_overhead: Ns,
    /// Minimum wire-to-delivery delay: `frame_time(0) + wire_latency`.
    lookahead: Ns,
    /// Backpressure bound on each proc's op log (see
    /// [`SimConfig::op_log_cap`]).
    op_log_cap: usize,
    /// Monotone snapshot of the replay's `k.now`, stored by the runner at
    /// each event pop and each consumed op. Always `<= k.now`. Quiet
    /// readers load it *first* (see [`quiet_bound`]) and use it as a floor
    /// for `rv_parked` chans: a rendezvous-blocked lane's next effect is
    /// published at `k.now` or later, so the stale pinned clock it parked
    /// with can be lifted to this value.
    replay_now: AtomicU64,
}

impl ParCtrl {
    pub(crate) fn new(config: &SimConfig, n_nodes: usize) -> Self {
        assert!(config.op_log_cap > 0, "op_log_cap must be nonzero");
        Self {
            chans: RwLock::new(Vec::new()),
            lanes: (0..n_nodes).map(|_| LaneShared::new()).collect(),
            poisoned: AtomicBool::new(false),
            send_overhead: config.send_overhead,
            recv_overhead: config.recv_overhead,
            lookahead: config.frame_time(0) + config.wire_latency,
            op_log_cap: config.op_log_cap,
            replay_now: AtomicU64::new(0),
        }
    }

    /// Tears down: every lane blocked on log space or an outcome unwinds
    /// with the poison panic (filtered by the proc-thread epilogue, exactly
    /// like the serial poison path).
    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        for ch in self.chans.read().iter() {
            let _q = ch.q.lock();
            ch.ops_cv.notify_all();
            ch.out_cv.notify_all();
        }
    }
}

// ---------------------------------------------------------------------------
// Lane side: called from NodeCtx methods on proc threads. No kernel access.
// ---------------------------------------------------------------------------

fn wait_space(ctrl: &ParCtrl, ch: &ProcChan, q: &mut parking_lot::MutexGuard<'_, ChanQ>) {
    loop {
        if ctrl.poisoned.load(Ordering::Acquire) {
            panic!("{POISON_MSG}");
        }
        if ch.dead.load(Ordering::Acquire) {
            std::panic::panic_any(CrashUnwind);
        }
        if q.ops.len() < ctrl.op_log_cap {
            return;
        }
        q.lane_waiting = true;
        ch.out_cv.wait(q);
        q.lane_waiting = false;
    }
}

/// Wakes the runner iff it is parked waiting for ops; pushing is
/// otherwise signal-free.
fn notify_runner(ch: &ProcChan, q: &mut parking_lot::MutexGuard<'_, ChanQ>) {
    if q.runner_waiting {
        q.runner_waiting = false;
        ch.ops_cv.notify_one();
    }
}

/// Appends a fire-and-forget op and advances the lane clock to
/// `new_clock` (the provable post-op time).
fn push_ff(ctrl: &ParCtrl, ch: &ProcChan, op: Op, new_clock: Ns) {
    let mut q = ch.q.lock();
    wait_space(ctrl, ch, &mut q);
    let pre = ch.clock.load(Ordering::Relaxed);
    debug_assert!(new_clock >= pre, "lane clock would go backwards");
    q.ops.push_back(OpMsg { pre_clock: pre, op });
    ch.clock.store(new_clock, Ordering::Release);
    notify_runner(ch, &mut q);
}

/// Appends a rendezvous op and blocks until the replay publishes its
/// outcome (which also advances the lane clock). The clock stays pinned
/// at the op's issue time meanwhile, keeping the quiet bound conservative
/// for any wire effect the op has yet to produce.
fn push_sync(ctrl: &ParCtrl, ch: &ProcChan, op: Op) -> Outcome {
    let mut q = ch.q.lock();
    wait_space(ctrl, ch, &mut q);
    let pre = ch.clock.load(Ordering::Relaxed);
    q.ops.push_back(OpMsg { pre_clock: pre, op });
    notify_runner(ch, &mut q);
    loop {
        if let Some(o) = q.outcome.take() {
            return o;
        }
        if ctrl.poisoned.load(Ordering::Acquire) {
            panic!("{POISON_MSG}");
        }
        if ch.dead.load(Ordering::Acquire) {
            std::panic::panic_any(CrashUnwind);
        }
        q.lane_waiting = true;
        ch.out_cv.wait(&mut q);
        q.lane_waiting = false;
    }
}

/// The earliest virtual time at which a delivery can still reach `node`
/// (`ch` is the calling lane's own channel). Sound against stale reads by
/// read order — `replay_now` first (so a stale `rv_parked` flag can only
/// pair with a floor the runner published *before* clearing it: the
/// acquire on `replay_now` makes any earlier clear visible), then per chan
/// `clock` then `send_min` (push lowers the promise before raising the
/// clock), own loopback head next, and the queued-delivery bound *last*
/// (the replay lowers it before retiring the promise that covered the
/// send); see the module docs.
fn quiet_bound(ctrl: &ParCtrl, ch: &ProcChan, node: usize) -> Ns {
    let influence = ctrl.send_overhead + ctrl.lookahead;
    let rnow = ctrl.replay_now.load(Ordering::Acquire);
    let mut quiet = u64::MAX;
    for c in ctrl.chans.read().iter() {
        if c.node as usize == node {
            continue;
        }
        let mut clk = c.clock.load(Ordering::Acquire);
        let sm = c.send_min[node].load(Ordering::Acquire);
        if c.rv_parked.load(Ordering::Acquire) {
            // Rendezvous-blocked lane: its clock is pinned at the issue
            // time of the blocked op, but its next send can only be issued
            // after the replay publishes — at `k.now >= rnow` — so the
            // floor is a sound lift. The promise term stays unlifted
            // (blocked lanes have all promises retired anyway).
            clk = clk.max(rnow);
        }
        quiet = quiet.min(clk.min(sm).saturating_add(influence));
    }
    quiet = quiet.min(ch.loop_head.load(Ordering::Acquire));
    quiet.min(ctrl.lanes[node].queued_head.load(Ordering::Acquire))
}

fn is_multi(ctrl: &ParCtrl, node: usize) -> bool {
    ctrl.lanes[node].multi.load(Ordering::Acquire)
}

/// Pops the mirror head, if any. Mirror entries are always at or before
/// the lane clock (the replay cannot pass the lane's own unreplayed ops),
/// so any entry is an immediate hit.
fn mirror_pop_lane(ctrl: &ParCtrl, node: usize, clock: Ns) -> Option<Datagram> {
    let mut m = ctrl.lanes[node].mirror.lock();
    if !m.enabled {
        return None;
    }
    match m.q.front() {
        Some(&(u, _)) => {
            debug_assert!(u <= clock, "mirror ran ahead of the lane clock");
            Some(m.q.pop_front().expect("front just observed").1)
        }
        None => None,
    }
}

pub(crate) fn lane_now(ch: &ProcChan) -> Ns {
    ch.clock.load(Ordering::Acquire)
}

pub(crate) fn lane_charge(ctrl: &ParCtrl, ch: &ProcChan, bucket: Bucket, dt: Ns) {
    if is_multi(ctrl, ch.node as usize) {
        push_sync(ctrl, ch, Op::Advance { bucket, dt, sync: true });
        return;
    }
    // Single-proc lane invariant: cpu_free <= now, so the charge runs
    // `[clock, clock + dt)` exactly like the serial `advance_locked`.
    let c = ch.clock.load(Ordering::Relaxed);
    push_ff(ctrl, ch, Op::Advance { bucket, dt, sync: false }, c + dt);
}

pub(crate) fn lane_sleep(ctrl: &ParCtrl, ch: &ProcChan, dt: Ns) {
    // sleep ends at now + dt regardless of cpu_free: predictable even on
    // multi-proc lanes.
    let c = ch.clock.load(Ordering::Relaxed);
    push_ff(ctrl, ch, Op::Sleep { dt }, c + dt);
}

pub(crate) fn lane_count(ctrl: &ParCtrl, ch: &ProcChan, name: &'static str, v: u64) {
    let c = ch.clock.load(Ordering::Relaxed);
    push_ff(ctrl, ch, Op::Count { name, v }, c);
}

pub(crate) fn lane_counter_read(ctrl: &ParCtrl, ch: &ProcChan, name: &'static str) -> u64 {
    match push_sync(ctrl, ch, Op::CounterRead { name }) {
        Outcome::Value(v, _) => v,
        _ => unreachable!("CounterRead publishes Value"),
    }
}

pub(crate) fn lane_send(ctrl: &ParCtrl, ch: &ProcChan, dst: NodeId, payload: Bytes) {
    if is_multi(ctrl, ch.node as usize) {
        // Shared-CPU lane: the overhead advance end time is unpredictable.
        push_sync(ctrl, ch, Op::Send { dst, payload, sync: true });
        return;
    }
    // Fire-and-forget: leave a promise covering the eventual delivery.
    // Promise before clock (both releases) — a reader seeing the advanced
    // clock must also see the promise, or the delivery would be uncovered.
    let mut q = ch.q.lock();
    wait_space(ctrl, ch, &mut q);
    let pre = ch.clock.load(Ordering::Relaxed);
    q.ops.push_back(OpMsg {
        pre_clock: pre,
        op: Op::Send { dst, payload, sync: false },
    });
    if dst == ch.node {
        // Loopback lands in our own mailbox at pre + send_overhead; track
        // it in the lane-local pending list read by our own quiet bound.
        q.loop_pending.push_back(pre + ctrl.send_overhead);
        let head = *q.loop_pending.front().expect("just pushed");
        ch.loop_head.store(head, Ordering::Release);
    } else {
        q.send_minq[dst as usize].push_back(pre);
        let head = *q.send_minq[dst as usize].front().expect("just pushed");
        ch.send_min[dst as usize].store(head, Ordering::Release);
    }
    ch.clock.store(pre + ctrl.send_overhead, Ordering::Release);
    notify_runner(ch, &mut q);
}

pub(crate) fn lane_try_recv(ctrl: &ParCtrl, ch: &ProcChan) -> Option<Datagram> {
    let node = ch.node as usize;
    if is_multi(ctrl, node) {
        return match push_sync(ctrl, ch, Op::TryRecv) {
            Outcome::Recv(d, _) => d,
            _ => unreachable!("TryRecv publishes Recv"),
        };
    }
    let c = ch.clock.load(Ordering::Relaxed);
    // Order matters: sample the bound *before* the mirror, so a delivery
    // landing in between is caught by the mirror read.
    let quiet = quiet_bound(ctrl, ch, node);
    if let Some(d) = mirror_pop_lane(ctrl, node, c) {
        let op = Op::RecvHit {
            src: d.src,
            sent_at: d.sent_at,
            len: d.payload.len(),
        };
        push_ff(ctrl, ch, op, c + ctrl.recv_overhead);
        return Some(d);
    }
    if quiet > c {
        return None; // Provably empty now: serial try_recv charges nothing.
    }
    match push_sync(ctrl, ch, Op::TryRecv) {
        Outcome::Recv(d, _) => d,
        _ => unreachable!("TryRecv publishes Recv"),
    }
}

pub(crate) fn lane_wait_recv(
    ctrl: &ParCtrl,
    ch: &ProcChan,
    deadline: Option<Ns>,
) -> Option<Datagram> {
    let node = ch.node as usize;
    if is_multi(ctrl, node) {
        return match push_sync(ctrl, ch, Op::WaitRecv { deadline }) {
            Outcome::Recv(d, _) => d,
            _ => unreachable!("WaitRecv publishes Recv"),
        };
    }
    let c = ch.clock.load(Ordering::Relaxed);
    let quiet = quiet_bound(ctrl, ch, node);
    if let Some(d) = mirror_pop_lane(ctrl, node, c) {
        let op = Op::RecvHit {
            src: d.src,
            sent_at: d.sent_at,
            len: d.payload.len(),
        };
        push_ff(ctrl, ch, op, c + ctrl.recv_overhead);
        return Some(d);
    }
    if let Some(dl) = deadline {
        if dl <= c {
            if quiet > c {
                return None; // Already past the deadline, provably empty.
            }
        } else if quiet > dl {
            // No delivery can land at or before the deadline: the serial
            // path parks once and times out.
            push_ff(ctrl, ch, Op::QuietTimeout { deadline: dl }, dl);
            return None;
        }
    }
    match push_sync(ctrl, ch, Op::WaitRecv { deadline }) {
        Outcome::Recv(d, _) => d,
        _ => unreachable!("WaitRecv publishes Recv"),
    }
}

pub(crate) fn lane_wait_mailbox(ctrl: &ParCtrl, ch: &ProcChan, deadline: Option<Ns>) -> bool {
    let node = ch.node as usize;
    if is_multi(ctrl, node) {
        return match push_sync(ctrl, ch, Op::WaitMailbox { deadline }) {
            Outcome::Flag(b, _) => b,
            _ => unreachable!("WaitMailbox publishes Flag"),
        };
    }
    let c = ch.clock.load(Ordering::Relaxed);
    let quiet = quiet_bound(ctrl, ch, node);
    if mirror_nonempty(ctrl, node) {
        return true;
    }
    if let Some(dl) = deadline {
        if dl <= c {
            if quiet > c {
                return false;
            }
        } else if quiet > dl {
            push_ff(ctrl, ch, Op::QuietTimeout { deadline: dl }, dl);
            return false;
        }
    }
    match push_sync(ctrl, ch, Op::WaitMailbox { deadline }) {
        Outcome::Flag(b, _) => b,
        _ => unreachable!("WaitMailbox publishes Flag"),
    }
}

fn mirror_nonempty(ctrl: &ParCtrl, node: usize) -> bool {
    let m = ctrl.lanes[node].mirror.lock();
    m.enabled && !m.q.is_empty()
}

pub(crate) fn lane_mailbox_nonempty(ctrl: &ParCtrl, ch: &ProcChan) -> bool {
    let node = ch.node as usize;
    if is_multi(ctrl, node) {
        return match push_sync(ctrl, ch, Op::MailboxProbe) {
            Outcome::Flag(b, _) => b,
            _ => unreachable!("MailboxProbe publishes Flag"),
        };
    }
    let c = ch.clock.load(Ordering::Relaxed);
    let quiet = quiet_bound(ctrl, ch, node);
    if mirror_nonempty(ctrl, node) {
        return true;
    }
    if quiet > c {
        return false;
    }
    match push_sync(ctrl, ch, Op::MailboxProbe) {
        Outcome::Flag(b, _) => b,
        _ => unreachable!("MailboxProbe publishes Flag"),
    }
}

pub(crate) fn lane_compute_interruptible(
    ctrl: &ParCtrl,
    ch: &ProcChan,
    bucket: Bucket,
    dt: Ns,
) -> Option<Ns> {
    let node = ch.node as usize;
    if is_multi(ctrl, node) {
        return match push_sync(ctrl, ch, Op::Interruptible { bucket, dt }) {
            Outcome::Interrupt(r, _) => r,
            _ => unreachable!("Interruptible publishes Interrupt"),
        };
    }
    let c = ch.clock.load(Ordering::Relaxed);
    let quiet = quiet_bound(ctrl, ch, node);
    if mirror_nonempty(ctrl, node) {
        // Pending work: serial returns Some(dt) without charging anything.
        return Some(dt);
    }
    if quiet >= c + dt {
        // No delivery strictly before c + dt: the compute cannot be
        // interrupted (a delivery exactly at c + dt loses to the earlier
        // timer wake and still yields None).
        push_ff(ctrl, ch, Op::QuietCompute { bucket, dt }, c + dt);
        return None;
    }
    match push_sync(ctrl, ch, Op::Interruptible { bucket, dt }) {
        Outcome::Interrupt(r, _) => r,
        _ => unreachable!("Interruptible publishes Interrupt"),
    }
}

pub(crate) fn lane_spawn(
    ctrl: &ParCtrl,
    ch: &ProcChan,
    main: Box<dyn FnOnce(NodeCtx) + Send>,
) {
    push_sync(ctrl, ch, Op::Spawn { main });
}

/// Proc-thread epilogue in parallel mode: report termination (or an
/// application panic) to the replay. Best-effort during teardown.
fn lane_finish(ctrl: &ParCtrl, ch: &ProcChan, panic: Option<Box<dyn Any + Send>>) {
    let mut q = ch.q.lock();
    loop {
        if ctrl.poisoned.load(Ordering::Acquire) || ch.dead.load(Ordering::Acquire) {
            return; // Run already over (teardown or fail-stop); nothing to report.
        }
        if q.ops.len() < ctrl.op_log_cap {
            break;
        }
        q.lane_waiting = true;
        ch.out_cv.wait(&mut q);
        q.lane_waiting = false;
    }
    let pre = ch.clock.load(Ordering::Relaxed);
    q.ops.push_back(OpMsg {
        pre_clock: pre,
        op: Op::Finished { panic },
    });
    notify_runner(ch, &mut q);
}

// ---------------------------------------------------------------------------
// Runner side: the authoritative replay. Single thread, holds the kernel.
// ---------------------------------------------------------------------------

/// Pending continuation for a proc the replay parked mid-operation.
enum Cont {
    /// Nothing left at wake; publish the clock if the op was a rendezvous.
    Park { publish_clock: bool },
    /// Tail of a lane-proved uninterrupted compute.
    QuietCompute { start: Ns, dt: Ns, bucket: Bucket },
    /// Tail of a rendezvous `compute_interruptible`.
    Interruptible { start: Ns, dt: Ns, bucket: Bucket },
    /// Send overhead parked; hand the datagram to the wire at wake.
    SendWire {
        dst: NodeId,
        payload: Bytes,
        sync: bool,
    },
    /// Recv overhead parked; publish the datagram (rendezvous pops only).
    RecvOverhead { publish: Option<Datagram> },
    /// Tail of a lane-proved `QuietTimeout` park.
    QuietTimeout { deadline: Ns, park_start: Ns },
    /// Parked inside the rendezvous `wait_recv` loop.
    WaitRecv { deadline: Option<Ns>, park_start: Ns },
    /// Parked inside the rendezvous `wait_mailbox` loop.
    WaitMailbox { deadline: Option<Ns>, park_start: Ns },
}

enum StepRes {
    /// The op (or continuation) fully applied; consume the next op.
    Done,
    /// The proc parked; a queued wake will resume its continuation.
    Parked,
    /// The proc finished; stop consuming its log.
    Finished,
}

struct Rep {
    chan: Arc<ProcChan>,
    cont: Option<Cont>,
    /// Ops drained from the channel in one batch, replayed lock-free.
    buf: VecDeque<OpMsg>,
}

/// A parallel run, start to teardown: a channel and an OS thread for each
/// registered proc, the replay loop, then poison and join.
pub(crate) fn run(
    shared: &Arc<Shared>,
    mut k: parking_lot::MutexGuard<'_, Kernel>,
) -> Result<crate::cluster::SimReport, RunFailure> {
    // Every channel exists before the first lane runs: a lane's quiet bound
    // ranges over all of them.
    let chans: Vec<Arc<ProcChan>> = k
        .procs
        .iter()
        .map(|p| Arc::new(ProcChan::new(p.node, k.nodes.len())))
        .collect();
    shared.par.chans.write().clone_from(&chans);
    let threads: Vec<JoinHandle<()>> = chans
        .into_iter()
        .enumerate()
        .map(|(pid, chan)| spawn_proc_thread(shared, &mut k, pid, chan))
        .collect();
    let outcome = event_loop(shared, k);
    shared.par.poison();
    for t in threads {
        // A lane that panicked already reported its payload; the join
        // error here is its secondary poison unwind at worst.
        let _ = t.join();
    }
    outcome
}

/// Starts the OS thread of proc `pid`, taking its queued body. The lane
/// never touches the kernel: it runs the app against `chan` and reports
/// termination through it. Poison/crash unwinds need no report — the
/// runner initiated them and already did the bookkeeping.
fn spawn_proc_thread(
    shared: &Arc<Shared>,
    k: &mut Kernel,
    pid: ProcId,
    chan: Arc<ProcChan>,
) -> JoinHandle<()> {
    let node = k.procs[pid].node;
    let main: ProcMain = k.procs[pid].main.take().expect("a registered proc has a body");
    let shared = Arc::clone(shared);
    let n_nodes = k.nodes.len();
    std::thread::Builder::new()
        .name(format!("sim-node-{node}-proc-{pid}"))
        .spawn(move || {
            let ctx = NodeCtx {
                shared: Arc::clone(&shared),
                pid,
                node,
                n_nodes,
                par: Some(Arc::clone(&chan)),
            };
            let payload = match catch_unwind(AssertUnwindSafe(|| main(ctx))) {
                Ok(()) => None,
                Err(p) if is_poison_unwind(&p) || p.is::<CrashUnwind>() => return,
                Err(p) => Some(p),
            };
            lane_finish(&shared.par, &chan, payload);
        })
        .expect("failed to spawn proc thread")
}

/// The parallel twin of the serial event loop. Event handling is
/// byte-for-byte the serial algorithm; only resuming the selected proc is
/// replaced by op-log replay.
fn event_loop(
    shared: &Arc<Shared>,
    mut k: parking_lot::MutexGuard<'_, Kernel>,
) -> Result<crate::cluster::SimReport, RunFailure> {
    let mut r = Runner {
        shared: Arc::clone(shared),
        reps: shared
            .par
            .chans
            .read()
            .iter()
            .map(|c| Rep {
                chan: Arc::clone(c),
                cont: None,
                buf: VecDeque::new(),
            })
            .collect(),
        pend: (0..k.nodes.len()).map(|_| BTreeMap::new()).collect(),
    };
    loop {
        if let Some(payload) = k.panic.take() {
            let node = k.panic_node.take();
            return Err(RunFailure::Panic { payload, node });
        }
        if k.live_procs == 0 {
            return Ok(build_report(&k));
        }
        let Some(std::cmp::Reverse(ev)) = k.queue.pop() else {
            return Err(RunFailure::Error(SimError::Stalled {
                at: k.now,
                blocked: blocked_lanes(&k, &r.reps),
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
        shared.par.replay_now.store(k.now, Ordering::Release);
        if let Some(max) = k.config.max_virtual_time {
            if k.now > max {
                return Err(RunFailure::Error(SimError::MaxVirtualTime {
                    limit: max,
                    crashed: k.fault.crashed_nodes(),
                }));
            }
        }
        match ev.kind {
            EvKind::Wake { pid, seq } => {
                let p = &k.procs[pid];
                if p.finished || !p.parked || p.park_seq != seq {
                    continue; // Stale wake.
                }
                k.procs[pid].parked = false;
                k.procs[pid].waiting_for_msg = false;
                r.drive(&mut k, pid);
            }
            EvKind::Deliver { dst, dgram } => {
                let scheduled_at = ev.time;
                r.pend_sub(dst, scheduled_at);
                if k.fault.is_crashed(dst) {
                    k.nodes[dst as usize].net.dropped_crash += 1;
                    r.republish(dst);
                    continue;
                }
                if let Some(until) = k.fault.pause_until(dst, k.now) {
                    k.nodes[dst as usize].net.deferred_pause += 1;
                    k.push_event(until, EvKind::Deliver { dst, dgram });
                    r.pend_add(dst, until);
                    r.republish(dst);
                    continue;
                }
                if dgram.src != dst {
                    k.nodes[dst as usize].net.delivered += 1;
                    debug_assert!(k.observer.is_none(), "observers force serial mode");
                }
                let now = k.now;
                r.mirror_append(dst, now, &dgram);
                k.nodes[dst as usize].mailbox.push_back(dgram);
                r.republish(dst);
                let waiters: Vec<(ProcId, u64)> = k
                    .procs
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.node == dst && p.parked && p.waiting_for_msg)
                    .map(|(pid, p)| (pid, p.park_seq))
                    .collect();
                for (pid, seq) in waiters {
                    k.push_event(now, EvKind::Wake { pid, seq });
                }
            }
            EvKind::Crash { node } => {
                if k.fault.is_crashed(node) {
                    continue;
                }
                k.fault.mark_crashed(node);
                let pending = k.nodes[node as usize].mailbox.len() as u64;
                k.nodes[node as usize].net.dropped_crash += pending;
                k.nodes[node as usize].net.purged_crash += k.nodes[node as usize]
                    .mailbox
                    .iter()
                    .filter(|d| d.src != node)
                    .count() as u64;
                k.nodes[node as usize].mailbox.clear();
                k.nodes[node as usize].counters.add("node.crashed", 1);
                r.crash_lane(&mut k, node);
            }
        }
    }
}

fn blocked_lanes(k: &Kernel, reps: &[Rep]) -> Vec<BlockedProc> {
    k.procs
        .iter()
        .enumerate()
        .filter(|(_, p)| !p.finished)
        .map(|(pid, p)| BlockedProc {
            pid,
            node: p.node,
            waiting_for_msg: p.waiting_for_msg,
            at: reps.get(pid).map_or(k.now, |r| r.chan.clock.load(Ordering::Acquire)),
        })
        .collect()
}

struct Runner {
    shared: Arc<Shared>,
    reps: Vec<Rep>,
    /// Per-node multiset of queued `Deliver` times, mirrored into
    /// `LaneShared::queued_head` for the lookahead bound.
    pend: Vec<BTreeMap<Ns, u64>>,
}

impl Runner {
    fn pend_add(&mut self, node: NodeId, at: Ns) {
        *self.pend[node as usize].entry(at).or_insert(0) += 1;
    }

    fn pend_sub(&mut self, node: NodeId, at: Ns) {
        let m = &mut self.pend[node as usize];
        let n = m.get_mut(&at).expect("queued delivery was tracked");
        *n -= 1;
        if *n == 0 {
            m.remove(&at);
        }
    }

    /// Stores the current earliest queued delivery for `node`. Call only
    /// after any mailbox append from the same event reached the mirror.
    fn republish(&self, node: NodeId) {
        let head = self.pend[node as usize]
            .keys()
            .next()
            .copied()
            .unwrap_or(u64::MAX);
        self.shared.par.lanes[node as usize]
            .queued_head
            .store(head, Ordering::Release);
    }

    /// Lowers the queued-head bound *before* pushing the delivery event —
    /// lowering early is conservative for readers.
    fn pend_add_published(&mut self, node: NodeId, at: Ns) {
        self.pend_add(node, at);
        self.republish(node);
    }

    fn mirror_append(&self, node: NodeId, at: Ns, d: &Datagram) {
        let mut m = self.shared.par.lanes[node as usize].mirror.lock();
        if m.enabled {
            m.q.push_back((at, d.clone()));
        }
    }

    /// Pops the mirror head to match a rendezvous mailbox pop.
    fn mirror_pop_replay(&self, node: NodeId, d: &Datagram) {
        let mut m = self.shared.par.lanes[node as usize].mirror.lock();
        if !m.enabled {
            return;
        }
        let (_, md) = m.q.pop_front().expect("mirror matches the mailbox");
        debug_assert_eq!(
            (md.src, md.sent_at, md.payload.len()),
            (d.src, d.sent_at, d.payload.len()),
            "mirror diverged from the mailbox"
        );
    }

    /// Drives `pid` after a wake: finish any pending continuation, then
    /// consume ops until the proc parks or finishes. Blocking on the op
    /// channel is safe: lane threads never take the kernel lock.
    fn drive(&mut self, k: &mut Kernel, pid: ProcId) {
        if let Some(cont) = self.reps[pid].cont.take() {
            match self.step_cont(k, pid, cont) {
                StepRes::Parked => return,
                StepRes::Done => {}
                StepRes::Finished => return,
            }
        }
        loop {
            let msg = self.next_op(pid);
            debug_assert_eq!(
                msg.pre_clock, k.now,
                "lane clock diverged from the replay for proc {pid}"
            );
            // Keep the blocked-lane floor fresh while replaying a batch:
            // `k.now` can fast-forward through op after op without an
            // event pop, and a stale floor just costs other lanes local
            // resolutions.
            self.shared.par.replay_now.store(k.now, Ordering::Release);
            match self.apply_op(k, pid, msg.op) {
                StepRes::Done => {}
                StepRes::Parked => return,
                StepRes::Finished => return,
            }
        }
    }

    /// Next op for `pid`: from the drained batch if any, else one swap of
    /// the channel's whole deque under a single lock acquisition (waking a
    /// space-blocked lane at most once per batch).
    fn next_op(&mut self, pid: ProcId) -> OpMsg {
        let cap = self.shared.par.op_log_cap;
        let rep = &mut self.reps[pid];
        if let Some(msg) = rep.buf.pop_front() {
            return msg;
        }
        let ch = &rep.chan;
        let mut q = ch.q.lock();
        loop {
            if !q.ops.is_empty() {
                let was_full = q.ops.len() >= cap;
                std::mem::swap(&mut rep.buf, &mut q.ops);
                // Only a full log can have a lane parked for space; a
                // lane parked for an outcome is woken by publish.
                if was_full && q.lane_waiting {
                    ch.out_cv.notify_one();
                }
                return rep.buf.pop_front().expect("swapped a non-empty deque");
            }
            q.runner_waiting = true;
            ch.ops_cv.wait(&mut q);
            q.runner_waiting = false;
        }
    }

    fn publish(&self, pid: ProcId, out: Outcome) {
        let ch = &self.reps[pid].chan;
        let mut q = ch.q.lock();
        // Unblock order: drop the parked flag before the clock/outcome so
        // no reader can pair the flag with a floor published after the
        // lane resumed (the floor's release/acquire edge carries this
        // clear; see `quiet_bound`).
        ch.rv_parked.store(false, Ordering::Release);
        ch.clock.store(out.clock(), Ordering::Release);
        q.outcome = Some(out);
        if q.lane_waiting {
            ch.out_cv.notify_one();
        }
    }

    /// Marks `pid` as parked inside a rendezvous op with no pending wire
    /// effect (see [`ProcChan::rv_parked`]). Call only from park sites
    /// whose wake produces no datagram priced off the *pre-park* clock —
    /// never for `Cont::SendWire`, whose wire handoff at wake is only
    /// covered by the old pinned clock.
    fn mark_rv_parked(&self, pid: ProcId) {
        self.reps[pid]
            .chan
            .rv_parked
            .store(true, Ordering::Release);
    }

    /// Serial `advance_locked`, replayed. Returns true when the proc
    /// parked (caller must set a continuation).
    fn replay_advance(&self, k: &mut Kernel, pid: ProcId, bucket: Bucket, dt: Ns) -> bool {
        let node = k.procs[pid].node as usize;
        let start = k.now.max(k.nodes[node].cpu_free);
        if start > k.now {
            let gap = start - k.now;
            k.nodes[node].buckets.charge(Bucket::Idle, gap);
        }
        let wake_at = start + dt;
        k.nodes[node].buckets.charge(bucket, dt);
        k.nodes[node].cpu_free = wake_at;
        if k.peek_time().is_none_or(|t| t >= wake_at) {
            k.now = wake_at;
            return false;
        }
        self.replay_park_until(k, pid, wake_at);
        true
    }

    fn replay_park_until(&self, k: &mut Kernel, pid: ProcId, wake_at: Ns) {
        let seq = k.procs[pid].park_seq + 1;
        k.push_event(wake_at, EvKind::Wake { pid, seq });
        replay_park(k, pid);
    }

    /// Serial `send_datagram` after the overhead advance. For
    /// fire-and-forget sends (`sync` false) this also retires the lane's
    /// covering promise — strictly *after* the resulting delivery (if any)
    /// lowered the destination's queued bound, so coverage never lapses.
    fn send_wire(&mut self, k: &mut Kernel, pid: ProcId, dst: NodeId, payload: Bytes, sync: bool) {
        let src = k.procs[pid].node;
        let now = k.now;
        if dst == src {
            k.nodes[src as usize].counters.add("net.loopback", 1);
            let dgram = Datagram {
                src,
                payload,
                sent_at: now,
            };
            self.pend_add_published(dst, now);
            k.push_event(now, EvKind::Deliver { dst, dgram });
            if !sync {
                let ch = &self.reps[pid].chan;
                let mut q = ch.q.lock();
                let t = q.loop_pending.pop_front().expect("ff loopback tracked");
                debug_assert_eq!(t, now, "loopback promise diverged from the replay");
                let head = q.loop_pending.front().copied().unwrap_or(u64::MAX);
                ch.loop_head.store(head, Ordering::Release);
            }
            return;
        }
        k.nodes[src as usize].net.messages += 1;
        k.nodes[src as usize].net.payload_bytes += payload.len() as u64;
        k.nodes[src as usize].net.classes.note(&payload);
        k.nodes[src as usize].counters.add("net.sent", 1);
        k.nodes[src as usize]
            .counters
            .add("net.sent_bytes", payload.len() as u64);
        debug_assert!(k.observer.is_none(), "observers force serial mode");
        if let Some(deliver_at) = k.wire_transmit_frame(src, dst, &payload, now) {
            let dgram = Datagram {
                src,
                payload,
                sent_at: now,
            };
            self.pend_add_published(dst, deliver_at);
            k.push_event(deliver_at, EvKind::Deliver { dst, dgram });
        }
        if !sync {
            // Retire the promise whether the frame was delivered or lost:
            // a lost frame needs no coverage.
            let ch = &self.reps[pid].chan;
            let mut q = ch.q.lock();
            let _ = q.send_minq[dst as usize]
                .pop_front()
                .expect("ff send tracked");
            let head = q.send_minq[dst as usize]
                .front()
                .copied()
                .unwrap_or(u64::MAX);
            ch.send_min[dst as usize].store(head, Ordering::Release);
        }
    }

    /// One iteration of the serial `wait_recv` loop body.
    fn wait_recv_step(&mut self, k: &mut Kernel, pid: ProcId, deadline: Option<Ns>) -> StepRes {
        let node = k.procs[pid].node as usize;
        if let Some(d) = k.nodes[node].mailbox.pop_front() {
            self.mirror_pop_replay(node as NodeId, &d);
            let ro = k.config.recv_overhead;
            if self.replay_advance(k, pid, Bucket::Unix, ro) {
                self.mark_rv_parked(pid);
                self.reps[pid].cont = Some(Cont::RecvOverhead { publish: Some(d) });
                return StepRes::Parked;
            }
            self.publish(pid, Outcome::Recv(Some(d), k.now));
            return StepRes::Done;
        }
        if let Some(dl) = deadline {
            if k.now >= dl {
                self.publish(pid, Outcome::Recv(None, k.now));
                return StepRes::Done;
            }
        }
        let park_start = k.now;
        k.procs[pid].waiting_for_msg = true;
        if let Some(dl) = deadline {
            let seq = k.procs[pid].park_seq + 1;
            k.push_event(dl, EvKind::Wake { pid, seq });
        }
        replay_park(k, pid);
        self.mark_rv_parked(pid);
        self.reps[pid].cont = Some(Cont::WaitRecv {
            deadline,
            park_start,
        });
        StepRes::Parked
    }

    /// One iteration of the serial `wait_mailbox` loop body.
    fn wait_mailbox_step(&mut self, k: &mut Kernel, pid: ProcId, deadline: Option<Ns>) -> StepRes {
        let node = k.procs[pid].node as usize;
        if !k.nodes[node].mailbox.is_empty() {
            self.publish(pid, Outcome::Flag(true, k.now));
            return StepRes::Done;
        }
        if let Some(dl) = deadline {
            if k.now >= dl {
                self.publish(pid, Outcome::Flag(false, k.now));
                return StepRes::Done;
            }
        }
        let park_start = k.now;
        k.procs[pid].waiting_for_msg = true;
        if let Some(dl) = deadline {
            let seq = k.procs[pid].park_seq + 1;
            k.push_event(dl, EvKind::Wake { pid, seq });
        }
        replay_park(k, pid);
        self.mark_rv_parked(pid);
        self.reps[pid].cont = Some(Cont::WaitMailbox {
            deadline,
            park_start,
        });
        StepRes::Parked
    }

    fn apply_op(&mut self, k: &mut Kernel, pid: ProcId, op: Op) -> StepRes {
        match op {
            Op::Advance { bucket, dt, sync } => {
                if self.replay_advance(k, pid, bucket, dt) {
                    if sync {
                        self.mark_rv_parked(pid);
                    }
                    self.reps[pid].cont = Some(Cont::Park {
                        publish_clock: sync,
                    });
                    return StepRes::Parked;
                }
                if sync {
                    self.publish(pid, Outcome::Clock(k.now));
                }
                StepRes::Done
            }
            Op::Sleep { dt } => {
                let node = k.procs[pid].node as usize;
                let wake_at = k.now + dt;
                k.nodes[node].buckets.charge(Bucket::Idle, dt);
                self.replay_park_until(k, pid, wake_at);
                self.reps[pid].cont = Some(Cont::Park {
                    publish_clock: false,
                });
                StepRes::Parked
            }
            Op::Count { name, v } => {
                let node = k.procs[pid].node as usize;
                k.nodes[node].counters.add(name, v);
                StepRes::Done
            }
            Op::CounterRead { name } => {
                let node = k.procs[pid].node as usize;
                let v = k.nodes[node].counters.get(name);
                self.publish(pid, Outcome::Value(v, k.now));
                StepRes::Done
            }
            Op::Send { dst, payload, sync } => {
                let so = k.config.send_overhead;
                if self.replay_advance(k, pid, Bucket::Unix, so) {
                    self.reps[pid].cont = Some(Cont::SendWire { dst, payload, sync });
                    return StepRes::Parked;
                }
                self.send_wire(k, pid, dst, payload, sync);
                if sync {
                    self.publish(pid, Outcome::Clock(k.now));
                }
                StepRes::Done
            }
            Op::QuietCompute { bucket, dt } => {
                let node = k.procs[pid].node as usize;
                debug_assert!(
                    k.nodes[node].mailbox.is_empty(),
                    "quiet compute with a pending delivery (lookahead bug)"
                );
                let start = k.now.max(k.nodes[node].cpu_free);
                debug_assert_eq!(start, k.now, "single-proc lane with a busy CPU");
                let wake_at = start + dt;
                if k.peek_time().is_none_or(|t| t >= wake_at) {
                    k.nodes[node].buckets.charge(bucket, dt);
                    k.nodes[node].cpu_free = wake_at;
                    k.now = wake_at;
                    return StepRes::Done;
                }
                k.procs[pid].waiting_for_msg = true;
                self.replay_park_until(k, pid, wake_at);
                self.reps[pid].cont = Some(Cont::QuietCompute { start, dt, bucket });
                StepRes::Parked
            }
            Op::Interruptible { bucket, dt } => {
                let node = k.procs[pid].node as usize;
                if !k.nodes[node].mailbox.is_empty() {
                    self.publish(pid, Outcome::Interrupt(Some(dt), k.now));
                    return StepRes::Done;
                }
                let start = k.now.max(k.nodes[node].cpu_free);
                if start > k.now {
                    let gap = start - k.now;
                    k.nodes[node].buckets.charge(Bucket::Idle, gap);
                }
                let wake_at = start + dt;
                if k.peek_time().is_none_or(|t| t >= wake_at) {
                    k.nodes[node].buckets.charge(bucket, dt);
                    k.nodes[node].cpu_free = wake_at;
                    k.now = wake_at;
                    self.publish(pid, Outcome::Interrupt(None, k.now));
                    return StepRes::Done;
                }
                k.procs[pid].waiting_for_msg = true;
                self.replay_park_until(k, pid, wake_at);
                self.mark_rv_parked(pid);
                self.reps[pid].cont = Some(Cont::Interruptible { start, dt, bucket });
                StepRes::Parked
            }
            Op::RecvHit { src, sent_at, len } => {
                let node = k.procs[pid].node as usize;
                let d = k.nodes[node]
                    .mailbox
                    .pop_front()
                    .expect("lane recv hit raced the mailbox");
                assert_eq!(
                    (d.src, d.sent_at, d.payload.len()),
                    (src, sent_at, len),
                    "lane popped a different datagram than the mailbox head"
                );
                // The lane already popped the mirror for this entry.
                let ro = k.config.recv_overhead;
                if self.replay_advance(k, pid, Bucket::Unix, ro) {
                    self.reps[pid].cont = Some(Cont::RecvOverhead { publish: None });
                    return StepRes::Parked;
                }
                StepRes::Done
            }
            Op::QuietTimeout { deadline } => {
                let node = k.procs[pid].node as usize;
                debug_assert!(
                    k.nodes[node].mailbox.is_empty(),
                    "quiet timeout with a pending delivery (lookahead bug)"
                );
                debug_assert!(deadline > k.now);
                let park_start = k.now;
                k.procs[pid].waiting_for_msg = true;
                let seq = k.procs[pid].park_seq + 1;
                k.push_event(deadline, EvKind::Wake { pid, seq });
                replay_park(k, pid);
                self.reps[pid].cont = Some(Cont::QuietTimeout {
                    deadline,
                    park_start,
                });
                StepRes::Parked
            }
            Op::TryRecv => {
                let node = k.procs[pid].node as usize;
                match k.nodes[node].mailbox.pop_front() {
                    Some(d) => {
                        self.mirror_pop_replay(node as NodeId, &d);
                        let ro = k.config.recv_overhead;
                        if self.replay_advance(k, pid, Bucket::Unix, ro) {
                            self.mark_rv_parked(pid);
                            self.reps[pid].cont = Some(Cont::RecvOverhead { publish: Some(d) });
                            return StepRes::Parked;
                        }
                        self.publish(pid, Outcome::Recv(Some(d), k.now));
                        StepRes::Done
                    }
                    None => {
                        self.publish(pid, Outcome::Recv(None, k.now));
                        StepRes::Done
                    }
                }
            }
            Op::WaitRecv { deadline } => self.wait_recv_step(k, pid, deadline),
            Op::WaitMailbox { deadline } => self.wait_mailbox_step(k, pid, deadline),
            Op::MailboxProbe => {
                let node = k.procs[pid].node as usize;
                let b = !k.nodes[node].mailbox.is_empty();
                self.publish(pid, Outcome::Flag(b, k.now));
                StepRes::Done
            }
            Op::Spawn { main } => {
                let node = k.procs[pid].node;
                let now = k.now;
                let new_pid = k.spawn_proc(node, now, main);
                let chan = Arc::new(ProcChan::new(node, k.nodes.len()));
                chan.clock.store(now, Ordering::Release);
                // The node now shares its CPU between procs: disable the
                // mirror and force every lane op through the rendezvous
                // path (for both the spawner and the new proc).
                let lane = &self.shared.par.lanes[node as usize];
                {
                    let mut m = lane.mirror.lock();
                    m.enabled = false;
                    m.q.clear();
                }
                lane.multi.store(true, Ordering::Release);
                // Push before publishing the spawner's outcome: a quiet
                // reader either sees the new chan, or still sees the
                // spawner's clock pinned at `now`, which covers anything
                // the new proc can send (its sends start at `now` too).
                self.shared.par.chans.write().push(Arc::clone(&chan));
                self.reps.push(Rep {
                    chan: Arc::clone(&chan),
                    cont: None,
                    buf: VecDeque::new(),
                });
                // Detached: teardown poisons every lane, so the thread
                // always exits.
                let _ = spawn_proc_thread(&self.shared, k, new_pid, chan);
                self.publish(pid, Outcome::Clock(k.now));
                StepRes::Done
            }
            Op::Finished { panic } => {
                let node = k.procs[pid].node;
                k.procs[pid].finished = true;
                k.procs[pid].parked = false;
                k.live_procs -= 1;
                k.end_time = k.end_time.max(k.now);
                if let Some(p) = panic {
                    if k.panic.is_none() {
                        k.panic = Some(p);
                        k.panic_node = Some(node);
                    }
                }
                let ch = &self.reps[pid].chan;
                ch.dead.store(true, Ordering::Release);
                // A finished proc influences nobody: stop it from capping
                // other lanes' quiet bounds.
                ch.clock.store(u64::MAX, Ordering::Release);
                StepRes::Finished
            }
        }
    }

    fn step_cont(&mut self, k: &mut Kernel, pid: ProcId, cont: Cont) -> StepRes {
        match cont {
            Cont::Park { publish_clock } => {
                if publish_clock {
                    self.publish(pid, Outcome::Clock(k.now));
                }
                StepRes::Done
            }
            Cont::QuietCompute { start, dt, bucket } => {
                let node = k.procs[pid].node as usize;
                let ran = k.now.saturating_sub(start).min(dt);
                assert_eq!(
                    ran, dt,
                    "conservative lookahead violated: quiet compute was interrupted"
                );
                k.nodes[node].buckets.charge(bucket, ran);
                k.nodes[node].cpu_free = k.now.max(k.nodes[node].cpu_free);
                StepRes::Done
            }
            Cont::Interruptible { start, dt, bucket } => {
                let node = k.procs[pid].node as usize;
                let ran = k.now.saturating_sub(start).min(dt);
                k.nodes[node].buckets.charge(bucket, ran);
                k.nodes[node].cpu_free = k.now.max(k.nodes[node].cpu_free);
                let res = if ran < dt { Some(dt - ran) } else { None };
                self.publish(pid, Outcome::Interrupt(res, k.now));
                StepRes::Done
            }
            Cont::SendWire { dst, payload, sync } => {
                self.send_wire(k, pid, dst, payload, sync);
                if sync {
                    self.publish(pid, Outcome::Clock(k.now));
                }
                StepRes::Done
            }
            Cont::RecvOverhead { publish } => {
                if let Some(d) = publish {
                    self.publish(pid, Outcome::Recv(Some(d), k.now));
                }
                StepRes::Done
            }
            Cont::QuietTimeout {
                deadline,
                park_start,
            } => {
                let node = k.procs[pid].node as usize;
                assert_eq!(
                    k.now, deadline,
                    "conservative lookahead violated: quiet timeout woke early"
                );
                let waited = k.now - park_start;
                k.nodes[node].buckets.charge(Bucket::Idle, waited);
                debug_assert!(k.nodes[node].mailbox.is_empty());
                StepRes::Done
            }
            Cont::WaitRecv {
                deadline,
                park_start,
            } => {
                let node = k.procs[pid].node as usize;
                let waited = k.now - park_start;
                k.nodes[node].buckets.charge(Bucket::Idle, waited);
                self.wait_recv_step(k, pid, deadline)
            }
            Cont::WaitMailbox {
                deadline,
                park_start,
            } => {
                let node = k.procs[pid].node as usize;
                let waited = k.now - park_start;
                k.nodes[node].buckets.charge(Bucket::Idle, waited);
                self.wait_mailbox_step(k, pid, deadline)
            }
        }
    }

    /// Fail-stops every proc of `node`: the replay performs the bookkeeping
    /// the serial crash handshake delegates to each proc's epilogue, then
    /// cuts the lanes loose (their threads unwind at the next channel op).
    fn crash_lane(&mut self, k: &mut Kernel, node: NodeId) {
        let lane = &self.shared.par.lanes[node as usize];
        lane.crashed.store(true, Ordering::Release);
        {
            let mut m = lane.mirror.lock();
            m.enabled = false;
            m.q.clear();
        }
        let pids: Vec<ProcId> = k
            .procs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.node == node && !p.finished)
            .map(|(pid, _)| pid)
            .collect();
        for pid in pids {
            k.procs[pid].finished = true;
            k.procs[pid].parked = false;
            k.live_procs -= 1;
            k.end_time = k.end_time.max(k.now);
            let rep = &mut self.reps[pid];
            rep.cont = None;
            // Discard drained-but-unreplayed ops along with the queued
            // ones: they are ops the serial run would never execute (the
            // kernel cannot pass the crash event to reach them).
            rep.buf.clear();
            let ch = &rep.chan;
            {
                let mut q = ch.q.lock();
                q.ops.clear();
                q.outcome = None;
                q.loop_pending.clear();
                for d in q.send_minq.iter_mut() {
                    d.clear();
                }
                ch.dead.store(true, Ordering::Release);
                for sm in ch.send_min.iter() {
                    sm.store(u64::MAX, Ordering::Release);
                }
                ch.loop_head.store(u64::MAX, Ordering::Release);
                ch.clock.store(u64::MAX, Ordering::Release);
                ch.ops_cv.notify_all();
                ch.out_cv.notify_all();
            }
        }
    }
}

/// Serial `park` replayed: the state flip without the thread blocking.
fn replay_park(k: &mut Kernel, pid: ProcId) {
    let p = &mut k.procs[pid];
    p.parked = true;
    p.park_seq += 1;
}
