//! Centralized shared work queues and stacks (§2.2, §3).
//!
//! "Stacks and queues for shared work are built using the fixed manager
//! strategy. Enqueue requests and dequeue replies are marked RELEASE,
//! while the dequeue request messages are marked REQUEST. The manager code
//! acts as a forwarding agent for the messages in the queue; it never
//! accepts any RELEASE messages." (§3)
//!
//! The manager *stores* each enqueued RELEASE message. A dequeue forwards
//! the stored message to the consumer, which becomes memory-consistent
//! with the producer of that item — while the manager absorbs nothing and
//! therefore never propagates consistency transitively through itself.
//!
//! [`QueueMode::Accepting`] implements the contrast experiment from §5.2
//! (the variation in which "the forwarding mechanism is not used"): the
//! manager accepts every enqueue and re-releases items itself, becoming a
//! consistency hot spot. Its accept is the acquire alone (the enqueue never
//! reaches the manager's user level), and an item joins the pool or goes
//! to a parked consumer only once that acquire is complete, so the
//! manager never re-releases what it does not yet hold. Either way the
//! manager keeps one pool per queue and serves it in the queue's
//! [`QueueDiscipline`].
//!
//! A semaphore is this same manager (§3: "semaphores ... have similar
//! implementations"): a FIFO forwarding queue of empty items. `V` is
//! `enqueue(q, &[])`, a RELEASE the manager stores or forwards to a parked
//! `P`-er, which so becomes consistent with the `V`-er; `P` is
//! `dequeue(q)`; `k` initial credits are `k` enqueues.

use carlos_core::{Annotation, Env, Runtime};
use carlos_sim::NodeId;
use carlos_util::codec::{Decoder, Encoder};

use crate::{
    ids::{H_Q_CLOSE, H_Q_DEQ, H_Q_EMPTY, H_Q_ENQ, H_Q_ITEM},
    system::{Item, SyncSystem},
};

/// Ordering discipline of a shared work pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// First in, first out (a work queue).
    Fifo,
    /// Last in, first out (a work stack, as Quicksort uses).
    Lifo,
}

/// How the manager moves consistency information.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueMode {
    /// Store-and-forward: the manager never accepts item RELEASEs (§2.2).
    Forwarding,
    /// The manager accepts items and re-releases them itself (the §5.2
    /// "forwarding mechanism not used" variation; a consistency hot spot).
    Accepting,
}

/// Identity and behaviour of a shared work queue or stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueSpec {
    /// Application-chosen queue id.
    pub id: u32,
    /// The fixed manager node.
    pub manager: NodeId,
    /// FIFO or LIFO service.
    pub discipline: QueueDiscipline,
    /// Store-and-forward or accept-and-rerelease.
    pub mode: QueueMode,
    /// Annotation on dequeue request messages (REQUEST by convention).
    pub deq_annotation: Annotation,
}

impl QueueSpec {
    /// A FIFO store-and-forward queue with the paper's annotations.
    #[must_use]
    pub fn fifo(id: u32, manager: NodeId) -> Self {
        Self {
            id,
            manager,
            discipline: QueueDiscipline::Fifo,
            mode: QueueMode::Forwarding,
            deq_annotation: Annotation::Request,
        }
    }

    /// A LIFO store-and-forward stack with the paper's annotations.
    #[must_use]
    pub fn lifo(id: u32, manager: NodeId) -> Self {
        Self {
            discipline: QueueDiscipline::Lifo,
            ..Self::fifo(id, manager)
        }
    }

    /// Returns `self` with every queue message marked RELEASE (the §5.2
    /// Hybrid-2 variation): enqueues always are, so this marks the dequeue
    /// requests.
    #[must_use]
    pub fn all_release(mut self) -> Self {
        self.deq_annotation = Annotation::Release;
        self
    }

    /// Returns `self` with the manager accepting instead of forwarding.
    #[must_use]
    pub fn accepting(mut self) -> Self {
        self.mode = QueueMode::Accepting;
        self
    }
}

/// Encodes (queue id, flags, item). Flags bit 0: LIFO, bit 1: accepting.
fn body(id: u32, flags: u8, item: &[u8]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u32(id);
    e.put_u8(flags);
    e.put_bytes(item);
    e.finish_vec()
}

fn parse(b: &[u8]) -> Option<(u32, u8, &[u8])> {
    let mut d = Decoder::new(b);
    let id = d.get_u32().ok()?;
    let flags = d.get_u8().ok()?;
    let item = d.get_byte_slice().ok()?;
    Some((id, flags, item))
}

const LIFO: u8 = 1;
const ACCEPTING: u8 = 2;

fn spec_flags(spec: &QueueSpec) -> u8 {
    let mut f = 0;
    if spec.discipline == QueueDiscipline::Lifo {
        f |= LIFO;
    }
    if spec.mode == QueueMode::Accepting {
        f |= ACCEPTING;
    }
    f
}

/// Hands `item` of queue `qid` to the consumer `to`: a stored enqueue is
/// forwarded, an accepted one leaves as the manager's own RELEASE.
fn deliver(env: &mut Env<'_>, qid: u32, item: Item, to: NodeId) {
    match item {
        Item::Stored(token) => env.forward_stored(token, to, H_Q_ITEM),
        Item::Accepted(bytes) => {
            env.send(to, H_Q_ITEM, body(qid, 0, &bytes), Annotation::Release);
        }
    }
}

pub(crate) fn register(rt: &mut Runtime, sys: &SyncSystem) {
    // Enqueue at the manager.
    let s = sys.clone();
    rt.register(
        H_Q_ENQ,
        Box::new(move |env, msg| {
            let Some((qid, flags, bytes)) = parse(&msg.body) else {
                env.count("sync.malformed", 1);
                env.discard(msg);
                return;
            };
            // Is a consumer already parked?
            let waiter = || s.with_tables(|t| t.queues.entry(qid).or_default().waiters.pop_front());
            let item = if flags & ACCEPTING == 0 {
                if let Some(w) = waiter() {
                    env.forward(msg, w, H_Q_ITEM);
                    return;
                }
                Item::Stored(env.store(msg))
            } else {
                // Contrast mode: absorb the producer's consistency; the
                // item leaves as a fresh RELEASE of the manager, so it waits
                // for a complete acquire (a pending one brings the message
                // back here once repaired).
                let item = Item::Accepted(bytes.into());
                if !env.accept(msg) {
                    return;
                }
                if let Some(w) = waiter() {
                    deliver(env, qid, item, w);
                    return;
                }
                item
            };
            s.with_tables(|t| {
                let items = &mut t.queues.entry(qid).or_default().items;
                if flags & LIFO == 0 {
                    items.push_back(item);
                } else {
                    items.push_front(item);
                }
            });
        }),
    );

    // Dequeue request at the manager.
    let s = sys.clone();
    rt.register(
        H_Q_DEQ,
        Box::new(move |env, msg| {
            let mut d = Decoder::new(&msg.body);
            let (Ok(qid), Ok(_)) = (d.get_u32(), d.get_u8()) else {
                env.count("sync.malformed", 1);
                env.discard(msg);
                return;
            };
            let requester = msg.origin;
            env.discard(msg);
            let (item, closed) = s.with_tables(|t| {
                let q = t.queues.entry(qid).or_default();
                let item = q.items.pop_front();
                if item.is_none() && !q.closed {
                    q.waiters.push_back(requester);
                }
                (item, q.closed)
            });
            match item {
                Some(item) => deliver(env, qid, item, requester),
                None if closed => {
                    env.send(requester, H_Q_EMPTY, body(qid, 0, &[]), Annotation::None);
                }
                None => {} // Parked until an enqueue or the close.
            }
        }),
    );

    // Close command at the manager: flush parked waiters with EMPTY.
    let s = sys.clone();
    rt.register(
        H_Q_CLOSE,
        Box::new(move |env, msg| {
            let mut d = Decoder::new(&msg.body);
            let Ok(qid) = d.get_u32() else {
                env.count("sync.malformed", 1);
                env.discard(msg);
                return;
            };
            env.discard(msg);
            let waiters = s.with_tables(|t| {
                let q = t.queues.entry(qid).or_default();
                q.closed = true;
                std::mem::take(&mut q.waiters)
            });
            for w in waiters {
                env.send(w, H_Q_EMPTY, body(qid, 0, &[]), Annotation::None);
            }
        }),
    );
    // H_Q_ITEM and H_Q_EMPTY have no handler: the default disposition
    // accepts them and delivers them to the dequeuer at user level.
}

impl SyncSystem {
    /// Enqueues `item` on `queue`. Asynchronous — the paper leans on this:
    /// "enqueue operations are completely asynchronous" (§5.2).
    pub fn enqueue(&self, rt: &mut Runtime, queue: QueueSpec, item: &[u8]) {
        rt.send(
            queue.manager,
            H_Q_ENQ,
            body(queue.id, spec_flags(&queue), item),
            Annotation::Release,
        );
        rt.ctx().count("queue.enqueues", 1);
    }

    /// Dequeues an item, blocking while the queue is empty and open.
    /// Returns `None` once the queue has been closed and drained.
    ///
    /// With [`carlos_core::CoreConfig::stall_timeout`] armed, stalled
    /// rounds probe the manager but never re-send the dequeue REQUEST (the
    /// manager would park this node twice and hand a later item to a ghost
    /// request), and a stalled dequeue aborts the run through
    /// [`carlos_sim::abort`] — also when the queue merely stays empty for
    /// [`carlos_core::STALL_ROUNDS`] stall timeouts.
    pub fn dequeue(&self, rt: &mut Runtime, queue: QueueSpec) -> Option<Vec<u8>> {
        rt.send(
            queue.manager,
            H_Q_DEQ,
            body(queue.id, spec_flags(&queue), &[]),
            queue.deq_annotation,
        );
        rt.ctx().count("queue.dequeues", 1);
        let m = self.wait_sync(
            rt,
            &[H_Q_ITEM, H_Q_EMPTY],
            "queue dequeue",
            queue.id,
            || vec![queue.manager],
        );
        if m.handler == H_Q_EMPTY {
            return None;
        }
        let parsed = parse(&m.body);
        assert_eq!(
            parsed.as_ref().map(|(qid, _, _)| *qid),
            Some(queue.id),
            "item from a different queue"
        );
        parsed.map(|(_, _, item)| item.to_vec())
    }

    /// Closes `queue`: parked and future dequeues return `None`.
    pub fn close_queue(&self, rt: &mut Runtime, queue: QueueSpec) {
        rt.send(
            queue.manager,
            H_Q_CLOSE,
            body(queue.id, spec_flags(&queue), &[]),
            Annotation::None,
        );
    }
}
