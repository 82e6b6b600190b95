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
//! consistency hot spot.

use carlos_core::{Annotation, Runtime};
use carlos_sim::NodeId;
use carlos_util::codec::{Decoder, Encoder};

use crate::{
    ids::{H_Q_CLOSE, H_Q_DEQ, H_Q_EMPTY, H_Q_ENQ, H_Q_ITEM},
    system::SyncSystem,
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
    /// Annotation on enqueue messages (RELEASE by convention; experiments
    /// vary it).
    pub enq_annotation: Annotation,
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
            enq_annotation: Annotation::Release,
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
    /// Hybrid-2 variation).
    #[must_use]
    pub fn all_release(mut self) -> Self {
        self.enq_annotation = Annotation::Release;
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

fn enq_body(id: u32, item: &[u8]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u32(id);
    e.put_u8(0); // Discipline/mode byte reserved; set per message below.
    e.put_bytes(item);
    e.finish_vec()
}

/// Encodes (queue id, flags, item). Flags bit 0: LIFO, bit 1: accepting.
fn enq_body_flags(id: u32, flags: u8, item: &[u8]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u32(id);
    e.put_u8(flags);
    e.put_bytes(item);
    e.finish_vec()
}

fn parse_enq(b: &[u8]) -> Option<(u32, u8, Vec<u8>)> {
    let mut d = Decoder::new(b);
    let id = d.get_u32().ok()?;
    let flags = d.get_u8().ok()?;
    let item = d.get_bytes().ok()?;
    Some((id, flags, item))
}

fn spec_flags(spec: &QueueSpec) -> u8 {
    let mut f = 0;
    if spec.discipline == QueueDiscipline::Lifo {
        f |= 1;
    }
    if spec.mode == QueueMode::Accepting {
        f |= 2;
    }
    f
}

pub(crate) fn register(rt: &mut Runtime, sys: &SyncSystem) {
    // Enqueue at the manager.
    let s = sys.clone();
    rt.register(
        H_Q_ENQ,
        Box::new(move |env, msg| {
            let Some((qid, flags, item)) = parse_enq(&msg.body) else {
                env.count("sync.malformed", 1);
                env.discard(msg);
                return;
            };
            let lifo = flags & 1 != 0;
            let accepting = flags & 2 != 0;
            // Is a consumer already parked?
            let waiter = s.with_tables(|t| t.queues.entry(qid).or_default().waiters.pop_front());
            if accepting {
                // Contrast mode: absorb the producer's consistency, then
                // re-release the item ourselves (to a waiter or the store).
                env.accept(msg);
                if let Some(w) = waiter {
                    env.send(w, H_Q_ITEM, enq_body(qid, &item), Annotation::Release);
                } else {
                    s.with_tables(|t| {
                        let q = t.queues.entry(qid).or_default();
                        // Re-use the store for the raw item bytes by keeping
                        // them in a synthetic slot: push a sentinel token.
                        q.local_items.push_back(item);
                        let _ = lifo;
                    });
                }
                return;
            }
            match waiter {
                Some(w) => env.forward_as(msg, w, H_Q_ITEM),
                None => {
                    let token = env.store(msg);
                    s.with_tables(|t| {
                        let q = t.queues.entry(qid).or_default();
                        if lifo {
                            q.items.push_front(token);
                        } else {
                            q.items.push_back(token);
                        }
                    });
                }
            }
        }),
    );

    // Dequeue request at the manager.
    let s = sys.clone();
    rt.register(
        H_Q_DEQ,
        Box::new(move |env, msg| {
            let mut d = Decoder::new(&msg.body);
            let (Ok(qid), Ok(flags)) = (d.get_u32(), d.get_u8()) else {
                env.count("sync.malformed", 1);
                env.discard(msg);
                return;
            };
            let accepting = flags & 2 != 0;
            let requester = msg.origin;
            env.discard(msg);
            enum Action {
                Forward(u64),
                Local(Vec<u8>),
                Empty,
                Park,
            }
            let action = s.with_tables(|t| {
                let q = t.queues.entry(qid).or_default();
                if accepting {
                    if let Some(item) = q.local_items.pop_front() {
                        return Action::Local(item);
                    }
                } else if let Some(tok) = q.items.pop_front() {
                    return Action::Forward(tok);
                }
                if q.closed {
                    Action::Empty
                } else {
                    q.waiters.push_back(requester);
                    Action::Park
                }
            });
            match action {
                Action::Forward(tok) => env.forward_stored_as(tok, requester, H_Q_ITEM),
                Action::Local(item) => {
                    env.send(requester, H_Q_ITEM, enq_body(qid, &item), Annotation::Release);
                }
                Action::Empty => env.send(requester, H_Q_EMPTY, enq_body(qid, &[]), Annotation::None),
                Action::Park => {}
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
                env.send(w, H_Q_EMPTY, enq_body(qid, &[]), Annotation::None);
            }
        }),
    );
    // H_Q_ITEM and H_Q_EMPTY use the default disposition (accept).
}

impl SyncSystem {
    /// Enqueues `item` on `queue`. Asynchronous — the paper leans on this:
    /// "enqueue operations are completely asynchronous" (§5.2).
    pub fn enqueue(&self, rt: &mut Runtime, queue: QueueSpec, item: &[u8]) {
        rt.send(
            queue.manager,
            H_Q_ENQ,
            enq_body_flags(queue.id, spec_flags(&queue), item),
            queue.enq_annotation,
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
            enq_body_flags(queue.id, spec_flags(&queue), &[]),
            queue.deq_annotation,
        );
        rt.ctx().count("queue.dequeues", 1);
        let m = self.wait_sync(
            rt,
            &[crate::ids::H_Q_ITEM, crate::ids::H_Q_EMPTY],
            "queue dequeue",
            queue.id,
            &[queue.manager],
        );
        if m.handler == crate::ids::H_Q_EMPTY {
            return None;
        }
        let parsed = parse_enq(&m.body);
        assert_eq!(
            parsed.as_ref().map(|(qid, _, _)| *qid),
            Some(queue.id),
            "item from a different queue"
        );
        parsed.map(|(_, _, item)| item)
    }

    /// Closes `queue`: parked and future dequeues return `None`.
    pub fn close_queue(&self, rt: &mut Runtime, queue: QueueSpec) {
        rt.send(
            queue.manager,
            H_Q_CLOSE,
            enq_body_flags(queue.id, spec_flags(&queue), &[]),
            Annotation::None,
        );
    }
}
