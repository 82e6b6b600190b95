//! The standard CarlOS lock: a distributed queue protocol (§3).
//!
//! > To acquire a lock, a node sends a REQUEST message to the lock's
//! > manager node, which in turn forwards the message to the node that
//! > last requested the lock, i.e. the node at the tail of the queue. If
//! > the lock is not held, then the previous holder sends a RELEASE
//! > message immediately. Otherwise, the requesting node joins the request
//! > queue. When the lock is released, the node at the head of the queue
//! > is notified using a RELEASE message.
//!
//! The REQUEST annotation piggybacks the requester's vector timestamp, so
//! the eventual grant RELEASE is precisely tailored — and crucially, the
//! request does **not** make the holder consistent with the requester
//! (no unintended symmetry; Figure 1 of the paper).

use carlos_core::{Annotation, Runtime};
use carlos_sim::NodeId;
use carlos_util::codec::{Decoder, Encoder};

use crate::{
    ids::{H_LOCK_ACQ, H_LOCK_GRANT, H_LOCK_PASS},
    system::SyncSystem,
};

/// Identity of a lock: a small id plus the node managing its queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockSpec {
    /// Application-chosen lock id (unique among locks).
    pub id: u32,
    /// Manager node holding the queue tail (also the initial owner).
    pub manager: NodeId,
}

impl LockSpec {
    /// A lock managed by (and initially free at) `manager`.
    #[must_use]
    pub fn new(id: u32, manager: NodeId) -> Self {
        Self { id, manager }
    }
}

fn body(id: u32) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u32(id);
    e.finish_vec()
}

fn parse_id(b: &[u8]) -> Option<u32> {
    Decoder::new(b).get_u32().ok()
}

pub(crate) fn register(rt: &mut Runtime, sys: &SyncSystem) {
    // Manager hop: update the queue tail, then forward to the previous
    // tail (or grant directly on the very first request — the manager is
    // the initial owner).
    let s = sys.clone();
    rt.register(
        H_LOCK_ACQ,
        Box::new(move |env, msg| {
            let Some(lock) = parse_id(&msg.body) else {
                env.count("sync.malformed", 1);
                env.discard(msg);
                return;
            };
            let requester = msg.origin;
            let prev = s.with_tables(|t| t.lock_tails.insert(lock, requester));
            match prev {
                None => {
                    // First request ever: the manager owns the lock, free.
                    // (If the manager's own client state says otherwise the
                    // manager raced itself, which a single proc cannot do.)
                    env.discard(msg);
                    env.send(requester, H_LOCK_GRANT, body(lock), Annotation::Release);
                }
                Some(prev) => {
                    assert_ne!(
                        prev, requester,
                        "re-request while at the tail implies a missing local re-acquire"
                    );
                    env.forward(msg, prev, H_LOCK_PASS);
                }
            }
        }),
    );

    // Previous-tail hop: grant immediately if the lock is free here,
    // otherwise record the successor for our next release.
    let s = sys.clone();
    rt.register(
        H_LOCK_PASS,
        Box::new(move |env, msg| {
            let Some(lock) = parse_id(&msg.body) else {
                env.count("sync.malformed", 1);
                env.discard(msg);
                return;
            };
            let requester = msg.origin;
            let grant_now = s.with_tables(|t| {
                let st = t.locks.entry(lock).or_default();
                if st.free_here {
                    st.free_here = false;
                    true
                } else {
                    assert!(
                        st.successor.is_none(),
                        "two successors for one lock: manager tail corrupted"
                    );
                    st.successor = Some(requester);
                    false
                }
            });
            env.discard(msg);
            if grant_now {
                env.send(requester, H_LOCK_GRANT, body(lock), Annotation::Release);
            }
        }),
    );
    // H_LOCK_GRANT uses the default disposition (accept): the acquiring
    // side picks it up with wait_accepted, with the acquire performed by
    // acceptance itself.
}

impl SyncSystem {
    /// Acquires `lock`, blocking until granted. Accepting the grant is the
    /// acquire event: memory becomes consistent with the previous holder.
    ///
    /// With [`carlos_core::CoreConfig::stall_timeout`] armed, a stalled
    /// round probes the manager but never re-sends the acquire REQUEST (the
    /// manager's queue-tail protocol is not idempotent, and a duplicate
    /// would enqueue this node behind itself), and a stalled acquire aborts
    /// the run through [`carlos_sim::abort`], naming the lock.
    pub fn acquire(&self, rt: &mut Runtime, lock: LockSpec) {
        let reacquired = self.with_tables(|t| {
            let st = t.locks.entry(lock.id).or_default();
            assert!(!st.holding, "recursive acquire of lock {}", lock.id);
            if st.free_here {
                // The lock is cached here: re-acquire without messages.
                st.free_here = false;
                st.holding = true;
                true
            } else {
                false
            }
        });
        if reacquired {
            rt.ctx().count("lock.local_reacquires", 1);
            return;
        }
        rt.send(
            lock.manager,
            H_LOCK_ACQ,
            body(lock.id),
            Annotation::Request,
        );
        let grant = self.wait_sync(rt, &[H_LOCK_GRANT], "lock acquire", lock.id, || {
            vec![lock.manager]
        });
        assert_eq!(
            parse_id(&grant.body),
            Some(lock.id),
            "grant for a different lock while one acquire is outstanding"
        );
        self.with_tables(|t| {
            t.locks.entry(lock.id).or_default().holding = true;
        });
        rt.ctx().count("lock.acquires", 1);
    }

    /// Releases `lock`. If a successor is queued it is granted with a
    /// RELEASE message; otherwise the lock stays cached here.
    ///
    /// # Panics
    ///
    /// Panics if the lock is not held.
    pub fn release(&self, rt: &mut Runtime, lock: LockSpec) {
        let succ = self.with_tables(|t| {
            let st = t
                .locks
                .get_mut(&lock.id)
                .unwrap_or_else(|| panic!("release of unknown lock {}", lock.id));
            assert!(st.holding, "release of lock {} not held", lock.id);
            st.holding = false;
            match st.successor.take() {
                Some(s) => Some(s),
                None => {
                    st.free_here = true;
                    None
                }
            }
        });
        if let Some(next) = succ {
            rt.send(next, H_LOCK_GRANT, body(lock.id), Annotation::Release);
        }
        rt.ctx().count("lock.releases", 1);
    }
}
