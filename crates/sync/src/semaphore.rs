//! Counting semaphores over annotated messages (§3: "semaphores ... have
//! similar implementations" to the distributed-queue lock).
//!
//! The manager keeps the count. A `P` is a REQUEST; when credit exists the
//! manager grants with a RELEASE. A `V` is a RELEASE the manager either
//! forwards directly to a parked `P`-er — making the waker's memory
//! visible to the woken, without the manager absorbing it — or stores
//! until the next `P`.

use carlos_core::{Annotation, Runtime};
use carlos_sim::NodeId;
use carlos_util::codec::{Decoder, Encoder};

use crate::{
    ids::{H_SEM_GRANT, H_SEM_P, H_SEM_V},
    system::{SemState, SyncSystem},
};

/// Identity of a semaphore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SemSpec {
    /// Application-chosen semaphore id.
    pub id: u32,
    /// Manager node holding the count.
    pub manager: NodeId,
    /// Initial credit (all nodes must pass the same value).
    pub initial: u64,
}

impl SemSpec {
    /// A semaphore with `initial` credits managed by `manager`.
    #[must_use]
    pub fn new(id: u32, manager: NodeId, initial: u64) -> Self {
        Self {
            id,
            manager,
            initial,
        }
    }
}

fn body(id: u32, initial: u64) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u32(id);
    e.put_u64(initial);
    e.finish_vec()
}

fn parse(b: &[u8]) -> Option<(u32, u64)> {
    let mut d = Decoder::new(b);
    Some((d.get_u32().ok()?, d.get_u64().ok()?))
}

pub(crate) fn register(rt: &mut Runtime, sys: &SyncSystem) {
    let s = sys.clone();
    rt.register(
        H_SEM_P,
        Box::new(move |env, msg| {
            let Some((id, initial)) = parse(&msg.body) else {
                env.count("sync.malformed", 1);
                env.discard(msg);
                return;
            };
            let requester = msg.origin;
            env.discard(msg);
            enum Action {
                ForwardStored(u64),
                Grant,
                Park,
            }
            let action = s.with_tables(|t| {
                let st = t.sems.entry(id).or_insert_with(|| SemState {
                    count: initial,
                    stored_vs: Default::default(),
                    waiters: Default::default(),
                });
                if let Some(tok) = st.stored_vs.pop_front() {
                    Action::ForwardStored(tok)
                } else if st.count > 0 {
                    st.count -= 1;
                    Action::Grant
                } else {
                    st.waiters.push_back(requester);
                    Action::Park
                }
            });
            match action {
                Action::ForwardStored(tok) => env.forward_stored_as(tok, requester, H_SEM_GRANT),
                Action::Grant => {
                    env.send(requester, H_SEM_GRANT, body(id, initial), Annotation::Release);
                }
                Action::Park => {}
            }
        }),
    );

    let s = sys.clone();
    rt.register(
        H_SEM_V,
        Box::new(move |env, msg| {
            let Some((id, initial)) = parse(&msg.body) else {
                env.count("sync.malformed", 1);
                env.discard(msg);
                return;
            };
            let waiter = s.with_tables(|t| {
                let st = t.sems.entry(id).or_insert_with(|| SemState {
                    count: initial,
                    stored_vs: Default::default(),
                    waiters: Default::default(),
                });
                st.waiters.pop_front()
            });
            match waiter {
                Some(w) => env.forward_as(msg, w, H_SEM_GRANT),
                None => {
                    let tok = env.store(msg);
                    s.with_tables(|t| {
                        // Entry-or-insert rather than a bare lookup: the
                        // state does exist (created above), but re-deriving
                        // it keeps this closure panic-free by construction.
                        t.sems
                            .entry(id)
                            .or_insert_with(|| SemState {
                                count: initial,
                                stored_vs: Default::default(),
                                waiters: Default::default(),
                            })
                            .stored_vs
                            .push_back(tok);
                    });
                }
            }
        }),
    );
    // H_SEM_GRANT uses the default disposition (accept).
}

impl SyncSystem {
    /// `P`: acquires one credit, blocking until available. Accepting the
    /// grant makes memory consistent with the matching `V`-er (or the
    /// manager, for initial credits).
    ///
    /// With [`carlos_core::CoreConfig::stall_timeout`] armed, stalled
    /// rounds probe the manager but never re-send the `P` REQUEST (it
    /// would double-debit), and a stalled `P` aborts the run through
    /// [`carlos_sim::abort`].
    pub fn sem_p(&self, rt: &mut Runtime, sem: SemSpec) {
        rt.send(
            sem.manager,
            H_SEM_P,
            body(sem.id, sem.initial),
            Annotation::Request,
        );
        let m = self.wait_sync(rt, &[H_SEM_GRANT], "semaphore P", sem.id, &[sem.manager]);
        assert_eq!(
            parse(&m.body).map(|(id, _)| id),
            Some(sem.id),
            "grant for a different semaphore"
        );
        rt.ctx().count("sem.p", 1);
    }

    /// `V`: returns one credit. The RELEASE annotation carries this node's
    /// modifications to whichever `P`-er eventually receives the credit.
    pub fn sem_v(&self, rt: &mut Runtime, sem: SemSpec) {
        rt.send(
            sem.manager,
            H_SEM_V,
            body(sem.id, sem.initial),
            Annotation::Release,
        );
        rt.ctx().count("sem.v", 1);
    }
}
