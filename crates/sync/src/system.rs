//! The per-node synchronization system: shared state plus handler
//! registration.

use std::{
    cell::RefCell,
    collections::{HashMap, VecDeque},
    rc::Rc,
};

use carlos_core::{AcceptedMsg, Runtime};
use carlos_sim::NodeId;
use carlos_util::event::Event;

/// Client- and manager-side state for one lock.
#[derive(Debug, Default)]
pub(crate) struct LockState {
    /// We hold the lock.
    pub holding: bool,
    /// We released it and nobody has been forwarded to us since: the lock
    /// is cached here and can be re-acquired without messages.
    pub free_here: bool,
    /// Node to grant to at our next release.
    pub successor: Option<NodeId>,
}

/// Manager-side state for one work queue.
#[derive(Debug, Default)]
pub(crate) struct QueueState {
    /// Store tokens of enqueued (stored) item messages.
    pub items: VecDeque<u64>,
    /// Item bytes held locally in `QueueMode::Accepting` (the manager has
    /// accepted the enqueue and re-releases items itself).
    pub local_items: VecDeque<Vec<u8>>,
    /// Consumers blocked on an empty queue.
    pub waiters: VecDeque<NodeId>,
    /// No further items will arrive; dequeues answer "empty".
    pub closed: bool,
}

/// Manager-side state for one semaphore.
#[derive(Debug)]
pub(crate) struct SemState {
    /// Grants available beyond stored V messages.
    pub count: u64,
    /// Store tokens of stored V (RELEASE) messages.
    pub stored_vs: VecDeque<u64>,
    /// Blocked P requesters.
    pub waiters: VecDeque<NodeId>,
}

#[derive(Default)]
pub(crate) struct Tables {
    pub locks: HashMap<u32, LockState>,
    /// Lock-manager queue tails: lock id -> last requester.
    pub lock_tails: HashMap<u32, NodeId>,
    pub queues: HashMap<u32, QueueState>,
    pub sems: HashMap<u32, SemState>,
}

/// Handle to a node's coordination state; create with [`crate::install`].
#[derive(Clone)]
pub struct SyncSystem {
    pub(crate) tables: Rc<RefCell<Tables>>,
}

impl SyncSystem {
    /// Registers every coordination handler on `rt`.
    #[must_use]
    pub fn install(rt: &mut Runtime) -> Self {
        let sys = Self {
            tables: Rc::new(RefCell::new(Tables::default())),
        };
        crate::lock::register(rt, &sys);
        crate::queue::register(rt, &sys);
        crate::semaphore::register(rt, &sys);
        // Barriers need no handlers beyond default acceptance.
        sys
    }

    pub(crate) fn with_tables<R>(&self, f: impl FnOnce(&mut Tables) -> R) -> R {
        f(&mut self.tables.borrow_mut())
    }

    /// The blocking wait of every coordination op: the runtime's bounded
    /// wait ([`Runtime::wait_accepted_bounded`]), which probes `peers` —
    /// never re-sending the original request, as the protocols here are not
    /// idempotent — and aborts naming `op` and `id` once
    /// [`carlos_core::CoreConfig::stall_timeout`] is armed and the wait
    /// stalls.
    pub(crate) fn wait_sync(
        &self,
        rt: &mut Runtime,
        handlers: &[u32],
        op: &'static str,
        id: u32,
        peers: &[NodeId],
    ) -> AcceptedMsg {
        // Bracket the blocking wait with `SyncWait` events so trace layers
        // can time lock/barrier/queue stalls. An abort or crash-unwind
        // leaves the wait open, and the tracer never times an unclosed
        // wait.
        let wait = |rt: &Runtime, begin| {
            rt.emit(|| Event::SyncWait {
                node: rt.node_id(),
                what: op,
                id,
                begin,
                at: rt.ctx().now(),
            });
        };
        wait(rt, true);
        let m = rt.wait_accepted_bounded(handlers, peers, || format!("{op} {id}"));
        wait(rt, false);
        m
    }
}
