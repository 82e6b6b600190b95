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

use crate::error::{SyncError, SyncTuning};

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
    /// Timeout behavior of this handle's blocking operations. Plain data:
    /// each clone (the handlers hold their own) keeps its own copy, and
    /// only the application-facing handle's copy matters.
    tuning: SyncTuning,
}

impl SyncSystem {
    /// Registers every coordination handler on `rt`.
    #[must_use]
    pub fn install(rt: &mut Runtime) -> Self {
        let sys = Self {
            tables: Rc::new(RefCell::new(Tables::default())),
            tuning: SyncTuning::default(),
        };
        crate::lock::register(rt, &sys);
        crate::queue::register(rt, &sys);
        crate::semaphore::register(rt, &sys);
        // Barriers need no handlers beyond default acceptance.
        sys
    }

    /// Replaces this handle's timeout tuning (builder style).
    pub fn set_tuning(&mut self, tuning: SyncTuning) {
        self.tuning = tuning;
    }

    /// This handle's timeout tuning.
    #[must_use]
    pub fn tuning(&self) -> SyncTuning {
        self.tuning
    }

    pub(crate) fn with_tables<R>(&self, f: impl FnOnce(&mut Tables) -> R) -> R {
        f(&mut self.tables.borrow_mut())
    }

    /// Shared blocking-wait engine for the fallible coordination ops.
    ///
    /// With timeouts disabled (the default) this is exactly
    /// [`Runtime::wait_accepted_any`]: no deadline events enter the run.
    /// With a timeout, each quiet round probes `peers` (never re-sends the
    /// original request — protocols here are not idempotent), gives up with
    /// [`SyncError::PeerDown`] the moment the failure detector convicts a
    /// peer, and with [`SyncError::Timeout`] after `max_rounds` rounds.
    pub(crate) fn wait_sync(
        &self,
        rt: &mut Runtime,
        handlers: &[u32],
        op: &'static str,
        id: u32,
        peers: &[NodeId],
    ) -> Result<AcceptedMsg, SyncError> {
        // Bracket the blocking wait with `SyncWait` events so trace layers
        // see lock/barrier/queue stalls as first-class spans. Both the Ok
        // and Err exits close the span; a crash-unwind leaves it open, and
        // trace layers drop unclosed spans at export.
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
        let result = self.wait_sync_inner(rt, handlers, op, id, peers);
        wait(rt, false);
        result
    }

    fn wait_sync_inner(
        &self,
        rt: &mut Runtime,
        handlers: &[u32],
        op: &'static str,
        id: u32,
        peers: &[NodeId],
    ) -> Result<AcceptedMsg, SyncError> {
        let Some(timeout) = self.tuning.op_timeout else {
            return Ok(rt.wait_accepted_any(handlers));
        };
        let mut rounds: u32 = 0;
        loop {
            let deadline = rt.ctx().now() + timeout;
            if let Some(m) = rt.wait_accepted_any_until(handlers, deadline) {
                return Ok(m);
            }
            rounds += 1;
            rt.ctx().count("sync.timeouts", 1);
            for &p in peers {
                if rt.peer_down(p) {
                    rt.ctx().count("sync.peer_down", 1);
                    return Err(SyncError::PeerDown { op, id, peer: p });
                }
            }
            if rounds >= self.tuning.max_rounds {
                return Err(SyncError::Timeout {
                    op,
                    id,
                    waited: timeout * u64::from(rounds),
                    rounds,
                });
            }
            for &p in peers {
                rt.probe_peer(p);
            }
        }
    }
}
