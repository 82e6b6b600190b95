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

/// One entry of a queue manager's pool.
#[derive(Debug)]
pub(crate) enum Item {
    /// Store token of an enqueue message the manager keeps unaccepted
    /// ([`crate::QueueMode::Forwarding`]).
    Stored(u64),
    /// Bytes of an item whose enqueue the manager accepted
    /// ([`crate::QueueMode::Accepting`]); boxed, an entry takes 16 bytes
    /// where a `Vec` would make every entry of every pool 24.
    Accepted(Box<[u8]>),
}

/// Manager-side state for one work queue.
#[derive(Debug, Default)]
pub(crate) struct QueueState {
    /// The pool, in service order: dequeues take the front.
    pub items: VecDeque<Item>,
    /// Consumers blocked on an empty queue.
    pub waiters: VecDeque<NodeId>,
    /// No further items will arrive; dequeues answer "empty".
    pub closed: bool,
}

#[derive(Default)]
pub(crate) struct Tables {
    pub locks: HashMap<u32, LockState>,
    /// Lock-manager queue tails: lock id -> last requester.
    pub lock_tails: HashMap<u32, NodeId>,
    pub queues: HashMap<u32, QueueState>,
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
        // Barriers need no handlers beyond default acceptance.
        sys
    }

    pub(crate) fn with_tables<R>(&self, f: impl FnOnce(&mut Tables) -> R) -> R {
        f(&mut self.tables.borrow_mut())
    }

    /// The blocking wait of every coordination op: the runtime's bounded
    /// wait ([`Runtime::wait_accepted_bounded`]), which probes the nodes
    /// `peers` lists — never re-sending the original request, as the
    /// protocols here are not idempotent — and aborts naming `op` and `id`
    /// once [`carlos_core::CoreConfig::stall_timeout`] is armed and the
    /// wait stalls. `peers` is called only then.
    pub(crate) fn wait_sync(
        &self,
        rt: &mut Runtime,
        handlers: &[u32],
        op: &'static str,
        id: u32,
        peers: impl Fn() -> Vec<NodeId>,
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
