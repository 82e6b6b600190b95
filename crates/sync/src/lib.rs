//! Message-based interprocess coordination on CarlOS (§3 of the paper).
//!
//! CarlOS deliberately ships **no built-in synchronization**: everything
//! here is an ordinary message protocol over annotated messages, exactly
//! as the paper builds it —
//!
//! - [`lock`] — "the standard CarlOS lock uses a simple distributed queue
//!   protocol": acquire goes as a REQUEST to the lock's manager, which
//!   forwards it to the node at the tail of the queue; the previous holder
//!   answers with a RELEASE (immediately if free, at its next release
//!   otherwise).
//! - [`barrier`] — TreadMarks-style barriers with a manager node; arrivals
//!   are RELEASE messages (RELEASE_NT for global barriers), departures are
//!   RELEASE messages that make every client consistent with the manager
//!   and hence with every other client. Barriers also host the global
//!   garbage collection of consistency records, as in TreadMarks.
//! - [`queue`] — centralized shared work queues and stacks: enqueues are
//!   RELEASE messages the manager *stores* without accepting; dequeue
//!   requests are REQUESTs the manager answers by *forwarding* a stored
//!   item, so consumers become consistent with producers while the manager
//!   absorbs nothing (§2.2).
//! - semaphores — "semaphores ... have similar implementations" (§3): a
//!   semaphore is a FIFO [`queue`] of empty items, `V` an enqueue, `P` a
//!   dequeue, and initial credits that many enqueues.
//!
//! All primitives share one [`SyncSystem`] per node, which registers the
//! necessary active-message handlers on the node's [`Runtime`]. Every
//! blocking step waits through the runtime's one bounded wait
//! ([`Runtime::wait_accepted_bounded`]): unarmed it waits forever, and
//! with [`carlos_core::CoreConfig::stall_timeout`] set a stalled operation
//! aborts the run with an attributed error naming the operation and the
//! peer it waited on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barrier;
pub mod ids;
pub mod lock;
pub mod queue;
mod system;

pub use barrier::BarrierSpec;
pub use lock::LockSpec;
pub use queue::{QueueDiscipline, QueueMode, QueueSpec};
pub use system::SyncSystem;

use carlos_core::Runtime;

/// Installs the coordination handlers on `rt` and returns the per-node
/// synchronization system handle.
///
/// Call once per node, after creating the runtime and before any
/// coordination operation.
#[must_use]
pub fn install(rt: &mut Runtime) -> SyncSystem {
    SyncSystem::install(rt)
}
