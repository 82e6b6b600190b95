//! Structured run failures: [`SimError`] and the proc [`abort`] escape.
//!
//! [`crate::Cluster::try_run`] reports every way a run can fail as a value
//! instead of a panic: which nodes crashed (per the fault plan), which
//! procs were still blocked and on what, and — for protocol layers that
//! detect a dead peer — an attributed abort with the detecting node and a
//! human-readable context. [`crate::Cluster::run`] keeps the historical
//! panicking behavior for tests and benchmarks that want failures loud.

use std::fmt;

use crate::time::{NodeId, Ns};

/// A proc still alive when the run failed, and what it was doing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedProc {
    /// Node the proc belongs to (a node runs one proc).
    pub node: NodeId,
    /// Parked waiting for a mailbox delivery (vs. a timer).
    pub waiting_for_msg: bool,
    /// Virtual time when the run failed (the global clock).
    pub at: Ns,
}

impl fmt::Display for BlockedProc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "proc on node {} ({}, t = {} ns)",
            self.node,
            if self.waiting_for_msg {
                "waiting for a message"
            } else {
                "parked"
            },
            self.at
        )
    }
}

/// A structured simulation failure, returned by [`crate::Cluster::try_run`].
#[derive(Debug, Clone)]
pub enum SimError {
    /// No pending events but live procs remain: the protocol deadlocked
    /// (often because a scripted crash took a manager down with it).
    Stalled {
        /// Virtual time of the stall.
        at: Ns,
        /// The procs still alive and what they were waiting for.
        blocked: Vec<BlockedProc>,
        /// Nodes fail-stopped by the fault plan before the stall.
        crashed: Vec<NodeId>,
    },
    /// A proc called [`abort`]: a protocol layer detected an unrecoverable
    /// condition (e.g. a dead peer) and gave up cleanly.
    Aborted {
        /// Node that aborted.
        node: NodeId,
        /// Human-readable description of what was abandoned and why.
        context: String,
        /// Nodes fail-stopped by the fault plan before the abort.
        crashed: Vec<NodeId>,
    },
    /// A proc panicked (assertion failure, protocol bug).
    NodePanic {
        /// Node whose proc panicked, when attributable.
        node: Option<NodeId>,
        /// The panic payload, stringified when possible.
        message: String,
        /// Nodes fail-stopped by the fault plan before the panic.
        crashed: Vec<NodeId>,
    },
    /// The run exceeded [`crate::SimConfig::max_events`].
    MaxEvents {
        /// The configured limit.
        limit: u64,
        /// Virtual time when the valve tripped.
        at: Ns,
        /// Nodes fail-stopped by the fault plan before the valve tripped.
        crashed: Vec<NodeId>,
    },
    /// The run exceeded [`crate::SimConfig::max_virtual_time`].
    MaxVirtualTime {
        /// The configured limit (ns).
        limit: Ns,
        /// Nodes fail-stopped by the fault plan before the valve tripped.
        crashed: Vec<NodeId>,
    },
}

impl SimError {
    /// Nodes fail-stopped by the fault plan before the failure.
    #[must_use]
    pub fn crashed_nodes(&self) -> &[NodeId] {
        match self {
            SimError::Stalled { crashed, .. }
            | SimError::Aborted { crashed, .. }
            | SimError::NodePanic { crashed, .. }
            | SimError::MaxEvents { crashed, .. }
            | SimError::MaxVirtualTime { crashed, .. } => crashed,
        }
    }
}

fn write_crashed(f: &mut fmt::Formatter<'_>, crashed: &[NodeId]) -> fmt::Result {
    if crashed.is_empty() {
        return Ok(());
    }
    let list: Vec<String> = crashed.iter().map(ToString::to_string).collect();
    write!(f, "; crashed nodes: [{}]", list.join(", "))
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Stalled {
                at,
                blocked,
                crashed,
            } => {
                let stuck: Vec<String> = blocked.iter().map(ToString::to_string).collect();
                write!(
                    f,
                    "simulation deadlock: no pending events at t = {at} ns but {} procs alive: [{}]",
                    blocked.len(),
                    stuck.join(", ")
                )?;
                write_crashed(f, crashed)
            }
            SimError::Aborted {
                node,
                context,
                crashed,
            } => {
                write!(f, "node {node} aborted: {context}")?;
                write_crashed(f, crashed)
            }
            SimError::NodePanic {
                node,
                message,
                crashed,
            } => {
                match node {
                    Some(n) => write!(f, "node {n} panicked: {message}")?,
                    None => write!(f, "a proc panicked: {message}")?,
                }
                write_crashed(f, crashed)
            }
            SimError::MaxEvents { limit, at, crashed } => {
                write!(
                    f,
                    "simulation exceeded max_events = {limit} (runaway protocol?) at t = {at} ns"
                )?;
                write_crashed(f, crashed)
            }
            SimError::MaxVirtualTime { limit, crashed } => {
                write!(f, "simulation exceeded max_virtual_time = {limit} ns")?;
                write_crashed(f, crashed)
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Panic payload carried by [`abort`]; recognized by the cluster runner
/// and turned into [`SimError::Aborted`].
#[derive(Debug, Clone)]
pub struct AbortInfo {
    /// Node that aborted.
    pub node: NodeId,
    /// Why.
    pub context: String,
}

impl fmt::Display for AbortInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node {} aborted: {}", self.node, self.context)
    }
}

/// Aborts the calling proc with an attributed, structured failure.
///
/// Protocol layers call this when they detect an unrecoverable condition —
/// a peer flagged down by the failure detector, an operation that timed
/// out past its retry budget — instead of panicking with a bare message.
/// Under [`crate::Cluster::try_run`] the whole run then returns
/// [`SimError::Aborted`] naming this node; under [`crate::Cluster::run`]
/// it surfaces as a panic with the same text.
pub fn abort(node: NodeId, context: impl Into<String>) -> ! {
    std::panic::panic_any(AbortInfo {
        node,
        context: context.into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stalled_display_mentions_deadlock_and_crashes() {
        let e = SimError::Stalled {
            at: 123,
            blocked: vec![BlockedProc {
                node: 0,
                waiting_for_msg: true,
                at: 123,
            }],
            crashed: vec![1],
        };
        let s = e.to_string();
        assert!(s.contains("deadlock"), "must keep the deadlock marker: {s}");
        assert!(s.contains("waiting for a message"));
        assert!(s.contains("crashed nodes: [1]"));
    }

    #[test]
    fn aborted_display_names_node() {
        let e = SimError::Aborted {
            node: 2,
            context: "lock 7 acquire: peer down".into(),
            crashed: vec![0],
        };
        let s = e.to_string();
        assert!(s.contains("node 2 aborted"));
        assert!(s.contains("lock 7"));
        assert!(s.contains("crashed nodes: [0]"));
    }
}
