//! Deterministic discrete-event cluster simulator.
//!
//! The CarlOS paper ran on four DEC 3000/300 workstations on an isolated
//! 10 Mbit/s Ethernet under DEC OSF/1. This crate substitutes that testbed
//! with a virtual cluster:
//!
//! - Each simulated process ("proc") runs application and protocol code as a
//!   **coroutine** with its own stack on the thread that called
//!   [`Cluster::run`]: exactly one proc executes at a time, in virtual-time
//!   order, and a simulated context switch is a function call, so every run
//!   is bit-for-bit deterministic and creates no OS thread.
//! - A **shared-medium Ethernet model** serializes frames at a configurable
//!   bandwidth, adds latency, charges per-message software overhead (the
//!   "Unix" cost of syscalls and the UDP/IP stack), and can drop datagrams
//!   with a seeded probability.
//! - A **sliding-window reliable transport** ([`transport::Transport`])
//!   recovers losses and guarantees in-order delivery, as §4.3 of the paper
//!   describes for the real system.
//! - Per-node **time buckets** (`User` / `Unix` / `CarlOS` / `Idle`) and
//!   counters reproduce the execution breakdowns of the paper's Figure 2 and
//!   the message statistics of Tables 1–3.
//!
//! Protocol layers above this crate (LRC, message-driven consistency, the
//! applications) are real implementations; the simulator only prices their
//! computation and communication.
//!
//! # Examples
//!
//! ```
//! use carlos_sim::{Cluster, SimConfig, time::us};
//!
//! let mut cluster = Cluster::new(SimConfig::default(), 2);
//! cluster.spawn_node(0, |ctx| {
//!     ctx.send_datagram(1, b"ping".to_vec());
//! });
//! cluster.spawn_node(1, |ctx| {
//!     let d = ctx.wait_recv(None).expect("ping arrives");
//!     assert_eq!(d.payload, b"ping");
//!     ctx.compute(us(10));
//! });
//! let report = cluster.run();
//! assert_eq!(report.net.messages, 1);
//! ```

// `coro` — the stack switch and the stacks — is the one place that needs
// `unsafe`; everywhere else in the crate it stays an error.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
#[allow(unsafe_code)]
mod coro;
mod kernel;

pub mod config;
pub mod error;
pub mod fault;
pub mod schedule;
pub mod stats;
pub mod time;
pub mod transport;

pub use cluster::{Cluster, Datagram, NodeCtx, SimReport, WireObserver};
pub use config::SimConfig;
pub use error::{abort, AbortInfo, BlockedProc, SimError};
pub use fault::{FaultPlan, FaultSpec, GeParams};
pub use schedule::{FlowId, SchedulePlan};
pub use stats::{Bucket, ClassStats, Counters, FrameClasses, NetStats, TimeBuckets};
pub use time::{NodeId, Ns};
pub use transport::{AckMode, ArqTuning, Body, FrameBuf, Transport, TransportObserver};
