//! # CarlOS-rs — message-driven relaxed consistency in a software DSM
//!
//! A from-scratch Rust reproduction of *"Message-Driven Relaxed Consistency
//! in a Software Distributed Shared Memory"* (Koch, Fowler, Jul — OSDI '94),
//! including every substrate the paper depends on:
//!
//! - a deterministic discrete-event **cluster simulator** with a shared
//!   10 Mbit/s Ethernet model and a sliding-window reliable transport
//!   ([`sim`]);
//! - a TreadMarks-style **lazy release consistency** engine — pages, twins,
//!   run-length-encoded diffs, vector timestamps, intervals, write notices,
//!   multiple-writer merging, garbage collection ([`lrc`]);
//! - the paper's contribution, **message-driven consistency**: annotated
//!   active messages (`NONE` / `REQUEST` / `RELEASE` / `RELEASE_NT`) that
//!   drive all coherence actions, with accept / forward / store message
//!   disposition ([`core`]);
//! - message-based **coordination**: distributed-queue locks, barriers
//!   (hosting global GC), and shared work queues built on
//!   store-and-forward, with a semaphore a FIFO queue of empty items (§3)
//!   ([`sync`]);
//! - the paper's **applications** — TSP, Quicksort, Water — in lock and
//!   hybrid variants ([`apps`]);
//! - an online **consistency oracle**: a happens-before tracker, shadow
//!   memory validating every read under LRC legality, and a data-race
//!   detector with (node, interval, address) attribution, installable on
//!   any run as a pure observer ([`check`]);
//! - a causal **tracer**: per-message flows threaded send → wire → ARQ →
//!   deliver → dispatch, per-message-class cost attribution mirroring the
//!   paper's §5.4 microcosts, and Chrome-trace / metrics-JSON export,
//!   also a pure observer ([`trace`]);
//! - a guided **schedule explorer**: DPOR-style racing-delivery search
//!   driven by targeted per-message delivery perturbations, with
//!   happens-before schedule dedupe and delta-debugging counterexample
//!   shrinking ([`explore`]);
//! - a DSM-backed **key-value / session-cache service**: sharded
//!   single-writer store with granularity hints, an async submit/poll
//!   request API, a deterministic open-loop Zipfian traffic generator,
//!   and tail-latency / harvest-yield reporting under chaos — one more
//!   application, run and judged like the others ([`serve`], in
//!   [`apps`]).
//!
//! # Quick start
//!
//! ```
//! use carlos::core::{Annotation, CoreConfig, Runtime};
//! use carlos::lrc::LrcConfig;
//! use carlos::sim::{Cluster, SimConfig};
//!
//! // Two nodes: node 0 writes shared memory and sends a RELEASE; node 1
//! // accepts it and observes the write (the paper's core guarantee).
//! let mut cluster = Cluster::new(SimConfig::fast_test(), 2);
//! cluster.spawn_node(0, |ctx| {
//!     let mut rt = Runtime::new(ctx, LrcConfig::small_test(2), CoreConfig::fast_test());
//!     rt.write_u32(0, 42);
//!     rt.send(1, 1, vec![], Annotation::Release);
//!     let _ = rt.wait_accepted(2); // Stay alive to serve the diff fetch.
//!     rt.shutdown();
//! });
//! cluster.spawn_node(1, |ctx| {
//!     let mut rt = Runtime::new(ctx, LrcConfig::small_test(2), CoreConfig::fast_test());
//!     let _ = rt.wait_accepted(1);
//!     assert_eq!(rt.read_u32(0), 42);
//!     rt.send(0, 2, vec![], Annotation::None);
//!     rt.shutdown();
//! });
//! cluster.run();
//! ```
//!
//! See `DESIGN.md` for the system inventory and the experiment index, and
//! `EXPERIMENTS.md` for paper-versus-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use carlos_apps as apps;
pub use carlos_apps::serve;
pub use carlos_bench as bench;
pub use carlos_check as check;
pub use carlos_core as core;
pub use carlos_explore as explore;
pub use carlos_lrc as lrc;
pub use carlos_sim as sim;
pub use carlos_sync as sync;
pub use carlos_trace as trace;
pub use carlos_util as util;
