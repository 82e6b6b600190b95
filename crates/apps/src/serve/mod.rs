//! A DSM-backed key-value / session-cache service and its measurement
//! harness — the ROADMAP's "serving heavy traffic" scenario built on the
//! CarlOS stack. A serving run is an application like the others:
//! [`App::Serve`](crate::App::Serve) with its [`Traffic`], started by
//! [`launch`](crate::launch) and judged by [`Run::verdict`](crate::Run::verdict).
//!
//! Four pieces (see DESIGN.md §14):
//!
//! - [`store`] — a sharded, versioned hash store laid out in coherent
//!   shared memory with granularity hints: eager fine granules
//!   for hot slot headers, demand cell granules for values. Each shard
//!   has exactly one writer (its owning server), so the store is
//!   race-free by construction and consistency flows to clients purely
//!   on RELEASE-annotated replies — the paper's message-driven model
//!   applied to serving.
//! - [`client`] — an asynchronous submit/poll request API over
//!   [`carlos_core::Runtime`], so one proc multiplexes many in-flight
//!   operations and owns the yield accounting (every submitted op ends
//!   as completed or timed-out; late replies are counted, never
//!   double-counted).
//! - [`workload`] — a deterministic open-loop traffic generator:
//!   Zipfian key popularity and exponential virtual-time arrivals, fixed
//!   per (seed, client), with CAS increments against shared counters
//!   interleaved at Bresenham-even spacing.
//! - [`run`] — cluster orchestration (servers = first half of the nodes,
//!   clients = second half), harvest probes under fault plans, and the
//!   merged [`run::ServeResult`]: tail latency via `VtHistogram`,
//!   ops/s, bytes/op, harvest and yield.

pub mod client;
pub mod run;
pub mod store;
pub mod workload;

pub use client::{ClientStats, Completion, KvClient, H_KV_REP, H_KV_REQ, H_SERVE_DONE};
pub use run::{
    try_run_serve, ClientNodeStats, HarvestProbe, ServeConfig, ServeResult, ServeTotals,
    ServerStats, Traffic,
};
pub use store::{OpKind, Reply, Request, Status, StoreLayout};
pub use workload::{OpMix, Workload, ZipfTable};
