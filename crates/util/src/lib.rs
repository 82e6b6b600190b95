//! Small self-contained utilities shared by every CarlOS-rs crate.
//!
//! This crate has no knowledge of the DSM protocol. It provides:
//!
//! - [`rng`] — deterministic pseudo-random number generators
//!   ([`rng::SplitMix64`], [`rng::Xoshiro256`]) used everywhere a seeded,
//!   reproducible stream is needed (workload generation, loss injection).
//! - [`codec`] — an explicit binary wire codec. The paper's tables report
//!   message counts and *sizes in bytes*, so every protocol message in this
//!   repository is serialized through this codec and its size is the size
//!   that crosses the simulated wire.
//! - [`event`] — the one typed stream of protocol events every layer
//!   emits, and the [`event::Sink`] trait its consumers (the checker, the
//!   tracer) implement.
//! - [`cases`] — the seeded case runner every property test runs on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cases;
pub mod codec;
pub mod event;
pub mod rng;
