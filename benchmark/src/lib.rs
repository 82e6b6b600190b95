//! The repository's benchmark: two clocks, six workloads, one command.
//!
//! *Virtual* metrics (the paper's currency: time, messages, bytes, latency
//! of the simulated cluster) come from `SimReport` / `ServeResult` and
//! repeat bit-for-bit; *host* metrics (how fast the simulator itself runs)
//! are medians of repetitions pinned to one CPU. Everything is measured
//! from outside, through the `carlos::` facade, by [`adapter`] alone.
//! See `benchmark/README.md`.

pub mod adapter;
pub mod cli;
pub mod compare;
pub mod json;
pub mod knee;
pub mod layers;
pub mod pin;
pub mod report;
pub mod spans;
pub mod spec;
pub mod timing;
pub mod workload;
