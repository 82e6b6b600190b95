//! Regenerates every table and figure of the CarlOS paper (OSDI '94), and
//! the ablations beyond it, from one table of row specs:
//! `cargo run --release --example report` runs [`report::run_report`] and
//! writes `BENCH_paper.json` plus a Markdown report, and with
//! `CARLOS_REPORT_FOOTPRINT` set the heap ledger of [`footprint`];
//! [`docs`] renders EXPERIMENTS.md's and README.md's tables from the
//! committed report (`carlos-repro docs <dir>`). Host
//! wall-clock micro-benchmarks of the hot paths are the `wallclock` bench
//! target.
//!
//! Absolute times come from the calibrated cost model (`DESIGN.md`); the
//! claims under reproduction are the *shapes*: who wins, by what factor,
//! and where overheads sit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod docs;
pub mod footprint;
pub mod report;
