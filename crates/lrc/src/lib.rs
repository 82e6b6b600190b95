//! TreadMarks-style lazy release consistency (LRC) substrate.
//!
//! CarlOS "began with the TreadMarks code. While the basic mechanisms of
//! lazy release consistency are intact, data structures and internal
//! protocols have been restructured extensively" (§4). This crate is that
//! substrate, rebuilt from scratch:
//!
//! - [`vc::Vc`] — vector timestamps summarizing each node's consistency
//!   state (element *i* = index of the most recently seen interval of
//!   node *i*).
//! - [`interval`] — intervals and write notices: each node's execution is
//!   an indexed sequence of intervals whose endpoints are acquire/release
//!   events; each interval carries one write notice per page modified in it.
//! - [`diff`] — run-length-encoded diffs produced by comparing a page with
//!   its twin, and applied (possibly from multiple concurrent writers) to
//!   bring an invalidated page up to date; [`diff::Diffs`] holds records
//!   flat, from a writer's store to the wire and back.
//! - [`page`] — the software page table replacing `mprotect`/`SIGSEGV`:
//!   page states, twin management, per-page application bookkeeping.
//! - [`engine::LrcEngine`] — the per-node protocol state machine, written
//!   *sans-I/O*: faults and consistency operations return explicit demands
//!   ([`engine::Demand`]) that the messaging layer satisfies with protocol
//!   replies. This keeps the protocol purely testable and lets the
//!   `carlos-core` crate drive it from annotated messages.
//!
//! The write-detection substitution (software page table instead of VM
//! protection traps) is documented in the repository's `DESIGN.md`; the
//! protocol above the detection mechanism is the paper's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod diff;
pub mod engine;
pub mod interval;
pub mod page;
pub mod region;
pub mod vc;

pub use config::{LrcConfig, PageOwnership};
pub use diff::{Diff, DiffView, Diffs, WORD};
pub use engine::{Demand, LrcEngine};
pub use interval::{IntervalRecord, Records};
pub use page::{PageId, PageState};
pub use region::{GranuleMap, RegionSpec};
pub use vc::Vc;
