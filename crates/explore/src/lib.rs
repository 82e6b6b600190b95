//! Guided schedule exploration for the CarlOS simulator.
//!
//! Random jitter sweeps sample delivery interleavings blindly; this crate
//! searches them. One observed run yields, through the checker's wire
//! delivery log ([`carlos_check::DeliveryEvent`]), its **racing-delivery
//! frontier**: pairs of deliveries at the same node, from different
//! senders, whose order is not fixed by happens-before — the classic
//! dynamic partial-order-reduction (DPOR) race condition for
//! message-passing systems. For each racing pair the explorer re-executes
//! the run with a targeted [`carlos_sim::SchedulePlan`] perturbation that
//! delays the earlier delivery past the later one, realizing the flipped
//! order without disturbing anything else.
//!
//! Two runs that deliver the same frames in the same per-node order are
//! equivalent — in a message-passing system the per-destination delivery
//! order determines the computation — so schedules are deduplicated by a
//! canonical **happens-before fingerprint** over per-destination delivery
//! sequences. Predicted child fingerprints prune redundant executions
//! before they run; actual fingerprints catch mispredictions after.
//!
//! On any oracle violation, wrong answer, or crash, the explorer runs
//! **delta-debugging shrink**: greedily removing perturbations until no
//! single removal still reproduces the failure, yielding a 1-minimal
//! counterexample plan.
//!
//! Everything is deterministic: no randomness, BTree-ordered worklists,
//! and the simulator's bit-identical replay guarantee. The same harness
//! and budget produce the same executions, the same fingerprints, and the
//! same shrunk counterexample on every rerun.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod explorer;
mod harness;
mod summary;

pub use explorer::{
    explore, fingerprint, frontier_pairs, shrink, Counterexample, ExploreConfig,
    ExploreResult, ExploreStats,
};
pub use harness::{base_sim, observe, planned, Observation, RunStatus};
pub use summary::{guided_sweep, random_sweep, render_counterexample, ExploreSummary};
