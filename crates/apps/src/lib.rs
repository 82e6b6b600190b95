//! The paper's applications (§5): TSP, Quicksort, and Water, each in a
//! "strictly shared memory" lock version and one or more hybrid versions
//! that keep data in coherent shared memory but coordinate with annotated
//! messages.
//!
//! Every application really computes its result on the DSM — the tests
//! verify tours, sort order, and simulation agreement — while virtual-time
//! charges calibrate single-node run times to the paper's testbed so the
//! benchmark harnesses can reproduce Tables 1–3 and Figure 2. Beyond the
//! paper, red-black SOR and a DSM-backed key-value service ([`serve`]) run
//! the same way. A run is described by a [`Spec`], started by [`launch`]
//! and judged by [`Run::verdict`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod qsort;
pub mod serve;
pub mod sor;
pub mod spec;
pub mod tsp;
pub mod water;

pub use harness::{AppReport, Collector};
pub use qsort::{try_run_qsort, QsortConfig, QsortVariant};
pub use serve::Traffic;
pub use sor::SorConfig;
pub use spec::{launch, launch_with, Answer, App, Observe, Reference, Run, Scale, Spec, Tweak};
pub use tsp::{TspConfig, TspVariant};
pub use water::{try_run_water, WaterConfig, WaterVariant};
