//! Schedule exploration: random jitter sweep and guided DPOR-style
//! search, under the online consistency oracle.
//!
//! Four campaigns, all sharing one [`carlos::explore::ExploreSummary`]
//! bookkeeping shape and one machine-readable JSON line per campaign:
//!
//! - **random** — the historical grid: for each application (SOR,
//!   Quicksort, TSP, Water), 3 jitter amplitudes x 6 RNG seeds = 18
//!   runs, 72 across the suite. Blind sampling of delivery schedules.
//! - **guided** — the DPOR-style explorer: each application (plus a
//!   mixed-granularity "tsp+vg" variant) is searched from its
//!   racing-delivery frontier with targeted per-flow delivery delays,
//!   deduplicated by happens-before fingerprint, within a fixed budget.
//! - **dedupe-compare** — guided search versus naive (un-deduplicated)
//!   frontier enumeration on TSP, in a windowed regime whose class space
//!   the guided search exhausts completely; measures how many executions
//!   the naive enumeration needs to cover the same classes. The
//!   acceptance gate is a >= 3x reduction.
//! - **seeded-smoke** — one armed protocol mutation (the simulator's
//!   FIFO-clamp skip) that only a guided plan can trigger: the explorer
//!   must find and shrink it to a single perturbation.
//!
//! Any oracle violation, wrong answer, or crash in the clean campaigns —
//! or a miss in the seeded smoke — exits nonzero.
//!
//! Environment knobs: `CARLOS_EXPLORE_MODE` selects one campaign
//! (`random`, `guided`, `dedupe`, `seeded`, default `all`);
//! `CARLOS_EXPLORE_BUDGET` overrides the per-app execution budget
//! (default 64).
//!
//! Run with `cargo run --release --example explore`.

use carlos::apps::{App, QsortVariant, Reference, Scale, Spec, TspVariant, Tweak, WaterVariant};
use carlos::explore::{
    base_sim, explore, fingerprint, guided_sweep, observe, planned, random_sweep, ExploreConfig,
    ExploreSummary,
};
use carlos::sim::time::us;
use std::collections::BTreeSet;

const NODES: usize = 3;
const SEEDS: [u64; 6] = [1, 2, 3, 0xBEEF, 0x5EED_0115, 0xD15C_07E4];
const JITTERS_US: [u64; 3] = [10, 50, 200];
const APPS: [App; 4] = [
    App::Sor,
    App::Quicksort(QsortVariant::Lock),
    App::Tsp(TspVariant::Lock),
    App::Water(WaterVariant::Lock),
];
const TSP: App = App::Tsp(TspVariant::Lock);
/// Delivery window for the dedupe-effectiveness comparison: large enough
/// that TSP's windowed race space holds dozens of classes, small enough
/// that the guided search exhausts it within the budget.
const DEDUPE_WINDOW: usize = 18;

fn budget() -> usize {
    std::env::var("CARLOS_EXPLORE_BUDGET")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
        .min(64)
}

fn emit(failed: &mut bool, s: &ExploreSummary) {
    println!("{}", s.human_line());
    println!("{}", s.json_line());
    *failed |= s.failed();
}

/// The historical 72-run random sweep (18 cells per application).
fn run_random(failed: &mut bool) {
    for app in APPS {
        let spec = Spec::new(app, NODES, Scale::Test);
        emit(failed, &random_sweep(&spec, &JITTERS_US, &SEEDS, true));
    }
}

/// Guided exploration over every app plus the mixed-granularity TSP
/// variant, each within the fixed budget.
fn run_guided(failed: &mut bool) {
    let cfg = ExploreConfig {
        budget: budget(),
        ..ExploreConfig::default()
    };
    for app in APPS {
        emit(failed, &guided_sweep(&Spec::new(app, NODES, Scale::Test), &cfg));
    }
    let vg = Spec {
        tweak: Tweak::Vg,
        ..Spec::new(TSP, NODES, Scale::Test)
    };
    emit(failed, &guided_sweep(&vg, &cfg));
}

/// Dedupe effectiveness on TSP: how many executions does naive
/// (un-deduplicated) frontier enumeration need before it has covered
/// every equivalence class the deduplicated search covered?
///
/// The comparison runs in the explorer's *windowed* regime (races among
/// the first [`DEDUPE_WINDOW`] deliveries): the windowed class space is
/// small enough for the guided search to exhaust completely — the
/// worklist runs dry — which is exactly where deduplication is
/// measurable. An unbounded search never revisits a class within any
/// feasible budget (the race space dwarfs it), so both modes would
/// trivially tie; the naive enumerator's waste (re-flipping perturbed
/// flows back, re-predictable interleavings) only shows once the space
/// can be covered.
fn run_dedupe_compare(failed: &mut bool) {
    let spec = Spec::new(TSP, NODES, Scale::Test);
    let reference = Reference::of(&spec);
    let wfp = |ds: &[carlos::check::DeliveryEvent]| fingerprint(&ds[..DEDUPE_WINDOW.min(ds.len())]);
    let deduped = ExploreConfig {
        budget: budget(),
        window: Some(DEDUPE_WINDOW),
        ..ExploreConfig::default()
    };
    let mut guided_classes: BTreeSet<u64> = BTreeSet::new();
    let res = explore(&deduped, |p| {
        let obs = observe(&planned(&spec, p), &reference);
        guided_classes.insert(wfp(&obs.deliveries));
        obs
    });
    let guided_execs = res.stats.executions;

    // Naive enumeration, observed from outside: record the class of every
    // execution in order and find the first prefix that covers the
    // deduplicated search's class set.
    let full_budget = guided_execs * 8;
    let full = ExploreConfig {
        budget: full_budget,
        dedupe: false,
        window: Some(DEDUPE_WINDOW),
        ..ExploreConfig::default()
    };
    let mut trail: Vec<u64> = Vec::new();
    let _ = explore(&full, |p| {
        let obs = observe(&planned(&spec, p), &reference);
        trail.push(wfp(&obs.deliveries));
        obs
    });
    let mut covered: BTreeSet<u64> = BTreeSet::new();
    let mut full_execs = None;
    for (i, fp) in trail.iter().enumerate() {
        covered.insert(*fp);
        if guided_classes.iter().all(|c| covered.contains(c)) {
            full_execs = Some(i + 1);
            break;
        }
    }
    // No prefix covered the set: the whole budget is a lower bound.
    let (full_execs, capped) = match full_execs {
        Some(n) => (n, false),
        None => (trail.len(), true),
    };
    let ratio = full_execs as f64 / guided_execs as f64;
    println!(
        "tsp [dedupe-compare]: guided exhausted {} classes (window {}) in {} executions; \
         naive frontier enumeration needed {}{} for the same classes ({:.1}x)",
        guided_classes.len(),
        DEDUPE_WINDOW,
        guided_execs,
        if capped { ">=" } else { "" },
        full_execs,
        ratio
    );
    println!(
        "{{\"app\":\"tsp\",\"mode\":\"dedupe-compare\",\"window\":{},\"guided_executions\":{},\
         \"guided_classes\":{},\"full_executions\":{},\"full_capped\":{},\
         \"ratio\":{:.2}}}",
        DEDUPE_WINDOW,
        guided_execs,
        guided_classes.len(),
        full_execs,
        capped,
        ratio
    );
    if ratio < 3.0 {
        println!("  dedupe-compare FAILED: expected >=3x fewer executions");
        *failed = true;
    }
}

/// Seeded-bug smoke: arm the simulator's FIFO-clamp skip on one pair and
/// require the guided explorer to find and shrink it. Random jitter can
/// never trigger this mutation (it only fires on plan-perturbed frames),
/// so a find here is evidence the guided path works end to end.
fn run_seeded_smoke(failed: &mut bool) {
    let mut spec = Spec::new(TSP, NODES, Scale::Test);
    let mut sim = base_sim(&spec);
    sim.seeded_fifo_pair = Some((1, 0));
    spec.sim = Some(sim);
    // Coarse flip margin: FIFO-sensitivity needs a frame displaced far
    // enough past its racer that same-flow successors can overtake it.
    let cfg = ExploreConfig {
        budget: budget(),
        margin: us(500),
        ..ExploreConfig::default()
    };
    let mut s = guided_sweep(&spec, &cfg);
    s.app = "tsp+seeded-fifo".into();
    s.mode = "seeded-smoke".into();
    println!("{}", s.human_line());
    println!("{}", s.json_line());
    match &s.counterexample {
        Some(_) => {}
        None => {
            println!("  seeded-smoke FAILED: guided explorer missed the armed FIFO bug");
            *failed = true;
        }
    }
}

fn main() {
    let mode = std::env::var("CARLOS_EXPLORE_MODE").unwrap_or_else(|_| "all".into());
    let mut failed = false;
    if matches!(mode.as_str(), "random" | "all") {
        run_random(&mut failed);
    }
    if matches!(mode.as_str(), "guided" | "all") {
        run_guided(&mut failed);
    }
    if matches!(mode.as_str(), "dedupe" | "all") {
        run_dedupe_compare(&mut failed);
    }
    if matches!(mode.as_str(), "seeded" | "all") {
        run_seeded_smoke(&mut failed);
    }
    if failed {
        println!("schedule exploration FAILED");
        std::process::exit(1);
    }
    println!("all explored schedules clean");
}
