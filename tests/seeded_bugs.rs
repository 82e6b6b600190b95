//! Seeded-bug regression suite: the guided explorer versus known
//! protocol mutations.
//!
//! Four deliberate protocol bugs are compiled behind
//! `#[cfg(any(test, feature = "seeded-bugs"))]` in carlos-core and
//! carlos-sim (armed here through the root crate's dev-dependency
//! features):
//!
//! 1. **DropNoticeClock** — the aggregated-RELEASE encoder reverts one
//!    changed vector-clock component of a delta-coded write-notice
//!    record, so the receiver reconstructs a wrong timestamp.
//! 2. **SkipBatchGranule** — an oversized coalesced batch-fetch reply is
//!    served one granule short (an off-by-one at a reply-capacity
//!    boundary); the requester waits forever for the missing granule.
//! 3. **EagerSkipRevalidate** — an eager region diff carried by a
//!    RELEASE whose required cut is short by exactly one interval is
//!    applied without the revalidation gate, letting a page revalidate
//!    with bytes a not-yet-seen write notice should have superseded.
//! 4. **FifoReorder** — the simulator's per-pair FIFO delivery clamp is
//!    skipped for plan-perturbed frames of one sender/receiver pair, so
//!    a delayed frame is overtaken by its successors.
//!
//! For every bug the guided explorer must find a counterexample within
//! its fixed budget and shrink it to a 1-minimal perturbation set,
//! deterministically across reruns. The historical random jitter sweep
//! (the per-app slice of `examples/explore.rs`'s 72-run grid: 3 jitter
//! amplitudes x 6 seeds) is all but blind to bugs 2 and 4, which both
//! need a precisely placed delivery flip. Bug 4 it misses by
//! construction: only a plan-perturbed frame of one specific flow skips
//! the clamp, and a jitter run has none. Bug 2 it does *not* miss by
//! construction: its trigger is a pile-up of 14 batch entries behind one
//! held-back release on the 4-node Quicksort+vg run (the unperturbed run
//! peaks at 12), which the guided search reaches with one flip and blind
//! jitter reaches in none of its 18 cells. (It reached one, jitter 200 us
//! seed 2, a peak of 14, while a granule's owner still shipped eager diffs
//! to nodes holding no copy; the shorter releases re-time that cell, which
//! now peaks at 12.)
//! That signature was re-derived when diffs went to word granularity —
//! whole-page replies then win more often and batches form differently:
//! at 15 entries or more neither search gets there, at 13 the sweep hits
//! 8 cells, at 12 the baseline itself trips, and on 3 nodes at 14 the
//! sweep hits 5.

use carlos::apps::{launch_with, App, QsortVariant, Reference, Scale, Spec, TspVariant, Tweak};
use carlos::check::Checker;
use carlos::core::{CoreConfig, SeededBug};
use carlos::explore::{
    base_sim, explore, observe, planned, random_sweep, ExploreConfig, ExploreResult, Observation,
};
use carlos::sim::time::us;
use carlos::sim::SchedulePlan;
use carlos::trace::Tracer;

/// The random sweep's per-app grid, exactly as in `examples/explore.rs`.
const SEEDS: [u64; 6] = [1, 2, 3, 0xBEEF, 0x5EED_0115, 0xD15C_07E4];
const JITTERS_US: [u64; 3] = [10, 50, 200];

const TSP: App = App::Tsp(TspVariant::Lock);
const QSORT: App = App::Quicksort(QsortVariant::Lock);

fn seeded(n_nodes: usize, app: App, bug: SeededBug) -> Spec {
    Spec {
        tweak: Tweak::Vg,
        core: Some(CoreConfig::fast_test().with_seeded_bug(bug)),
        ..Spec::new(app, n_nodes, Scale::Test)
    }
}

/// One exploration execution of `spec` under `plan`.
fn run(spec: &Spec, reference: &Reference, plan: &SchedulePlan) -> Observation {
    observe(&planned(spec, plan), reference)
}

/// Runs the guided explorer three times and checks that every rerun
/// produces the same shrunk counterexample: same minimal plan, same
/// outcome class, same search statistics.
fn assert_guided_finds_deterministically(
    name: &str,
    spec: &Spec,
    cfg: &ExploreConfig,
) -> ExploreResult {
    let reference = Reference::of(spec);
    let first = explore(cfg, |p| run(spec, &reference, p));
    let ce = first
        .counterexample
        .as_ref()
        .unwrap_or_else(|| panic!("{name}: guided explorer found no counterexample"));
    assert!(
        first.stats.executions <= cfg.budget,
        "{name}: budget exceeded"
    );
    assert!(
        ce.plan.len() <= 1,
        "{name}: counterexample not shrunk to <=1 perturbation: {:?}",
        ce.plan
    );
    // 1-minimality, verified against the live system: removing any single
    // remaining perturbation must no longer reproduce a failure.
    for (src, dst, seq) in ce.plan.iter().map(|(f, _)| f).collect::<Vec<_>>() {
        let mut probe = ce.plan.clone();
        probe.remove(src, dst, seq);
        assert!(
            !run(spec, &reference, &probe).failed(),
            "{name}: removing flow ({src},{dst},{seq}) still fails — not minimal"
        );
    }
    for rerun in 1..3 {
        let again = explore(cfg, |p| run(spec, &reference, p));
        let ce2 = again
            .counterexample
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: rerun {rerun} found no counterexample"));
        assert_eq!(ce.plan, ce2.plan, "{name}: rerun {rerun} shrunk differently");
        assert_eq!(
            ce.status, ce2.status,
            "{name}: rerun {rerun} failed differently"
        );
        assert_eq!(
            first.stats, again.stats,
            "{name}: rerun {rerun} searched differently"
        );
    }
    first
}

#[test]
fn guided_finds_dropped_notice_clock() {
    let h = seeded(3, TSP, SeededBug::DropNoticeClock);
    let res =
        assert_guided_finds_deterministically("DropNoticeClock", &h, &ExploreConfig::default());
    let ce = res.counterexample.unwrap();
    // The encoder slip corrupts every aggregated release, so the very
    // first (unperturbed) run fails and shrinks to the empty plan.
    assert!(ce.plan.is_empty(), "expected a baseline counterexample");
    assert!(
        !ce.violations.is_empty(),
        "the HB tracker must flag the reverted clock component"
    );
}

#[test]
fn guided_finds_skipped_batch_granule() {
    let h = seeded(4, QSORT, SeededBug::SkipBatchGranule);
    let res =
        assert_guided_finds_deterministically("SkipBatchGranule", &h, &ExploreConfig::default());
    let ce = res.counterexample.unwrap();
    assert_eq!(
        ce.plan.len(),
        1,
        "one targeted delivery flip piles up the oversized batch"
    );
    assert!(
        res.stats.executions > 1,
        "the baseline run is clean; the explorer had to search"
    );
}

#[test]
fn guided_finds_eager_skip_revalidate() {
    let h = seeded(3, TSP, SeededBug::EagerSkipRevalidate);
    let res =
        assert_guided_finds_deterministically("EagerSkipRevalidate", &h, &ExploreConfig::default());
    let ce = res.counterexample.unwrap();
    assert_eq!(ce.plan.len(), 1, "one flip opens the one-interval gap");
    assert!(res.stats.executions > 1, "baseline is clean for this bug");
}

fn fifo_spec() -> Spec {
    let spec = Spec::new(TSP, 3, Scale::Test);
    let mut sim = base_sim(&spec);
    // Arm the seeded FIFO bug on the (1 -> 0) pair: plan-perturbed DATA
    // frames of that pair skip the per-pair FIFO delivery clamp.
    sim.seeded_fifo_pair = Some((1, 0));
    Spec {
        sim: Some(sim),
        ..spec
    }
}

/// FIFO-sensitivity needs a coarse flip margin: a frame displaced well
/// past its racer gives same-flow successors room to overtake it, which
/// is the schedule shape that exposes a broken delivery clamp. The
/// default 2us margin flips exactly one pair and leaves no room.
fn coarse_margin() -> ExploreConfig {
    ExploreConfig {
        margin: us(500),
        ..ExploreConfig::default()
    }
}

#[test]
fn guided_finds_fifo_reorder() {
    let h = fifo_spec();
    let res = assert_guided_finds_deterministically("FifoReorder", &h, &coarse_margin());
    let ce = res.counterexample.unwrap();
    assert_eq!(ce.plan.len(), 1, "one perturbed flow breaks pair FIFO");
    assert!(
        !ce.violations.is_empty(),
        "the checker's FIFO mirror must flag the overtaking frame"
    );
    // Sanity: the bug is keyed on plan perturbation, so the unperturbed
    // baseline stays clean even with the bug armed.
    assert!(!run(&h, &Reference::of(&h), &SchedulePlan::new()).failed());
}

/// The random sweep is blind to bug 2: no jitter cell of the 18 piles a
/// batch up to the seeded capacity boundary, while the guided explorer
/// (same budget class) gets there with one flip. The count is pinned: it
/// moves only if the protocol's batching does. History: (18, 1, 0, 0)
/// while owners shipped eager diffs to nodes holding no copy.
#[test]
fn random_sweep_misses_skipped_batch_granule() {
    let h = seeded(4, QSORT, SeededBug::SkipBatchGranule);
    let s = random_sweep(&h, &JITTERS_US, &SEEDS, false);
    assert_eq!(
        (s.executions, s.crashes, s.violations, s.wrong_answers),
        (18, 0, 0, 0),
        "{}",
        s.human_line()
    );
}

/// The random sweep misses bug 4 by construction: jitter perturbs
/// latency through the FIFO-preserving clamp, and the seeded reorder
/// only triggers on plan-perturbed frames — which a jitter run has none
/// of. Only the guided explorer's targeted plans expose it.
#[test]
fn random_sweep_misses_fifo_reorder() {
    let h = fifo_spec();
    let s = random_sweep(&h, &JITTERS_US, &SEEDS, false);
    assert_eq!(s.executions, 18);
    assert!(
        !s.failed(),
        "random sweep unexpectedly found FifoReorder: {}",
        s.human_line()
    );
}

/// Contrast case: the sweep is not blind to everything — the
/// schedule-independent encoder slip (bug 1) shows up in every cell, so
/// "missing bugs 2 and 4" measures the sweep's real blind spot, not a
/// broken sweep.
#[test]
fn random_sweep_does_find_the_schedule_independent_bug() {
    let h = seeded(3, TSP, SeededBug::DropNoticeClock);
    let s = random_sweep(&h, &JITTERS_US, &SEEDS, false);
    assert!(s.violations > 0, "expected HB violations: {}", s.human_line());
}

/// The checker and the tracer compose: on one run each sees exactly what
/// it sees alone. Bug 1's encoder slip gives the checker something to
/// report, so a checker blinded by the tracer beside it would show.
#[test]
fn checker_beside_a_tracer_sees_what_it_sees_alone() {
    let spec = seeded(3, TSP, SeededBug::DropNoticeClock);
    let observe = |checked: bool, traced: bool| {
        let check = checked.then(|| Checker::new(spec.n));
        let trace = traced.then(|| Tracer::metrics_only(spec.n));
        let _ = launch_with(&spec, check.clone(), trace.clone());
        (
            check.map(|c| c.violations()),
            trace.map(|t| (t.metrics().to_json(), t.flows())),
        )
    };
    let (alone, _) = observe(true, false);
    let (_, traced) = observe(false, true);
    let (violations, both_traced) = observe(true, true);
    let alone = alone.expect("checked");
    assert!(!alone.is_empty(), "the HB tracker must flag the reverted clock component");
    assert_eq!(violations.expect("checked"), alone, "the tracer changed what the checker saw");
    assert_eq!(both_traced, traced, "the checker changed what the tracer saw");
}
