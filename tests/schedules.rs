//! Schedule exploration: every application runs under the online
//! consistency oracle across a sweep of message-delivery schedules.
//!
//! The simulator is deterministic for a fixed configuration, so a single
//! run exercises a single delivery schedule. The [`SimConfig::with_jitter`]
//! knob perturbs per-message delivery latency from a seeded RNG (preserving
//! per-pair FIFO order), so sweeping seeds explores distinct legal
//! schedules — different interleavings of lock handoffs, diff fetches, and
//! barrier arrivals. Under every schedule the application must (a) produce
//! the same answer as its reference and (b) keep the oracle clean: no
//! happens-before violation, no data race, no stale read.
//!
//! Each test sweeps rows of `(application, tweak, seeds)` through
//! [`launch`] and [`Run::verdict`](carlos::apps::Run::verdict). This is the
//! harness that turns the oracle from a spot check into a search:
//! `examples/explore.rs` widens the same sweep from the command line.

use carlos::apps::{
    launch, App, Observe, QsortVariant, Reference, Scale, Spec, Traffic, TspVariant, Tweak,
    WaterVariant,
};
use carlos::sim::time::{secs, us};
use carlos::sim::SimConfig;

/// Delivery-schedule seeds: arbitrary, fixed for reproducibility.
const SEEDS: [u64; 4] = [1, 2, 0xBEEF, 0x5EED_0115];
/// The seeds of the paired sweeps.
const PAIR: [u64; 2] = [SEEDS[0], SEEDS[2]];

/// A run description is plain data, so it can be handed to another thread.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<Spec>();
};

/// Runs each row's application on `n` nodes at test scale under 50 µs of
/// delivery jitter and a 10 s runaway cap, once per seed: the answer must
/// match the reference and the checker must stay clean.
fn sweep(n: usize, rows: &[(App, Tweak, &[u64])]) {
    for &(app, tweak, seeds) in rows {
        let base = Spec {
            tweak,
            observe: Observe::Check,
            ..Spec::new(app, n, Scale::Test)
        };
        let reference = Reference::of(&base);
        for &seed in seeds {
            let mut sim = SimConfig::fast_test().with_jitter(us(50), seed);
            sim.max_virtual_time = Some(secs(10));
            let spec = Spec {
                sim: Some(sim),
                ..base.clone()
            };
            let what = format!("{}/{tweak:?} seed {seed}", app.name());
            let run = launch(&spec).unwrap_or_else(|e| panic!("{what}: {e}"));
            if let Err(why) = run.verdict(&reference) {
                panic!("{what}: {why}");
            }
            run.check.expect("checked").assert_clean();
        }
    }
}

#[test]
fn sor_is_clean_and_exact_across_schedules() {
    sweep(3, &[(App::Sor, Tweak::None, &SEEDS)]);
}

#[test]
fn qsort_is_clean_and_sorted_across_schedules() {
    sweep(3, &[(App::Quicksort(QsortVariant::Lock), Tweak::None, &SEEDS)]);
}

#[test]
fn tsp_is_clean_and_optimal_across_schedules() {
    sweep(3, &[(App::Tsp(TspVariant::Lock), Tweak::None, &SEEDS)]);
}

#[test]
fn water_is_clean_and_accurate_across_schedules() {
    sweep(3, &[(App::Water(WaterVariant::Lock), Tweak::None, &SEEDS)]);
}

/// The hybrid variants route updates through messages instead of locks;
/// they too must stay race-free under schedule perturbation (the §5
/// claim that sequential message delivery replaces explicit locks).
#[test]
fn hybrids_are_clean_across_schedules() {
    sweep(3, &[
        (App::Quicksort(QsortVariant::Hybrid1), Tweak::None, &PAIR),
        (App::Water(WaterVariant::Hybrid), Tweak::None, &PAIR),
    ]);
}

/// Mixed-granularity ("+vg") configurations — granularity hints plus
/// aggregated write notices plus coalesced batch fetches — change the
/// wire protocol (delta-coded RELEASE records, multi-granule SYS_BATCH
/// replies, eager region diffs), so they get their own oracle sweep: the
/// variable-granularity encodings must stay exact and race-free under the
/// same schedule perturbations as the page-granularity baseline.
#[test]
fn vg_apps_are_clean_and_exact_across_schedules() {
    sweep(3, &[
        (App::Sor, Tweak::Vg, &PAIR),
        (App::Quicksort(QsortVariant::Lock), Tweak::Vg, &PAIR),
        (App::Tsp(TspVariant::Lock), Tweak::Vg, &PAIR),
    ]);
}

/// The serving workload joins the oracle sweep at its test scale, on two
/// servers and two clients. Fault-free serving is exact under every
/// jittered schedule — each CAS counter increment lands exactly once,
/// nothing times out, arrives late, or fails the value self-tag, and the
/// servers' private version mirrors agree with the DSM — while the
/// consistency oracle stays clean. The mixed-granularity variant changes
/// the wire encodings (serving mixes eager fine granules for hot shard
/// metadata with demand granules for values), so it gets a paired sweep.
#[test]
fn serve_is_clean_and_exact_across_schedules() {
    let kv = App::Serve(Traffic::Steady);
    sweep(4, &[(kv, Tweak::None, &SEEDS), (kv, Tweak::Vg, &PAIR)]);
}

/// Zero jitter must draw nothing from the jitter RNG: the checked run's
/// virtual-time outcome is identical to an unchecked, unjittered run.
#[test]
fn checker_and_zero_jitter_are_observer_only() {
    let plain_spec = Spec::new(App::Sor, 3, Scale::Test);
    let observed_spec = Spec {
        sim: Some(SimConfig::fast_test().with_jitter(0, 12345)),
        observe: Observe::Check,
        ..plain_spec.clone()
    };
    let plain = launch(&plain_spec).expect("plain SOR run");
    let observed = launch(&observed_spec).expect("checked SOR run");
    let (a, b) = (&plain.app().report, &observed.app().report);
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(plain.verdict(&Reference::of(&plain_spec)), Ok(()));
    assert_eq!(observed.verdict(&Reference::of(&plain_spec)), Ok(()));
    observed.check.expect("checked").assert_clean();
}
