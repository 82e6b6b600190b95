//! Correctness tests for the Water application.

use carlos_apps::water::{try_run_water, WaterConfig, WaterResult, WaterVariant};
use carlos_apps::{launch, App, Reference, Run, Scale, Spec, Tweak};

fn spec(n: usize, variant: WaterVariant, tweak: Tweak) -> Spec {
    Spec {
        tweak,
        ..Spec::new(App::Water(variant), n, Scale::Test)
    }
}

/// Launches `spec` and asserts its molecules ended within FP noise of the
/// single-node Lock run (force contributions sum in different orders).
fn accurate(spec: &Spec) -> Run {
    let run = launch(spec).expect("Water run");
    assert_eq!(run.verdict(&Reference::of(spec)), Ok(()), "{spec:?}");
    run
}

fn run(cfg: &WaterConfig) -> WaterResult {
    try_run_water(cfg).expect("Water run")
}

#[test]
fn lock_variant_runs_single_node() {
    let r = run(&WaterConfig::test(1, WaterVariant::Lock));
    assert_eq!(r.positions.len(), 27);
    assert!(r.kinetic.is_finite());
    assert!(r.kinetic > 0.0, "molecules should be moving");
}

#[test]
fn lock_and_hybrid_agree_single_node() {
    let lock = run(&WaterConfig::test(1, WaterVariant::Lock));
    let hybrid = run(&WaterConfig::test(1, WaterVariant::Hybrid));
    let close = lock
        .positions
        .iter()
        .zip(&hybrid.positions)
        .all(|(x, y)| (0..3).all(|d| (x[d] - y[d]).abs() < 1e-9));
    assert!(
        lock.positions.len() == hybrid.positions.len() && close,
        "single-node variants must agree almost exactly"
    );
}

#[test]
fn parallel_matches_sequential_lock() {
    accurate(&spec(4, WaterVariant::Lock, Tweak::None));
}

#[test]
fn parallel_hybrid_matches_sequential() {
    for n in [2, 3, 4] {
        accurate(&spec(n, WaterVariant::Hybrid, Tweak::None));
    }
}

#[test]
fn hybrid_uses_fewer_messages_than_lock() {
    let lock = accurate(&spec(4, WaterVariant::Lock, Tweak::None));
    let hybrid = accurate(&spec(4, WaterVariant::Hybrid, Tweak::None));
    let (lock, hybrid) = (lock.app(), hybrid.app());
    assert!(
        hybrid.messages < lock.messages,
        "hybrid sent {} vs lock {}",
        hybrid.messages,
        lock.messages
    );
}

#[test]
fn all_release_hybrid_still_correct() {
    accurate(&spec(3, WaterVariant::Hybrid, Tweak::AllRelease));
}

#[test]
fn runs_are_deterministic() {
    let a = run(&WaterConfig::test(3, WaterVariant::Hybrid));
    let b = run(&WaterConfig::test(3, WaterVariant::Hybrid));
    assert_eq!(a.app.report.elapsed, b.app.report.elapsed);
    assert_eq!(a.positions, b.positions, "bitwise determinism expected");
}

#[test]
fn variable_granularity_matches_sequential() {
    for variant in [WaterVariant::Lock, WaterVariant::Hybrid] {
        accurate(&spec(4, variant, Tweak::Vg));
    }
}

#[test]
fn update_strategy_matches_invalidate() {
    for variant in [WaterVariant::Lock, WaterVariant::Hybrid] {
        accurate(&spec(4, variant, Tweak::Update));
    }
}
