//! Correctness tests for the SOR application: the parallel DSM result must
//! be bitwise identical to the sequential reference (red-black updates
//! read only values frozen by the previous half-sweep).

use carlos_apps::sor::{SorConfig, SorResult};
use carlos_apps::{launch, Answer, App, Reference, Scale, Spec, Tweak};

/// Launches SOR on `n` nodes with `tweak`, asserts its grid is bit-exact
/// against the sequential reference, and returns the result.
fn exact(n: usize, tweak: Tweak) -> SorResult {
    let spec = Spec {
        tweak,
        ..Spec::new(App::Sor, n, Scale::Test)
    };
    let run = launch(&spec).expect("SOR run");
    assert_eq!(run.verdict(&Reference::of(&spec)), Ok(()), "{spec:?}");
    let Answer::Sor(r) = run.answer else {
        unreachable!("a SOR run");
    };
    r
}

#[test]
fn single_node_matches_reference_bitwise() {
    exact(1, Tweak::None);
}

#[test]
fn parallel_matches_reference_bitwise() {
    for n in [2, 3, 4] {
        exact(n, Tweak::None);
    }
}

#[test]
fn update_strategy_matches_reference_bitwise() {
    for n in [2, 4] {
        exact(n, Tweak::Update);
    }
}

#[test]
fn variable_granularity_matches_reference_bitwise() {
    for n in [2, 4] {
        exact(n, Tweak::Vg);
    }
}

#[test]
fn heat_diffuses_downward() {
    let cfg = SorConfig::test(2);
    let r = exact(2, Tweak::None);
    let cols = cfg.cols;
    // After some iterations, the row below the hot edge is warmer than the
    // row above the cold edge.
    let warm: f64 = (1..cols - 1).map(|c| r.grid[cols + c]).sum();
    let cool: f64 = (1..cols - 1).map(|c| r.grid[(cfg.rows - 2) * cols + c]).sum();
    assert!(warm > cool, "diffusion direction wrong: {warm} vs {cool}");
    assert!(r.checksum > 0.0);
}

#[test]
fn runs_are_deterministic() {
    let a = exact(3, Tweak::None);
    let b = exact(3, Tweak::None);
    assert_eq!(a.app.report.elapsed, b.app.report.elapsed);
    assert_eq!(a.grid, b.grid);
}
