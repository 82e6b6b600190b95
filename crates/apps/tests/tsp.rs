//! Correctness tests for the TSP application: both variants must find the
//! exact optimum (verified against a Held–Karp oracle) on every cluster
//! size, and the hybrid must use substantially fewer messages.

use carlos_apps::tsp::{Cities, TspResult, TspVariant};
use carlos_apps::{launch, Answer, App, Reference, Scale, Spec, Tweak};

fn spec(n: usize, variant: TspVariant, tweak: Tweak) -> Spec {
    Spec {
        tweak,
        ..Spec::new(App::Tsp(variant), n, Scale::Test)
    }
}

/// Launches `spec`, asserts it found the optimum tour, and returns the
/// result.
fn optimal(spec: &Spec) -> TspResult {
    let run = launch(spec).expect("TSP run");
    assert_eq!(run.verdict(&Reference::of(spec)), Ok(()), "{spec:?}");
    let Answer::Tsp(r) = run.answer else {
        unreachable!("a TSP run");
    };
    r
}

#[test]
fn oracle_agrees_with_greedy_bound_ordering() {
    let c = Cities::generate(10, 42);
    let opt = c.held_karp();
    let greedy = c.greedy_bound();
    assert!(opt <= greedy, "optimum cannot exceed the greedy tour");
    assert!(opt > 0);
}

#[test]
fn lock_variant_finds_optimum_single_node() {
    assert!(optimal(&spec(1, TspVariant::Lock, Tweak::None)).expansions > 0);
}

#[test]
fn lock_variant_finds_optimum_four_nodes() {
    optimal(&spec(4, TspVariant::Lock, Tweak::None));
}

#[test]
fn hybrid_variant_finds_optimum_four_nodes() {
    optimal(&spec(4, TspVariant::Hybrid, Tweak::None));
}

#[test]
fn hybrid_variant_finds_optimum_two_and_three_nodes() {
    for n in [2, 3] {
        optimal(&spec(n, TspVariant::Hybrid, Tweak::None));
    }
}

#[test]
fn hybrid_uses_fewer_messages_than_lock() {
    let lock = optimal(&spec(3, TspVariant::Lock, Tweak::None));
    let hybrid = optimal(&spec(3, TspVariant::Hybrid, Tweak::None));
    let (lock, hybrid) = (lock.app, hybrid.app);
    assert!(
        hybrid.messages < lock.messages,
        "hybrid sent {} messages, lock {}",
        hybrid.messages,
        lock.messages
    );
    // And average message size grows, as in Table 1.
    assert!(hybrid.avg_msg_bytes > lock.avg_msg_bytes);
}

#[test]
fn all_release_variant_still_correct() {
    optimal(&spec(3, TspVariant::Hybrid, Tweak::AllRelease));
}

#[test]
fn variable_granularity_finds_optimum() {
    // Granularity hints plus the coalesced/aggregated wire modes must not
    // change the computed result, only the traffic.
    for variant in [TspVariant::Lock, TspVariant::Hybrid] {
        optimal(&spec(4, variant, Tweak::Vg));
    }
}

#[test]
fn variable_granularity_is_deterministic() {
    let spec = spec(3, TspVariant::Lock, Tweak::Vg);
    let a = optimal(&spec);
    let b = optimal(&spec);
    assert_eq!(a.best_len, b.best_len);
    assert_eq!(a.app.report.elapsed, b.app.report.elapsed);
    assert_eq!(a.app.messages, b.app.messages);
}

#[test]
fn runs_are_deterministic() {
    let spec = spec(3, TspVariant::Hybrid, Tweak::None);
    let a = optimal(&spec);
    let b = optimal(&spec);
    assert_eq!(a.best_len, b.best_len);
    assert_eq!(a.app.report.elapsed, b.app.report.elapsed);
    assert_eq!(a.app.messages, b.app.messages);
    assert_eq!(a.expansions, b.expansions);
}
