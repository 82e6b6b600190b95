//! Correctness tests for the TSP application: both variants must find the
//! exact optimum (verified against a Held–Karp oracle) on every cluster
//! size, and the hybrid must use substantially fewer messages.

use carlos_apps::tsp::{Cities, TspResult, TspVariant};
use carlos_apps::{launch, Answer, App, Observe, Reference, Scale, Spec, Tweak};

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
    let n = 10;
    let c = Cities::generate(n, 42);
    let opt = c.held_karp();
    // A nearest-neighbour tour from city 0.
    let (mut visited, mut cur, mut greedy) = (vec![false; n], 0, 0);
    visited[0] = true;
    for _ in 1..n {
        let next = (0..n).filter(|&j| !visited[j]).min_by_key(|&j| c.d(cur, j)).unwrap();
        greedy += c.d(cur, next);
        visited[next] = true;
        cur = next;
    }
    greedy += c.d(cur, 0);
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
    optimal(&spec(3, TspVariant::HybridAllRelease, Tweak::None));
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

/// The all-RELEASE variant re-annotates Hybrid's REQUEST sends one for one:
/// REQUEST falls to zero, RELEASE rises by as many, NONE and RELEASE_NT
/// keep their counts. Only SYSTEM traffic may move with the timing.
#[test]
fn all_release_variant_moves_every_request_to_release() {
    let sent = |variant, n| {
        let run = launch(&Spec {
            observe: Observe::Trace,
            ..spec(n, variant, Tweak::None)
        })
        .expect("TSP run");
        let m = run.trace.expect("traced").metrics();
        ["NONE", "REQUEST", "RELEASE", "RELEASE_NT"].map(|c| m.counter(&format!("msg.sent.{c}")))
    };
    for (n, requests) in [(2, 75), (3, 76), (4, 78)] {
        let [none, request, release, release_nt] = sent(TspVariant::Hybrid, n);
        assert_eq!(request, requests, "n = {n}: Hybrid's REQUEST sends");
        let all = sent(TspVariant::HybridAllRelease, n);
        assert_eq!(all, [none, 0, release + request, release_nt], "n = {n}");
    }
}
