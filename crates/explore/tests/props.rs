//! Property-based tests for the guided explorer.
//!
//! Three properties anchor the explorer's correctness story:
//! 1. **Determinism** — the same [`SchedulePlan`] always produces a
//!    bit-identical run (same delivery fingerprint, same outcome).
//! 2. **Canonical equivalence** — plans that realize the same
//!    per-destination delivery order map to one fingerprint, so dedupe
//!    collapses them to a single equivalence class.
//! 3. **Shrink minimality** — the shrinker's output is 1-minimal:
//!    removing any single remaining perturbation no longer reproduces
//!    the failure.

use carlos_apps::{App, Reference, Scale, Spec};
use carlos_explore::{fingerprint, observe, planned, shrink, Observation, RunStatus};
use carlos_sim::time::us;
use carlos_sim::SchedulePlan;
use carlos_util::cases::{cases, Gen};

/// A plan built from `len` arbitrary (src, dst, seq, delay) tuples. Flows
/// that name a (src, dst, seq) never sent are legal — they simply match no
/// frame — so arbitrary tuples exercise the full plan surface.
fn plan_from(g: &mut Gen, len: std::ops::Range<usize>) -> SchedulePlan {
    let mut plan = SchedulePlan::new();
    for (src, dst, seq, delay) in g.vec(len, |g| (g.u32(), g.u32(), g.u32(), g.u64())) {
        let (src, dst) = (src % 3, dst % 3);
        if src != dst {
            plan.add(src, dst, seq % 40, us(1) + delay % us(300));
        }
    }
    plan
}

/// Same plan in, bit-identical run out: equal delivery fingerprints,
/// equal outcome, equal violation count — on every rerun.
#[test]
fn same_plan_is_bit_identical() {
    cases("same_plan_is_bit_identical", 6, |g| {
        let plan = plan_from(g, 0..4);
        let spec = Spec::new(App::Sor, 3, Scale::Test);
        let reference = Reference::of(&spec);
        let a = observe(&planned(&spec, &plan), &reference);
        let b = observe(&planned(&spec, &plan), &reference);
        assert_eq!(fingerprint(&a.deliveries), fingerprint(&b.deliveries));
        assert_eq!(a.status, b.status);
        assert_eq!(a.violations.len(), b.violations.len());
        assert_eq!(a.deliveries.len(), b.deliveries.len());
    });
}

/// Plans that realize the same delivery order are one equivalence
/// class: padding a plan with perturbations of flows that are never
/// sent (seq far beyond the run's traffic) changes nothing, so the
/// padded plan must land on the same canonical fingerprint.
#[test]
fn equivalent_plans_share_one_fingerprint() {
    cases("equivalent_plans_share_one_fingerprint", 6, |g| {
        let plan = plan_from(g, 0..3);
        let (pad_src, pad_delay) = (g.range(0u32..3), g.range(1u64..1_000_000));
        let padded = plan
            .clone()
            .delay(pad_src, (pad_src + 1) % 3, 1_000_000, pad_delay);
        assert_ne!(&plan, &padded);
        let spec = Spec::new(App::Sor, 3, Scale::Test);
        let reference = Reference::of(&spec);
        let a = observe(&planned(&spec, &plan), &reference);
        let b = observe(&planned(&spec, &padded), &reference);
        assert_eq!(fingerprint(&a.deliveries), fingerprint(&b.deliveries));
    });
}

/// Shrink output is 1-minimal. The failure model: a run fails iff its
/// plan still contains every flow of a hidden culprit subset. The
/// shrinker must strip all the noise and keep exactly the culprits —
/// and removing any single survivor must break reproduction.
#[test]
fn shrink_keeps_exactly_the_culprits() {
    cases("shrink_keeps_exactly_the_culprits", 6, |g| {
        let (noisy, culprit_mask) = (plan_from(g, 1..6), g.u32());
        if noisy.is_empty() {
            return;
        }
        let flows: Vec<_> = noisy.iter().map(|(f, _)| f).collect();
        let culprits: Vec<_> = flows
            .iter()
            .enumerate()
            .filter(|(i, _)| culprit_mask >> (i % 32) & 1 == 1)
            .map(|(_, f)| *f)
            .collect();
        let fails = |p: &SchedulePlan| culprits.iter().all(|&(s, d, q)| p.contains(s, d, q));
        let mut run = |p: &SchedulePlan| Observation {
            status: if fails(p) {
                RunStatus::WrongAnswer
            } else {
                RunStatus::Ok
            },
            violations: Vec::new(),
            deliveries: Vec::new(),
        };
        let first = run(&noisy);
        assert!(
            first.failed(),
            "noisy plan contains all culprits by construction"
        );
        let mut execs = 0;
        let (minimal, last) = shrink(noisy, first, &mut run, &mut execs);
        // Exactly the culprit set survives.
        let kept: Vec<_> = minimal.iter().map(|(f, _)| f).collect();
        assert_eq!(&kept, &culprits);
        assert!(last.failed());
        assert!(execs >= kept.len(), "final pass re-tries every survivor");
        // 1-minimality, verified directly: no single removal still fails.
        for (src, dst, seq) in kept {
            let mut probe = minimal.clone();
            probe.remove(src, dst, seq);
            assert!(!run(&probe).failed());
        }
    });
}
