//! The guided search: racing frontier, fingerprint dedupe, delta shrink.

use std::collections::{BTreeSet, VecDeque};

use carlos_check::{DeliveryEvent, Violation};
use carlos_sim::time::us;
use carlos_sim::{Ns, SchedulePlan};
use carlos_trace::FlowKey;

use crate::harness::{Observation, RunStatus};

/// Tuning for one guided exploration.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Maximum exploration executions (root included; shrink executions
    /// are budgeted separately and reported in the stats).
    pub budget: usize,
    /// Prune children by equivalence-class reasoning: skip a racing pair
    /// whose earlier flow is already perturbed on this path (its flip
    /// revisits an ancestor's class) and prune children whose predicted
    /// happens-before fingerprint was already planned or observed.
    /// Disabling this enumerates the naive frontier — every racing pair
    /// of every run spawns a child — the baseline the
    /// dedupe-effectiveness gate compares against.
    pub dedupe: bool,
    /// Safety margin added past the flip target: a perturbed delivery is
    /// delayed to `t_later - t_earlier + margin`. Large enough to survive
    /// small knock-on timing shifts, small enough not to leapfrog
    /// unrelated deliveries.
    pub margin: Ns,
    /// Stop once this many distinct equivalence classes have been
    /// observed (used to compare search modes at equal coverage).
    pub stop_at_classes: Option<usize>,
    /// Restrict the search to the first `window` deliveries of each run:
    /// only races inside the window spawn children, and equivalence is
    /// judged by the windowed prefix's fingerprint. A window bounds the
    /// reachable class space, so the guided search can *exhaust* it (the
    /// worklist runs dry) — the regime where deduplication is measurable,
    /// since an un-deduplicated enumeration keeps revisiting prefix
    /// orders it has already seen. `None` searches the whole run.
    pub window: Option<usize>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        Self {
            budget: 64,
            dedupe: true,
            margin: us(2),
            stop_at_classes: None,
            window: None,
        }
    }
}

/// Counters describing one exploration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Exploration executions performed (≤ budget).
    pub executions: usize,
    /// Distinct happens-before equivalence classes observed.
    pub distinct_classes: usize,
    /// Children pruned because their predicted class was already covered.
    pub dedupe_hits: usize,
    /// Racing-frontier children generated across all executed runs.
    pub frontier_children: usize,
    /// Extra executions spent shrinking the counterexample.
    pub shrink_executions: usize,
}

/// A failing schedule, shrunk to a 1-minimal perturbation set.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The minimal plan that still reproduces the failure.
    pub plan: SchedulePlan,
    /// How the failing run ended.
    pub status: RunStatus,
    /// Oracle violations of the failing run.
    pub violations: Vec<Violation>,
}

/// Outcome of [`explore`].
#[derive(Debug, Clone)]
pub struct ExploreResult {
    /// Search counters.
    pub stats: ExploreStats,
    /// The shrunk counterexample, if any execution failed.
    pub counterexample: Option<Counterexample>,
}

/// Canonical happens-before fingerprint of one run.
///
/// In a message-passing system the computation is determined by the order
/// in which each node consumes messages, so two runs whose per-destination
/// delivery sequences of `(src, kind, seq)` agree are equivalent — timing
/// differences that do not reorder any mailbox are invisible. FNV-1a over
/// the per-destination streams in destination order.
#[must_use]
pub fn fingerprint(deliveries: &[DeliveryEvent]) -> u64 {
    let dsts: BTreeSet<u32> = deliveries.iter().map(|d| d.dst).collect();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut upd = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for dst in dsts {
        upd(0xd5e1_0000_0000_0000 | u64::from(dst));
        for d in deliveries.iter().filter(|d| d.dst == dst) {
            upd((u64::from(d.src) << 40) | (u64::from(d.kind) << 32) | u64::from(d.seq));
        }
    }
    h
}

/// The racing-delivery frontier of one run: for each DATA delivery `i`,
/// the first later delivery at the same node from a different sender
/// whose flip is not ordered by happens-before. Only the **closest**
/// race per flow is kept — if another delivery of `i`'s (src, dst) flow
/// sits between `i` and `j`, the pair is dropped, because delaying `i`
/// drags that whole same-flow tail along (the FIFO clamp), and the
/// resulting order is reachable by first flipping the closest delivery
/// and recursing on the child's own frontier. Enumerating every prefix
/// block up front would blow the root frontier past any useful budget
/// (the classic DPOR argument for exploring only immediate races).
/// Returns `(earlier, later)` index pairs into `deliveries`.
#[must_use]
pub fn frontier_pairs(deliveries: &[DeliveryEvent]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for (i, di) in deliveries.iter().enumerate() {
        if !di.is_data() {
            continue;
        }
        let race = deliveries
            .iter()
            .enumerate()
            .skip(i + 1)
            .find(|(_, dj)| di.flip_unordered(dj));
        if let Some((j, _)) = race {
            let has_closer_same_flow = deliveries[i + 1..j]
                .iter()
                .any(|d| d.src == di.src && d.dst == di.dst);
            if !has_closer_same_flow {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

/// Predicted fingerprint of the child schedule that delays delivery `i`
/// past delivery `j`: the earlier frame — together with any later frames
/// of the same (src, dst) pair before `j`, which the FIFO clamp drags
/// along — moves to just after `j` in the destination's stream. The
/// prediction ignores knock-on effects (the re-execution decides ground
/// truth); it only has to be canonical enough to prune duplicates.
fn predicted_fingerprint(deliveries: &[DeliveryEvent], i: usize, j: usize) -> u64 {
    let (src, dst) = (deliveries[i].src, deliveries[i].dst);
    let mut reordered: Vec<&DeliveryEvent> = Vec::with_capacity(deliveries.len());
    let mut moved: Vec<&DeliveryEvent> = Vec::new();
    for (k, d) in deliveries.iter().enumerate() {
        if k >= i && k < j && d.src == src && d.dst == dst {
            moved.push(d);
        } else {
            reordered.push(d);
            if k == j {
                reordered.append(&mut moved);
            }
        }
    }
    reordered.append(&mut moved);
    let owned: Vec<DeliveryEvent> = reordered.into_iter().cloned().collect();
    fingerprint(&owned)
}

/// Runs the guided DPOR-style search.
///
/// Starting from the unperturbed schedule, each executed run contributes
/// its racing frontier; every racing pair spawns a child plan that delays
/// the earlier flow past the later delivery. Children whose predicted
/// equivalence class is already covered are pruned (when
/// [`ExploreConfig::dedupe`] is on). The first failing execution is
/// shrunk to a 1-minimal plan and returned; a clean search returns the
/// coverage statistics.
///
/// Fully deterministic: the worklist is FIFO over deterministically
/// ordered frontiers, no randomness is consulted, and the simulator
/// replays plans bit-identically.
pub fn explore(
    cfg: &ExploreConfig,
    mut run: impl FnMut(&SchedulePlan) -> Observation,
) -> ExploreResult {
    let mut stats = ExploreStats::default();
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let mut planned: BTreeSet<u64> = BTreeSet::new();
    let mut queue: VecDeque<SchedulePlan> = VecDeque::new();
    queue.push_back(SchedulePlan::new());

    while let Some(plan) = queue.pop_front() {
        if stats.executions >= cfg.budget {
            break;
        }
        let obs = run(&plan);
        stats.executions += 1;
        let view = match cfg.window {
            Some(w) => &obs.deliveries[..w.min(obs.deliveries.len())],
            None => &obs.deliveries[..],
        };
        let fp = fingerprint(view);
        seen.insert(fp);
        planned.insert(fp);
        stats.distinct_classes = seen.len();

        if obs.failed() {
            let (minimal, last) = shrink(plan, obs, &mut run, &mut stats.shrink_executions);
            return ExploreResult {
                stats,
                counterexample: Some(Counterexample {
                    plan: minimal,
                    status: last.status,
                    violations: last.violations,
                }),
            };
        }
        if let Some(target) = cfg.stop_at_classes {
            if seen.len() >= target {
                break;
            }
        }

        for (i, j) in frontier_pairs(view) {
            let d = &view[i];
            let flow = FlowKey {
                src: d.src,
                dst: d.dst,
                seq: d.seq,
            };
            if cfg.dedupe && plan.contains(flow.src, flow.dst, flow.seq) {
                // Already perturbed on this path; flipping back would
                // revisit an ancestor's class. This skip is itself
                // equivalence reasoning, so the naive baseline keeps the
                // pair and re-executes the revisit.
                continue;
            }
            stats.frontier_children += 1;
            let extra = view[j].delivered_at - d.delivered_at + cfg.margin;
            if cfg.dedupe {
                let pred = predicted_fingerprint(view, i, j);
                if !planned.insert(pred) {
                    stats.dedupe_hits += 1;
                    continue;
                }
            }
            queue.push_back(plan.clone().delay(flow.src, flow.dst, flow.seq, extra));
        }
    }

    ExploreResult {
        stats,
        counterexample: None,
    }
}

/// Greedy delta-debugging shrink of a failing `plan` (whose run observed
/// `last`): repeatedly drop any single perturbation whose removal still
/// reproduces a failure, until none does. The result is 1-minimal by
/// construction — the final pass has tried and failed to remove every
/// remaining perturbation. Returns the minimal plan and the observation of
/// its (still failing) run, counting its runs in `executions`.
pub fn shrink(
    mut plan: SchedulePlan,
    mut last: Observation,
    run: &mut impl FnMut(&SchedulePlan) -> Observation,
    executions: &mut usize,
) -> (SchedulePlan, Observation) {
    loop {
        let flows: Vec<_> = plan.iter().map(|(flow, _)| flow).collect();
        let mut improved = false;
        for (src, dst, seq) in flows {
            let mut candidate = plan.clone();
            candidate.remove(src, dst, seq);
            let obs = run(&candidate);
            *executions += 1;
            if obs.failed() {
                plan = candidate;
                last = obs;
                improved = true;
                break;
            }
        }
        if !improved {
            return (plan, last);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carlos_check::DeliveryEvent;

    fn ev(src: u32, dst: u32, seq: u32, at: u64, n: usize) -> DeliveryEvent {
        DeliveryEvent {
            src,
            dst,
            kind: 0,
            seq,
            sent_at: at.saturating_sub(5),
            delivered_at: at,
            send_clock: vec![0; n],
            deliver_clock: vec![0; n],
        }
    }

    #[test]
    fn fingerprint_ignores_timing_but_not_order() {
        let a = vec![ev(0, 2, 0, 10, 3), ev(1, 2, 0, 20, 3)];
        let mut b = a.clone();
        b[0].delivered_at = 99;
        b[0].sent_at = 90;
        assert_eq!(fingerprint(&a), fingerprint(&b), "timing must not matter");
        let swapped = vec![a[1].clone(), a[0].clone()];
        assert_ne!(fingerprint(&a), fingerprint(&swapped), "order must matter");
    }

    #[test]
    fn fingerprint_separates_destinations() {
        let a = vec![ev(0, 1, 0, 10, 3), ev(0, 2, 0, 20, 3)];
        let b = vec![ev(0, 2, 0, 10, 3), ev(0, 1, 0, 20, 3)];
        // Per-destination streams are identical; interleaving across
        // destinations is not observable by any single node.
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn frontier_finds_unordered_pairs_only() {
        let n = 3;
        let mut d1 = ev(0, 2, 0, 10, n);
        d1.deliver_clock = vec![1, 0, 1];
        let mut d2 = ev(1, 2, 0, 20, n);
        d2.send_clock = vec![0, 1, 0]; // never saw d1's delivery: races
        let pairs = frontier_pairs(&[d1.clone(), d2.clone()]);
        assert_eq!(pairs, vec![(0, 1)]);
        // A causally ordered successor is not in the frontier.
        let mut d3 = ev(1, 2, 0, 20, n);
        d3.send_clock = vec![1, 1, 1]; // includes d1's delivery
        assert!(frontier_pairs(&[d1, d3]).is_empty());
    }

    #[test]
    fn predicted_fingerprint_matches_flipped_order() {
        let n = 3;
        let a = ev(0, 2, 0, 10, n);
        let b = ev(1, 2, 0, 20, n);
        let flipped = vec![b.clone(), a.clone()];
        assert_eq!(
            predicted_fingerprint(&[a, b], 0, 1),
            fingerprint(&flipped),
            "two-event flip prediction must be exact"
        );
    }

    #[test]
    fn shrink_is_one_minimal() {
        // Failure reproduces iff the plan contains flow (0, 1, 7);
        // everything else is noise the shrinker must strip.
        let noisy = SchedulePlan::new()
            .delay(0, 1, 7, 100)
            .delay(1, 2, 3, 50)
            .delay(2, 0, 9, 25);
        let mut runs = 0usize;
        let mut runner = |p: &SchedulePlan| {
            runs += 1;
            let failed = p.contains(0, 1, 7);
            Observation {
                status: if failed {
                    RunStatus::WrongAnswer
                } else {
                    RunStatus::Ok
                },
                violations: Vec::new(),
                deliveries: Vec::new(),
            }
        };
        let first = runner(&noisy);
        let mut shrink_execs = 0;
        let (minimal, last) = shrink(noisy, first, &mut runner, &mut shrink_execs);
        assert_eq!(minimal.len(), 1);
        assert!(minimal.contains(0, 1, 7));
        assert_eq!(last.status, RunStatus::WrongAnswer);
        assert!(shrink_execs > 0);
    }
}
