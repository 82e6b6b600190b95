//! Scripted fault injection: deterministic, virtual-time fault schedules.
//!
//! A [`FaultPlan`] is a list of fault windows applied by the kernel's wire
//! model while the simulation runs. Because every fault is triggered by
//! virtual time and every random decision comes from a dedicated seeded
//! stream, the same seed and plan always produce the same run — fault
//! experiments are as reproducible as fault-free ones.
//!
//! Four fault classes are injectable:
//!
//! - **Burst loss** ([`FaultPlan::burst_loss`]): a Gilbert–Elliott two-state
//!   Markov chain gates frame loss inside a time window, producing the
//!   correlated loss bursts real shared media exhibit (collisions, noise
//!   bursts) rather than the i.i.d. loss of `loss_probability`.
//! - **Link partitions** ([`FaultPlan::link_down`] /
//!   [`FaultPlan::partition`]): every frame on a directed link is dropped
//!   until the heal time.
//! - **Node pause** ([`FaultPlan::pause`]): the node stops draining its
//!   mailbox for a duration; deliveries are deferred to the pause end
//!   (in their original order), modeling a long GC pause or scheduling
//!   stall.
//! - **Fail-stop crash** ([`FaultPlan::crash`]): at the scripted instant the
//!   node's proc is terminated, its mailbox is discarded, and all future
//!   deliveries to it are dropped. Nothing is ever delivered *from* a
//!   crashed node again.
//!
//! The plan composes with [`crate::SimConfig::loss_probability`]: the
//! uniform loss draw happens first (from its own `loss_seed` stream), the
//! plan's faults after, so adding an empty plan — or a plan whose windows
//! never overlap traffic — changes nothing about an existing run.

use carlos_util::rng::Xoshiro256;

use crate::time::{NodeId, Ns};

/// Parameters of a Gilbert–Elliott burst-loss chain.
///
/// The chain has a *good* and a *bad* state with independent loss rates;
/// per frame it first draws a state transition, then a loss decision from
/// the current state's rate. High `loss_bad` with sticky transitions
/// (`p_enter_bad`, `p_exit_bad` small) yields long loss bursts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeParams {
    /// Per-frame probability of moving good → bad.
    pub p_enter_bad: f64,
    /// Per-frame probability of moving bad → good.
    pub p_exit_bad: f64,
    /// Frame loss probability while in the good state.
    pub loss_good: f64,
    /// Frame loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GeParams {
    /// A bursty profile: rare entry into a sticky bad state that loses
    /// `loss_bad` of its frames, near-clean otherwise.
    #[must_use]
    pub fn bursty(loss_bad: f64) -> Self {
        Self {
            p_enter_bad: 0.05,
            p_exit_bad: 0.25,
            loss_good: 0.0,
            loss_bad,
        }
    }

    fn validate(&self) {
        for (name, p) in [
            ("p_enter_bad", self.p_enter_bad),
            ("p_exit_bad", self.p_exit_bad),
            ("loss_good", self.loss_good),
            ("loss_bad", self.loss_bad),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "GeParams.{name} must be within [0, 1], got {p}"
            );
        }
    }
}

/// One scripted fault. Build these through the [`FaultPlan`] methods.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// Gilbert–Elliott burst loss on the shared wire in `[start, end)`.
    BurstLoss {
        /// Window start (virtual time).
        start: Ns,
        /// Window end (exclusive).
        end: Ns,
        /// Chain parameters.
        ge: GeParams,
    },
    /// Every frame from `src` to `dst` is dropped in `[start, heal)`.
    LinkDown {
        /// Sending side of the dead directed link.
        src: NodeId,
        /// Receiving side.
        dst: NodeId,
        /// Partition start (virtual time).
        start: Ns,
        /// Heal time (exclusive; frames at or after this time pass).
        heal: Ns,
    },
    /// `node` stops draining its mailbox in `[start, end)`; deliveries are
    /// deferred to `end` in arrival order.
    Pause {
        /// Paused node.
        node: NodeId,
        /// Pause start (virtual time).
        start: Ns,
        /// Pause end: deferred datagrams are delivered here.
        end: Ns,
    },
    /// `node` fail-stops at `at`: its proc terminates, mailbox and all later
    /// deliveries are discarded.
    Crash {
        /// Crashing node.
        node: NodeId,
        /// Crash instant (virtual time).
        at: Ns,
    },
}

/// A deterministic, virtual-time-scripted schedule of faults.
///
/// The default (empty) plan injects nothing and leaves runs bit-identical
/// to a build without fault support. Attach a plan with
/// [`crate::SimConfig::with_fault_plan`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan whose random faults (burst loss) draw from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            specs: Vec::new(),
        }
    }

    /// True when the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The scripted faults, in insertion order.
    #[must_use]
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Adds a Gilbert–Elliott burst-loss window over `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or a probability is outside `[0, 1]`.
    #[must_use]
    pub fn burst_loss(mut self, start: Ns, end: Ns, ge: GeParams) -> Self {
        assert!(start <= end, "burst-loss window ends before it starts");
        ge.validate();
        self.specs.push(FaultSpec::BurstLoss { start, end, ge });
        self
    }

    /// Adds a directed link outage: frames `src → dst` are dropped during
    /// `[start, heal)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > heal`.
    #[must_use]
    pub fn link_down(mut self, src: NodeId, dst: NodeId, start: Ns, heal: Ns) -> Self {
        assert!(start <= heal, "link outage heals before it starts");
        self.specs.push(FaultSpec::LinkDown {
            src,
            dst,
            start,
            heal,
        });
        self
    }

    /// Adds a bidirectional partition separating the node sets `a` and `b`
    /// during `[start, heal)` (expands to directed link outages both ways
    /// for every cross pair).
    ///
    /// # Panics
    ///
    /// Panics if `start > heal`.
    #[must_use]
    pub fn partition(mut self, a: &[NodeId], b: &[NodeId], start: Ns, heal: Ns) -> Self {
        for &x in a {
            for &y in b {
                self = self.link_down(x, y, start, heal);
                self = self.link_down(y, x, start, heal);
            }
        }
        self
    }

    /// Adds a mailbox pause of `node` over `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    #[must_use]
    pub fn pause(mut self, node: NodeId, start: Ns, end: Ns) -> Self {
        assert!(start <= end, "pause ends before it starts");
        self.specs.push(FaultSpec::Pause { node, start, end });
        self
    }

    /// Adds a fail-stop crash of `node` at virtual time `at`.
    #[must_use]
    pub fn crash(mut self, node: NodeId, at: Ns) -> Self {
        self.specs.push(FaultSpec::Crash { node, at });
        self
    }

    /// The scripted crash instants, in insertion order.
    pub(crate) fn crash_times(&self) -> impl Iterator<Item = (NodeId, Ns)> + '_ {
        self.specs.iter().filter_map(|s| match *s {
            FaultSpec::Crash { node, at } => Some((node, at)),
            _ => None,
        })
    }
}

/// Why the fault layer dropped a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DropCause {
    Burst,
    Partition,
}

/// One live Gilbert–Elliott chain (a burst-loss window during the run).
#[derive(Debug)]
struct GeChain {
    ge: GeParams,
    start: Ns,
    end: Ns,
    bad: bool,
    rng: Xoshiro256,
}

/// Kernel-side runtime state compiled from a [`FaultPlan`].
#[derive(Debug)]
pub(crate) struct FaultState {
    chains: Vec<GeChain>,
    /// `(src, dst, start, heal)` directed outages.
    links: Vec<(NodeId, NodeId, Ns, Ns)>,
    /// `(node, start, end)` mailbox pauses.
    pauses: Vec<(NodeId, Ns, Ns)>,
    crashed: Vec<bool>,
}

impl FaultState {
    /// Compiles `plan` for an `n_nodes` cluster.
    ///
    /// # Panics
    ///
    /// Panics if the plan names a node outside `0..n_nodes`.
    pub fn new(plan: &FaultPlan, n_nodes: usize) -> Self {
        let check = |node: NodeId, what: &str| {
            assert!(
                (node as usize) < n_nodes,
                "fault plan {what} names node {node}, but the cluster has {n_nodes} nodes"
            );
        };
        let mut st = Self {
            chains: Vec::new(),
            links: Vec::new(),
            pauses: Vec::new(),
            crashed: vec![false; n_nodes],
        };
        // Each chain gets its own stream derived from the plan seed and its
        // position, so reordering unrelated specs does not reshuffle loss.
        for (i, spec) in plan.specs.iter().enumerate() {
            match *spec {
                FaultSpec::BurstLoss { start, end, ge } => st.chains.push(GeChain {
                    ge,
                    start,
                    end,
                    bad: false,
                    rng: Xoshiro256::new(plan.seed ^ (0x9E37 + i as u64)),
                }),
                FaultSpec::LinkDown {
                    src,
                    dst,
                    start,
                    heal,
                } => {
                    check(src, "link outage");
                    check(dst, "link outage");
                    st.links.push((src, dst, start, heal));
                }
                FaultSpec::Pause { node, start, end } => {
                    check(node, "pause");
                    st.pauses.push((node, start, end));
                }
                FaultSpec::Crash { node, at } => {
                    check(node, "crash");
                    let _ = at;
                }
            }
        }
        st
    }

    /// Decides the fate of one frame entering the wire at `at`. Advances
    /// every in-window burst chain whether or not another fault already
    /// doomed the frame, so the loss streams depend only on traffic order.
    pub fn frame_fate(&mut self, src: NodeId, dst: NodeId, at: Ns) -> Option<DropCause> {
        let mut burst = false;
        for c in &mut self.chains {
            if at < c.start || at >= c.end {
                continue;
            }
            let flip = if c.bad { c.ge.p_exit_bad } else { c.ge.p_enter_bad };
            if c.rng.next_f64() < flip {
                c.bad = !c.bad;
            }
            let p = if c.bad { c.ge.loss_bad } else { c.ge.loss_good };
            if p > 0.0 && c.rng.next_f64() < p {
                burst = true;
            }
        }
        let partitioned = self
            .links
            .iter()
            .any(|&(s, d, start, heal)| s == src && d == dst && at >= start && at < heal);
        if partitioned {
            Some(DropCause::Partition)
        } else if burst {
            Some(DropCause::Burst)
        } else {
            None
        }
    }

    /// If `node`'s mailbox is paused at `at`, the time the pause ends.
    pub fn pause_until(&self, node: NodeId, at: Ns) -> Option<Ns> {
        self.pauses
            .iter()
            .filter(|&&(n, start, end)| n == node && at >= start && at < end)
            .map(|&(_, _, end)| end)
            .max()
    }

    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed[node as usize]
    }

    pub fn mark_crashed(&mut self, node: NodeId) {
        self.crashed[node as usize] = true;
    }

    pub fn crashed_nodes(&self) -> Vec<NodeId> {
        self.crashed
            .iter()
            .enumerate()
            .filter(|(_, &c)| c)
            .map(|(i, _)| i as NodeId)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let mut st = FaultState::new(&FaultPlan::default(), 4);
        for i in 0..100 {
            assert_eq!(st.frame_fate(0, 1, i * 1000), None);
        }
        assert_eq!(st.pause_until(0, 0), None);
        assert!(st.crashed_nodes().is_empty());
    }

    #[test]
    fn burst_chain_is_deterministic_and_windowed() {
        let plan = FaultPlan::new(42).burst_loss(1_000, 2_000, GeParams::bursty(0.9));
        let fates = |plan: &FaultPlan| {
            let mut st = FaultState::new(plan, 2);
            (0..300u64)
                .map(|i| st.frame_fate(0, 1, i * 10).is_some())
                .collect::<Vec<_>>()
        };
        let a = fates(&plan);
        let b = fates(&plan);
        assert_eq!(a, b, "same seed, same plan, same loss pattern");
        assert!(a[..100].iter().all(|&d| !d), "no loss before the window");
        assert!(a[200..].iter().all(|&d| !d), "no loss after the window");
        assert!(a[100..200].iter().any(|&d| d), "bursty window loses frames");
    }

    #[test]
    fn link_down_is_directed_and_heals() {
        let plan = FaultPlan::new(0).link_down(0, 1, 100, 200);
        let mut st = FaultState::new(&plan, 2);
        assert_eq!(st.frame_fate(0, 1, 50), None);
        assert_eq!(st.frame_fate(0, 1, 150), Some(DropCause::Partition));
        assert_eq!(st.frame_fate(1, 0, 150), None, "reverse direction is up");
        assert_eq!(st.frame_fate(0, 1, 200), None, "healed at the boundary");
    }

    #[test]
    fn partition_expands_both_ways() {
        let plan = FaultPlan::new(0).partition(&[0], &[1, 2], 0, 100);
        let mut st = FaultState::new(&plan, 3);
        assert_eq!(st.frame_fate(0, 2, 10), Some(DropCause::Partition));
        assert_eq!(st.frame_fate(2, 0, 10), Some(DropCause::Partition));
        assert_eq!(st.frame_fate(1, 2, 10), None, "same side stays connected");
    }

    #[test]
    fn pause_window_reports_end() {
        let plan = FaultPlan::new(0).pause(1, 100, 300);
        let st = FaultState::new(&plan, 2);
        assert_eq!(st.pause_until(1, 99), None);
        assert_eq!(st.pause_until(1, 100), Some(300));
        assert_eq!(st.pause_until(1, 299), Some(300));
        assert_eq!(st.pause_until(1, 300), None);
        assert_eq!(st.pause_until(0, 150), None);
    }

    #[test]
    #[should_panic(expected = "names node 7")]
    fn plan_validates_node_ids() {
        let _ = FaultState::new(&FaultPlan::new(0).crash(7, 0), 2);
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn ge_params_validated() {
        let _ = FaultPlan::new(0).burst_loss(
            0,
            1,
            GeParams {
                p_enter_bad: 1.5,
                p_exit_bad: 0.1,
                loss_good: 0.0,
                loss_bad: 0.5,
            },
        );
    }
}
