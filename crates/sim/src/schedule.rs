//! Targeted per-flow delivery perturbation plans.
//!
//! A [`SchedulePlan`] names individual transport-level data flows — a flow
//! is a `(src, dst, seq)` triple, where `seq` is the per-(sender, receiver)
//! sequence number the transport stamps into every DATA frame header — and
//! assigns each an *extra* delivery delay. The kernel adds the extra delay
//! after the ordinary wire model (medium serialization + latency + jitter)
//! has produced a delivery time, then re-clamps so per-pair FIFO order is
//! preserved, exactly as the blanket jitter knob does.
//!
//! This generalizes [`crate::SimConfig::with_jitter`]: jitter perturbs
//! *every* frame by a pseudo-random amount, a plan perturbs *named* frames
//! by chosen amounts. The schedule-exploration harness uses plans to flip
//! the order of two racing deliveries without disturbing anything else.
//! Plans are deterministic (no RNG is consulted) and, like jitter, only
//! ever *add* delay.

use std::collections::BTreeMap;

use crate::time::{NodeId, Ns};

/// Identity of one transport-level data flow: sender, receiver, and the
/// per-(sender, receiver) transport sequence number carried in the wire
/// header of every DATA frame. Retransmissions of a sealed frame reuse its
/// sequence number and therefore name the same flow.
pub type FlowId = (NodeId, NodeId, u32);

/// A set of targeted per-flow delivery delays (see module docs).
///
/// Plans are value types: build one with [`SchedulePlan::delay`] chains or
/// [`SchedulePlan::add`], install it with
/// [`crate::SimConfig::with_schedule`]. The empty plan is free — the kernel
/// skips the whole lookup path, and event timing is bit-identical to a
/// config without the knob.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedulePlan {
    delays: BTreeMap<FlowId, Ns>,
}

impl SchedulePlan {
    /// The empty plan: no frame is perturbed.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `self` with `extra` nanoseconds of delivery delay added to
    /// the flow `(src, dst, seq)` (builder style). Adding the same flow
    /// twice keeps the larger delay, so merged plans never *weaken* a
    /// perturbation.
    #[must_use]
    pub fn delay(mut self, src: NodeId, dst: NodeId, seq: u32, extra: Ns) -> Self {
        self.add(src, dst, seq, extra);
        self
    }

    /// In-place form of [`SchedulePlan::delay`].
    pub fn add(&mut self, src: NodeId, dst: NodeId, seq: u32, extra: Ns) {
        let slot = self.delays.entry((src, dst, seq)).or_insert(0);
        *slot = (*slot).max(extra);
    }

    /// Removes the perturbation for one flow, returning its delay if it was
    /// present. Used by counterexample shrinking.
    pub fn remove(&mut self, src: NodeId, dst: NodeId, seq: u32) -> Option<Ns> {
        self.delays.remove(&(src, dst, seq))
    }

    /// Extra delay for the flow, if the plan names it.
    #[must_use]
    pub fn get(&self, src: NodeId, dst: NodeId, seq: u32) -> Option<Ns> {
        self.delays.get(&(src, dst, seq)).copied()
    }

    /// True when the plan names the flow.
    #[must_use]
    pub fn contains(&self, src: NodeId, dst: NodeId, seq: u32) -> bool {
        self.delays.contains_key(&(src, dst, seq))
    }

    /// Number of perturbed flows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.delays.len()
    }

    /// True when no flow is perturbed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.delays.is_empty()
    }

    /// Iterates perturbations in deterministic (flow-id) order.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, Ns)> + '_ {
        self.delays.iter().map(|(&k, &v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_lookup() {
        let p = SchedulePlan::new().delay(0, 1, 7, 500).delay(2, 1, 0, 90);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.get(0, 1, 7), Some(500));
        assert_eq!(p.get(2, 1, 0), Some(90));
        assert_eq!(p.get(1, 0, 7), None);
        assert!(p.contains(0, 1, 7));
        assert!(!p.contains(0, 1, 8));
    }

    #[test]
    fn duplicate_flow_keeps_larger_delay() {
        let p = SchedulePlan::new().delay(0, 1, 3, 100).delay(0, 1, 3, 40);
        assert_eq!(p.get(0, 1, 3), Some(100));
        let q = SchedulePlan::new().delay(0, 1, 3, 40).delay(0, 1, 3, 100);
        assert_eq!(q.get(0, 1, 3), Some(100));
    }

    #[test]
    fn remove_supports_shrinking() {
        let mut p = SchedulePlan::new().delay(0, 1, 3, 100).delay(0, 2, 4, 60);
        assert_eq!(p.remove(0, 1, 3), Some(100));
        assert_eq!(p.remove(0, 1, 3), None);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn iter_is_deterministic() {
        let p = SchedulePlan::new().delay(2, 0, 1, 10).delay(0, 1, 5, 20);
        let flows: Vec<_> = p.iter().collect();
        assert_eq!(flows, vec![((0, 1, 5), 20), ((2, 0, 1), 10)]);
    }
}
