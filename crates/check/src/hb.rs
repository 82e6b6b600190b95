//! Ground-truth happens-before tracking.
//!
//! The tracker mirrors every node's vector timestamp from the observed
//! interval closes, record applications and collection rounds' clock
//! advances, independently re-deriving the causal order the protocol
//! claims to maintain. Divergence between an engine's behavior and the
//! mirror — a non-monotone close, an out-of-order apply, a clock advance
//! that goes back or past what its creator closed, a record whose
//! timestamp disagrees with the creator's, a release whose completeness
//! verdict contradicts the mirrored coverage — is
//! reported as an [`Violation`] of kind [`ViolationKind::HbOrder`].

use std::collections::BTreeMap;

use carlos_lrc::Vc;
use carlos_sim::{NodeId, Ns};
use carlos_util::event::Interval;

use crate::{Violation, ViolationKind};

/// Mirror of the cluster's causal state, fed by the event stream.
pub(crate) struct HbTracker {
    /// `node_vt[n]` re-derives node `n`'s engine timestamp.
    pub(crate) node_vt: Vec<Vc>,
    /// Ground truth: the timestamp each `(creator, index)` interval was
    /// created with, pinned at first sight and compared ever after.
    records: BTreeMap<(u32, u32), Vc>,
    /// Last `(sent_at, delivered_at)` seen per wire pair, for FIFO checks.
    pair_fifo: BTreeMap<(NodeId, NodeId), (Ns, Ns)>,
}

impl HbTracker {
    pub(crate) fn new(n_nodes: usize) -> Self {
        Self {
            node_vt: (0..n_nodes).map(|_| Vc::new(n_nodes)).collect(),
            records: BTreeMap::new(),
            pair_fifo: BTreeMap::new(),
        }
    }

    fn hb_violation(node: u32, own_interval: u32, detail: String) -> (String, Violation) {
        let key = format!("hb:{node}:{detail}");
        (
            key,
            Violation {
                kind: ViolationKind::HbOrder,
                node,
                interval: own_interval,
                addr: 0,
                detail,
            },
        )
    }

    /// `node` closed interval `rec` (its own creation).
    pub(crate) fn on_interval_closed(
        &mut self,
        node: u32,
        rec: Interval<'_>,
    ) -> Vec<(String, Violation)> {
        let mut out = Vec::new();
        let old = &self.node_vt[node as usize];
        let vc = Vc::from_slice(rec.vt);
        if rec.creator != node {
            out.push(Self::hb_violation(
                node,
                old.get(node),
                format!("closed an interval attributed to node {}", rec.creator),
            ));
        }
        if rec.index != old.get(node) + 1 {
            out.push(Self::hb_violation(
                node,
                old.get(node),
                format!(
                    "interval index {} is not the successor of {}",
                    rec.index,
                    old.get(node)
                ),
            ));
        }
        if vc.get(node) != rec.index || !vc.dominates(old) {
            out.push(Self::hb_violation(
                node,
                old.get(node),
                format!("close timestamp {vc:?} regressed from mirrored {old:?}"),
            ));
        }
        if let Some(prev) = self.records.get(&(rec.creator, rec.index)) {
            if *prev != vc {
                out.push(Self::hb_violation(
                    node,
                    old.get(node),
                    format!(
                        "interval ({}, {}) re-created with timestamp {vc:?} != {prev:?}",
                        rec.creator, rec.index
                    ),
                ));
            }
        } else {
            self.records.insert((rec.creator, rec.index), vc.clone());
        }
        self.node_vt[node as usize] = vc;
        out
    }

    /// `node` applied the remote record `rec` (an acquire step).
    pub(crate) fn on_record_applied(
        &mut self,
        node: u32,
        rec: Interval<'_>,
    ) -> Vec<(String, Violation)> {
        let mut out = Vec::new();
        let own = self.node_vt[node as usize].get(node);
        if rec.creator == node {
            out.push(Self::hb_violation(
                node,
                own,
                format!("applied its own interval {} as remote", rec.index),
            ));
            return out;
        }
        let have = self.node_vt[node as usize].get(rec.creator);
        if rec.index != have + 1 {
            out.push(Self::hb_violation(
                node,
                own,
                format!(
                    "applied interval ({}, {}) out of order (mirror has {})",
                    rec.creator, rec.index, have
                ),
            ));
        }
        match self.records.get(&(rec.creator, rec.index)) {
            Some(truth) if truth.as_slice() != rec.vt => {
                out.push(Self::hb_violation(
                    node,
                    own,
                    format!(
                        "record ({}, {}) carries timestamp {:?}, creator made {truth:?}",
                        rec.creator,
                        rec.index,
                        Vc::from_slice(rec.vt)
                    ),
                ));
            }
            Some(_) => {}
            None => {
                // Creator unobserved (records from before the sink was
                // attached): adopt the first sighting as ground truth.
                self.records
                    .insert((rec.creator, rec.index), Vc::from_slice(rec.vt));
            }
        }
        self.node_vt[node as usize].set(rec.creator, rec.index.max(have));
        out
    }

    /// A collection round moved `node`'s clock for `creator` to `index`
    /// past records it never applied: forward only, never its own, and no
    /// further than the intervals `creator` has closed.
    pub(crate) fn on_clock_advanced(
        &mut self,
        node: u32,
        creator: u32,
        index: u32,
    ) -> Vec<(String, Violation)> {
        let mirror = &self.node_vt[node as usize];
        let (own, have) = (mirror.get(node), mirror.get(creator));
        let closed = self.node_vt[creator as usize].get(creator);
        let why = if creator == node {
            Some(format!("advanced its own clock to {index}"))
        } else if index <= have {
            Some(format!("advanced node {creator}'s clock to {index}, not past {have}"))
        } else if index > closed {
            Some(format!("advanced node {creator}'s clock to {index}, which closed {closed}"))
        } else {
            None
        };
        if why.is_none() {
            self.node_vt[node as usize].set(creator, index);
        }
        why.map(|detail| Self::hb_violation(node, own, detail)).into_iter().collect()
    }

    /// `node` sent a release with the given required timestamp.
    pub(crate) fn on_release_sent(
        &self,
        node: NodeId,
        required: &[u32],
    ) -> Vec<(String, Violation)> {
        let mirror = &self.node_vt[node as usize];
        if mirror.as_slice() != required {
            vec![Self::hb_violation(
                node,
                mirror.get(node),
                format!(
                    "release requires {:?} but mirrored state is {mirror:?}",
                    Vc::from_slice(required)
                ),
            )]
        } else {
            Vec::new()
        }
    }

    /// `node` finished the acquire side of a release originated elsewhere.
    pub(crate) fn on_release_accepted(
        &self,
        node: NodeId,
        required: &[u32],
        complete: bool,
    ) -> Vec<(String, Violation)> {
        let mirror = &self.node_vt[node as usize];
        let required = Vc::from_slice(required);
        if mirror.dominates(&required) != complete {
            vec![Self::hb_violation(
                node,
                mirror.get(node),
                format!(
                    "accept completeness {complete} contradicts mirror {mirror:?} \
                     vs required {required:?}"
                ),
            )]
        } else {
            Vec::new()
        }
    }

    /// A wire frame landed; verify per-pair FIFO delivery.
    pub(crate) fn on_frame(
        &mut self,
        src: NodeId,
        dst: NodeId,
        sent_at: Ns,
        delivered_at: Ns,
    ) -> Vec<(String, Violation)> {
        let mut out = Vec::new();
        let e = self.pair_fifo.entry((src, dst)).or_insert((0, 0));
        if sent_at < e.0 || delivered_at < e.1 {
            out.push(Self::hb_violation(
                dst,
                0,
                format!(
                    "pair {src}->{dst} delivery reordered: sent {sent_at} (last {}), \
                     delivered {delivered_at} (last {})",
                    e.0, e.1
                ),
            ));
        }
        e.0 = e.0.max(sent_at);
        e.1 = e.1.max(delivered_at);
        out
    }
}
