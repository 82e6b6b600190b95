//! The app-facing asynchronous request API: a submit/poll completion
//! model layered on [`Runtime`], so one proc multiplexes many in-flight
//! operations (the §4.4 latency-hiding idea applied to serving).
//!
//! [`KvClient::submit`] sends a REQUEST-annotated operation to the shard's
//! owning server and returns immediately with a request id.
//! [`KvClient::poll`] drains RELEASE-annotated replies into
//! [`Completion`]s — stamping each with its virtual-time latency — and
//! expires requests whose deadline passed (expired requests are counted,
//! never silently dropped; a reply that arrives after expiry is counted
//! as a late reply and discarded). The client owns all the yield
//! accounting: `attempted == completed + timed out + still pending`
//! holds at every instant.

use std::collections::BTreeMap;

use carlos_core::{Annotation, Runtime};
use carlos_sim::time::Ns;
use carlos_trace::VtHistogram;

use crate::serve::store::{OpKind, Reply, Request, Status, StoreLayout};

/// Handler id for KV requests (client → shard owner).
pub const H_KV_REQ: u32 = 0x0400;
/// Handler id for KV replies (shard owner → client).
pub const H_KV_REP: u32 = 0x0401;
/// Handler id for the client-finished notice (client → every server).
pub const H_SERVE_DONE: u32 = 0x0402;

/// A completed operation, as surfaced by [`KvClient::poll`].
#[derive(Debug, Clone)]
pub struct Completion {
    /// The id `submit` returned.
    pub req_id: u32,
    /// Key the request targeted.
    pub key: u64,
    /// Operation kind.
    pub op: OpKind,
    /// Whether this was a harvest probe (kept out of yield accounting).
    pub probe: bool,
    /// Server-reported outcome.
    pub status: Status,
    /// Entry version (current version on [`Status::CasFail`]).
    pub version: u32,
    /// Value payload (get hits, CAS failures).
    pub value: Vec<u8>,
    /// Virtual submit-to-completion latency.
    pub latency: Ns,
}

#[derive(Debug, Clone)]
struct Pending {
    key: u64,
    op: OpKind,
    probe: bool,
    submitted: Ns,
    deadline: Ns,
}

/// Per-client operation accounting (merged cluster-wide into the serving
/// report).
#[derive(Debug, Clone, Default)]
pub struct ClientStats {
    /// Operations submitted (excluding probes).
    pub attempted: u64,
    /// Operations that completed before their deadline.
    pub completed: u64,
    /// Operations expired at their deadline.
    pub timed_out: u64,
    /// Replies that arrived after their request expired.
    pub late_replies: u64,
    /// Completions per status: Ok / NotFound / CasFail / Overflow.
    pub status_counts: [u64; 4],
    /// Get completions whose value failed the key self-tag check.
    pub value_check_failures: u64,
    /// Harvest probes submitted.
    pub probes_attempted: u64,
    /// Harvest probes answered before the probe deadline.
    pub probes_answered: u64,
    /// Virtual-time latency of completed (non-probe) operations.
    pub hist: VtHistogram,
}

impl ClientStats {
    /// Folds another client's accounting into this one (merge order is
    /// node-id order in the harness, so totals are deterministic).
    pub fn merge(&mut self, other: &ClientStats) {
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.timed_out += other.timed_out;
        self.late_replies += other.late_replies;
        for (a, b) in self.status_counts.iter_mut().zip(other.status_counts) {
            *a += b;
        }
        self.value_check_failures += other.value_check_failures;
        self.probes_attempted += other.probes_attempted;
        self.probes_answered += other.probes_answered;
        self.hist.merge(&other.hist);
    }
}

/// The asynchronous KV client: an in-flight table keyed by request id,
/// plus the accounting above.
#[derive(Debug)]
pub struct KvClient {
    lay: StoreLayout,
    next_id: u32,
    pending: BTreeMap<u32, Pending>,
    /// Earliest pending deadline (lazily recomputed after expiry sweeps).
    next_expiry: Ns,
    /// Accumulated accounting.
    pub stats: ClientStats,
}

impl KvClient {
    /// A client over the given store layout.
    #[must_use]
    pub fn new(lay: StoreLayout) -> Self {
        Self {
            lay,
            next_id: 1,
            pending: BTreeMap::new(),
            next_expiry: Ns::MAX,
            stats: ClientStats::default(),
        }
    }

    /// Operations currently in flight (including probes).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Whether `req_id` is still in flight (not completed, not expired).
    #[must_use]
    pub fn is_pending(&self, req_id: u32) -> bool {
        self.pending.contains_key(&req_id)
    }

    /// The earliest instant at which a pending operation can expire
    /// (`Ns::MAX` when nothing is pending) — pump no later than this.
    #[must_use]
    pub fn next_expiry(&self) -> Ns {
        self.next_expiry
    }

    /// Submits one operation to its shard's owning server and returns the
    /// request id. Non-blocking: the REQUEST message is handed to the
    /// transport and the operation joins the in-flight table until
    /// [`KvClient::poll`] completes or expires it at `deadline`.
    #[allow(clippy::too_many_arguments)]
    pub fn submit(
        &mut self,
        rt: &mut Runtime,
        op: OpKind,
        key: u64,
        expected: u32,
        value: Vec<u8>,
        deadline: Ns,
        probe: bool,
    ) -> u32 {
        let req_id = self.next_id;
        self.next_id += 1;
        let server = self.lay.server_of(self.lay.shard_of(key));
        let req = Request {
            req_id,
            op,
            key,
            expected,
            value,
        };
        rt.send(server, H_KV_REQ, req.to_bytes(), Annotation::Request);
        self.pending.insert(
            req_id,
            Pending {
                key,
                op,
                probe,
                submitted: rt.ctx().now(),
                deadline,
            },
        );
        self.next_expiry = self.next_expiry.min(deadline);
        if probe {
            self.stats.probes_attempted += 1;
        } else {
            self.stats.attempted += 1;
        }
        req_id
    }

    /// Drains every queued reply and expires overdue requests, returning
    /// the fresh completions. Never blocks; interleave with
    /// `rt.pump(Some(deadline))` to wait for more traffic.
    pub fn poll(&mut self, rt: &mut Runtime) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Some(m) = rt.try_take_accepted(H_KV_REP) {
            let now = rt.ctx().now();
            let Some(rep) = Reply::from_bytes(&m.body) else {
                // Malformed replies cannot happen on a healthy wire; count
                // them like late replies rather than corrupting accounting.
                self.stats.late_replies += 1;
                continue;
            };
            let Some(p) = self.pending.remove(&rep.req_id) else {
                self.stats.late_replies += 1;
                continue;
            };
            if p.probe {
                if now <= p.deadline {
                    self.stats.probes_answered += 1;
                }
            } else {
                self.stats.completed += 1;
                self.stats.status_counts[rep.status as usize] += 1;
                self.stats.hist.observe(now - p.submitted);
                if p.op == OpKind::Get
                    && rep.status == Status::Ok
                    && rep.value.get(0..8) != Some(p.key.to_le_bytes().as_slice())
                {
                    self.stats.value_check_failures += 1;
                }
            }
            out.push(Completion {
                req_id: rep.req_id,
                key: p.key,
                op: p.op,
                probe: p.probe,
                status: rep.status,
                version: rep.version,
                value: rep.value,
                latency: now - p.submitted,
            });
        }
        let now = rt.ctx().now();
        if now >= self.next_expiry {
            self.expire(now);
        }
        out
    }

    /// Expires every pending operation unconditionally (end-of-run drain:
    /// whatever is still in flight is attributed as timed out).
    pub fn expire_all(&mut self) {
        self.expire(Ns::MAX);
    }

    fn expire(&mut self, now: Ns) {
        let overdue: Vec<u32> = self
            .pending
            .iter()
            .filter(|(_, p)| now >= p.deadline)
            .map(|(id, _)| *id)
            .collect();
        for id in overdue {
            let p = self.pending.remove(&id).expect("collected above");
            if p.probe {
                // An unanswered probe simply never increments
                // `probes_answered`; nothing else to record.
            } else {
                self.stats.timed_out += 1;
            }
        }
        self.next_expiry = self.pending.values().map(|p| p.deadline).min().unwrap_or(Ns::MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_adds_everything() {
        let mut a = ClientStats {
            attempted: 3,
            completed: 2,
            timed_out: 1,
            ..ClientStats::default()
        };
        a.hist.observe(100);
        let mut b = ClientStats::default();
        b.status_counts[0] = 5;
        b.hist.observe(300);
        b.merge(&a);
        assert_eq!(b.attempted, 3);
        assert_eq!(b.completed, 2);
        assert_eq!(b.timed_out, 1);
        assert_eq!(b.status_counts[0], 5);
        assert_eq!(b.hist.count(), 2);
    }
}
