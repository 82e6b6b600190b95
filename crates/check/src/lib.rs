//! Online consistency oracle for the CarlOS simulator.
//!
//! `carlos-check` attaches a [`Checker`] to a simulated cluster and
//! validates, as the run unfolds, that the DSM actually delivers the lazy
//! release consistency contract it claims:
//!
//! - a **happens-before tracker** mirrors the vector timestamps carried by
//!   REQUEST/RELEASE/FORWARD annotations and re-derives the causal order of
//!   intervals, flagging non-monotone closes, out-of-order applies, and
//!   release/accept verdicts that contradict the mirrored state;
//! - a **shadow-memory oracle** keeps a per-word last-writer history and
//!   validates that every read returns a value some write produced that is
//!   not ordered *after* the read — a stale read past an established
//!   acquire is a protocol bug, not an application bug;
//! - a **data-race detector** reports concurrent writes (and uncovered
//!   reads) of the same word from different nodes with no intervening
//!   release/acquire chain, attributed by `(node, interval, address)`.
//!
//! The checker is a consumer of the run's event stream
//! ([`carlos_util::event`]): it is invoked synchronously from the engine
//! and runtime hot paths but never sends messages, never advances virtual
//! time, and never perturbs scheduling. A run with the checker attached
//! produces a bit-identical [`carlos_sim::SimReport`] fingerprint to the
//! same run without it.
//!
//! By default violations accumulate and are inspected at the end of the
//! run via [`Checker::violations`] / [`Checker::assert_clean`]. With
//! [`Checker::fail_fast`], the first violation aborts the offending node
//! through [`carlos_sim::abort`], surfacing as
//! [`carlos_sim::SimError::Aborted`].
//!
//! Benign, intentionally racy words (e.g. a monotonically improving bound
//! polled without a lock) can be exempted from read-side checks with
//! [`Checker::allow_racy`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delivery;
mod hb;
mod oracle;

use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt;
use std::rc::Rc;

use carlos_util::event::{Event, Sink};

use delivery::DeliveryLog;
pub use delivery::DeliveryEvent;
use hb::HbTracker;
use oracle::Oracle;

/// What a [`Violation`] asserts went wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Two writes to the same word from different nodes with concurrent
    /// interval timestamps — no release/acquire chain orders them.
    WriteWriteRace,
    /// A read of a word for which another node's write is neither covered
    /// by the reader's timestamp nor causally after the read.
    ReadWriteRace,
    /// A race-free word read returned a value other than the one written
    /// by the unique most recent covered write.
    StaleRead,
    /// A nonzero value was read from a word no observed write produced.
    UnknownValue,
    /// The happens-before mirror caught the protocol misbehaving: a
    /// non-monotone close, an out-of-order apply, a timestamp mismatch, or
    /// a completeness verdict that contradicts the mirrored state.
    HbOrder,
}

/// One consistency violation, attributed to the node and (open) interval
/// that observed it and the word-aligned address involved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The class of violation.
    pub kind: ViolationKind,
    /// Node at which the violation was observed.
    pub node: u32,
    /// That node's interval at observation time (the still-open interval
    /// for memory accesses).
    pub interval: u32,
    /// Word-aligned shared-memory address, or 0 for non-memory violations.
    pub addr: usize,
    /// Human-readable description naming the other party.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} at node {} interval {} addr {:#x}: {}",
            self.kind, self.node, self.interval, self.addr, self.detail
        )
    }
}

struct State {
    hb: HbTracker,
    oracle: Oracle,
    deliveries: DeliveryLog,
    violations: Vec<Violation>,
    reported: HashSet<String>,
    fail_fast: bool,
}

impl State {
    /// Deduplicate and store `found`; returns the first fresh violation's
    /// message when fail-fast escalation should fire.
    fn record(&mut self, found: Vec<(String, Violation)>) -> Option<String> {
        let mut first = None;
        for (key, v) in found {
            if self.reported.insert(key) {
                if first.is_none() {
                    first = Some(v.to_string());
                }
                self.violations.push(v);
            }
        }
        if self.fail_fast {
            first
        } else {
            None
        }
    }
}

/// The online LRC oracle: a [`Sink`] of the run's event stream. Cheap to
/// clone (all clones share one state); attach it to the cluster before the
/// run (`Cluster::observe`).
#[derive(Clone)]
pub struct Checker {
    inner: Rc<RefCell<State>>,
}

impl fmt::Debug for Checker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.borrow();
        write!(
            f,
            "Checker({} violations{})",
            st.violations.len(),
            if st.fail_fast { ", fail-fast" } else { "" }
        )
    }
}

impl Checker {
    /// A checker for an `n_nodes`-node cluster, accumulating violations.
    #[must_use]
    pub fn new(n_nodes: usize) -> Self {
        Self {
            inner: Rc::new(RefCell::new(State {
                hb: HbTracker::new(n_nodes),
                oracle: Oracle::new(n_nodes),
                deliveries: DeliveryLog::new(n_nodes),
                violations: Vec::new(),
                reported: HashSet::new(),
                fail_fast: false,
            })),
        }
    }

    /// Escalate the first violation by aborting the offending node (the
    /// run then fails with [`carlos_sim::SimError::Aborted`]). Violations
    /// observed on the wire-delivery path are never escalated — that path
    /// runs outside any node — but they still accumulate.
    #[must_use]
    pub fn fail_fast(self) -> Self {
        self.inner.borrow_mut().fail_fast = true;
        self
    }

    /// Exempt `[addr, addr + len)` from read-side checks. Use for words an
    /// application intentionally reads without synchronization (the read
    /// must tolerate any previously written value). Write/write race
    /// detection still applies.
    pub fn allow_racy(&self, addr: usize, len: usize) {
        self.inner.borrow_mut().oracle.allow_racy(addr, len);
    }

    /// The wire-delivery log in observation (virtual-time) order, each
    /// delivery annotated with message-level vector clocks. The schedule
    /// explorer queries this — via [`DeliveryEvent::flip_unordered`] — for
    /// the racing-delivery frontier of a finished run.
    #[must_use]
    pub fn deliveries(&self) -> Vec<DeliveryEvent> {
        self.inner.borrow().deliveries.events().to_vec()
    }

    /// All violations recorded so far, in observation order.
    #[must_use]
    pub fn violations(&self) -> Vec<Violation> {
        self.inner.borrow().violations.clone()
    }

    /// Panics with a full listing if any violation was recorded.
    pub fn assert_clean(&self) {
        let st = self.inner.borrow();
        assert!(
            st.violations.is_empty(),
            "consistency oracle found {} violation(s):\n{}",
            st.violations.len(),
            st.violations
                .iter()
                .map(|v| format!("  - {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

}

impl Sink for Checker {
    fn event(&self, ev: &Event<'_>) {
        let mut guard = self.inner.borrow_mut();
        let st = &mut *guard;
        let (node, found) = match *ev {
            Event::MemRead { node, addr, data, vt } => {
                (node, st.oracle.on_read(node, addr, data, vt))
            }
            Event::MemWrite { node, addr, data, vt } => {
                (node, st.oracle.on_write(node, addr, data, vt, &st.hb.node_vt))
            }
            Event::IntervalClosed { node, rec } => (node, st.hb.on_interval_closed(node, rec)),
            Event::RecordApplied { node, rec } => (node, st.hb.on_record_applied(node, rec)),
            Event::ClockAdvanced { node, creator, index } => {
                (node, st.hb.on_clock_advanced(node, creator, index))
            }
            Event::ReleaseSent { node, required, .. } => {
                (node, st.hb.on_release_sent(node, required))
            }
            Event::ReleaseAccepted { node, required, complete, .. } => {
                (node, st.hb.on_release_accepted(node, required, complete))
            }
            Event::WireSent { src, dst, at, payload } => {
                st.deliveries.on_sent(src, dst, at, payload);
                return;
            }
            Event::WireDropped { src, dst, at, payload } => {
                st.deliveries.on_dropped(src, dst, at, payload);
                return;
            }
            Event::WireDelivered { src, dst, sent_at, delivered_at, payload } => {
                st.deliveries.on_delivered(src, dst, sent_at, delivered_at, payload);
                // The event loop emits deliveries outside any node, with the
                // kernel borrowed: record, never escalate.
                let found = st.hb.on_frame(src, dst, sent_at, delivered_at);
                let _ = st.record(found);
                return;
            }
            _ => return,
        };
        let escalate = st.record(found);
        drop(guard);
        if let Some(m) = escalate {
            carlos_sim::abort(node, m);
        }
    }
}
