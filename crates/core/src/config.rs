//! Cost model and configuration for the CarlOS runtime.

use carlos_sim::time::{us, Ns};

/// Which coherence strategy RELEASE messages drive (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Write notices invalidate pages; modifications are fetched lazily on
    /// the next access fault (what the paper's experiments used).
    Invalidate,
    /// Write notices travel together with the diffs they describe; pages
    /// receiving a complete set of diffs remain valid ("the actual data
    /// transmission occurs eagerly and asynchronously when the
    /// notification message is sent", §3).
    Update,
}

/// Seeded protocol mutations for explorer-recall regression tests.
///
/// Each variant injects one realistic wire-protocol bug into the runtime.
/// The hooks are compiled only under `cfg(any(test, feature =
/// "seeded-bugs"))` and fire only when a [`CoreConfig::seeded_bug`] is
/// installed, so production builds and default configs are byte-identical
/// to a runtime without them. `tests/seeded_bugs.rs` asserts the guided
/// schedule explorer finds and shrinks every one of these while the random
/// jitter sweep may miss them.
#[cfg(any(test, feature = "seeded-bugs"))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeededBug {
    /// In the aggregated RELEASE encoding path, silently revert one
    /// changed non-creator vector-clock component of a delta-coded record
    /// back to its predecessor's value — the wire carries a write notice
    /// with an understated timestamp. Requires
    /// [`CoreConfig::variable_granularity`].
    DropNoticeClock,
    /// Serve one granule short in a batched fetch reply: a batch request
    /// for two or more granules gets a well-formed reply carrying all but
    /// the last sub-reply. Requires [`CoreConfig::variable_granularity`].
    SkipBatchGranule,
    /// Apply buffered eager diffs without the completeness revalidation:
    /// a page whose carried-diff set does not cover all known writes is
    /// revalidated anyway, exposing stale bytes to the next read.
    EagerSkipRevalidate,
}

/// Per-operation CPU costs charged to the `CarlOS` bucket, plus runtime
/// options.
///
/// The defaults are calibrated from §5.4 of the paper (150 MHz Alpha):
///
/// - handling a piggybacked vector timestamp costs 750–2350 cycles
///   (5–15 µs) split across sender and receiver;
/// - a RELEASE message adds ~30 µs over a NONE message, plus the time to
///   process the write notices it carries;
/// - per-write-notice processing lands in the 42–141 µs range *including*
///   the diff traffic it triggers, so the bare notice application charge
///   here is much smaller and the rest emerges from the diff costs.
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// Generic CarlOS message handling at the sender (header construction,
    /// handler dispatch bookkeeping). The §5 "generality of CarlOS message
    /// handling" penalty versus TreadMarks lives here.
    pub msg_send: Ns,
    /// Generic CarlOS message handling at the receiver.
    pub msg_recv: Ns,
    /// Extra sender cost when a vector timestamp is included (REQUEST and
    /// both RELEASE forms).
    pub vt_send: Ns,
    /// Extra receiver cost for processing a piggybacked vector timestamp.
    pub vt_recv: Ns,
    /// Extra fixed cost of sending a RELEASE (interval creation, payload
    /// tailoring), beyond `msg_send` + `vt_send`.
    pub release_send: Ns,
    /// Extra fixed cost of accepting a RELEASE (acquire bookkeeping).
    pub release_accept: Ns,
    /// Cost of applying one write notice (page invalidation check).
    pub per_notice: Ns,
    /// Cost of encoding/decoding one interval record in a release payload.
    pub per_record: Ns,
    /// Fixed cost of applying one diff record.
    pub diff_apply_fixed: Ns,
    /// Cost of applying one modified byte of a diff (×1000 per byte).
    pub diff_apply_per_byte_x1000: u64,
    /// Cost per byte of serving/installing a full page copy (×1000).
    pub page_copy_per_byte_x1000: u64,
    /// When set, the generic handling costs (`msg_send`/`msg_recv`) are
    /// waived, modeling TreadMarks' specialized built-in message paths;
    /// used by the §5 TreadMarks-versus-CarlOS comparison.
    pub treadmarks_dispatch: bool,
    /// Zero bytes appended to every user message as a modeled protocol
    /// header (the real system's request/bookkeeping structures), so
    /// reported message sizes are comparable with the paper's tables.
    pub wire_header_pad: usize,
    /// Coherence strategy driven by RELEASE messages.
    pub strategy: Strategy,
    /// When set, every bounded wait of the runtime — a page/diff fetch, and
    /// each blocking step of a lock, barrier or queue (a semaphore is a
    /// queue of empty items, §3) — that is
    /// still unsatisfied after this long probes the peers it waits on; it
    /// aborts the run with an attributed [`carlos_sim::SimError::Aborted`]
    /// once the transport's failure detector flags one of them down, or
    /// after [`crate::STALL_ROUNDS`] such rounds. `None` (the default)
    /// waits forever and adds no timer events to the run.
    pub stall_timeout: Option<Ns>,
    /// Variable granularity ("+vg"). When set, the applications lay their
    /// shared data out in per-region granules sized to their objects;
    /// demand fetches raised by one fault that target the same serving
    /// node travel as a single batched request/reply round trip instead of
    /// one message pair per granule; and RELEASE/RELEASE_NT payloads use
    /// the aggregated write-notice encoding (wire tags 4/5), which groups
    /// interval records by creator and elides every vector-clock component
    /// implied by the creator's previous record in the same frame
    /// (lossless). Off by default, so the wire exchanges stay
    /// byte-identical with the paper's protocol.
    pub variable_granularity: bool,
    /// Seeded protocol mutation for explorer-recall tests (never set in
    /// production configs; see [`SeededBug`]).
    #[cfg(any(test, feature = "seeded-bugs"))]
    pub seeded_bug: Option<SeededBug>,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::osdi94()
    }
}

impl CoreConfig {
    /// The calibration used by the benchmark harnesses (see `DESIGN.md`).
    #[must_use]
    pub fn osdi94() -> Self {
        Self {
            msg_send: us(25),
            msg_recv: us(25),
            vt_send: us(5),
            vt_recv: us(5),
            release_send: us(15),
            release_accept: us(15),
            per_notice: us(12),
            per_record: us(4),
            diff_apply_fixed: us(15),
            diff_apply_per_byte_x1000: 20,
            page_copy_per_byte_x1000: 12,
            treadmarks_dispatch: false,
            wire_header_pad: 90,
            strategy: Strategy::Invalidate,
            stall_timeout: None,
            variable_granularity: false,
            #[cfg(any(test, feature = "seeded-bugs"))]
            seeded_bug: None,
        }
    }

    /// Near-zero costs for tests that assert protocol behaviour, not time.
    #[must_use]
    pub fn fast_test() -> Self {
        Self {
            msg_send: 0,
            msg_recv: 0,
            vt_send: 0,
            vt_recv: 0,
            release_send: 0,
            release_accept: 0,
            per_notice: 0,
            per_record: 0,
            diff_apply_fixed: 0,
            diff_apply_per_byte_x1000: 0,
            page_copy_per_byte_x1000: 0,
            treadmarks_dispatch: false,
            wire_header_pad: 0,
            strategy: Strategy::Invalidate,
            stall_timeout: None,
            variable_granularity: false,
            #[cfg(any(test, feature = "seeded-bugs"))]
            seeded_bug: None,
        }
    }

    /// Returns `self` with the given seeded protocol mutation installed
    /// (explorer-recall tests only).
    #[cfg(any(test, feature = "seeded-bugs"))]
    #[must_use]
    pub fn with_seeded_bug(mut self, bug: SeededBug) -> Self {
        self.seeded_bug = Some(bug);
        self
    }

    /// Returns `self` with TreadMarks-style specialized dispatch enabled.
    #[must_use]
    pub fn with_treadmarks_dispatch(mut self) -> Self {
        self.treadmarks_dispatch = true;
        self
    }

    /// Returns `self` with the update coherence strategy enabled.
    #[must_use]
    pub fn with_update_strategy(mut self) -> Self {
        self.strategy = Strategy::Update;
        self
    }

    /// Returns `self` with every bounded wait armed at `timeout` per round
    /// (builder style).
    #[must_use]
    pub fn with_stall_timeout(mut self, timeout: Ns) -> Self {
        self.stall_timeout = Some(timeout);
        self
    }

    /// Returns `self` with variable granularity ("+vg") switched on.
    #[must_use]
    pub fn with_variable_granularity(mut self) -> Self {
        self.variable_granularity = true;
        self
    }

    /// Effective generic send-side handling cost.
    #[must_use]
    pub fn effective_msg_send(&self) -> Ns {
        if self.treadmarks_dispatch {
            0
        } else {
            self.msg_send
        }
    }

    /// Effective generic receive-side handling cost.
    #[must_use]
    pub fn effective_msg_recv(&self) -> Ns {
        if self.treadmarks_dispatch {
            0
        } else {
            self.msg_recv
        }
    }

    /// Cost of applying a diff that modifies `bytes` bytes.
    #[must_use]
    pub fn diff_apply_cost(&self, bytes: usize) -> Ns {
        self.diff_apply_fixed + (bytes as u64 * self.diff_apply_per_byte_x1000) / 1000
    }

    /// Cost of copying a `bytes`-byte page (serve or install side).
    #[must_use]
    pub fn page_copy_cost(&self, bytes: usize) -> Ns {
        (bytes as u64 * self.page_copy_per_byte_x1000) / 1000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn osdi94_matches_paper_ranges() {
        let c = CoreConfig::osdi94();
        // REQUEST-over-NONE: 5-15 µs total (§5.4).
        let vt_total = c.vt_send + c.vt_recv;
        assert!((us(5)..=us(15)).contains(&vt_total));
        // RELEASE-over-NONE fixed: about 30 µs (§5.4).
        let rel_total = c.release_send + c.release_accept;
        assert!((us(25)..=us(35)).contains(&rel_total));
    }

    #[test]
    fn treadmarks_dispatch_waives_generic_costs() {
        let c = CoreConfig::osdi94().with_treadmarks_dispatch();
        assert_eq!(c.effective_msg_send(), 0);
        assert_eq!(c.effective_msg_recv(), 0);
        let c2 = CoreConfig::osdi94();
        assert!(c2.effective_msg_send() > 0);
    }

    #[test]
    fn scaled_costs() {
        let c = CoreConfig::osdi94();
        assert_eq!(
            c.diff_apply_cost(100),
            c.diff_apply_fixed + 100 * c.diff_apply_per_byte_x1000 / 1000
        );
        assert_eq!(c.page_copy_cost(0), 0);
        let zero = CoreConfig::fast_test();
        assert_eq!(zero.diff_apply_cost(8192), 0);
    }
}
