//! Passive engine observation hooks for external consistency checkers.
//!
//! An [`EngineObserver`] is notified of the engine's externally meaningful
//! transitions — memory accesses, interval closes, record application, page
//! installs — without being able to influence them. Observation is off by
//! default ([`ObserverSlot`] holds nothing) and charges no simulated time,
//! so observed runs are bit-identical to unobserved ones. The `carlos-check`
//! crate builds its happens-before tracker and shadow-memory oracle on these
//! hooks.

use std::{fmt, rc::Rc};

use crate::{interval::IntervalRecord, page::PageId, vc::Vc};

/// Receiver of engine transition notifications.
///
/// All methods default to no-ops so implementations subscribe only to what
/// they need. Implementations are called synchronously from engine methods
/// on the owning node's proc thread; they may record state (and may panic
/// or abort to escalate a detected violation) but must not call back into
/// the engine.
pub trait EngineObserver {
    /// A read of `data.len()` bytes at `addr` completed on `node`, returning
    /// the bytes in `data`, with the node's vector timestamp at `vt`.
    fn mem_read(&self, node: u32, addr: usize, data: &[u8], vt: &Vc) {
        let _ = (node, addr, data, vt);
    }

    /// A write of `data` at `addr` completed on `node`, whose vector
    /// timestamp is `vt` (the write belongs to the still-open interval
    /// `vt[node] + 1`).
    fn mem_write(&self, node: u32, addr: usize, data: &[u8], vt: &Vc) {
        let _ = (node, addr, data, vt);
    }

    /// `node` closed an interval, creating `rec` (a release or acquire
    /// endpoint with at least one dirty page).
    fn interval_closed(&self, node: u32, rec: &IntervalRecord) {
        let _ = (node, rec);
    }

    /// `node` applied the remote interval record `rec` (the acquire side),
    /// advancing its timestamp to cover it.
    fn record_applied(&self, node: u32, rec: &IntervalRecord) {
        let _ = (node, rec);
    }

    /// `node` installed a full copy of `page` whose contents reflect the
    /// modifications in `applied`.
    fn page_installed(&self, node: u32, page: PageId, applied: &Vc) {
        let _ = (node, page, applied);
    }
}

/// An optional, shareable observer slot embedded in the engine.
///
/// Empty by default; every notification forwards through a single `Option`
/// check, so the disabled path costs one branch.
#[derive(Clone, Default)]
pub struct ObserverSlot(Option<Rc<dyn EngineObserver>>);

impl ObserverSlot {
    /// Installs `obs`; subsequent engine transitions notify it.
    pub fn set(&mut self, obs: Rc<dyn EngineObserver>) {
        self.0 = Some(obs);
    }

    /// True when an observer is installed.
    #[must_use]
    pub fn is_set(&self) -> bool {
        self.0.is_some()
    }

    /// Forwards [`EngineObserver::mem_read`].
    #[inline]
    pub fn mem_read(&self, node: u32, addr: usize, data: &[u8], vt: &Vc) {
        if let Some(o) = &self.0 {
            o.mem_read(node, addr, data, vt);
        }
    }

    /// Forwards [`EngineObserver::mem_write`].
    #[inline]
    pub fn mem_write(&self, node: u32, addr: usize, data: &[u8], vt: &Vc) {
        if let Some(o) = &self.0 {
            o.mem_write(node, addr, data, vt);
        }
    }

    /// Forwards [`EngineObserver::interval_closed`].
    #[inline]
    pub fn interval_closed(&self, node: u32, rec: &IntervalRecord) {
        if let Some(o) = &self.0 {
            o.interval_closed(node, rec);
        }
    }

    /// Forwards [`EngineObserver::record_applied`].
    #[inline]
    pub fn record_applied(&self, node: u32, rec: &IntervalRecord) {
        if let Some(o) = &self.0 {
            o.record_applied(node, rec);
        }
    }

    /// Forwards [`EngineObserver::page_installed`].
    #[inline]
    pub fn page_installed(&self, node: u32, page: PageId, applied: &Vc) {
        if let Some(o) = &self.0 {
            o.page_installed(node, page, applied);
        }
    }
}

impl fmt::Debug for ObserverSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "ObserverSlot(installed)"
        } else {
            "ObserverSlot(none)"
        })
    }
}
