//! Shared plumbing for running the applications on a simulated cluster.

use std::{cell::RefCell, collections::BTreeMap, rc::Rc};

use carlos_check::Checker;
use carlos_sim::{Bucket, Cluster, SimConfig, SimReport};
use carlos_trace::Tracer;

/// A cluster of `n` nodes whose event stream feeds a run's observers, the
/// checker first. Both may be attached: each sees every event.
#[must_use]
pub fn observed_cluster(
    sim: &SimConfig,
    n: usize,
    check: Option<&Checker>,
    trace: Option<&Tracer>,
) -> Cluster {
    let mut cluster = Cluster::new(sim.clone(), n);
    if check.is_some() || trace.is_some() {
        cluster.observe(Rc::new((check.cloned(), trace.cloned())));
    }
    cluster
}

/// Collects one value per node out of the node closures.
///
/// Node closures are `'static`; this is the channel through which
/// verification data (best tour, sorted flags, final positions) reaches the
/// test or bench after `Cluster::run`.
#[derive(Debug)]
pub struct Collector<T> {
    inner: Rc<RefCell<BTreeMap<u32, T>>>,
}

impl<T> Clone for Collector<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Default for Collector<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Collector<T> {
    /// Creates an empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Rc::new(RefCell::new(BTreeMap::new())),
        }
    }

    /// Records `value` for `node`.
    pub fn put(&self, node: u32, value: T) {
        self.inner.borrow_mut().insert(node, value);
    }

    /// Takes all collected values, ordered by node id.
    pub fn take(&self) -> Vec<(u32, T)> {
        self.inner.take().into_iter().collect()
    }
}

/// A simulation report with the derived columns the paper's tables print.
#[derive(Debug, Clone)]
pub struct AppReport {
    /// The raw simulator report.
    pub report: SimReport,
    /// Elapsed virtual time in seconds.
    pub secs: f64,
    /// Total datagrams on the wire.
    pub messages: u64,
    /// Average datagram payload size in bytes.
    pub avg_msg_bytes: u64,
    /// Network utilization, computed the paper's way.
    pub net_util: f64,
}

impl AppReport {
    /// Derives the table columns from a raw report.
    ///
    /// When nodes recorded an `app.done_ns` counter (the virtual time at
    /// which the timed portion of the application ended, before any
    /// result-collection reads), the slowest node's value is used as the
    /// elapsed time — mirroring the paper, whose measurements end at the
    /// final barrier.
    #[must_use]
    pub fn new(report: SimReport) -> Self {
        let done = report
            .node_counters
            .iter()
            .map(|c| c.get("app.done_ns"))
            .max()
            .unwrap_or(0);
        let elapsed = if done > 0 { done } else { report.elapsed };
        let secs = carlos_sim::time::to_secs(elapsed);
        let messages = report.net.messages;
        let avg_msg_bytes = report.net.avg_size();
        let net_util = report.net.utilization(elapsed, report.bandwidth_bps);
        Self {
            report,
            secs,
            messages,
            avg_msg_bytes,
            net_util,
        }
    }

    /// Average per-node seconds in a bucket (Figure 2's bars).
    #[must_use]
    pub fn bucket_secs(&self, bucket: Bucket) -> f64 {
        self.report.bucket_avg_secs(bucket)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_roundtrip() {
        let c: Collector<u32> = Collector::new();
        let c2 = c.clone();
        c2.put(1, 10);
        c.put(0, 5);
        assert_eq!(c.take(), vec![(0, 5), (1, 10)]);
        assert!(c.take().is_empty());
    }
}
