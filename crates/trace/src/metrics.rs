//! Deterministic counters and virtual-time histograms.
//!
//! All keys are strings (`BTreeMap`-ordered, so iteration and export order
//! never depend on insertion order), all values derive from virtual time
//! and deterministic event order, so two runs of the same simulation
//! produce byte-identical metric exports.

use std::collections::BTreeMap;

use carlos_sim::Ns;

/// Power-of-two-bucketed histogram of virtual-time durations (ns).
///
/// Bucket `i` counts observations whose bit length is `i`, i.e. values in
/// `[2^(i-1), 2^i)`; bucket 0 counts zeros. Exact count, sum, min, and max
/// are kept alongside, so means are exact and only quantiles are
/// approximate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VtHistogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; 65],
}

impl Default for VtHistogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 65],
        }
    }
}

impl VtHistogram {
    /// Records one duration.
    pub fn observe(&mut self, ns: Ns) {
        self.count += 1;
        self.sum += ns;
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
        self.buckets[(64 - ns.leading_zeros()) as usize] += 1;
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (ns).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]`: the upper edge of the bucket
    /// containing the `q`-th observation (within a factor of 2 of exact).
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << i }.min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one. Merging is associative and
    /// commutative, so per-node histograms can be combined in any order.
    pub fn merge(&mut self, other: &VtHistogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for i in 0..self.buckets.len() {
            self.buckets[i] += other.buckets[i];
        }
    }
}

/// Registry of named counters and virtual-time histograms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, VtHistogram>,
}

impl Metrics {
    /// Adds `v` to the counter `key`.
    pub fn count(&mut self, key: &str, v: u64) {
        if let Some(c) = self.counters.get_mut(key) {
            *c += v;
        } else {
            self.counters.insert(key.to_owned(), v);
        }
    }

    /// Records `ns` in the histogram `key`.
    pub fn observe(&mut self, key: &str, ns: Ns) {
        if let Some(h) = self.hists.get_mut(key) {
            h.observe(ns);
        } else {
            let mut h = VtHistogram::default();
            h.observe(ns);
            self.hists.insert(key.to_owned(), h);
        }
    }

    /// Current value of counter `key` (0 if never touched).
    #[must_use]
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// The histogram `key`, if any observation was recorded.
    #[must_use]
    pub fn histogram(&self, key: &str) -> Option<&VtHistogram> {
        self.hists.get(key)
    }

    /// Iterates `(key, value)` counter pairs in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates `(key, histogram)` pairs in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &VtHistogram)> + '_ {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merges another registry into this one (counters add, histograms
    /// merge).
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.counters {
            self.count(k, *v);
        }
        for (k, h) in &other.hists {
            if let Some(mine) = self.hists.get_mut(k) {
                mine.merge(h);
            } else {
                self.hists.insert(k.clone(), h.clone());
            }
        }
    }

    /// Renders the registry as a JSON object with `counters` and
    /// `histograms` members. Deterministic: keys are emitted in order.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", crate::export::json_string(k), v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.1},\"p50\":{},\"p95\":{}}}",
                crate::export::json_string(k),
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.95),
            ));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_basics() {
        let mut h = VtHistogram::default();
        for v in [0, 1, 2, 3, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 1106.0 / 6.0).abs() < 1e-9);
        assert_eq!(VtHistogram::default().min(), 0);
        assert_eq!(VtHistogram::default().mean(), 0.0);
    }

    #[test]
    fn histogram_merge_equals_combined_stream() {
        let values_a = [5u64, 17, 0, 42_000, 9];
        let values_b = [1u64, 1, 130_000, 7];
        let mut a = VtHistogram::default();
        let mut b = VtHistogram::default();
        let mut combined = VtHistogram::default();
        for v in values_a {
            a.observe(v);
            combined.observe(v);
        }
        for v in values_b {
            b.observe(v);
            combined.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, combined);
        // Merging an empty histogram is the identity.
        let before = a.clone();
        a.merge(&VtHistogram::default());
        assert_eq!(a, before);
        // Merging *into* an empty histogram copies.
        let mut empty = VtHistogram::default();
        empty.merge(&combined);
        assert_eq!(empty, combined);
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let mut h = VtHistogram::default();
        for _ in 0..90 {
            h.observe(10);
        }
        for _ in 0..10 {
            h.observe(1000);
        }
        let p50 = h.quantile(0.5);
        assert!((10..=16).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!(p99 >= 512, "p99 = {p99}");
        assert!(p99 <= h.max());
    }

    #[test]
    fn metrics_registry_counts_observes_merges() {
        let mut a = Metrics::default();
        a.count("msgs", 2);
        a.count("msgs", 3);
        a.observe("lat", 100);
        let mut b = Metrics::default();
        b.count("msgs", 1);
        b.count("bytes", 7);
        b.observe("lat", 300);
        b.observe("other", 1);
        a.merge(&b);
        assert_eq!(a.counter("msgs"), 6);
        assert_eq!(a.counter("bytes"), 7);
        assert_eq!(a.counter("absent"), 0);
        assert_eq!(a.histogram("lat").unwrap().count(), 2);
        assert_eq!(a.histogram("lat").unwrap().sum(), 400);
        assert_eq!(a.histogram("other").unwrap().count(), 1);
        let json = a.to_json();
        assert!(json.contains("\"msgs\":6"));
        assert!(json.contains("\"lat\""));
    }
}
