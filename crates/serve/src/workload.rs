//! The open-loop traffic generator: deterministic Zipfian key popularity
//! and a deterministic virtual-time arrival process.
//!
//! Every client node derives its own RNG stream from the run seed and its
//! node id, so a fixed configuration yields one fixed schedule of
//! `(arrival time, operation, key)` triples — the simulator then replays
//! it bit-identically. **Open loop** means arrivals
//! are drawn from the schedule regardless of how many operations are
//! still in flight: a slow server grows the client's pending window (and
//! its tail latency) instead of silently throttling offered load, which
//! is what makes the p999 and harvest/yield numbers honest.

use carlos_sim::time::Ns;
use carlos_util::rng::Xoshiro256;

use crate::store::{mix64, OpKind};

/// Relative op-kind weights for the Zipfian traffic (CAS arrivals are
/// scheduled separately, against the shared counter keys).
#[derive(Debug, Clone, Copy)]
pub struct OpMix {
    /// Weight of gets.
    pub get: u32,
    /// Weight of puts.
    pub put: u32,
    /// Weight of deletes.
    pub delete: u32,
}

impl OpMix {
    /// The classic read-heavy cache mix: 90% get / 9% put / 1% delete.
    #[must_use]
    pub fn read_heavy() -> Self {
        Self {
            get: 90,
            put: 9,
            delete: 1,
        }
    }
}

/// One scheduled client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Virtual time the operation enters the system.
    pub at: Ns,
    /// Operation kind ([`OpKind::Cas`] targets a counter key).
    pub op: OpKind,
    /// Key index (counter index for CAS arrivals).
    pub key: u64,
}

/// Per-client deterministic workload stream.
#[derive(Debug, Clone)]
pub struct Workload {
    rng: Xoshiro256,
    /// Normalized Zipf CDF over key ranks (rank 0 is the hottest key).
    cdf: Vec<f64>,
    mix_total: u64,
    mix: OpMix,
    mean_gap: f64,
    /// Arrivals issued so far.
    issued: u64,
    /// Total arrivals this client will issue.
    total: u64,
    /// CAS arrivals interleaved among the total (Bresenham spacing).
    cas_total: u64,
    cas_issued: u64,
    counter_keys: u64,
    next_at: Ns,
}

impl Workload {
    /// Builds the stream for one client. `cas_total` arrivals out of
    /// `total` are CAS increments spread evenly over the schedule,
    /// round-robin across `counter_keys` shared counters.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        seed: u64,
        client_node: u32,
        keyspace: u64,
        theta: f64,
        mean_interarrival: Ns,
        mix: OpMix,
        total: u64,
        cas_total: u64,
        counter_keys: u64,
    ) -> Self {
        assert!(keyspace > 0, "empty keyspace");
        assert!(cas_total <= total, "more CAS arrivals than arrivals");
        assert!(cas_total == 0 || counter_keys > 0, "CAS arrivals need counter keys");
        let mut cdf = Vec::with_capacity(usize::try_from(keyspace).expect("keyspace fits usize"));
        let mut acc = 0.0f64;
        for rank in 0..keyspace {
            #[allow(clippy::cast_precision_loss)]
            let w = 1.0 / ((rank + 1) as f64).powf(theta);
            acc += w;
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        let mut rng = Xoshiro256::new(seed ^ mix64(u64::from(client_node) + 1));
        // First arrival: one gap into the run, so node start-up (barrier,
        // page warm-up) stays out of the measured latency window.
        #[allow(clippy::cast_precision_loss)]
        let mean_gap = mean_interarrival as f64;
        let first = exp_gap(&mut rng, mean_gap);
        Self {
            rng,
            cdf,
            mix_total: u64::from(mix.get) + u64::from(mix.put) + u64::from(mix.delete),
            mix,
            mean_gap,
            issued: 0,
            total,
            cas_total,
            cas_issued: 0,
            counter_keys,
            next_at: first,
        }
    }

    /// Remaining arrivals in the stream.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.total - self.issued
    }

    /// Draws the next arrival, or `None` when the stream is exhausted.
    pub fn next_arrival(&mut self) -> Option<Arrival> {
        if self.issued == self.total {
            return None;
        }
        let at = self.next_at;
        self.next_at += exp_gap(&mut self.rng, self.mean_gap);
        // Bresenham interleaving: CAS arrival `c` fires at overall arrival
        // floor(c * total / cas_total) — evenly spaced, deterministic.
        let is_cas = self.cas_total > 0
            && self.cas_issued < self.cas_total
            && self.issued == self.cas_issued * self.total / self.cas_total;
        let arrival = if is_cas {
            let counter = self.cas_issued % self.counter_keys;
            self.cas_issued += 1;
            Arrival {
                at,
                op: OpKind::Cas,
                key: counter,
            }
        } else {
            let key = self.zipf_key();
            let draw = self.rng.next_below(self.mix_total);
            let op = if draw < u64::from(self.mix.get) {
                OpKind::Get
            } else if draw < u64::from(self.mix.get) + u64::from(self.mix.put) {
                OpKind::Put
            } else {
                OpKind::Delete
            };
            Arrival { at, op, key }
        };
        self.issued += 1;
        Some(arrival)
    }

    /// Samples a key rank from the Zipf CDF (rank 0 hottest) and maps it
    /// to a key id. Ranks map to keys through a fixed hash so hot keys
    /// scatter over shards instead of clustering in shard 0.
    fn zipf_key(&mut self) -> u64 {
        let u = self.rng.next_f64();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        // Permute rank -> key id within the keyspace (collision-free would
        // need a full permutation; a fixed mix keeps determinism and
        // spreads hot ranks, and collisions merely merge two ranks).
        mix64(rank as u64) % self.cdf.len() as u64
    }
}

/// Exponential inter-arrival gap (Poisson arrivals), at least 1 ns so
/// virtual time always advances between arrivals.
#[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
fn exp_gap(rng: &mut Xoshiro256, mean: f64) -> Ns {
    let u = rng.next_f64().max(f64::MIN_POSITIVE);
    ((-u.ln() * mean).round() as u64).max(1)
}

/// Fill pattern for stored values: the 8-byte key self-tag, then bytes
/// derived from the key and writer — every get reply can be structurally
/// validated against the key it was issued for.
#[must_use]
pub fn value_bytes(key: u64, writer: u32, val_len: usize) -> Vec<u8> {
    assert!(val_len >= crate::store::MIN_VAL_LEN, "value below minimum length");
    let mut v = vec![0u8; val_len];
    v[0..8].copy_from_slice(&key.to_le_bytes());
    let fill = mix64(key ^ u64::from(writer)).to_le_bytes();
    for (i, b) in v[8..].iter_mut().enumerate() {
        *b = fill[i % 8];
    }
    v
}

/// Counter-cell encoding: key self-tag then the 8-byte count.
#[must_use]
pub fn counter_bytes(key: u64, count: u64, val_len: usize) -> Vec<u8> {
    let mut v = vec![0u8; val_len.max(crate::store::MIN_VAL_LEN)];
    v[0..8].copy_from_slice(&key.to_le_bytes());
    v[8..16].copy_from_slice(&count.to_le_bytes());
    v
}

/// Reads the count back out of a counter cell.
#[must_use]
pub fn counter_value(cell: &[u8]) -> u64 {
    cell.get(8..16)
        .and_then(|b| b.try_into().ok())
        .map_or(0, u64::from_le_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, node: u32) -> Vec<Arrival> {
        let mut w = Workload::new(seed, node, 1024, 0.99, 1000, OpMix::read_heavy(), 200, 20, 2);
        std::iter::from_fn(|| w.next_arrival()).collect()
    }

    #[test]
    fn schedule_is_deterministic_per_seed_and_client() {
        assert_eq!(stream(1, 4), stream(1, 4));
        assert_ne!(stream(1, 4), stream(2, 4));
        assert_ne!(stream(1, 4), stream(1, 5));
    }

    #[test]
    fn arrivals_are_monotone_and_complete() {
        let s = stream(7, 9);
        assert_eq!(s.len(), 200);
        for w in s.windows(2) {
            assert!(w[0].at < w[1].at, "arrival times must strictly increase");
        }
        let cas = s.iter().filter(|a| a.op == OpKind::Cas).count();
        assert_eq!(cas, 20, "exactly the scheduled CAS arrivals");
        assert!(s.iter().filter(|a| a.op == OpKind::Cas).all(|a| a.key < 2));
    }

    #[test]
    fn zipf_is_skewed() {
        let mut w = Workload::new(3, 1, 4096, 0.99, 100, OpMix::read_heavy(), 20_000, 0, 0);
        let mut counts = std::collections::HashMap::new();
        while let Some(a) = w.next_arrival() {
            *counts.entry(a.key).or_insert(0u64) += 1;
        }
        let max = counts.values().copied().max().unwrap_or(0);
        let distinct = counts.len() as u64;
        // The hottest key dominates and far fewer than 4096 keys appear.
        assert!(max > 1_000, "hottest key only {max} hits");
        assert!(distinct < 4_000, "no skew: {distinct} distinct keys");
    }

    #[test]
    fn value_cells_self_tag() {
        let v = value_bytes(0xABCD, 3, 32);
        assert_eq!(&v[0..8], &0xABCDu64.to_le_bytes());
        let c = counter_bytes(9, 41, 16);
        assert_eq!(counter_value(&c), 41);
    }
}
