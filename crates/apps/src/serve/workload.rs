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
//!
//! Key popularity comes from one [`ZipfTable`] per serving run, shared by
//! every client of the run.

use std::rc::Rc;

use carlos_sim::time::Ns;
use carlos_util::rng::{SplitMix64, Xoshiro256};

use crate::serve::store::OpKind;

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

/// The normalised Zipf CDF over key ranks (rank 0 is the hottest key). It
/// depends only on `(keyspace, theta)`, so a serving run builds one and
/// its clients share it.
#[derive(Debug)]
pub struct ZipfTable {
    cdf: Vec<f64>,
}

impl ZipfTable {
    /// Builds the table over `keyspace` ranks with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `keyspace` is 0.
    #[must_use]
    pub fn new(keyspace: u64, theta: f64) -> Self {
        assert!(keyspace > 0, "empty keyspace");
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
        Self { cdf }
    }

    /// The rank a uniform draw `u` in `[0, 1)` selects: the first whose
    /// CDF entry is not below `u`, clamped to the last rank.
    fn rank(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Per-client deterministic workload stream.
#[derive(Debug, Clone)]
pub struct Workload {
    rng: Xoshiro256,
    /// The run's key-popularity table, shared with its other clients.
    zipf: Rc<ZipfTable>,
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
    /// Builds the stream for one client, with a [`ZipfTable`] of its own
    /// over `keyspace` keys at skew `theta`. `cas_total` arrivals out of
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
        Self::with_table(
            Rc::new(ZipfTable::new(keyspace, theta)),
            seed,
            client_node,
            mean_interarrival,
            mix,
            total,
            cas_total,
            counter_keys,
        )
    }

    /// [`Workload::new`] drawing keys from `zipf`, a table the run shares.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn with_table(
        zipf: Rc<ZipfTable>,
        seed: u64,
        client_node: u32,
        mean_interarrival: Ns,
        mix: OpMix,
        total: u64,
        cas_total: u64,
        counter_keys: u64,
    ) -> Self {
        assert!(cas_total <= total, "more CAS arrivals than arrivals");
        assert!(cas_total == 0 || counter_keys > 0, "CAS arrivals need counter keys");
        let mut rng = Xoshiro256::new(seed ^ SplitMix64::new(u64::from(client_node) + 1).next_u64());
        // First arrival: one gap into the run, so node start-up (barrier,
        // page warm-up) stays out of the measured latency window.
        #[allow(clippy::cast_precision_loss)]
        let mean_gap = mean_interarrival as f64;
        let first = exp_gap(&mut rng, mean_gap);
        Self {
            rng,
            zipf,
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

    /// Samples a key rank from the Zipf table (rank 0 hottest) and maps it
    /// to a key id through a fixed hash, so hot keys scatter over shards
    /// instead of clustering in shard 0.
    ///
    /// The hash is not a permutation: ranks that collide merge into one
    /// key, and `SplitMix64::new(rank).next_u64() % keyspace` reaches
    /// about 63 % of the keys — 41 416 of 65 536 at paper scale (9 of the
    /// 1 024 hottest ranks land on a hotter rank's key), 2 623 of 4 096 at
    /// test scale. Changing the map would move every serving run's virtual
    /// numbers.
    fn zipf_key(&mut self) -> u64 {
        let rank = self.zipf.rank(self.rng.next_f64());
        SplitMix64::new(rank as u64).next_u64() % self.zipf.cdf.len() as u64
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
    assert!(val_len >= crate::serve::store::MIN_VAL_LEN, "value below minimum length");
    let mut v = vec![0u8; val_len];
    v[0..8].copy_from_slice(&key.to_le_bytes());
    let fill = SplitMix64::new(key ^ u64::from(writer)).next_u64().to_le_bytes();
    for (i, b) in v[8..].iter_mut().enumerate() {
        *b = fill[i % 8];
    }
    v
}

/// Counter-cell encoding: key self-tag then the 8-byte count.
#[must_use]
pub fn counter_bytes(key: u64, count: u64, val_len: usize) -> Vec<u8> {
    let mut v = vec![0u8; val_len.max(crate::serve::store::MIN_VAL_LEN)];
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
    use std::collections::HashSet;

    use carlos_util::cases::cases;

    use super::*;
    use crate::serve::run::ServeConfig;

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

    /// Digest of the first `n` arrivals `(at, op, key)` of client `node`
    /// of a `cfg` run.
    fn digest(cfg: &ServeConfig, node: u32, n: usize) -> u64 {
        let mut w = Workload::new(
            cfg.seed,
            node,
            cfg.keyspace,
            cfg.theta,
            cfg.mean_interarrival,
            cfg.mix,
            cfg.ops_per_client,
            cfg.cas_per_client,
            cfg.counter_keys,
        );
        std::iter::from_fn(|| w.next_arrival())
            .take(n)
            .flat_map(|a| [a.at, a.op as u64, a.key])
            .fold(0, |h, x| SplitMix64::new(h ^ x).next_u64())
    }

    #[test]
    fn schedules_are_bit_identical_to_one_table_per_client() {
        // Recorded when every client built its own CDF: the table a run
        // shares must draw the same streams.
        let paper = ServeConfig::paper(8);
        let mut test = ServeConfig::test(8);
        (test.ops_per_client, test.cas_per_client) = (4_096, 256);
        assert_eq!(paper.keyspace, 65_536);
        assert_eq!(test.keyspace, 4_096);
        assert_eq!(digest(&paper, 4, 4_096), 0x5475_46fb_1500_1fb0);
        assert_eq!(digest(&test, 4, 4_096), 0x5d1f_ecea_514d_66fa);
    }

    #[test]
    fn the_key_map_reaches_about_63_percent_of_the_keys() {
        // (keyspace, keys reached, hottest 1 024 ranks mapped onto a key a
        // hotter rank already took)
        for (keyspace, reached, merged) in [(65_536, 41_416, 9), (4_096, 2_623, 112)] {
            let mut seen = HashSet::new();
            let mut hot_merged = 0;
            for rank in 0..keyspace {
                if !seen.insert(SplitMix64::new(rank).next_u64() % keyspace) && rank < 1_024 {
                    hot_merged += 1;
                }
            }
            assert_eq!((seen.len(), hot_merged), (reached, merged), "keyspace {keyspace}");
        }
    }

    #[test]
    fn rank_inverts_the_cdf() {
        cases("rank_inverts_the_cdf", 32, |g| {
            let (keyspace, theta_milli, seed) = (g.range(1u64..=70_000), g.range(0u32..=1_500), g.u64());
            // The CDF is non-decreasing and ends at exactly 1, so for every
            // draw in [0, 1) the rank is the first entry not below it and the
            // clamp to the last rank never fires.
            let table = ZipfTable::new(keyspace, f64::from(theta_milli) / 1_000.0);
            let cdf = &table.cdf;
            assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(cdf.last().copied(), Some(1.0));
            let mut rng = Xoshiro256::new(seed);
            let draws: Vec<f64> = (0..1_024).map(|_| rng.next_f64()).collect();
            let exact = cdf.iter().copied().filter(|&c| c < 1.0);
            let inputs = exact.chain(draws).chain([0.0, 1.0f64.next_down()]);
            for u in inputs.flat_map(|u| [u, u.next_down().max(0.0)]) {
                let r = table.rank(u);
                assert!(cdf[r] >= u && (r == 0 || cdf[r - 1] < u), "u = {u:e}");
            }
        });
    }

    #[test]
    fn value_cells_self_tag() {
        let v = value_bytes(0xABCD, 3, 32);
        assert_eq!(&v[0..8], &0xABCDu64.to_le_bytes());
        let c = counter_bytes(9, 41, 16);
        assert_eq!(counter_value(&c), 41);
    }
}
