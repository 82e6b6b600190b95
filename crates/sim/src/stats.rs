//! Per-node time accounting and counters.
//!
//! The paper's Figure 2 breaks execution time into `User` (application
//! computation), `Unix` (OSF/1 system calls and the UDP/IP stack), `CarlOS`
//! (message handling and consistency processing), and `Idle` (waiting for
//! remote operations). The simulator charges every nanosecond of each node's
//! existence to exactly one of those buckets.

use crate::time::Ns;

/// The four execution-time buckets of the paper's Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bucket {
    /// Application computation.
    User,
    /// Operating-system cost: syscalls, UDP/IP protocol stack.
    Unix,
    /// CarlOS message-passing and shared-memory (consistency) overhead.
    Carlos,
    /// Time blocked waiting for remote operations to complete.
    Idle,
}

impl Bucket {
    /// All buckets, in display order.
    pub const ALL: [Bucket; 4] = [Bucket::User, Bucket::Unix, Bucket::Carlos, Bucket::Idle];

    /// Display name matching the paper's figure legend.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Bucket::User => "User",
            Bucket::Unix => "Unix",
            Bucket::Carlos => "CarlOS",
            Bucket::Idle => "Idle",
        }
    }

    fn index(self) -> usize {
        match self {
            Bucket::User => 0,
            Bucket::Unix => 1,
            Bucket::Carlos => 2,
            Bucket::Idle => 3,
        }
    }
}

/// Accumulated time per [`Bucket`] for one node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeBuckets {
    ns: [Ns; 4],
}

impl TimeBuckets {
    /// Adds `dt` to `bucket`.
    pub fn charge(&mut self, bucket: Bucket, dt: Ns) {
        self.ns[bucket.index()] += dt;
    }

    /// Time accumulated in `bucket`.
    #[must_use]
    pub fn get(&self, bucket: Bucket) -> Ns {
        self.ns[bucket.index()]
    }

    /// Sum over all buckets.
    #[must_use]
    pub fn total(&self) -> Ns {
        self.ns.iter().sum()
    }

    /// Merges another node's buckets into this one (for cluster-wide sums).
    pub fn merge(&mut self, other: &TimeBuckets) {
        for i in 0..4 {
            self.ns[i] += other.ns[i];
        }
    }
}

/// Named event counters, used by the protocol layers for statistics the
/// paper reports (diffs created, write notices sent, messages per category).
///
/// A few dozen names, bumped several times per message: kept sorted by name
/// in one vector rather than in a tree of string comparisons.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Counters {
    entries: Vec<(&'static str, u64)>,
}

impl std::fmt::Debug for Counters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl Counters {
    /// Adds `v` to the counter `name`.
    pub fn add(&mut self, name: &'static str, v: u64) {
        // Callers pass literals, so a counter seen before nearly always
        // arrives as the same pointer: look for that before comparing text.
        if let Some(e) = self.entries.iter_mut().find(|e| std::ptr::eq(e.0, name)) {
            e.1 += v;
            return;
        }
        match self.entries.binary_search_by(|e| e.0.cmp(name)) {
            Ok(i) => self.entries[i].1 += v,
            Err(i) => self.entries.insert(i, (name, v)),
        }
    }

    /// Current value of `name` (0 if never touched).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.entries
            .binary_search_by(|e| e.0.cmp(name))
            .map_or(0, |i| self.entries[i].1)
    }

    /// Iterates `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.entries.iter().copied()
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &Counters) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }
}

/// Sent/byte tally for one wire frame class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Frames of this class handed to the wire.
    pub sent: u64,
    /// Sum of payload bytes over those frames.
    pub bytes: u64,
}

impl ClassStats {
    fn note(&mut self, bytes: usize) {
        self.sent += 1;
        self.bytes += bytes as u64;
    }

    /// Average payload size in bytes (0 when no frames).
    #[must_use]
    pub fn avg_size(&self) -> u64 {
        self.bytes.checked_div(self.sent).unwrap_or(0)
    }
}

/// Per-frame-class breakdown of everything handed to the wire, keyed by the
/// transport header's kind byte. Raw datagrams shorter than a transport
/// header (and unknown kinds) land in `other`. Every wire frame is counted
/// in exactly one class, so the class sums reconcile with
/// [`NetStats::messages`] / [`NetStats::payload_bytes`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameClasses {
    /// Transport DATA frames (application and protocol payloads).
    pub data: ClassStats,
    /// Transport cumulative ACK frames.
    pub ack: ClassStats,
    /// Transport liveness PING frames.
    pub ping: ClassStats,
    /// Transport liveness PONG frames.
    pub pong: ClassStats,
    /// Frames that carry no recognizable transport header.
    pub other: ClassStats,
}

impl FrameClasses {
    /// Classifies `payload` by its transport kind byte and tallies it.
    pub(crate) fn note(&mut self, payload: &[u8]) {
        // Mirrors the transport framing: 1 kind byte + 4-byte LE sequence.
        // Anything shorter (or with an unknown kind) is not transport
        // traffic and is classified `other`.
        let class = if payload.len() >= 5 {
            match payload[0] {
                0 => &mut self.data,
                1 => &mut self.ack,
                2 => &mut self.ping,
                3 => &mut self.pong,
                _ => &mut self.other,
            }
        } else {
            &mut self.other
        };
        class.note(payload.len());
    }

    /// Iterates `(class name, stats)` in display order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, ClassStats)> {
        [
            ("data", self.data),
            ("ack", self.ack),
            ("ping", self.ping),
            ("pong", self.pong),
            ("other", self.other),
        ]
        .into_iter()
    }
}

/// Network-level statistics for a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Datagrams handed to the wire (including ones later dropped).
    pub messages: u64,
    /// Sum of datagram payload bytes (headers excluded), as the paper counts.
    pub payload_bytes: u64,
    /// Datagrams dropped by loss injection (uniform, burst, and partition
    /// drops all count here; the fault-specific counters below attribute
    /// their shares).
    pub dropped: u64,
    /// Of `dropped`: frames lost to a scripted Gilbert–Elliott burst window.
    pub dropped_burst: u64,
    /// Of `dropped`: frames lost to a scripted link partition.
    pub dropped_partition: u64,
    /// Datagrams discarded because the destination node had fail-stopped
    /// (pending mailbox contents at the crash instant plus later arrivals).
    /// Not part of `dropped`: these frames did traverse the wire.
    pub dropped_crash: u64,
    /// Deliveries deferred because the destination was in a scripted pause.
    pub deferred_pause: u64,
    /// Datagrams actually appended to a destination mailbox (loopback
    /// excluded, matching `messages`).
    pub delivered: u64,
    /// Of `dropped_crash`: datagrams that had already been delivered to the
    /// crashed node's mailbox and were purged at the crash instant. The
    /// remainder of `dropped_crash` arrived after the crash and was never
    /// delivered.
    pub purged_crash: u64,
    /// Datagrams still queued for delivery when the run ended (sent, not
    /// dropped, not yet in any mailbox).
    pub in_flight: u64,
    /// Per-frame-class breakdown of `messages` / `payload_bytes`.
    pub classes: FrameClasses,
}

impl NetStats {
    /// Average datagram payload size in bytes (0 when no messages).
    ///
    /// Mixes every frame class: in ARQ mode the 5-byte ACK/PING/PONG
    /// control frames drag this figure well below the data-frame average.
    /// Use [`NetStats::avg_data_size`] for the paper-comparable number.
    #[must_use]
    pub fn avg_size(&self) -> u64 {
        self.payload_bytes.checked_div(self.messages).unwrap_or(0)
    }

    /// Average payload size of DATA frames only, which is what the paper's
    /// byte-count tables measure (control frames excluded).
    #[must_use]
    pub fn avg_data_size(&self) -> u64 {
        self.classes.data.avg_size()
    }

    /// Network utilization over `elapsed`, computed the paper's way:
    /// payload bits over an ideal `bandwidth_bps` wire, headers excluded.
    #[must_use]
    pub fn utilization(&self, elapsed: Ns, bandwidth_bps: u64) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        let bits = self.payload_bytes as f64 * 8.0;
        let secs = elapsed as f64 / 1e9;
        bits / secs / bandwidth_bps as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_charge_and_total() {
        let mut b = TimeBuckets::default();
        b.charge(Bucket::User, 100);
        b.charge(Bucket::User, 50);
        b.charge(Bucket::Idle, 25);
        assert_eq!(b.get(Bucket::User), 150);
        assert_eq!(b.get(Bucket::Idle), 25);
        assert_eq!(b.get(Bucket::Unix), 0);
        assert_eq!(b.total(), 175);
    }

    #[test]
    fn buckets_merge() {
        let mut a = TimeBuckets::default();
        a.charge(Bucket::Carlos, 10);
        let mut b = TimeBuckets::default();
        b.charge(Bucket::Carlos, 5);
        b.charge(Bucket::Unix, 7);
        a.merge(&b);
        assert_eq!(a.get(Bucket::Carlos), 15);
        assert_eq!(a.get(Bucket::Unix), 7);
    }

    #[test]
    fn bucket_names() {
        assert_eq!(Bucket::Carlos.name(), "CarlOS");
        assert_eq!(Bucket::ALL.len(), 4);
    }

    #[test]
    fn counters_accumulate() {
        let mut c = Counters::default();
        c.add("diffs", 3);
        c.add("diffs", 2);
        assert_eq!(c.get("diffs"), 5);
        assert_eq!(c.get("absent"), 0);
    }

    #[test]
    fn counters_key_on_the_text_not_the_pointer() {
        // The same name from two places need not be the same pointer.
        let other: &'static str = String::from("b").leak();
        let mut c = Counters::default();
        for name in ["b", "c", "a", other] {
            c.add(name, 1);
        }
        let all: Vec<_> = c.iter().collect();
        assert_eq!(all, vec![("a", 1), ("b", 2), ("c", 1)]);
        assert_eq!(format!("{c:?}"), r#"{"a": 1, "b": 2, "c": 1}"#);
    }

    #[test]
    fn counters_merge_and_iterate() {
        let mut a = Counters::default();
        a.add("x", 1);
        let mut b = Counters::default();
        b.add("x", 2);
        b.add("y", 3);
        a.merge(&b);
        let all: Vec<_> = a.iter().collect();
        assert_eq!(all, vec![("x", 3), ("y", 3)]);
    }

    #[test]
    fn frame_classes_classify_and_reconcile() {
        let mut c = FrameClasses::default();
        c.note(&[0, 0, 0, 0, 0, 9, 9, 9]); // DATA, 8 bytes
        c.note(&[1, 0, 0, 0, 0]); // ACK, 5 bytes
        c.note(&[2, 0, 0, 0, 0]); // PING
        c.note(&[3, 0, 0, 0, 0]); // PONG
        c.note(&[7, 0, 0, 0, 0]); // unknown kind -> other
        c.note(&[0, 1, 2]); // too short for a header -> other
        assert_eq!(c.data.sent, 1);
        assert_eq!(c.data.bytes, 8);
        assert_eq!(c.ack.sent, 1);
        assert_eq!(c.ping.sent, 1);
        assert_eq!(c.pong.sent, 1);
        assert_eq!(c.other.sent, 2);
        assert_eq!(c.other.bytes, 8);
        assert_eq!(c.iter().map(|(_, s)| s.sent).sum::<u64>(), 6);
        assert_eq!(c.iter().map(|(_, s)| s.bytes).sum::<u64>(), 8 + 5 + 5 + 5 + 5 + 3);
        assert_eq!(c.iter().count(), 5);
    }

    #[test]
    fn avg_data_size_excludes_control_frames() {
        let mut n = NetStats::default();
        n.classes.note(&[0, 0, 0, 0, 0, 1, 2, 3, 4, 5]); // 10-byte DATA
        n.classes.note(&[1, 0, 0, 0, 0]); // 5-byte ACK
        n.messages = 2;
        n.payload_bytes = 15;
        assert_eq!(n.avg_size(), 7); // polluted by the ACK
        assert_eq!(n.avg_data_size(), 10); // what the paper counts
        assert_eq!(ClassStats::default().avg_size(), 0);
    }

    #[test]
    fn netstats_avg_and_utilization() {
        let n = NetStats {
            messages: 4,
            payload_bytes: 1000,
            ..NetStats::default()
        };
        assert_eq!(n.avg_size(), 250);
        // 8000 bits over 1 ms at 10 Mbit/s = 80% utilization.
        let u = n.utilization(1_000_000, 10_000_000);
        assert!((u - 0.8).abs() < 1e-9);
        assert_eq!(NetStats::default().avg_size(), 0);
        assert_eq!(NetStats::default().utilization(0, 1), 0.0);
    }
}
