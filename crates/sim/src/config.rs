//! Simulator configuration: network model and cost constants.

use crate::{
    fault::FaultPlan,
    schedule::SchedulePlan,
    time::{us, Ns},
    transport::AckMode,
};
#[cfg(any(test, feature = "seeded-bugs"))]
use crate::time::NodeId;

/// Configuration for a simulated cluster.
///
/// The defaults describe the paper's testbed: a 10 Mbit/s shared Ethernet
/// with mid-1990s UDP/IP software overheads on DEC OSF/1. The `osdi94`
/// constructor documents the calibration used by the benchmark harnesses.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Network bandwidth in bits per second (shared medium).
    pub bandwidth_bps: u64,
    /// Fixed one-way latency after the frame leaves the wire (controller,
    /// interrupt dispatch) in nanoseconds.
    pub wire_latency: Ns,
    /// Per-frame header bytes occupying the wire but excluded from the
    /// "network utilization" statistic (Ethernet + IP + UDP headers; the
    /// paper's utilization figure is conservative in the same way).
    pub frame_header_bytes: u32,
    /// Sender-side software cost per datagram (syscall + UDP/IP stack),
    /// charged to the `Unix` bucket.
    pub send_overhead: Ns,
    /// Receiver-side software cost per datagram, charged to `Unix`.
    pub recv_overhead: Ns,
    /// Probability in `[0, 1]` that a datagram is dropped on the wire.
    pub loss_probability: f64,
    /// Seed for the loss-injection stream.
    pub loss_seed: u64,
    /// Abort the run if virtual time exceeds this bound (protocol-bug
    /// safety valve for tests). `None` disables the check.
    pub max_virtual_time: Option<Ns>,
    /// Abort the run after this many kernel events. `None` disables.
    pub max_events: Option<u64>,
    /// Scripted fault schedule (burst loss, partitions, pauses, crashes).
    /// The default empty plan injects nothing.
    pub fault_plan: FaultPlan,
    /// How every node's transport acknowledges frames. `Implicit` (the
    /// default) sends no acknowledgements and is correct only on a
    /// loss-free wire; a run with loss or faults needs `Arq`.
    pub ack: AckMode,
    /// Maximum extra receiver-side delivery delay per frame, in
    /// nanoseconds. `0` (the default) disables jitter entirely: no random
    /// numbers are drawn and event timing is bit-identical to builds
    /// predating the knob. Nonzero values perturb cross-pair delivery
    /// ordering deterministically (per-pair FIFO is preserved), which the
    /// schedule-exploration harness uses to widen interleaving coverage.
    pub jitter_max: Ns,
    /// Seed for the delivery-jitter stream (independent of `loss_seed`).
    pub jitter_seed: u64,
    /// Targeted per-flow delivery perturbations. The empty default plan
    /// perturbs nothing and leaves event timing bit-identical to builds
    /// predating the knob. A non-empty plan adds the named extra delays to
    /// specific `(src, dst, seq)` DATA flows, preserving per-pair FIFO by
    /// the same clamp the jitter path uses. Deterministic (no RNG).
    pub schedule: SchedulePlan,
    /// Seeded wire bug for explorer-recall tests: when set, a plan-perturbed
    /// DATA frame on this `(src, dst)` pair skips the per-pair FIFO clamp,
    /// allowing its successor to overtake it — a protocol-order violation
    /// the checker's FIFO mirror reports. Only compiled under
    /// `cfg(any(test, feature = "seeded-bugs"))`; never set in production
    /// configs, and inert under the random jitter sweep (which uses no
    /// plan), so only guided exploration can expose it.
    #[cfg(any(test, feature = "seeded-bugs"))]
    pub seeded_fifo_pair: Option<(NodeId, NodeId)>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::osdi94()
    }
}

impl SimConfig {
    /// The calibration used to reproduce the paper's tables.
    ///
    /// - 10 Mbit/s Ethernet, 42-byte frame headers (14 Ethernet + 20 IP +
    ///   8 UDP), 50 µs fixed latency.
    /// - 350 µs per-datagram send cost and 400 µs receive cost. These sit in
    ///   the range measured for UDP on early-1990s workstation-class Unix
    ///   (the paper reports that OS and protocol-stack costs *dwarf* its
    ///   5–30 µs consistency costs, §5.4).
    /// - No loss: the paper's Ethernet was isolated, and its message counts
    ///   assume no retransmissions.
    #[must_use]
    pub fn osdi94() -> Self {
        Self {
            bandwidth_bps: 10_000_000,
            wire_latency: us(50),
            frame_header_bytes: 42,
            send_overhead: us(350),
            recv_overhead: us(400),
            loss_probability: 0.0,
            loss_seed: 0x0C0A_5105,
            max_virtual_time: None,
            max_events: None,
            fault_plan: FaultPlan::default(),
            ack: AckMode::Implicit,
            jitter_max: 0,
            jitter_seed: 0,
            schedule: SchedulePlan::new(),
            #[cfg(any(test, feature = "seeded-bugs"))]
            seeded_fifo_pair: None,
        }
    }

    /// A fast, loss-free network for unit tests that do not measure time.
    #[must_use]
    pub fn fast_test() -> Self {
        Self {
            bandwidth_bps: 1_000_000_000,
            wire_latency: us(1),
            frame_header_bytes: 0,
            send_overhead: us(1),
            recv_overhead: us(1),
            loss_probability: 0.0,
            loss_seed: 1,
            max_virtual_time: Some(crate::time::secs(7_200)),
            max_events: Some(200_000_000),
            fault_plan: FaultPlan::default(),
            ack: AckMode::Implicit,
            jitter_max: 0,
            jitter_seed: 0,
            schedule: SchedulePlan::new(),
            #[cfg(any(test, feature = "seeded-bugs"))]
            seeded_fifo_pair: None,
        }
    }

    /// Returns `self` with the given loss probability and seed (builder style).
    #[must_use]
    pub fn with_loss(mut self, probability: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "loss probability must be within [0, 1]"
        );
        self.loss_probability = probability;
        self.loss_seed = seed;
        self
    }

    /// Returns `self` with the given scripted fault plan (builder style).
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Returns `self` with every node's transport acknowledging in `mode`
    /// (builder style).
    #[must_use]
    pub fn with_ack(mut self, mode: AckMode) -> Self {
        self.ack = mode;
        self
    }

    /// Returns `self` with deterministic delivery jitter (builder style).
    /// Each successfully transmitted frame is delayed by an extra amount
    /// in `[0, max]` drawn from a stream seeded by `seed`; per-pair FIFO
    /// order is preserved by clamping to the pair's previous delivery time.
    #[must_use]
    pub fn with_jitter(mut self, max: Ns, seed: u64) -> Self {
        self.jitter_max = max;
        self.jitter_seed = seed;
        self
    }

    /// Returns `self` with the given targeted delivery-perturbation plan
    /// (builder style). Generalizes [`SimConfig::with_jitter`]: instead of
    /// delaying every frame by a pseudo-random amount, the plan delays only
    /// the named `(src, dst, seq)` DATA flows by chosen amounts. Composes
    /// with jitter (plan delay is added after the jitter draw).
    #[must_use]
    pub fn with_schedule(mut self, plan: SchedulePlan) -> Self {
        self.schedule = plan;
        self
    }

    /// Time a frame of `payload_bytes` occupies the shared wire.
    #[must_use]
    pub fn frame_time(&self, payload_bytes: usize) -> Ns {
        let bits = (payload_bytes as u64 + u64::from(self.frame_header_bytes)) * 8;
        // ns = bits / (bits/s) * 1e9, computed without overflow for sane sizes.
        bits * 1_000_000_000 / self.bandwidth_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_time_at_10mbit() {
        let c = SimConfig::osdi94();
        // 1208 bytes + 42 header = 1250 B = 10_000 bits = 1 ms at 10 Mbit/s.
        assert_eq!(c.frame_time(1208), 1_000_000);
        // Empty payload still pays for headers.
        assert!(c.frame_time(0) > 0);
    }

    #[test]
    fn with_loss_builder() {
        let c = SimConfig::fast_test().with_loss(0.25, 9);
        assert!((c.loss_probability - 0.25).abs() < 1e-12);
        assert_eq!(c.loss_seed, 9);
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn with_loss_rejects_bad_probability() {
        let _ = SimConfig::fast_test().with_loss(1.5, 0);
    }

    #[test]
    fn with_schedule_builder() {
        let plan = SchedulePlan::new().delay(0, 1, 3, us(25));
        let c = SimConfig::fast_test().with_schedule(plan.clone());
        assert_eq!(c.schedule, plan);
        // Defaults carry the empty plan.
        assert!(SimConfig::osdi94().schedule.is_empty());
        assert!(SimConfig::fast_test().schedule.is_empty());
    }

    #[test]
    fn with_jitter_builder() {
        let c = SimConfig::fast_test().with_jitter(us(50), 7);
        assert_eq!(c.jitter_max, us(50));
        assert_eq!(c.jitter_seed, 7);
        // Defaults keep jitter disabled.
        assert_eq!(SimConfig::osdi94().jitter_max, 0);
        assert_eq!(SimConfig::fast_test().jitter_max, 0);
    }
}
