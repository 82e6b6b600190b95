//! The load ladder's summary: the knee and the peak goodput.

use crate::spec::KNEE_P99_LIMIT_NS;

/// One offered rate of the ladder and what the system did with it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderPoint {
    /// Offered load, ops/s (open loop).
    pub rate: u64,
    pub attempted: u64,
    pub completed: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
    pub op_timeout_ns: u64,
    /// Completed operations per virtual second.
    pub goodput: f64,
}

impl LadderPoint {
    /// Meets the latency limit with no backlog: p99 within 2^24 ns, every
    /// operation completed, and the slowest one under the time-out.
    pub fn passes(&self) -> bool {
        self.p99_ns <= KNEE_P99_LIMIT_NS
            && self.completed == self.attempted
            && self.max_ns < self.op_timeout_ns
    }
}

/// The knee: the highest rate that passes *and below which every rate
/// passes* — a rate that passes above a failing one is not sustained
/// service, so a non-monotone curve stops at its first failure. `None`
/// when the lowest rate already fails. `points` ascend by rate.
pub fn knee(points: &[LadderPoint]) -> Option<u64> {
    points
        .iter()
        .take_while(|p| p.passes())
        .last()
        .map(|p| p.rate)
}

/// Whether the knee lies strictly inside the ladder, i.e. the ladder
/// brackets it; at the first or last rate it only bounds it.
pub fn bracketed(points: &[LadderPoint]) -> bool {
    match (knee(points), points.first(), points.last()) {
        (Some(k), Some(first), Some(last)) => k > first.rate && k < last.rate,
        _ => false,
    }
}

pub fn peak_goodput(points: &[LadderPoint]) -> f64 {
    points.iter().map(|p| p.goodput).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(p99_ms: &[(u64, u64)]) -> Vec<LadderPoint> {
        p99_ms
            .iter()
            .map(|&(rate, ms)| LadderPoint {
                rate,
                attempted: 100,
                completed: 100,
                p99_ns: ms * 1_000_000,
                max_ns: ms * 2_000_000,
                op_timeout_ns: 2_000_000_000,
                #[allow(clippy::cast_precision_loss)]
                goodput: rate as f64 * 0.98,
            })
            .collect()
    }

    #[test]
    fn monotone_curve_has_its_knee_inside() {
        let c = curve(&[(200, 4), (400, 8), (800, 16), (1000, 33), (2000, 900)]);
        assert_eq!(knee(&c), Some(800));
        assert!(bracketed(&c));
    }

    #[test]
    fn non_monotone_curve_stops_at_the_first_failure() {
        let c = curve(&[(200, 4), (400, 33), (800, 8), (1000, 8), (2000, 900)]);
        assert_eq!(knee(&c), Some(200));
        assert!(!bracketed(&c), "a knee at the first rate is not bracketed");
    }

    #[test]
    fn all_pass_and_all_fail() {
        let pass = curve(&[(200, 4), (400, 4), (800, 8)]);
        assert_eq!(knee(&pass), Some(800));
        assert!(!bracketed(&pass));
        let fail = curve(&[(200, 40), (400, 50), (800, 80)]);
        assert_eq!(knee(&fail), None);
        assert!(!bracketed(&fail));
        assert_eq!(knee(&[]), None);
    }

    #[test]
    fn the_limit_is_inclusive_and_backlog_fails() {
        let mut c = curve(&[(200, 4), (400, 4)]);
        c[0].p99_ns = KNEE_P99_LIMIT_NS;
        c[1].completed = 99;
        assert_eq!(knee(&c), Some(200));
        c[0].p99_ns += 1;
        assert_eq!(knee(&c), None);
        let mut slow = curve(&[(200, 4)]);
        slow[0].max_ns = slow[0].op_timeout_ns;
        assert_eq!(knee(&slow), None);
    }

    #[test]
    fn peak_goodput_is_the_maximum() {
        let mut c = curve(&[(200, 4), (400, 4), (800, 90)]);
        c[2].goodput = 300.0;
        assert!((peak_goodput(&c) - 392.0).abs() < 1e-9);
        assert_eq!(peak_goodput(&[]), 0.0);
    }
}
