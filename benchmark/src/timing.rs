//! Host-time measurement: order statistics, the calibration loop and the
//! bracketed repetitions.

use std::hint::black_box;

use crate::{adapter, spans::Spans};

/// Steps of the fixed calibration loop (about 12 ms on this host).
pub const CALIB_STEPS: u64 = 10_000_000;
/// Two bracketing calibrations further apart than this discard the
/// repetition between them.
const CALIB_TOLERANCE: f64 = 0.10;
/// At most this many repetitions of one measurement are discarded and
/// redone. The 12 ms calibration pass itself scatters by about 10 % on this
/// host, so an uncapped rule redoes every second repetition (measured:
/// 5 of 10 `kv-read-32` runs, 12 s) without making the median steadier.
const MAX_REDOS: usize = 3;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the driver's spread
/// check uses that function); a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        #[allow(clippy::cast_precision_loss)]
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median, quartiles and count of a host metric's repetitions.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostStat {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl HostStat {
    pub fn of(values: &[f64]) -> Self {
        let (q1, q3) = quartiles(values);
        Self {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    /// Inter-quartile range as a share of the median.
    pub fn iqr_frac(&self) -> f64 {
        if self.median > 0.0 {
            (self.q3 - self.q1) / self.median
        } else {
            0.0
        }
    }
}

/// Most repetitions of one measurement: enough for the shortest workload
/// (`kv-chaos-8`, 0.15 s) to fill the default 8 s, so that its median
/// spans as much of the machine's slow and fast phases as the others'.
const MAX_REPS: usize = 63;

/// Timed repetitions for a budget of `budget_s` seconds, from the
/// warm-up run's duration: `max(5, min(63, ceil(budget / warm)))`.
pub fn rep_count(warm_s: f64, budget_s: f64) -> usize {
    if warm_s <= 0.0 {
        return MAX_REPS;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let fit = (budget_s / warm_s).ceil().clamp(0.0, MAX_REPS as f64) as usize;
    fit.clamp(5, MAX_REPS)
}

/// One pass of the calibration loop, in milliseconds.
pub fn calibrate(spans: &mut Spans, steps: u64) -> f64 {
    let (_, secs) = spans.scope("calibrate", |_| {
        black_box(adapter::rng_steps(black_box(steps)))
    });
    secs * 1e3
}

/// The accepted repetitions of one measurement.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    pub secs: Vec<f64>,
    pub calib_ms: Vec<f64>,
    pub discarded: usize,
}

/// Runs `rep` `reps` times, each bracketed by two calibration passes; a
/// repetition whose two passes differ by more than 10 % ran while the CPU
/// changed speed or was shared, so it is discarded and redone (at most
/// three times per measurement). `rep` returns the seconds it measured
/// (normally its own span).
pub fn repeat(
    spans: &mut Spans,
    reps: usize,
    calib_steps: u64,
    rep: impl FnMut(&mut Spans, usize) -> f64,
) -> Timed {
    bracket(spans, reps, |spans| calibrate(spans, calib_steps), rep)
}

/// The discard rule of [`repeat`], over any calibration (`ctx` is what
/// both closures work on: the span recorder).
fn bracket<C>(
    ctx: &mut C,
    reps: usize,
    mut calibrate: impl FnMut(&mut C) -> f64,
    mut rep: impl FnMut(&mut C, usize) -> f64,
) -> Timed {
    let mut out = Timed::default();
    let mut before = calibrate(ctx);
    out.calib_ms.push(before);
    let mut i = 0;
    while i < reps {
        let secs = rep(ctx, i);
        let after = calibrate(ctx);
        out.calib_ms.push(after);
        let steady = (after - before).abs() <= CALIB_TOLERANCE * after.min(before);
        before = after;
        if steady || out.discarded == MAX_REDOS {
            out.secs.push(secs);
            i += 1;
        } else {
            out.discarded += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        let s = HostStat::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.median, s.n), (3.0, 5));
        assert!((s.iqr_frac() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unsteady_brackets_are_redone_at_most_three_times() {
        // Calibrations in ms, consumed in order; repetition k takes k s.
        let script = |calib: &[f64], reps| {
            let mut calib = calib.iter().copied();
            let mut k = 0.0;
            bracket(
                &mut (),
                reps,
                |()| calib.next().expect("enough calibrations"),
                |(), _| {
                    k += 1.0;
                    k
                },
            )
        };
        // Steady: nothing discarded, one calibration more than repetitions.
        let t = script(&[12.0, 12.1, 11.9, 12.5], 3);
        assert_eq!((t.secs.clone(), t.discarded), (vec![1.0, 2.0, 3.0], 0));
        assert_eq!(t.calib_ms.len(), 4);
        // The 2nd run sits between 12.0 and 14.0 (16 % apart): redone; the
        // redo is judged against the new "before" (14.0 vs 13.9: steady).
        let t = script(&[12.0, 12.0, 14.0, 13.9, 13.8], 3);
        assert_eq!((t.secs.clone(), t.discarded), (vec![1.0, 3.0, 4.0], 1));
        // Calibrations that never settle: three redos, then everything counts.
        let t = script(&[10.0, 12.0, 10.0, 12.0, 10.0, 12.0], 2);
        assert_eq!((t.secs.clone(), t.discarded), (vec![4.0, 5.0], 3));
    }

    #[test]
    fn rep_count_follows_the_rule() {
        assert_eq!(rep_count(0.4, 8.0), 20);
        assert_eq!(rep_count(2.6, 8.0), 5);
        assert_eq!(rep_count(0.14, 8.0), 58);
        assert_eq!(rep_count(0.05, 8.0), 63);
        assert_eq!(rep_count(1.3, 8.0), 7);
        assert_eq!(rep_count(0.0, 8.0), 63);
    }
}
