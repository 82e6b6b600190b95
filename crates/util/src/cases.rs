//! A seeded case runner for property tests.
//!
//! [`cases`] runs a property's body on `n` generated inputs. Each case
//! draws from its own [`Gen`], seeded from a [`SplitMix64`] stream keyed by
//! the property's name, so the inputs are the same on every run and every
//! host. A failing case panics again with the property's name, the case
//! index and the case seed, and [`replay`] reruns exactly that case from
//! the seed. There is no shrinking.
//!
//! ```
//! use carlos_util::cases::{cases, replay, Gen};
//!
//! cases("addition_commutes", 64, |g| {
//!     let (a, b) = (g.u32(), g.u32());
//!     assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
//! });
//! // A seed a failure reported, pinned as a regression test.
//! replay(0x1234, |g| {
//!     let v = g.vec(1..=4, Gen::u8);
//!     assert!((1..=4).contains(&v.len()));
//! });
//! ```

use std::ops::{Bound, RangeBounds};
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::rng::{SplitMix64, Xoshiro256};

/// The inputs of one case: uniform draws from a [`Xoshiro256`].
#[derive(Debug)]
pub struct Gen {
    rng: Xoshiro256,
}

impl Gen {
    /// The generator of the case with seed `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { rng: Xoshiro256::new(seed) }
    }

    /// Any `u64`.
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Any `u32`.
    pub fn u32(&mut self) -> u32 {
        (self.rng.next_u64() >> 32) as u32
    }

    /// Any `u8`.
    pub fn u8(&mut self) -> u8 {
        (self.rng.next_u64() >> 56) as u8
    }

    /// Either `bool`.
    pub fn bool(&mut self) -> bool {
        self.rng.next_u64() >> 63 == 1
    }

    /// A uniform index in `[0, bound)`: the arm of a `bound`-way choice.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is 0.
    pub fn below(&mut self, bound: usize) -> usize {
        self.rng.next_below(bound as u64) as usize
    }

    /// A uniform value in the unsigned integer range `r`, half-open
    /// (`lo..hi`) or inclusive (`lo..=hi`).
    ///
    /// # Panics
    ///
    /// Panics if `r` is empty or unbounded above.
    pub fn range<T>(&mut self, r: impl RangeBounds<T>) -> T
    where
        T: Copy + TryInto<u64> + TryFrom<u64>,
    {
        let wide = |x: &T| (*x).try_into().unwrap_or_else(|_| panic!("negative range bound"));
        let lo = match r.start_bound() {
            Bound::Included(x) => wide(x),
            Bound::Excluded(x) => wide(x) + 1,
            Bound::Unbounded => 0,
        };
        let hi = match r.end_bound() {
            Bound::Included(x) => Some(wide(x)),
            Bound::Excluded(x) => wide(x).checked_sub(1),
            Bound::Unbounded => panic!("range unbounded above"),
        };
        let span = hi.filter(|&hi| lo <= hi).expect("empty range") - lo;
        let v = match span.checked_add(1) {
            Some(n) => lo + self.rng.next_below(n),
            None => self.u64(),
        };
        T::try_from(v).unwrap_or_else(|_| unreachable!("a draw inside the range fits its type"))
    }

    /// `len` bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.u8()).collect()
    }

    /// A vector whose length is drawn from `len`, each element from `item`.
    pub fn vec<T>(&mut self, len: impl RangeBounds<usize>, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let n = self.range(len);
        (0..n).map(|_| item(self)).collect()
    }
}

/// Runs `body` on `n` cases of the property `name`. Case `i`'s seed is the
/// `i`-th draw of a [`SplitMix64`] keyed by `name` (FNV-1a of its bytes).
///
/// # Panics
///
/// Panics at the first failing case, with a message naming the property,
/// the case index and the seed to [`replay`] it from, followed by the
/// case's own panic message.
pub fn cases(name: &str, n: u32, mut body: impl FnMut(&mut Gen)) {
    let key = name.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3));
    let mut seeds = SplitMix64::new(key);
    for case in 0..n {
        let seed = seeds.next_u64();
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| body(&mut Gen::new(seed)))) {
            let msg = match (panic.downcast_ref::<String>(), panic.downcast_ref::<&str>()) {
                (Some(s), _) => s.as_str(),
                (None, Some(s)) => s,
                (None, None) => "(no message)",
            };
            panic!("property `{name}` failed at case {case}, replay seed {seed:#018x}: {msg}");
        }
    }
}

/// Reruns the one case with seed `seed`, as a failing [`cases`] run
/// reported it.
pub fn replay(seed: u64, body: impl FnOnce(&mut Gen)) {
    body(&mut Gen::new(seed));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_draws(name: &str) -> Vec<u64> {
        let mut draws = Vec::new();
        cases(name, 8, |g| draws.push(g.u64()));
        draws
    }

    #[test]
    fn same_name_same_draws_other_name_other_draws() {
        assert_eq!(first_draws("alpha").len(), 8, "one body call per case");
        assert_eq!(first_draws("alpha"), first_draws("alpha"));
        assert_ne!(first_draws("alpha"), first_draws("beta"));
    }

    #[test]
    fn ranges_and_vec_lengths_stay_in_bounds() {
        let (mut top, mut full_len) = (false, false);
        cases("bounds", 256, |g| {
            assert!(g.range(0usize..10) < 10);
            assert_eq!(g.range(5u32..6), 5);
            let x = g.range(3u8..=7);
            assert!((3..=7).contains(&x));
            top |= x == 7;
            assert_eq!(g.range(u64::MAX..=u64::MAX), u64::MAX);
            let _any = g.range(0u64..=u64::MAX);
            let v = g.vec(3..7, Gen::u8);
            assert!((3..7).contains(&v.len()));
            let w = g.vec(0..=2, |g| g.range(1u32..=1));
            assert!(w.len() <= 2 && w.iter().all(|&x| x == 1));
            full_len |= w.len() == 2;
            assert_eq!(g.bytes(5).len(), 5);
        });
        assert!(top && full_len, "inclusive upper bounds are drawn");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn an_empty_range_panics() {
        Gen::new(1).range(4u32..4);
    }

    #[test]
    fn every_arm_of_a_choice_is_reached() {
        let mut seen = [false; 3];
        cases("arms", 64, |g| seen[g.below(3)] = true);
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    #[should_panic(expected = "property `fails_at_3` failed at case 3, replay seed 0x")]
    fn a_failing_case_names_property_case_and_seed() {
        let mut case = 0;
        cases("fails_at_3", 8, |_| {
            assert!(case < 3, "case {case}");
            case += 1;
        });
    }

    #[test]
    fn replay_reproduces_the_failing_case() {
        let mut last = Vec::new();
        let failure = catch_unwind(AssertUnwindSafe(|| {
            cases("fails_on_a_long_vec", 64, |g| {
                last = g.vec(0..10, |g| (g.u32(), g.bool()));
                assert!(last.len() < 8);
            });
        }))
        .expect_err("some case draws a long vector");
        let msg = failure.downcast_ref::<String>().expect("formatted message");
        let hex = msg.split("replay seed 0x").nth(1).and_then(|s| s.get(..16)).expect("seed");
        let seed = u64::from_str_radix(hex, 16).expect("hex seed");
        replay(seed, |g| assert_eq!(g.vec(0..10, |g| (g.u32(), g.bool())), last));
    }
}
