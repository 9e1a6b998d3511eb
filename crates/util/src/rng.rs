//! Deterministic pseudo-random number generation.
//!
//! The generator is xoshiro256\*\* (Blackman & Vigna), seeded through
//! SplitMix64 so that any `u64` seed yields a well-mixed initial state. The
//! implementation is frozen in this crate: identical seeds produce identical
//! streams forever, which is what makes every survey in this workspace
//! reproducible.

/// SplitMix64 step: advances `state` and returns the next output.
///
/// Used for seeding and for cheap stream derivation; not exposed as a
/// general-purpose generator.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256\*\* pseudo-random generator.
///
/// # Examples
///
/// ```
/// use perils_util::Rng;
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The seed is expanded through SplitMix64, so seeds `0`, `1`, `2`, …
    /// produce statistically independent streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derives an independent generator for a named sub-stream.
    ///
    /// Forking lets components (topology generation, fault injection, server
    /// selection, …) consume randomness without perturbing each other's
    /// streams, so adding a draw in one component never changes another's
    /// results.
    pub fn fork(&self, stream: u64) -> Rng {
        // Mix the current state with the stream id through SplitMix64.
        let mut sm =
            self.s[0] ^ self.s[2].rotate_left(17) ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Returns the next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform integer in `[0, bound)` using Lemire's unbiased
    /// multiply-shift rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "Rng::below requires a non-zero bound");
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform `usize` in `[0, bound)`.
    pub fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Returns a uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit_f64() < p
        }
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below_usize(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_seeds_produce_identical_streams() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams for different seeds should not collide");
    }

    #[test]
    fn forked_streams_are_independent_of_parent_consumption() {
        let parent = Rng::new(99);
        let mut f1 = parent.fork(1);
        let mut f2 = parent.fork(1);
        assert_eq!(f1.next_u64(), f2.next_u64());
        let mut f3 = parent.fork(2);
        assert_ne!(f1.next_u64(), f3.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = Rng::new(3);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = Rng::new(4);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            counts[rng.below(8) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (9_000..11_000).contains(&c),
                "bucket count {c} outside tolerance"
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-zero bound")]
    fn below_zero_bound_panics() {
        Rng::new(0).below(0);
    }

    #[test]
    fn unit_f64_in_unit_interval() {
        let mut rng = Rng::new(6);
        for _ in 0..1000 {
            let v = rng.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::new(8);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn chance_probability_estimate() {
        let mut rng = Rng::new(9);
        let hits = (0..100_000).filter(|_| rng.chance(0.3)).count();
        assert!((28_000..32_000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn choose_and_shuffle() {
        let mut rng = Rng::new(10);
        let mut v: Vec<u32> = (0..100).collect();
        let original = v.clone();
        rng.shuffle(&mut v);
        assert_ne!(v, original, "a 100-element shuffle should permute");
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, original, "shuffle must preserve multiset");
    }
}
