//! A tiny deterministic pseudo-random generator used internally by the
//! crypto primitives (nonce generation, toy key generation).
//!
//! SplitMix64 is used because it is stateless-friendly, passes basic
//! statistical tests, and is trivially reproducible across platforms —
//! determinism is a hard requirement for the simulator (whole experiment
//! runs must be replayable bit-for-bit).

/// SplitMix64 pseudo-random number generator.
///
/// # Example
///
/// ```
/// use otc_crypto::SplitMix64;
///
/// let mut a = SplitMix64::new(1);
/// let mut b = SplitMix64::new(1);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit pseudo-random value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns the next pseudo-random value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift reduction; bias is negligible for simulation use.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Fills `buf` with pseudo-random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SplitMix64::new(0xDEAD_BEEF);
        let mut b = SplitMix64::new(0xDEAD_BEEF);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_below_is_in_range() {
        let mut g = SplitMix64::new(99);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..50 {
                assert!(g.next_below(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        SplitMix64::new(0).next_below(0);
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut g = SplitMix64::new(5);
        let mut buf = [0u8; 13];
        g.fill_bytes(&mut buf);
        // Extremely unlikely to be all zero if filled.
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn reasonable_bit_dispersion() {
        // Not a statistical test suite, just a sanity check that the
        // generator is not obviously broken (e.g. constant high bits).
        let mut g = SplitMix64::new(42);
        let mut ones = 0u32;
        const N: usize = 1000;
        for _ in 0..N {
            ones += g.next_u64().count_ones();
        }
        let expected = (N as u32) * 32;
        let tol = (N as u32) * 2; // generous
        assert!(ones > expected - tol && ones < expected + tol);
    }
}
