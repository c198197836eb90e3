//! Keyed pseudo-random function.
//!
//! The ORAM controller uses a PRF in two places in this reproduction:
//!
//! 1. Default leaf assignment: a block that has never been accessed is
//!    mapped to leaf `PRF(key, addr) mod leaf_count`. This makes the
//!    position map *lazily materializable* — the simulator only stores
//!    entries for blocks that have been remapped — while remaining
//!    indistinguishable (to the simulated adversary) from the uniformly
//!    random initial assignment the paper assumes.
//! 2. Keystream generation inside [`crate::ProbCipher`].

use crate::keys::SymmetricKey;

/// A keyed pseudo-random function over 64-bit inputs.
///
/// # Example
///
/// ```
/// use otc_crypto::{Prf, SymmetricKey};
///
/// let prf = Prf::new(SymmetricKey::from_seed(5), b"leaf-assignment");
/// let a = prf.eval(1234);
/// assert_eq!(a, prf.eval(1234));   // deterministic
/// assert_ne!(a, prf.eval(1235));   // input-dependent
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Prf {
    k0: u64,
    k1: u64,
}

impl Prf {
    /// Creates a PRF from a key and a domain-separation label.
    ///
    /// Distinct labels yield independent-looking functions under the same
    /// key, which mirrors how a real design would derive sub-keys.
    pub fn new(key: SymmetricKey, label: &[u8]) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a basis
        for &b in label {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut seed = crate::rng::SplitMix64::new(key.material() ^ h);
        Self {
            k0: seed.next_u64(),
            k1: seed.next_u64(),
        }
    }

    /// Evaluates the PRF on `input`.
    #[inline]
    pub fn eval(&self, input: u64) -> u64 {
        // Two rounds of a mix similar to SplitMix's finalizer, keyed.
        let mut z = input ^ self.k0;
        z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        z ^= self.k1;
        z = (z ^ (z >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        z ^ (z >> 33)
    }

    /// Evaluates the PRF on a pair of inputs (e.g. nonce ‖ counter).
    pub fn eval2(&self, a: u64, b: u64) -> u64 {
        self.eval(self.eval(a).wrapping_add(b).rotate_left(32))
    }

    /// Evaluates the PRF and reduces the result to `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn eval_below(&self, input: u64, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        ((self.eval(input) as u128 * bound as u128) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn label_separation() {
        let key = SymmetricKey::from_seed(1);
        let p1 = Prf::new(key, b"a");
        let p2 = Prf::new(key, b"b");
        assert_ne!(p1.eval(0), p2.eval(0));
    }

    #[test]
    fn key_separation() {
        let p1 = Prf::new(SymmetricKey::from_seed(1), b"x");
        let p2 = Prf::new(SymmetricKey::from_seed(2), b"x");
        assert_ne!(p1.eval(0), p2.eval(0));
    }

    #[test]
    fn low_collision_rate_on_sequential_inputs() {
        let p = Prf::new(SymmetricKey::from_seed(7), b"leaf");
        let outs: HashSet<u64> = (0..10_000u64).map(|i| p.eval(i)).collect();
        assert_eq!(outs.len(), 10_000, "collisions on only 10k inputs");
    }

    #[test]
    fn eval_below_distributes_roughly_uniformly() {
        let p = Prf::new(SymmetricKey::from_seed(3), b"u");
        const BUCKETS: usize = 16;
        let mut counts = [0usize; BUCKETS];
        const N: u64 = 16_000;
        for i in 0..N {
            counts[p.eval_below(i, BUCKETS as u64) as usize] += 1;
        }
        let expect = N as usize / BUCKETS;
        for &c in &counts {
            assert!(
                c > expect / 2 && c < expect * 2,
                "bucket count {c} far from {expect}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_eval_below_in_range(seed in any::<u64>(), x in any::<u64>(),
                                    bound in 1u64..=u64::MAX) {
            let p = Prf::new(SymmetricKey::from_seed(seed), b"t");
            prop_assert!(p.eval_below(x, bound) < bound);
        }

        #[test]
        fn prop_eval2_depends_on_both(seed in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
            let p = Prf::new(SymmetricKey::from_seed(seed), b"t");
            prop_assert_ne!(p.eval2(a, b), p.eval2(a, b.wrapping_add(1)));
            prop_assert_ne!(p.eval2(a, b), p.eval2(a.wrapping_add(1), b));
        }
    }
}
