//! Buckets as [`crate::TreeOram`] stored them before its flat records:
//! each bucket a vector of blocks that own their payloads. Test-only —
//! the reference storage `tree.rs`'s property tests check the flat
//! storage against.

use crate::types::{BlockId, Leaf};

/// A real (non-dummy) block as stored in a bucket or the stash.
///
/// Path ORAM stores the triple (address, leaf label, payload) per block so
/// the controller can evict correctly after reading a path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredBlock {
    /// Logical block address.
    pub id: BlockId,
    /// The leaf this block is currently mapped to.
    pub leaf: Leaf,
    /// Payload bytes (`block_bytes` long).
    pub payload: Vec<u8>,
}

/// One tree node. In DRAM a bucket always occupies
/// `header + Z * block_bytes` bytes — real blocks are padded with
/// indistinguishable dummies (§3) — so only the *real* blocks are stored
/// here, plus the encryption counter that models probabilistic
/// re-encryption.
#[derive(Debug, Clone, Default)]
pub struct Bucket {
    /// Real blocks currently resident (≤ Z).
    pub blocks: Vec<StoredBlock>,
    /// How many times this bucket has been (re-)encrypted and written
    /// back. Together with the bucket's node index this determines the
    /// ciphertext fingerprint an adversary observes: every write-back
    /// under probabilistic encryption yields a fresh-looking ciphertext.
    pub encryption_counter: u64,
}

impl Bucket {
    /// An empty bucket (all dummies), counter at zero — the state of every
    /// bucket before the tree is first touched.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Number of real blocks resident.
    pub fn occupancy(&self) -> usize {
        self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_bucket_has_no_blocks() {
        let b = Bucket::empty();
        assert_eq!(b.occupancy(), 0);
        assert_eq!(b.encryption_counter, 0);
    }
}
