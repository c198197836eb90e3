//! Fundamental identifier types shared across the ORAM crate.

/// Identifies a logical block (one 64 B cache line in the data ORAM, or
/// one 32 B position-map block in a recursive ORAM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u64);

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blk{}", self.0)
    }
}

/// A leaf label in one ORAM tree. Path ORAM's invariant (§3): if a block
/// is mapped to leaf `l`, it lives somewhere on the path from the root to
/// `l` (or in the stash).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Leaf(pub u64);

impl std::fmt::Display for Leaf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "leaf{}", self.0)
    }
}

/// Index of a bucket (tree node) in heap order: root is 0, children of
/// node `i` are `2i + 1` and `2i + 2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeIndex(pub u64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(BlockId(3).to_string(), "blk3");
        assert_eq!(Leaf(7).to_string(), "leaf7");
    }

    #[test]
    fn ids_are_hashable_and_ordered() {
        use std::collections::HashSet;
        let s: HashSet<BlockId> = [BlockId(1), BlockId(2), BlockId(1)].into_iter().collect();
        assert_eq!(s.len(), 2);
        assert!(Leaf(1) < Leaf(2));
    }
}
