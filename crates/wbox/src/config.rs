//! W-BOX configuration: the branching parameter `a`, leaf parameter `k`,
//! and maximum fan-out `b` of §4.

use boxes_pager::codec::{usize_to_u32, usize_to_u64};

/// A tree level as a `pow` exponent. Heights are logarithmic in N, so the
/// saturating fallback is unreachable; saturation would overflow the
/// checked weight math rather than silently wrap.
fn level_exp(level: usize) -> u32 {
    usize_to_u32(level).unwrap_or(u32::MAX)
}

/// Structural parameters of a W-BOX.
#[derive(Clone, Copy, Debug)]
pub struct WBoxConfig {
    /// Branching parameter: level-i weight bounds are (aⁱk − 2aⁱ⁻¹k, 2aⁱk).
    pub a: usize,
    /// Leaf parameter: a leaf holds at most 2k − 1 records.
    pub k: usize,
    /// Maximum fan-out; subranges per node. The paper picks a = b/2 − 2,
    /// i.e. b = 2a + 4.
    pub b: usize,
    /// Maintain per-entry size fields (live counts) for ordinal labeling.
    pub ordinal: bool,
    /// W-BOX-O: leaf records carry partner pointers and cached end labels
    /// so start/end pairs are retrieved together (§4, "further
    /// optimization for start/end pairs").
    pub pair: bool,
}

impl WBoxConfig {
    /// Derive parameters from the block size using the on-disk layouts in
    /// `node.rs`, following the paper: `b` is the largest internal fan-out
    /// that fits, `a = b/2 − 2`, and `2k − 1` is the largest number of leaf
    /// records that fit.
    pub fn from_block_size(block_size: usize) -> Self {
        Self::derive(block_size, false)
    }

    /// Like [`WBoxConfig::from_block_size`] but sized for the W-BOX-O leaf
    /// record format (pair mode enabled).
    pub fn from_block_size_paired(block_size: usize) -> Self {
        Self::derive(block_size, true)
    }

    fn derive(block_size: usize, pair: bool) -> Self {
        let b = (block_size - crate::node::INTERNAL_HEADER) / crate::node::INTERNAL_ENTRY;
        let a = b / 2 - 2;
        let entry = if pair {
            crate::node::LEAF_ENTRY_PAIR
        } else {
            crate::node::LEAF_ENTRY_PLAIN
        };
        let leaf_cap = (block_size - crate::node::LEAF_HEADER) / entry;
        let k = leaf_cap.div_ceil(2);
        let cfg = Self {
            a,
            k,
            b,
            ordinal: false,
            pair,
        };
        cfg.validate();
        cfg
    }

    /// Small parameters (a = 7, b = 20, k = 4) that exercise splits heavily
    /// in unit tests; needs blocks of ≥ 512 bytes.
    pub fn small_for_tests() -> Self {
        Self {
            a: 7,
            k: 4,
            b: 20,
            ordinal: false,
            pair: false,
        }
    }

    /// Enable ordinal labeling support.
    pub fn with_ordinal(mut self) -> Self {
        self.ordinal = true;
        self
    }

    /// Enable the W-BOX-O start/end pair optimization.
    pub fn with_pair_optimization(mut self) -> Self {
        self.pair = true;
        self
    }

    /// Maximum records in a leaf (2k − 1).
    pub fn leaf_capacity(&self) -> usize {
        2 * self.k - 1
    }

    /// Upper weight bound (exclusive) for a node at `level` (leaves are
    /// level 0): 2·aⁱ·k.
    pub fn max_weight(&self, level: usize) -> u64 {
        2 * usize_to_u64(self.a).pow(level_exp(level)) * usize_to_u64(self.k)
    }

    /// Lower weight bound (exclusive) for a non-root node at `level`:
    /// aⁱ·k − 2aⁱ⁻¹·k, i.e. aⁱ⁻¹·k·(a − 2).
    pub fn min_weight(&self, level: usize) -> u64 {
        let k = usize_to_u64(self.k);
        let a = usize_to_u64(self.a);
        if level == 0 {
            // a⁰k − 2a⁻¹k = k·(a − 2)/a, floored (the bound is exclusive,
            // so flooring keeps integer comparisons exact).
            k * (a - 2) / a
        } else {
            a.pow(level_exp(level) - 1) * k * (a - 2)
        }
    }

    /// Length of the label range owned by a node at `level`:
    /// (2k − 1)·bⁱ.
    pub fn range_len(&self, level: usize) -> u64 {
        #[expect(
            clippy::expect_used,
            reason = "config validation panics on construction with impossible a/b/k — fail-fast at setup, never during maintenance"
        )]
        usize_to_u64(self.b)
            .checked_pow(level_exp(level))
            .and_then(|p| p.checked_mul(2 * usize_to_u64(self.k) - 1))
            .expect("label space exhausted: tree too tall for 64-bit labels")
    }

    /// Check the parameter relationships §4 requires.
    pub fn validate(&self) {
        assert!(
            self.a >= 6,
            "branching parameter a must be ≥ 6 (paper: a > 6 for split safety)"
        );
        assert!(self.k >= 2, "leaf parameter k must be ≥ 2");
        // Lemma 4.1: maximum fan-out must fit in b.
        let max_fanout = 2 * self.a + 3 + (8usize).div_ceil(self.a - 2);
        assert!(
            max_fanout <= self.b,
            "b = {} too small for a = {} (needs ≥ {max_fanout})",
            self.b,
            self.a
        );
        // Overflow of the label space is guarded at range computation
        // time (`range_len` panics on exhaustion).
    }

    /// Bytes needed for an internal node of this fan-out.
    pub fn internal_node_bytes(&self) -> usize {
        crate::node::INTERNAL_HEADER + self.b * crate::node::INTERNAL_ENTRY
    }

    /// Bytes needed for a leaf of this capacity.
    pub fn leaf_node_bytes(&self) -> usize {
        let entry = if self.pair {
            crate::node::LEAF_ENTRY_PAIR
        } else {
            crate::node::LEAF_ENTRY_PLAIN
        };
        crate::node::LEAF_HEADER + self.leaf_capacity() * entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derives_paper_parameters_from_block_size() {
        let c = WBoxConfig::from_block_size(8192);
        assert_eq!(
            c.b,
            (8192 - crate::node::INTERNAL_HEADER) / crate::node::INTERNAL_ENTRY
        );
        assert_eq!(c.a, c.b / 2 - 2);
        assert!(c.leaf_capacity() % 2 == 1, "2k−1 is odd");
        c.validate();
    }

    #[test]
    fn weight_bounds_follow_formulas() {
        let c = WBoxConfig::small_for_tests(); // a=7, k=4
        assert_eq!(c.max_weight(0), 8);
        assert_eq!(c.max_weight(1), 56);
        assert_eq!(c.max_weight(2), 392);
        assert_eq!(c.min_weight(1), 4 * (7 - 2)); // a⁰·k·(a−2) = 20
        assert_eq!(c.min_weight(2), 7 * 4 * 5);
        assert_eq!(c.min_weight(0), 2); // ⌊4·5/7⌋ = 2, i.e. weight ≥ 3
    }

    #[test]
    fn range_lengths_scale_by_b() {
        let c = WBoxConfig::small_for_tests();
        assert_eq!(c.range_len(0), 7);
        assert_eq!(c.range_len(1), 7 * 20);
        assert_eq!(c.range_len(2), 7 * 20 * 20);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn inconsistent_a_b_rejected() {
        WBoxConfig {
            a: 10,
            k: 4,
            b: 20, // needs 2·10+3+1 = 24
            ordinal: false,
            pair: false,
        }
        .validate();
    }

    #[test]
    fn node_byte_requirements_fit_paper_blocks() {
        let c = WBoxConfig::from_block_size(8192);
        assert!(c.internal_node_bytes() <= 8192);
        assert!(c.leaf_node_bytes() <= 8192);
    }
}
