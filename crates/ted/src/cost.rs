//! Edit operation cost model.
//!
//! The paper (and all of its baselines) uses the standard unit-cost model:
//! insertion, deletion and relabeling each cost 1, and renaming a node to
//! its own label costs 0. The model is kept configurable so the library can
//! be used with weighted costs, but every bound shipped in this workspace
//! (traversal-string, binary-branch, histogram) is only valid for unit
//! costs and asserts as much where it matters.

use tsj_tree::Label;

/// Costs of the three node edit operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Cost of inserting a node.
    pub insert: u32,
    /// Cost of deleting a node.
    pub delete: u32,
    /// Cost of changing a node's label to a *different* label.
    pub relabel: u32,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::UNIT
    }
}

impl CostModel {
    /// The unit-cost model used throughout the paper.
    pub const UNIT: CostModel = CostModel {
        insert: 1,
        delete: 1,
        relabel: 1,
    };

    /// Cost of renaming a node labeled `a` into one labeled `b`.
    #[inline]
    pub fn rename(&self, a: Label, b: Label) -> u32 {
        if a == b {
            0
        } else {
            self.relabel
        }
    }

    /// The most nodes an edit mapping of cost at most `k` can leave
    /// unmapped: each one is an insertion or a deletion. What the size
    /// lower bound and the τ-bounded kernel's band both come from;
    /// unbounded when inserting or deleting is free.
    #[inline]
    pub fn max_unmapped(&self, k: u32) -> usize {
        match self.insert.min(self.delete) {
            0 => usize::MAX,
            cheapest => (k / cheapest) as usize,
        }
    }

    /// Whether this is the unit-cost model (required by the filter bounds).
    pub fn is_unit(&self) -> bool {
        *self == CostModel::UNIT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_model_is_default() {
        assert_eq!(CostModel::default(), CostModel::UNIT);
        assert!(CostModel::UNIT.is_unit());
    }

    #[test]
    fn rename_is_zero_for_equal_labels() {
        let costs = CostModel::UNIT;
        let a = Label::from_raw(1);
        let b = Label::from_raw(2);
        assert_eq!(costs.rename(a, a), 0);
        assert_eq!(costs.rename(a, b), 1);
    }

    #[test]
    fn weighted_model_detected() {
        let weighted = CostModel {
            insert: 2,
            delete: 2,
            relabel: 3,
        };
        assert!(!weighted.is_unit());
        assert_eq!(weighted.rename(Label::from_raw(1), Label::from_raw(2)), 3);
    }

    #[test]
    fn unmapped_nodes_are_paid_at_the_cheaper_of_insert_and_delete() {
        assert_eq!(CostModel::UNIT.max_unmapped(6), 6);
        let weighted = CostModel {
            insert: 3,
            delete: 2,
            relabel: 1,
        };
        assert_eq!(weighted.max_unmapped(7), 3);
        let free_delete = CostModel {
            delete: 0,
            ..weighted
        };
        assert_eq!(free_delete.max_unmapped(0), usize::MAX);
    }
}
