//! Tree-AllReduce and the double binary tree (DBT) of Appendix A.
//!
//! In the DBT algorithm two complementary balanced binary trees are built so
//! that every node is a leaf in one tree and an interior node in the other;
//! each tree carries half of the buffer, which makes the collective
//! bandwidth-optimal. Like rings, DBTs can be permuted (Figure 23) without
//! changing completion time — another instance of AllReduce mutability.

use serde::{Deserialize, Serialize};
use topoopt_graph::TrafficMatrix;

/// A pair of complementary binary trees over a node group.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DoubleBinaryTree {
    /// Participating nodes (global ids) in group order.
    pub members: Vec<usize>,
    /// Parent of each member (by group index) in the first tree; the root
    /// has `None`.
    pub parent_a: Vec<Option<usize>>,
    /// Parent of each member in the second (label-flipped) tree.
    pub parent_b: Vec<Option<usize>>,
}

/// Build the double binary tree over `members` (Appendix A): tree A is a
/// balanced binary tree over the natural order; tree B shifts every label by
/// one so leaves and interior nodes swap roles.
pub fn double_binary_tree(members: &[usize]) -> DoubleBinaryTree {
    let k = members.len();
    let parent_a = balanced_tree_parents(k, 0);
    let parent_b = balanced_tree_parents(k, 1);
    DoubleBinaryTree { members: members.to_vec(), parent_a, parent_b }
}

/// Parents of a balanced binary tree over `k` in-order labelled nodes,
/// shifted by `shift` (mod k). With in-order labelling, even indices are
/// leaves and odd indices are interior — the property the DBT construction
/// relies on.
fn balanced_tree_parents(k: usize, shift: usize) -> Vec<Option<usize>> {
    let mut parents = vec![None; k];
    if k == 0 {
        return parents;
    }
    // Build an in-order balanced BST over 0..k and record parents.
    fn build(lo: usize, hi: usize, parent: Option<usize>, parents: &mut Vec<Option<usize>>) {
        if lo >= hi {
            return;
        }
        let mid = (lo + hi) / 2;
        parents[mid] = parent;
        build(lo, mid, Some(mid), parents);
        build(mid + 1, hi, Some(mid), parents);
    }
    let mut base = vec![None; k];
    build(0, k, None, &mut base);
    // Apply the label shift: node (i + shift) mod k takes the role of i.
    for (i, role_parent) in base.iter().enumerate() {
        let node = (i + shift) % k;
        parents[node] = role_parent.map(|p| (p + shift) % k);
    }
    parents
}

impl DoubleBinaryTree {
    /// Group size.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Edges `(child, parent)` of tree A in global node ids.
    pub fn edges_a(&self) -> Vec<(usize, usize)> {
        self.tree_edges(&self.parent_a)
    }

    /// Edges `(child, parent)` of tree B in global node ids.
    pub fn edges_b(&self) -> Vec<(usize, usize)> {
        self.tree_edges(&self.parent_b)
    }

    fn tree_edges(&self, parents: &[Option<usize>]) -> Vec<(usize, usize)> {
        parents
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|p| (self.members[i], self.members[p])))
            .collect()
    }
}

/// Traffic matrix of a double-binary-tree AllReduce of `total_bytes` over
/// the group. Each tree carries half the buffer; a reduce flows up each tree
/// (child → parent) and a broadcast flows back down (parent → child), so
/// every tree edge carries `total_bytes / 2` in each direction.
pub fn tree_allreduce_traffic(n: usize, total_bytes: f64, dbt: &DoubleBinaryTree) -> TrafficMatrix {
    let mut tm = TrafficMatrix::new(n);
    let half = total_bytes / 2.0;
    for (child, parent) in dbt.edges_a().into_iter().chain(dbt.edges_b()) {
        tm.add(child, parent, half);
        tm.add(parent, child, half);
    }
    tm
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Verify both trees are connected trees (k-1 edges each, single root).
    fn validate(dbt: &DoubleBinaryTree) -> Result<(), String> {
        for (name, parents) in [("A", &dbt.parent_a), ("B", &dbt.parent_b)] {
            let roots = parents.iter().filter(|p| p.is_none()).count();
            if !dbt.is_empty() && roots != 1 {
                return Err(format!("tree {name} has {roots} roots"));
            }
            // Walking up from every node must terminate at the root.
            for start in 0..dbt.len() {
                let mut cur = start;
                let mut steps = 0;
                while let Some(p) = parents[cur] {
                    cur = p;
                    steps += 1;
                    if steps > dbt.len() {
                        return Err(format!("tree {name} has a cycle through node {start}"));
                    }
                }
            }
        }
        Ok(())
    }

    #[test]
    fn dbt_over_16_nodes_is_two_valid_trees() {
        let members: Vec<usize> = (0..16).collect();
        let dbt = double_binary_tree(&members);
        validate(&dbt).unwrap();
        assert_eq!(dbt.edges_a().len(), 15);
        assert_eq!(dbt.edges_b().len(), 15);
    }

    #[test]
    fn trees_are_complementary_shifted() {
        let members: Vec<usize> = (0..8).collect();
        let dbt = double_binary_tree(&members);
        // The two trees must not be identical.
        assert_ne!(dbt.parent_a, dbt.parent_b);
    }

    #[test]
    fn traffic_volume_is_two_m_per_tree_edge_pair() {
        let members: Vec<usize> = (0..8).collect();
        let dbt = double_binary_tree(&members);
        let tm = tree_allreduce_traffic(8, 1.0e9, &dbt);
        // 2 trees * 7 edges * 2 directions * M/2 = 14 * M.
        assert!((tm.total() - 14.0e9).abs() < 1.0);
    }

    #[test]
    fn subgroup_dbt_touches_only_members() {
        let members = vec![1, 4, 6, 9, 12];
        let dbt = double_binary_tree(&members);
        validate(&dbt).unwrap();
        let tm = tree_allreduce_traffic(16, 1.0e6, &dbt);
        for (s, d, _) in tm.entries_desc() {
            assert!(members.contains(&s) && members.contains(&d));
        }
    }

    #[test]
    fn single_node_tree_has_no_traffic() {
        let dbt = double_binary_tree(&[3]);
        validate(&dbt).unwrap();
        let tm = tree_allreduce_traffic(4, 5.0e6, &dbt);
        assert_eq!(tm.total(), 0.0);
    }

    #[test]
    fn empty_tree_is_valid() {
        let dbt = double_binary_tree(&[]);
        assert!(dbt.is_empty());
        validate(&dbt).unwrap();
    }
}
