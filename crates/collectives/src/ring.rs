//! Ring-AllReduce traffic models and +p regular ring permutations.
//!
//! A ring-AllReduce over `n` nodes of an `M`-byte buffer proceeds in
//! `2(n-1)` steps; each node sends `M/n` bytes to its ring successor per
//! step, for a total of `2M(n-1)/n` bytes sent per node — all of it to the
//! single successor. The +p permutations of Figure 7 change *which* node is
//! the successor without changing the volume or the completion time, which
//! is exactly the mutability property TopoOpt exploits.

use serde::{Deserialize, Serialize};
use topoopt_graph::TrafficMatrix;

/// A regular ring permutation "+p" over a group of nodes: member `i` sends
/// to member `(i + p) mod k` of the group.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RingPermutation {
    /// The participating nodes (global server ids), in group order.
    pub members: Vec<usize>,
    /// The stride `p` (must be co-prime with `members.len()` to form a
    /// single ring).
    pub stride: usize,
}

impl RingPermutation {
    /// Create a +p permutation over `members`.
    pub fn new(members: Vec<usize>, stride: usize) -> Self {
        RingPermutation { members, stride }
    }

    /// Group size.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the group is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// True if `stride` is co-prime with the group size, i.e. the permutation
    /// forms a single Hamiltonian ring over the group.
    pub fn is_single_ring(&self) -> bool {
        !self.is_empty() && gcd(self.stride % self.len().max(1), self.len()) == 1
    }

    /// The successor of global node `node` under this permutation, or `None`
    /// if the node is not a member.
    pub fn successor(&self, node: usize) -> Option<usize> {
        let k = self.len();
        let idx = self.members.iter().position(|&m| m == node)?;
        Some(self.members[(idx + self.stride) % k])
    }

    /// The ordered list of `(sender, receiver)` pairs this ring uses.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let k = self.len();
        (0..k).map(|i| (self.members[i], self.members[(i + self.stride) % k])).collect()
    }

    /// Walk the ring starting at member 0 and return the visit order.
    /// Only a full traversal if [`is_single_ring`](Self::is_single_ring).
    pub fn ring_order(&self) -> Vec<usize> {
        let k = self.len();
        let mut order = Vec::with_capacity(k);
        let mut idx = 0;
        for _ in 0..k {
            order.push(self.members[idx]);
            idx = (idx + self.stride) % k;
        }
        order
    }
}

/// Greatest common divisor.
pub fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Per-node bytes sent during a ring-AllReduce of a `total_bytes` buffer over
/// `k` participants: `2 * total_bytes * (k-1) / k`.
pub fn ring_bytes_per_node(total_bytes: f64, k: usize) -> f64 {
    if k <= 1 {
        0.0
    } else {
        2.0 * total_bytes * (k as f64 - 1.0) / k as f64
    }
}

/// Hops between consecutive ring neighbours for a ring-AllReduce that runs
/// over the +p permutation: `(sender, receiver)` for every member.
pub fn ring_neighbors(perm: &RingPermutation) -> Vec<(usize, usize)> {
    perm.edges()
}

/// Traffic matrix (over `n` global nodes) of one ring-AllReduce of
/// `total_bytes` over the permutation `perm`. Every member sends
/// `2·M·(k-1)/k` bytes to its ring successor.
pub fn ring_allreduce_traffic(n: usize, total_bytes: f64, perm: &RingPermutation) -> TrafficMatrix {
    let mut tm = TrafficMatrix::new(n);
    let k = perm.len();
    if k <= 1 {
        return tm;
    }
    let per_node = ring_bytes_per_node(total_bytes, k);
    for (src, dst) in perm.edges() {
        tm.add(src, dst, per_node);
    }
    tm
}

/// Traffic matrix of an AllReduce load-balanced over several ring
/// permutations (the TotientPerms technique, §4.3): the buffer is split
/// evenly across the permutations and each slice runs its own ring.
pub fn multi_ring_traffic(n: usize, total_bytes: f64, perms: &[RingPermutation]) -> TrafficMatrix {
    let mut tm = TrafficMatrix::new(n);
    if perms.is_empty() {
        return tm;
    }
    let share = total_bytes / perms.len() as f64;
    for p in perms {
        tm = tm.merged(&ring_allreduce_traffic(n, share, p));
    }
    tm
}

/// Relabel a permutation's members by another permutation of the group —
/// the graph-isomorphism view of mutability (Appendix A): the resulting
/// collective completes in the same time.
pub fn relabel(perm: &RingPermutation, relabeling: &[usize]) -> RingPermutation {
    assert_eq!(perm.len(), relabeling.len());
    let members = relabeling.iter().map(|&i| perm.members[i]).collect();
    RingPermutation { members, stride: perm.stride }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn identity_group(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn plus_one_ring_sends_to_next() {
        let p = RingPermutation::new(identity_group(8), 1);
        assert!(p.is_single_ring());
        assert_eq!(p.successor(3), Some(4));
        assert_eq!(p.successor(7), Some(0));
        assert_eq!(p.successor(100), None);
    }

    #[test]
    fn stride_coprime_check_matches_figure7() {
        // n = 16: +1, +3, +7 are all valid single rings (Figure 7); +4 is not.
        for s in [1, 3, 7] {
            assert!(RingPermutation::new(identity_group(16), s).is_single_ring());
        }
        assert!(!RingPermutation::new(identity_group(16), 4).is_single_ring());
    }

    #[test]
    fn ring_order_visits_every_member_once_for_coprime_stride() {
        let p = RingPermutation::new(identity_group(12), 5);
        let mut order = p.ring_order();
        assert_eq!(order.len(), 12);
        order.sort_unstable();
        order.dedup();
        assert_eq!(order.len(), 12);
    }

    #[test]
    fn ring_bytes_match_2m_n_minus_1_over_n() {
        let b = ring_bytes_per_node(22.0e9, 16);
        // The §2.1 example: a 22 GB model over 16 servers produces ~41 GB of
        // AllReduce bytes per server (the paper rounds to 44 GB per heatmap
        // row which also counts both send directions of the pipelined ring).
        assert!(b > 40.0e9 && b < 42.0e9);
        assert_eq!(ring_bytes_per_node(10.0, 1), 0.0);
    }

    #[test]
    fn traffic_matrix_only_on_ring_edges() {
        let p = RingPermutation::new(identity_group(16), 3);
        let tm = ring_allreduce_traffic(16, 1.6e9, &p);
        assert_eq!(tm.nonzero_pairs(), 16);
        assert!(tm.get(0, 3) > 0.0);
        assert_eq!(tm.get(0, 1), 0.0);
        // Every member sends the same volume.
        assert!((tm.get(0, 3) - tm.get(5, 8)).abs() < 1e-6);
    }

    #[test]
    fn subgroup_allreduce_only_touches_members() {
        let p = RingPermutation::new(vec![2, 5, 9, 11], 1);
        let tm = ring_allreduce_traffic(16, 4.0e9, &p);
        assert_eq!(tm.nonzero_pairs(), 4);
        assert!(tm.get(2, 5) > 0.0);
        assert!(tm.get(11, 2) > 0.0);
        assert_eq!(tm.get(0, 1), 0.0);
    }

    #[test]
    fn multi_ring_splits_volume_conservatively() {
        let perms: Vec<RingPermutation> =
            [1usize, 3, 7].iter().map(|&s| RingPermutation::new(identity_group(16), s)).collect();
        let single = ring_allreduce_traffic(16, 3.0e9, &perms[0]);
        let multi = multi_ring_traffic(16, 3.0e9, &perms);
        // Same total volume, spread over 3x as many pairs.
        assert!((multi.total() - single.total()).abs() < 1.0);
        assert_eq!(multi.nonzero_pairs(), 48);
        assert!(multi.max_entry() < single.max_entry());
    }

    #[test]
    fn relabel_preserves_volume_and_stride() {
        let p = RingPermutation::new(identity_group(8), 1);
        let relabeling: Vec<usize> = vec![3, 2, 1, 0, 7, 6, 5, 4];
        let q = relabel(&p, &relabeling);
        assert_eq!(q.stride, 1);
        let tp = ring_allreduce_traffic(8, 1.0e6, &p);
        let tq = ring_allreduce_traffic(8, 1.0e6, &q);
        assert!((tp.total() - tq.total()).abs() < 1e-6);
        assert_eq!(tp.nonzero_pairs(), tq.nonzero_pairs());
    }

    proptest! {
        #[test]
        fn total_ring_traffic_is_k_times_per_node(
            k in 2usize..64, bytes in 1.0e3f64..1.0e10
        ) {
            let p = RingPermutation::new((0..k).collect(), 1);
            let tm = ring_allreduce_traffic(k, bytes, &p);
            let expected = ring_bytes_per_node(bytes, k) * k as f64;
            prop_assert!((tm.total() - expected).abs() / expected < 1e-9);
        }

        #[test]
        fn coprime_strides_always_single_ring(k in 2usize..128) {
            for s in 1..k {
                let p = RingPermutation::new((0..k).collect(), s);
                prop_assert_eq!(p.is_single_ring(), gcd(s, k) == 1);
                if gcd(s, k) == 1 {
                    let mut order = p.ring_order();
                    order.sort_unstable();
                    order.dedup();
                    prop_assert_eq!(order.len(), k);
                }
            }
        }
    }
}
