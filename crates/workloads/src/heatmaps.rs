//! Traffic heatmap generation (Figures 1, 4, 8 and 9).

use topoopt_collectives::ring::{multi_ring_traffic, ring_allreduce_traffic, RingPermutation};
use topoopt_graph::TrafficMatrix;
use topoopt_models::zoo::build_dlrm;
use topoopt_models::DlrmConfig;
use topoopt_strategy::{extract_traffic, ParallelizationStrategy};

/// Figure 1a: the §2.1 DLRM under pure data parallelism on `n` servers —
/// a single ring-AllReduce of the whole model.
pub fn dlrm_pure_dp_heatmap(n: usize) -> TrafficMatrix {
    let model = build_dlrm(&DlrmConfig::motivating_example());
    let strategy = ParallelizationStrategy::pure_data_parallel(&model, n);
    let demands = extract_traffic(&model, &strategy, 1);
    let mut tm = demands.mp.clone();
    for g in &demands.allreduce_groups {
        let perm = RingPermutation::new(g.members.clone(), 1);
        tm = tm.merged(&ring_allreduce_traffic(n, g.bytes, &perm));
    }
    tm
}

/// Figure 1b / 8: the same DLRM under the Meta hybrid placement, with the
/// AllReduce laid on the +`stride` ring permutation.
pub fn dlrm_hybrid_heatmap(n: usize, stride: usize) -> TrafficMatrix {
    let model = build_dlrm(&DlrmConfig::motivating_example());
    let strategy = ParallelizationStrategy::meta_dlrm_example(&model, n);
    let demands = extract_traffic(&model, &strategy, 1);
    let mut tm = demands.mp.clone();
    for g in &demands.allreduce_groups {
        let perm = RingPermutation::new(g.members.clone(), stride);
        tm = tm.merged(&ring_allreduce_traffic(n, g.bytes, &perm));
    }
    tm
}

/// Figure 9b: the hybrid DLRM with its AllReduce load-balanced over several
/// ring permutations simultaneously (TopoOpt's TotientPerms layout).
pub fn topoopt_combined_heatmap(n: usize, strides: &[usize]) -> TrafficMatrix {
    let model = build_dlrm(&DlrmConfig::motivating_example());
    let strategy = ParallelizationStrategy::meta_dlrm_example(&model, n);
    let demands = extract_traffic(&model, &strategy, 1);
    let mut tm = demands.mp.clone();
    for g in &demands.allreduce_groups {
        let perms: Vec<RingPermutation> =
            strides.iter().map(|&s| RingPermutation::new(g.members.clone(), s)).collect();
        tm = tm.merged(&multi_ring_traffic(n, g.bytes, &perms));
    }
    tm
}

/// Figure 4: a production-style heatmap — a dominant ring diagonal (the
/// AllReduce collective) plus a few model-dependent rows/columns of MP
/// traffic from servers hosting model-parallel operators.
pub fn production_style_heatmap(
    n: usize,
    mp_hosts: &[usize],
    ring_gb: f64,
    mp_gb: f64,
) -> TrafficMatrix {
    let mut tm = TrafficMatrix::new(n);
    let perm = RingPermutation::new((0..n).collect(), 1);
    tm = tm.merged(&ring_allreduce_traffic(n, ring_gb * 1.0e9, &perm));
    for &h in mp_hosts {
        for peer in 0..n {
            if peer != h {
                tm.add(h, peer, mp_gb * 1.0e9 / n as f64);
                tm.add(peer, h, mp_gb * 1.0e9 / n as f64);
            }
        }
    }
    tm
}

#[cfg(test)]
mod tests {
    use super::*;
    use topoopt_oracle::communication_degree;

    const GB: f64 = 1.0e9;

    #[test]
    fn pure_dp_heatmap_matches_figure1a_scale() {
        // Figure 1a: ~44 GB of AllReduce transfers per server pair on the
        // ring (2x the 22 GB model); our ring model gives ~2 * 22 * 15/16.
        let tm = dlrm_pure_dp_heatmap(16);
        let max = tm.max_entry() / GB;
        assert!(max > 35.0 && max < 50.0, "max entry = {max} GB");
        // Only the ring diagonal is populated.
        assert_eq!(tm.nonzero_pairs(), 16);
    }

    #[test]
    fn hybrid_heatmap_shrinks_max_transfer() {
        // Figure 1b: the hybrid strategy reduces the maximum transfer from
        // ~44 GB to the ~single-GB range.
        let dp = dlrm_pure_dp_heatmap(16);
        let hybrid = dlrm_hybrid_heatmap(16, 1);
        assert!(hybrid.max_entry() < dp.max_entry() / 5.0);
        // MP rows make the hybrid heatmap denser than the pure ring.
        assert!(hybrid.nonzero_pairs() > dp.nonzero_pairs());
    }

    #[test]
    fn permuting_the_ring_moves_allreduce_but_not_mp() {
        // Figure 8: the ring diagonal moves with the permutation, the MP
        // rows/columns stay put.
        let h1 = dlrm_hybrid_heatmap(16, 1);
        let h3 = dlrm_hybrid_heatmap(16, 3);
        assert!((h1.total() - h3.total()).abs() / h1.total() < 1e-9);
        // Ring edge (0 -> 1) exists under +1 but not under +3.
        assert!(h1.get(0, 1) > h3.get(0, 1));
        assert!(h3.get(0, 3) > h1.get(0, 3) * 0.99);
        // MP traffic from table host 0 to a non-adjacent server is identical.
        assert!((h1.get(0, 5) - h3.get(0, 5)).abs() < 1.0);
    }

    #[test]
    fn combined_heatmap_is_more_balanced() {
        // Figure 9: overlapping the three permutations spreads the AllReduce
        // bytes, lowering the maximum entry versus a single ring.
        let single = dlrm_hybrid_heatmap(16, 1);
        let combined = topoopt_combined_heatmap(16, &[1, 3, 7]);
        assert!(combined.max_entry() < single.max_entry());
        assert!((combined.total() - single.total()).abs() / single.total() < 1e-9);
    }

    #[test]
    fn production_heatmap_has_ring_and_mp_structure() {
        let tm = production_style_heatmap(48, &[0, 11], 2.0, 0.5);
        // Ring diagonal present.
        assert!(tm.get(5, 6) > 0.0);
        // MP host talks to everyone.
        assert_eq!(communication_degree(&tm, 11), 47);
        // A plain server only talks to its ring neighbours and the MP hosts.
        assert_eq!(communication_degree(&tm, 20), 4);
    }
}
